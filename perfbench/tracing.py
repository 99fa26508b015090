"""Spans around calls into curveblinds' public functions, recorded from outside.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
in every curveblinds module that holds the original, so calls made inside the
package (``keylemma`` calling ``check_small``, ``verify`` calling
``project_blinds``) are traced too. ``uninstall`` restores the originals.
Spans and counts stay in memory; ``dump`` writes them out at the end.

A span is ``[name, start, end, parent index, job id, count]``. Self time is a
span's duration minus its direct children's durations. Spans nest by
construction: the program is single-threaded, and each span is opened and
closed on one stack, closed in ``finally``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bytes_written(args, kwargs, result):
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    return sum(os.path.getsize(out_dir / f) for f in ("blindset.json", "report.json"))


# (module, function, count taken from (args, kwargs, result), count name)
LAYERS = (
    ("scene", "load_scene", None, None),
    ("curve", "builtin_curve", None, None),
    ("keylemma", "key_construction", None, None),
    ("keylemma", "polygon_approx", lambda a, k, r: len(r.tangency_params), "chain_segments"),
    ("keylemma", "compute_bands", None, None),
    ("blinds", "auto_vb_cover", lambda a, k, r: r[0], "blades"),
    ("blinds", "auto_iter_vb", lambda a, k, r: len(r), "pieces"),
    ("verify", "check_cover", lambda a, k, r: len(r.per_alpha), "alpha_points"),
    ("verify", "check_small", lambda a, k, r: len(r.per_alpha), "alpha_points"),
    ("measure", "project_blinds", lambda a, k, r: len(_arg(a, k, 2, "blinds")), "segments"),
    ("render", "render_svg", lambda a, k, r: len(r.encode()), "bytes"),
    ("cli", "run_construct", _bytes_written, "bytes_written"),
    ("cli", "run_render", None, None),
)

NAME, START, END, PARENT, JOB, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; every layer span of the job nests under it."""
        self._job = job_id
        record = self._open("job")
        try:
            yield
        finally:
            self._close(record)
            self._job = None

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "curveblinds" or n.startswith("curveblinds.")
        ]
        for module, func, count, _ in LAYERS:
            original = getattr(importlib.import_module(f"curveblinds.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, count)
            for m in modules:
                if getattr(m, func, None) is original:
                    setattr(m, func, wrapper)
                    self._patches.append((m, func, original))

    def uninstall(self) -> None:
        for m, func, original in reversed(self._patches):
            setattr(m, func, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job", "count"],
             "spans": self.spans},
            separators=(",", ":"),
        ))


def wall_time_errors(spans: list[list], walls: dict[str, float]) -> list[str]:
    """Traced jobs whose root span does not cover the job.

    ``walls`` maps each traced job id to the wall time the run measured
    around the job on its own. Self times sum to the root span's duration by
    definition, so a root span that matches the measured wall time makes the
    per-layer times add up to the job's wall time.
    """
    roots = {s[JOB]: s[END] - s[START] for s in spans if s[PARENT] is None}
    errors = []
    for job, wall in walls.items():
        root = roots.get(job)
        if root is None:
            errors.append(f"job {job}: no root span")
        elif not 0.0 <= wall - root <= max(1e-3, 0.01 * wall):
            errors.append(f"job {job}: root span {root:.6f} s, measured wall time {wall:.6f} s")
    return errors


def layer_metrics(spans: list[list], scale: dict[str, float]) -> dict[str, float]:
    """Per-job means of every per-layer metric over the traced jobs.

    ``scale`` maps each traced job id to the factor that takes its raw times
    to reference machine speed; every span duration of the job is scaled by
    it, as the end-to-end times are.
    """
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    recertify = 0.0
    attempts = 0
    for s in spans:
        name, dur = s[NAME], (s[END] - s[START]) * scale[s[JOB]]
        busy[name] += dur
        self_s[name] += dur
        calls[name] += 1
        if s[PARENT] is not None:
            parent = spans[s[PARENT]][NAME]
            self_s[parent] -= dur
            if name in ("verify.check_cover", "verify.check_small") and parent == "cli.run_construct":
                recertify += dur
            if name == "verify.check_small" and parent == "keylemma.key_construction":
                attempts += 1
        if s[COUNT] is not None:
            counts[name] += s[COUNT]
    count_names = {f"{m}.{f}": c for m, f, _, c in LAYERS if c}
    per_job = {
        "job.wall_s": busy["job"],
        "scene.load_scene.busy_s": busy["scene.load_scene"],
        "curve.builtin_curve.calls": calls["curve.builtin_curve"],
        "curve.builtin_curve.busy_s": busy["curve.builtin_curve"],
        "keylemma.key_construction.calls": calls["keylemma.key_construction"],
        "keylemma.key_construction.self_s": self_s["keylemma.key_construction"],
        "keylemma.key_construction.attempts": attempts,
        "keylemma.polygon_approx.calls": calls["keylemma.polygon_approx"],
        "keylemma.polygon_approx.busy_s": busy["keylemma.polygon_approx"],
        "keylemma.compute_bands.calls": calls["keylemma.compute_bands"],
        "keylemma.compute_bands.busy_s": busy["keylemma.compute_bands"],
        "blinds.auto_vb_cover.calls": calls["blinds.auto_vb_cover"],
        "blinds.auto_vb_cover.busy_s": busy["blinds.auto_vb_cover"],
        "blinds.auto_iter_vb.calls": calls["blinds.auto_iter_vb"],
        "blinds.auto_iter_vb.busy_s": busy["blinds.auto_iter_vb"],
        "verify.check_cover.self_s": self_s["verify.check_cover"],
        "verify.check_small.self_s": self_s["verify.check_small"],
        "verify.recertify.busy_s": recertify,
        "measure.project_blinds.calls": calls["measure.project_blinds"],
        "measure.project_blinds.busy_s": busy["measure.project_blinds"],
        "render.render_svg.busy_s": busy["render.render_svg"],
        "cli.run_construct.self_s": self_s["cli.run_construct"],
        "cli.run_render.self_s": self_s["cli.run_render"],
    }
    for name, count in count_names.items():
        per_job[f"{name}.{count}"] = counts[name]
    out = {k: v / max(1, len(scale)) for k, v in per_job.items()}
    busy_proj = busy["measure.project_blinds"]
    out["measure.project_blinds.segments_per_s"] = (
        counts["measure.project_blinds"] / busy_proj if busy_proj > 0 else 0.0
    )
    return out
