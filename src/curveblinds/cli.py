"""Command-line entry point: construct, render, checks, duality.

All outputs (blindset.json, report.json, figure.svg) are deterministic
functions of the scene inputs; JSON is written with sorted keys and stable
float formatting so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .blinds import BlindSet, ConstructionError, _lengths, iter_vb, vb
from .curve import builtin_curve, diff_interval, project_disk
from .duality import LineParam, similarity_residual
from .geometry import Disk, Point, Segment
from .keylemma import key_construction
from .measure import FiberArc
from .projline import CCW, angle_schedule, dist
from .render import render_svg
from .scene import SceneError, SceneSpec, load_scene
from .verify import gradient_check, law_of_sines_check

CHECK_SUITES = ("rotation", "projection", "duality", "all")


#: Rows per %-format call when writing a float matrix or a record array.
_BLOCK_ROWS = 1024


def _dump_json(data: dict, path: Path) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, row by row.

    Float matrices (2-D float arrays) and record arrays (1-D structured
    arrays of float or bool fields, like the per-alpha rows of a report,
    written as a list of objects) are written with one %-template per row:
    "%r" is float.__repr__, which is how json writes a finite float; a bool
    field and a float field holding a non-finite value are written as their
    cells' JSON text.  Every other value goes through json.dumps, re-indented
    to its depth.  Dict keys must be strings.
    """
    with path.open("w") as fh:
        fh.writelines(_json_chunks(data, ""))
        fh.write("\n")


def _json_chunks(value: object, indent: str) -> Iterator[str]:
    """The indent=2 JSON text of value, whose first line sits at ``indent``."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key in sorted(value):
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value[key], inner)
            sep = ",\n"
        yield f"\n{indent}}}"
        return
    if (
        isinstance(value, np.ndarray)
        and value.ndim == 2
        and value.dtype.kind == "f"
        and value.size
        and np.isfinite(value).all()
    ):
        row = f"{inner}[\n" + ",\n".join([f"{inner}  %r"] * value.shape[1]) + f"\n{inner}]"
        yield from _row_chunks(
            row, len(value), lambda lo, hi: value[lo:hi].ravel().tolist(), indent
        )
        return
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.names and value.size:
        fields, columns = [], []
        for name in sorted(value.dtype.names):
            col = value[name]
            if col.dtype.kind == "b":
                slot, cells = "%s", ["true" if v else "false" for v in col.tolist()]
            elif np.isfinite(col).all():
                slot, cells = "%r", col.tolist()
            else:
                slot, cells = "%s", [json.dumps(v) for v in col.tolist()]
            fields.append(f"{inner}  {json.dumps(name).replace('%', '%%')}: {slot}")
            columns.append(cells)
        row = f"{inner}{{\n" + ",\n".join(fields) + f"\n{inner}}}"
        flat = [v for cells in zip(*columns) for v in cells]
        width = len(columns)
        yield from _row_chunks(
            row, len(value), lambda lo, hi: flat[lo * width : hi * width], indent
        )
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
    yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _row_chunks(
    row: str, n: int, cells: Callable[[int, int], list], indent: str
) -> Iterator[str]:
    """A JSON list of n items; item i is ``row % tuple(its cells)``."""
    yield "[\n"
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(n, lo + _BLOCK_ROWS)
        block = ",\n".join([row] * (hi - lo)) % tuple(cells(lo, hi))
        yield block if lo == 0 else ",\n" + block
    yield f"\n{indent}]"


def run_construct(
    spec: SceneSpec, out_dir: Path, rigorous: bool = False
) -> tuple[dict, dict]:
    """Run the key construction for a scene; write blindset.json, report.json."""
    start = time.perf_counter()
    result = key_construction(
        spec.curve(),
        spec.y,
        spec.subrange,
        spec.a_small(),
        spec.a_cover(),
        spec.epsilon,
        spec.delta,
        caps=spec.caps,
        scene_id=spec.scene_id,
        rigorous=rigorous,
    )
    elapsed = time.perf_counter() - start
    cover_report = result.cover_report
    small_report = result.small_report
    passed = cover_report.passed and small_report.passed
    if rigorous:
        passed = passed and cover_report.padding > 0.0 and small_report.padding > 0.0
    blind_json = result.blinds.to_json_dict()
    blind_json["scene"] = spec.to_json_dict()
    report = {
        "scene_id": spec.scene_id,
        "pass": passed,
        "rigorous": rigorous,
        "pieces": len(result.blinds),
        "total_length": result.blinds.total_length,
        # eps_used and delta_used stay for the pinned output bytes
        "eps_used": spec.epsilon,
        "delta_used": result.blinds.meta["delta"],
        "cover": cover_report.to_json_dict(),
        "small": small_report.to_json_dict(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(blind_json, out_dir / "blindset.json")
    _dump_json(report, out_dir / "report.json")
    report["elapsed_seconds"] = round(elapsed, 3)
    return blind_json, report


def run_render(spec: SceneSpec, blindset_path: Path, out_path: Path) -> str:
    """Render a constructed blind set (with its fiber arc) to an SVG file."""
    blinds = _read_blindset(spec, blindset_path)
    curve = spec.curve()
    arc = FiberArc(spec.y, spec.subrange[0], spec.subrange[1])
    alpha = sum(spec.a_cover_component) / 2.0
    svg = render_svg(curve, blinds, arc=arc, alpha=alpha, title=spec.scene_id)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg)
    return svg


#: The scene fields the figure draws; a blind set's scene block must match them.
_DRAWN_FIELDS = ("scene_id", "curve", "y", "subrange", "A_cover")


def _read_blindset(spec: SceneSpec, path: Path) -> BlindSet:
    """The blind set written at path, if it was built for spec.

    A missing segments field, segments that are not a nonempty (n, 4) array
    of finite numbers (a JSON boolean is not a number), a non-object meta,
    a provenance that is not a list of lists, or a scene block that differs
    from spec in a field the figure draws is rejected with a SceneError
    naming the field; a blind set without a scene block is accepted.  The
    parsed JSON tree is dropped on return, before rendering.
    """
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise SceneError(f"{path}: expected a JSON object")
    if "segments" not in data:
        raise SceneError(f"{path}: segments: missing field")
    try:
        segments = np.array(data["segments"])
    except ValueError:  # ragged rows
        segments = np.empty(0)
    shaped = segments.ndim == 2 and segments.shape[1] == 4 and len(segments) > 0
    numeric = shaped and segments.dtype.kind in "iuf" and np.isfinite(segments).all()
    if numeric:
        # numpy reads JSON true and false as 1 and 0, so only rows holding a
        # 0 or a 1 can hide one; their element types are scanned in C
        suspects = np.flatnonzero(((segments == 0) | (segments == 1)).any(axis=1))
        rows = map(data["segments"].__getitem__, suspects.tolist())
        numeric = {int, float}.issuperset(map(type, itertools.chain.from_iterable(rows)))
    if not numeric:
        raise SceneError(
            f"{path}: segments: expected a nonempty list of [ax, ay, bx, by] rows of finite numbers"
        )
    if not isinstance(data.get("meta", {}), dict):
        raise SceneError(f"{path}: meta: expected a JSON object")
    prov = data.get("provenance")
    if prov is not None and not (
        isinstance(prov, list) and all(isinstance(idx, list) for idx in prov)
    ):
        raise SceneError(f"{path}: provenance: expected a list of lists")
    built_for = data.get("scene")
    if built_for is not None:
        expected = spec.to_json_dict()
        for key in _DRAWN_FIELDS:
            got = built_for.get(key) if isinstance(built_for, dict) else None
            if got != expected[key]:
                raise SceneError(
                    f"{path}: scene.{key} is {got!r}, "
                    f"but the scene to render has {expected[key]!r}"
                )
    data["segments"] = segments
    return BlindSet.from_json_dict(data)


def _rotation_suite() -> list[tuple[str, bool, float, float]]:
    results = []
    worst = law_of_sines_check(trials=1000, seed=0)
    results.append(("law_of_sines_residual", worst < 1e-10, worst, 1e-10))

    # length of a divided-and-rotated family must not depend on the division
    seg = Segment(Point(0.0, 0.0), Point(1.0, 0.3))
    base = vb(seg, 1.2, 2.1, 1).total_length
    worst_len = max(
        abs(vb(seg, 1.2, 2.1, n).total_length - base) for n in (2, 3, 10, 100)
    )
    results.append(("divide_rotate_length_residual", worst_len < 1e-10, worst_len, 1e-10))

    # iterated construction: the leaves' total length follows the sine ratio
    # of the schedule's ends
    worst_tel = 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta0 = float(rng.uniform(0.3, 0.6))
        theta_small = float(rng.uniform(1.4, 1.8))
        theta_cover = float(rng.uniform(2.4, 2.8))
        m = int(rng.integers(2, 5))
        counts = [int(rng.integers(1, 4))] * m
        blinds = iter_vb(seg, theta_small, theta_cover, counts, chirality=CCW)
        schedule = angle_schedule(seg.direction, theta_small, m, CCW)
        total = sum(_lengths(blinds.coords).tolist())
        expected = (
            math.sin(dist(schedule[0], theta_cover))
            / math.sin(dist(schedule[m], theta_cover))
            * seg.length
        )
        worst_tel = max(worst_tel, abs(total - expected))
    results.append(("iterated_level_length_residual", worst_tel < 1e-10, worst_tel, 1e-10))
    return results


def _projection_suite() -> list[tuple[str, bool, float, float]]:
    results = []
    worst_grad = max(
        gradient_check(builtin_curve(name), samples=300, seed=0)
        for name in ("parabola", "quarter_circle", "exp")
    )
    results.append(("gradient_residual", worst_grad < 1e-5, worst_grad, 1e-5))

    curve = builtin_curve("parabola")
    subrange = (0.1, 0.9)
    worst_diff = 0.0
    ok_bound = True
    for s in np.linspace(-0.9, 0.9, 201):
        lo, hi = diff_interval(curve, subrange, float(s))
        width = hi - lo
        if width > curve.df_bound * abs(float(s)) + 1e-12:
            ok_bound = False
        worst_diff = max(worst_diff, width - curve.df_bound * abs(float(s)))
    for s_deg in (-0.9, 0.0, 0.9):  # extreme and zero shifts collapse I_s
        lo, hi = diff_interval(curve, subrange, s_deg)
        worst_diff = max(worst_diff, hi - lo)
        ok_bound = ok_bound and hi - lo < 1e-10
    results.append(("difference_interval_bound", ok_bound, worst_diff, 0.0))

    disk = Disk(Point(0.5, 0.2), 0.3)
    ok_disk = True
    for alpha in np.linspace(0.3, 1.2, 7):
        bot, top = project_disk(curve, float(alpha), disk)
        ok_disk = ok_disk and top > bot
    results.append(("disk_projection_interval", ok_disk, 0.0, 0.0))
    return results


def _duality_suite() -> list[tuple[str, bool, float, float]]:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = LineParam(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        c = float(rng.uniform(-10, 10))
        worst = max(worst, similarity_residual(p, c))
    return [("similarity_residual", worst < 1e-12, worst, 1e-12)]


def run_checks(suite: str) -> tuple[bool, list[str]]:
    """Run an invariant battery; returns (all passed, summary lines)."""
    if suite not in CHECK_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {CHECK_SUITES}")
    batteries = {
        "rotation": _rotation_suite,
        "projection": _projection_suite,
        "duality": _duality_suite,
    }
    names = [s for s in ("rotation", "projection", "duality") if suite in ("all", s)]
    lines = []
    all_ok = True
    for name in names:
        for label, ok, value, bound in batteries[name]():
            all_ok &= ok
            verdict = "PASS" if ok else "FAIL"
            lines.append(f"{verdict} {name}/{label}: value={value:.3e} bound={bound:.1e}")
    return all_ok, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="curveblinds",
        description="Constructions and certificates for curve-translate projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="run the key construction for a scene")
    p_con.add_argument("--scene", required=True, help="bundled scene id or JSON path")
    p_con.add_argument("--out", default="out", help="output directory")
    p_con.add_argument("--grid-alpha", type=int, default=None, help="alpha grid points")
    p_con.add_argument("--rigorous", action="store_true", help="require grid padding")

    p_ren = sub.add_parser("render", help="render a constructed blind set to SVG")
    p_ren.add_argument("--scene", required=True)
    p_ren.add_argument("--blindset", default=None, help="path to blindset.json")
    p_ren.add_argument("--out", default="figure.svg", help="output SVG path")

    p_chk = sub.add_parser("checks", help="run invariant batteries")
    p_chk.add_argument("suite", choices=CHECK_SUITES)

    p_dua = sub.add_parser("duality", help="run the duality residual sweep")

    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            spec = load_scene(args.scene)
            if args.grid_alpha is not None:
                # the override goes through the scene parser, like every scene field
                data = spec.to_json_dict()
                data["grids"]["alpha_points"] = args.grid_alpha
                spec = SceneSpec.from_json_dict(data)
            _, report = run_construct(spec, Path(args.out), rigorous=args.rigorous)
            print(
                f"{'PASS' if report['pass'] else 'FAIL'} construct [{spec.scene_id}]: "
                f"{report['pieces']} pieces in {report['elapsed_seconds']}s"
            )
            return 0 if report["pass"] else 1
        if args.command == "render":
            spec = load_scene(args.scene)
            blindset = Path(args.blindset or Path("out") / "blindset.json")
            out_path = Path(args.out)
            run_render(spec, blindset, out_path)
            print(f"wrote {out_path}")
            return 0
        if args.command == "checks":
            ok, lines = run_checks(args.suite)
            print("\n".join(lines))
            return 0 if ok else 1
        if args.command == "duality":
            ok, lines = run_checks("duality")
            print("\n".join(lines))
            return 0 if ok else 1
    except ConstructionError as exc:
        print(f"error (stage {exc.stage}): {exc}", file=sys.stderr)
        return 2
    except (SceneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's _ArrayMemoryError, a MemoryError, names the failed allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
