"""Scene-to-certified-output benchmark of curveblinds.

Usage, from the root of a curveblinds checkout:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job (``construct`` then
``render``, see jobs.py) starts when the previous one has finished. A run

1. times set-up in fresh interpreters (setup_probe.py) and takes the median;
2. runs one warm-up pass that checks every job's files in full and records
   their sha256 values;
3. runs passes over the workload's jobs, in an order drawn from ``--seed``,
   until ``--seconds`` have passed; every job's files must hash as in the
   warm-up pass.

Every time metric is scaled to a reference machine speed measured by a
calibration kernel around each job and set-up sample (see ``normalised``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced jobs and the tracing overhead. The last line of stdout is one JSON
object; the lines before it name every metric with its unit and sample
count. Per-job records go to ``.perfbench_out/``, spans of a traced run to
``.perfbench_out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from jobs import (
    BENCH_DIR,
    OUT,
    TAIL_PERCENTILE,
    WORKLOADS,
    ProgramMissing,
    check_outputs,
    check_program,
    import_program,
    output_hashes,
    run_job,
    scene_source,
)
from tracing import Tracer, layer_metrics, wall_time_errors

SETUP_SAMPLES = 11
JOB_TIMEOUT_S = 30.0
# No job starts after this many seconds and none runs past it, so that a run
# with a hanging job still ends within three minutes.
RUN_BUDGET_S = 150.0
# Time of one calibration unit on the reference machine (2-core x86-64 VM,
# 2.0 GHz, Python 3.11, numpy 2.4: its median under typical load); see
# normalise().
CALIBRATION_REFERENCE_S = 0.0025
CALIBRATION_SHARE = 0.1

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "small_worst_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith(("bytes", "bytes_written")):
        return "B/job"
    return "count/job"


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job exceeded its time limit")


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil(n p / 100)
    return sorted_values[int(rank) - 1], len(sorted_values) - int(rank)


def calibration_unit() -> float:
    """Seconds for a fixed mix of interpreter work and numpy array work."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(15000):
        total += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 16384)
    for _ in range(12):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def calibrate(min_seconds: float) -> list[float]:
    units = [calibration_unit()]
    while sum(units) < min_seconds:
        units.append(calibration_unit())
    return units


def normalised(seconds: float, units: list[float]) -> float:
    """``seconds`` measured between calibration ``units``, scaled to the
    reference machine speed.

    The machine is shared: its speed drifts by tens of percent over seconds
    to minutes without the process being descheduled, and the drift moves
    the calibration kernel and the jobs together. Calibration runs right
    before and right after each measured interval, for about
    CALIBRATION_SHARE of its length. Raw times stay in the results file.
    """
    return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(units)


def setup_samples(sources: list[str]) -> list[dict]:
    """Set-up seconds in SETUP_SAMPLES fresh interpreters, raw and normalised."""
    samples, before = [], calibrate(0.02)
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *sources],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(proc.stdout.split()[-1])
        after = calibrate(0.02)
        samples.append({"s": seconds, "norm_s": normalised(seconds, before + after)})
        before = after
    return samples


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.jobs = WORKLOADS[workload]
        self.work = OUT / f"work-{workload}-seed{seed}-trace{int(trace)}"
        self.tracer = Tracer()
        self.records: list[dict] = []
        self.reference: dict[str, dict[str, str]] = {}
        self.started = time.perf_counter()

    def run_one(self, job, source: str, pass_index: int, traced: bool) -> dict:
        """Run one job and check its outputs; ``pass_index`` -1 is the warm-up."""
        record = {"job": job.name, "pass": pass_index, "traced": traced, "error": None}
        if traced:
            record["trace_job"] = f"{pass_index}:{job.name}"
        self.records.append(record)
        budget = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if budget <= 0:
            record.update(wall_s=0.0, error="timeout: run budget spent before the job started")
            return record
        out_dir = self.work / job.name
        gc.collect()  # every job starts from a collected heap, not the last job's garbage
        signal.setitimer(signal.ITIMER_REAL, min(JOB_TIMEOUT_S, budget))
        start = time.perf_counter()
        try:
            with self.tracer.job(record["trace_job"]) if traced else nullcontext():
                epsilon, report = run_job(self.curveblinds, source, job.rigorous, out_dir)
        except JobTimeout as exc:
            record["error"] = f"timeout: {exc}"
        except Exception:  # any failure of the program is a failed job
            record["error"] = traceback.format_exc(limit=4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["wall_s"] = time.perf_counter() - start
        if record["error"] is not None:
            return record
        record["pieces"] = report["pieces"]
        record["small_ratio"] = report["small"]["worst_value"] / epsilon
        record["sha256"] = hashes = output_hashes(out_dir)
        if not report["pass"]:
            record["error"] = "report has pass: false"
        elif pass_index < 0:
            problems = check_outputs(out_dir, epsilon)
            if problems:
                record["error"] = "; ".join(problems)
            self.reference[job.name] = hashes
        elif hashes != self.reference.get(job.name):
            record["error"] = "output bytes differ from the warm-up run"
        return record

    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        sources = {job: scene_source(job, self.work / "scenes") for job in self.jobs}
        self.curveblinds = import_program()
        self.setup = setup_samples(sorted(set(sources.values())))
        signal.signal(signal.SIGALRM, _on_alarm)
        for job in self.jobs:
            self.run_one(job, sources[job], -1, False)
        rng = random.Random(self.seed)
        self.orders = []
        min_passes = 2 if self.trace else 1
        timed_start = time.perf_counter()
        while len(self.orders) < min_passes or time.perf_counter() - timed_start < self.seconds:
            if time.perf_counter() - self.started > RUN_BUDGET_S:
                break
            order = list(self.jobs)
            rng.shuffle(order)
            pass_index = len(self.orders)
            self.orders.append([job.name for job in order])
            traced = self.trace and pass_index % 2 == 1
            if traced:
                self.tracer.install()
            try:
                before = calibrate(0.01)
                for job in order:
                    record = self.run_one(job, sources[job], pass_index, traced)
                    after = calibrate(max(0.01, CALIBRATION_SHARE * record["wall_s"]))
                    record["norm_wall_s"] = normalised(record["wall_s"], before + after)
                    before = after
            finally:
                if traced:
                    self.tracer.uninstall()

    def timed(self, traced: bool) -> list[dict]:
        return [r for r in self.records if r["pass"] >= 0 and r["traced"] == traced]

    def jobs_per_s(self, traced: bool) -> tuple[float, str]:
        """Certified jobs per second of job time, at reference speed."""
        timed = self.timed(traced)
        done = sum(r["error"] is None for r in timed)
        busy = sum(r["norm_wall_s"] for r in timed)
        rate = done / busy if busy > 0 else 0.0
        return rate, f"{done} jobs in {busy:.1f} s of job time"

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Metric name -> (value, how many samples it rests on)."""
        walls = sorted(r["norm_wall_s"] for r in self.timed(False) if r["error"] is None)
        p = TAIL_PERCENTILE[self.workload]
        tail_value, above = percentile(walls, p) if walls else (0.0, 0)
        ratios = [r["small_ratio"] for r in self.records if "small_ratio" in r]
        return {
            "jobs_per_s": self.jobs_per_s(False),
            "job_p50_s": (percentile(walls, 50)[0] if walls else 0.0,
                          f"p50 of {len(walls)} jobs"),
            "job_tail_s": (tail_value, f"p{p} of {len(walls)} jobs, {above} above it"),
            "setup_s": (statistics.median(x["norm_s"] for x in self.setup),
                        f"median of {len(self.setup)} fresh interpreters"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "peak of 1 process"),
            "small_worst_ratio": (max(ratios) if ratios else 0.0,
                                  f"max over {len(ratios)} jobs"),
        }

    def traced_jobs(self) -> dict[str, dict]:
        return {r["trace_job"]: r for r in self.records if r["traced"]}

    def trace_errors(self) -> list[str]:
        walls = {job: r["wall_s"] for job, r in self.traced_jobs().items()}
        return wall_time_errors(self.tracer.spans, walls)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, with span times scaled per job as the job's own
        wall time is."""
        scale = {job: r["norm_wall_s"] / r["wall_s"] if r["wall_s"] > 0 else 1.0
                 for job, r in self.traced_jobs().items()}
        out = {
            name: (value, f"mean over {len(scale)} traced jobs")
            for name, value in layer_metrics(self.tracer.spans, scale).items()
        }
        (untraced, n_untraced), (traced, n_traced) = self.jobs_per_s(False), self.jobs_per_s(True)
        out["trace.overhead_jobs_per_s"] = (
            untraced - traced, f"untraced ({n_untraced}) minus traced ({n_traced})")
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the job order within each pass; nothing else")
    parser.add_argument("--seconds", type=int, default=30,
                        help="length of the timed phase; one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # One core for the run and the set-up probes it starts: the calibration
    # then measures the core the work runs on, and no job migrates mid-run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    errors = run.trace_errors()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    failed = [r for r in run.records if r["error"] is not None]
    correct = not failed and not errors

    OUT.mkdir(exist_ok=True)
    if args.trace:
        run.tracer.dump(OUT / f"trace-{args.workload}.json")
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(run.records),
        "setup_samples": run.setup,
        "pass_orders": run.orders,
        "jobs": run.records,
        "trace_errors": errors,
        "metrics": {
            name: {"value": value, "unit": layer_unit(name) if args.trace else END_TO_END_UNITS[name],
                   "samples": samples}
            for name, (value, samples) in metrics.items()
        },
    }
    results_path = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n")

    for r in failed[:5]:
        print(f"FAILED {r['job']} pass {r['pass']}: {r['error'].strip()}", file=sys.stderr)
    for e in errors[:5]:
        print(f"TRACE {e}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(run.records) - len(failed)}/{len(run.records)} jobs certified  "
          f"failed_frac {results['failed_frac']:g}  results {results_path.relative_to(OUT.parent)}")
    timed = [r for r in run.records if "norm_wall_s" in r]
    print(f"  times scaled to reference speed; raw/scaled job time "
          f"{sum(r['wall_s'] for r in timed) / sum(r['norm_wall_s'] for r in timed):.4f}")
    for name, m in results["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<9} {m['samples']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in results["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
