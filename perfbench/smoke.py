"""Smoke check of the benchmark itself.

Checks BENCHMARK.json against the benchmark contract's limits, then runs one
timed pass of every workload with tracing off and on and checks that the
printed result has the required keys and exactly the metric names and units
BENCHMARK.json declares. Last, it runs the benchmark in a directory that holds
only BENCHMARK.json and perfbench/, where it must fail without a result.
Prints every metric of every workload with its unit and sample count.
Usage, from the root of a checkout: ``python3 perfbench/smoke.py``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

from jobs import BENCH_DIR, OUT, ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from jobs.WORKLOADS")
    names = []
    for section, fields in (("workloads", {"name", "why"}),
                            ("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for entry in spec[section]:
            names.append(entry["name"])
            if set(entry) != fields:
                problems.append(f"{section} {entry.get('name')}: keys {sorted(entry)}")
            if not NAME.fullmatch(entry["name"]):
                problems.append(f"{section} {entry['name']}: bad name")
            if "unit" in entry and not UNIT.fullmatch(entry["unit"]):
                problems.append(f"{section} {entry['name']}: bad unit")
            if "better" in entry and entry["better"] not in ("higher", "lower"):
                problems.append(f"{section} {entry['name']}: better must be higher or lower")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{section} {entry['name']}: bound must be in (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"workload {entry['name']}: why must be one line of <= 200 chars")
    if len(names) != len(set(names)):
        problems.append("names are not unique")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif bounds["setup_s"] < max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    return problems


def run_bench(cwd, workload: str, trace: int) -> tuple[int, str]:
    """One run with a zero-second timed phase, so one timed pass."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def check_result(stdout: str, declared: dict[str, str], nonzero: bool) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"metrics/units {printed} != BENCHMARK.json {declared}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            problems.append(f"{name}: {m}")
        elif nonzero and m["value"] == 0:
            problems.append(f"{name} is 0, so no relative bound can apply to it")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_bench(ROOT, workload, trace)
            if code != 0:
                problems.append(f"{workload} trace {trace}: exit code {code}")
                continue
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check_result(stdout, declared[trace], trace == 0)]
            print(stdout.rstrip().rsplit("\n", 1)[0])

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, stdout = run_bench(bare, next(iter(WORKLOADS)), 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        problems.append(f"without the program: exit code {code}, stdout {stdout[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
