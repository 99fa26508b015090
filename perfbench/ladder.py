"""Epsilon-ladder status sweep: which (scene, epsilon, mode) jobs certify.

Runs Q1, P1 and E1 at every epsilon of the ladder, in default and
``--rigorous`` mode, one job (``construct`` then ``render``) per child
process under a time limit and an address-space limit. Each job records
``{scene, eps, rigorous, pieces, wall_s, status}``; the status is
``certified``, ``uncertified`` (the report says ``pass: false``),
``error: <stage>`` or ``timeout``. The sweep is not gated: it makes known
hangs and failures recorded facts. Usage, from the root of a checkout:

    python3 perfbench/ladder.py

Results go to ``.perfbench_out/ladder.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time

from jobs import OUT, Job, import_program, run_job, scene_source

LADDER_SCENES = ("Q1", "P1", "E1")
LADDER_EPS = (0.05, 0.03, 0.02, 0.015, 0.01)
JOB_TIMEOUT_S = 60.0
ADDRESS_SPACE_LIMIT = 3 << 30  # bytes; a runaway job fails instead of exhausting memory


def work_dir(job: Job):
    return OUT / f"ladder-{job.name}"


def child(scene: str, eps: float, rigorous: bool) -> None:
    """Run one job in this process and print its record as JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    job = Job(scene, eps, rigorous)
    work = work_dir(job)
    curveblinds = import_program()
    record = {"scene": scene, "eps": eps, "rigorous": rigorous, "pieces": None}
    start = time.perf_counter()
    try:
        _, report = run_job(curveblinds, scene_source(job, work), rigorous, work)
        record["pieces"] = report["pieces"]
        record["status"] = "certified" if report["pass"] else "uncertified"
    except Exception as exc:  # recorded, not raised: the sweep goes on
        stage = getattr(exc, "stage", None) or type(exc).__name__
        record["status"] = f"error: {stage} ({exc})"[:300]
    record["wall_s"] = time.perf_counter() - start
    print(json.dumps(record))


def sweep() -> list[dict]:
    records = []
    for scene in LADDER_SCENES:
        for eps in LADDER_EPS:
            for rigorous in (False, True):
                args = [sys.executable, __file__, "--child", scene, repr(eps), str(int(rigorous))]
                start = time.perf_counter()
                try:
                    proc = subprocess.run(args, capture_output=True, text=True,
                                          timeout=JOB_TIMEOUT_S)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode == 0 and lines:
                        record = json.loads(lines[-1])
                    else:
                        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                        record = {"scene": scene, "eps": eps, "rigorous": rigorous,
                                  "pieces": None, "status": f"error: process ({tail})"[:300],
                                  "wall_s": time.perf_counter() - start}
                except subprocess.TimeoutExpired:
                    record = {"scene": scene, "eps": eps, "rigorous": rigorous,
                              "pieces": None, "status": "timeout", "wall_s": JOB_TIMEOUT_S}
                shutil.rmtree(work_dir(Job(scene, eps, rigorous)), ignore_errors=True)
                records.append(record)
                print(f"{scene} eps={eps:<6g} {'rigorous' if rigorous else 'default ':8} "
                      f"pieces={record['pieces']!s:>8} wall={record['wall_s']:8.2f}s "
                      f"{record['status']}", flush=True)
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        scene, eps, rigorous = args.child
        child(scene, float(eps), rigorous == "1")
        return 0
    records = sweep()
    OUT.mkdir(exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
