"""Workload definitions and the job that every workload repeats.

A job is what a user runs to get certified output for one scene: the CLI's
``construct`` (load the scene, build, certify, write ``blindset.json`` and
``report.json``) followed by its ``render`` of the written blind set to SVG.
``construct`` does not write the SVG itself, so the job renders it explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Job:
    scene: str
    eps: float | None  # None: the scene's shipped epsilon
    rigorous: bool = False

    @property
    def name(self) -> str:
        eps = "" if self.eps is None else f"@{self.eps:g}"
        return f"{self.scene}{eps}{'-rigorous' if self.rigorous else ''}"


# Why each workload exists, and which layers it stresses, is in README.md.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "bundled": (Job("Q1", None), Job("P1", None), Job("E1", None)),
    "fine": (Job("P1", 0.015), Job("E1", 0.01), Job("Q1", 0.02)),
    "rigorous": tuple(
        Job(scene, eps, rigorous=True)
        for scene in ("Q1", "P1", "E1")
        for eps in (None, 0.03)
    ),
}

# The percentile job_tail_s reports: the highest that keeps at least ten jobs
# above it in a run of the declared length. It is fixed per workload because
# a workload's jobs differ in size: a percentile that moved with the job
# count would jump between job types when a run completes one pass more.
# A fine run completes about 27 jobs, so its tail is its median.
TAIL_PERCENTILE = {"bundled": 90, "fine": 50, "rigorous": 75}


class ProgramMissing(RuntimeError):
    """The checkout does not hold the curveblinds sources."""


def check_program() -> None:
    if not (SRC / "curveblinds" / "__init__.py").is_file():
        raise ProgramMissing("src/curveblinds not found; run from a curveblinds checkout")


def import_program():
    """Import curveblinds from this checkout's sources, never from elsewhere.

    The target machine has two cores: numpy's BLAS/OpenMP pools are pinned to
    one thread (also for child processes) so the one benchmark client owns
    one core.
    """
    check_program()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curveblinds
    import curveblinds.cli
    import curveblinds.scene

    if Path(curveblinds.__file__).resolve().parent != (SRC / "curveblinds").resolve():
        raise ProgramMissing(f"imported curveblinds from {curveblinds.__file__}, not {SRC}")
    return curveblinds


def scene_source(job: Job, scene_dir: Path) -> str:
    """The ``--scene`` argument for a job: a bundled id, or a written scene file.

    A job with its own epsilon gets the bundled scene JSON with only
    ``epsilon`` replaced, written once into ``scene_dir``.
    """
    if job.eps is None:
        return job.scene
    path = scene_dir / f"{job.scene.lower()}-eps{job.eps:g}.json"
    if not path.exists():
        bundled = SRC / "curveblinds" / "scenes" / f"{job.scene.lower()}.json"
        data = json.loads(bundled.read_text())
        data["epsilon"] = job.eps
        scene_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def run_job(curveblinds, source: str, rigorous: bool, out_dir: Path) -> tuple[float, dict]:
    """``construct`` then ``render``, as the CLI does.

    Returns the scene's epsilon and the report dict ``construct`` wrote.

    Calls go through module attributes so that tracing wrappers apply.
    """
    spec = curveblinds.scene.load_scene(source)
    _, report = curveblinds.cli.run_construct(spec, out_dir, rigorous=rigorous)
    spec = curveblinds.scene.load_scene(source)
    curveblinds.cli.run_render(spec, out_dir / "blindset.json", out_dir / "figure.svg")
    return spec.epsilon, report


OUTPUT_FILES = ("blindset.json", "report.json", "figure.svg")


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }


def check_outputs(out_dir: Path, epsilon: float) -> list[str]:
    """Full check of a job's written files; returns the problems found."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text())
    blindset = json.loads((out_dir / "blindset.json").read_text())
    if report.get("pass") is not True:
        problems.append("report.json has pass != true")
    if report.get("pieces") != len(blindset.get("segments", ())):
        problems.append(
            f"report pieces {report.get('pieces')} != "
            f"{len(blindset.get('segments', ()))} segments in blindset.json"
        )
    if not report["small"]["worst_value"] < epsilon:
        problems.append(f"small.worst_value {report['small']['worst_value']} >= epsilon {epsilon}")
    svg = (out_dir / "figure.svg").read_text()
    if not (svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("figure.svg is not a complete <svg> document")
    return problems
