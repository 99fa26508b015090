"""Byte identity of the construct and render outputs against reference hashes.

perfbench/README.md records the sha256 of every file that `construct` and
then `render` write for the bundled Q1, P1 and E1 scenes.  JOB_HASHES below
records them for the benchmark's fine and rigorous jobs.  A change that keeps
the output bytes keeps these values; a change that alters them on purpose
updates those tables.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from curveblinds.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "perfbench" / "README.md"
JOBS = ROOT / "perfbench" / "jobs.py"
SCENES = ROOT / "src" / "curveblinds" / "scenes"
FILES = ("blindset.json", "report.json", "figure.svg")

# job name: (scene, epsilon or None for the shipped one, --rigorous,
#            sha256 of blindset.json, report.json, figure.svg)
JOB_HASHES = {
    "P1@0.015": (
        "P1", 0.015, False,
        "2327c90554ea642e5678edee63a04b36b794545af148ed5e3d240550c2f21562",
        "f60b9d9e8e11bb7817ca3ef293e5025cca7c69f6851909010aa9817425cbd959",
        "41498acb6ccfe440aaacef57f1b02114564cc47d3c5f849fe22e3bc9d4c6a239",
    ),
    "E1@0.01": (
        "E1", 0.01, False,
        "0dd647a3cb4ea5bb0dc39eea773d2ed2388298d81c9584273b0967ed477d7ef3",
        "b664fd8746ba10ed50c0c7c522c48b6051baf55eadc5d59e2e0666d207ec2da1",
        "2a10385213df08b4e15bbbae1968753e6ebed6ff5f9dfbe9ea7688a5d2d31ad9",
    ),
    "Q1@0.02": (
        "Q1", 0.02, False,
        "dfccb904e94fe86d56b4d7478abf111c0b9a4ea5dd928302ced8678b2e430267",
        "bbeb5dc3cb714d7c11abf88794661d89d92b72de8ac7246bb503f32a72d50843",
        "753d9f23f3fa702b36bd5c7bd68e59125a1d31ccf73e89f5141167b5c6dc9c51",
    ),
    "Q1-rigorous": (
        "Q1", None, True,
        "386885e01a4e5ba9e06e52b5036997fa4e090f451e4caa722436426619d3708e",
        "98430562f6c0b073118350d726d256c6ef08b7624eaa3238dc36ede52fd65783",
        "2b5d564b815150db3d55a0acdb6c1139446f1d58e9d81c34f439514d81a20de1",
    ),
    "Q1@0.03-rigorous": (
        "Q1", 0.03, True,
        "6d1d8e1799e3459e5bcdf501b4f91142e62c82e4a0d0748279b05663f5ba4b8a",
        "e910add2bc01b934fb415c5f34ade097e0646465e9f54d9c787a0468306cc814",
        "fa0e6f90e01c934e9cdd924de261dcafcf78c18e908d65b1e2c7de319f56e649",
    ),
    "P1-rigorous": (
        "P1", None, True,
        "df8f906366d537a921977069aad89d670f29c12a41211d4d35ad61e24c5a17cc",
        "bb6e935c6febf76f6074627f7f6c1a37d62ab2c169c4c0285d1ca9f105c2258b",
        "f3dfb7cf5bec391c60532f997240222b09bf5b3330c2c2b87893dd6c02b54d4a",
    ),
    "P1@0.03-rigorous": (
        "P1", 0.03, True,
        "82641330ef9090f0710280653f041b1869b80ae9cc42b79544f499da0acdb863",
        "f57fdce2e3f8083b9e099b0d869f3c0276ebb6e7a2ca20287a0638caae21b7d7",
        "54c5be1627382f3388ae22e7df54d1384968cb10996fa994640fd5111cb99e55",
    ),
    "E1-rigorous": (
        "E1", None, True,
        "8aba2ca5805da2d9ce0f300bb79cf5b3bcae00089dd6cd3d045f4740a9291997",
        "f499ba5f70190ccfb79df9158f0f202495822569e2e6c45910d5ccc0e1a168b8",
        "6c5c0ebf83fafdbda0df3c74a1bd93a302b017ad186d8a205f852f7ae1434d54",
    ),
    "E1@0.03-rigorous": (
        "E1", 0.03, True,
        "72a49b7094a5f3d14f36187429521d6632847c00186eb88be64d92b1349bb67c",
        "933afc2a4d1e186337a4f894233eafee088c6595cbc14c056cdc5d6a3645b010",
        "cfe7404d0243479b10b5e4160073b150fe40347ee87510d11c3ad74b1b74a6cc",
    ),
}


def test_job_hashes_pin_every_fine_and_rigorous_job(monkeypatch):
    # the benchmark's job list, read from its module without running anything
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # dataclasses look their module up
    spec.loader.exec_module(jobs)
    benchmark = [job for workload in ("fine", "rigorous") for job in jobs.WORKLOADS[workload]]
    assert sorted(JOB_HASHES) == sorted(job.name for job in benchmark)
    for job in benchmark:
        assert JOB_HASHES[job.name][:3] == (job.scene, job.eps, job.rigorous), job.name


def _reference_hashes() -> dict[str, dict[str, str]]:
    """{file: {scene: sha256}} from the README's `| file | Q1 | P1 | E1 |` table."""
    table: dict[str, dict[str, str]] = {}
    scenes: list[str] = []
    for line in README.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if cells[0] == "file":
            scenes = cells[1:]
        elif scenes and cells[0] in FILES:
            table[cells[0]] = dict(zip(scenes, cells[1:]))
    return table


def _output_hashes(source: str, rigorous: bool, out: Path) -> dict[str, str]:
    """sha256 of each file `construct` then `render` write for a scene."""
    flags = ["--rigorous"] if rigorous else []
    assert main(["construct", "--scene", source, "--out", str(out), *flags]) == 0
    blindset, figure = str(out / "blindset.json"), str(out / "figure.svg")
    assert main(["render", "--scene", source, "--blindset", blindset, "--out", figure]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_bundled_outputs_match_reference_hashes(scene, tmp_path):
    reference = _reference_hashes()
    assert set(reference) == set(FILES)
    got = _output_hashes(scene, False, tmp_path)
    for name in FILES:
        assert got[name] == reference[name][scene], name


@pytest.mark.parametrize("job", list(JOB_HASHES))
def test_job_outputs_match_reference_hashes(job, tmp_path):
    scene, eps, rigorous, *expected = JOB_HASHES[job]
    source = scene
    if eps is not None:
        # the bundled scene with only its epsilon replaced, as the benchmark writes it
        data = json.loads((SCENES / f"{scene.lower()}.json").read_text())
        data["epsilon"] = eps
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        source = str(path)
    out = tmp_path / "out"
    got = _output_hashes(source, rigorous, out)
    assert got == dict(zip(FILES, expected))


def test_rigorous_failure_keeps_its_exit_code_and_bytes(tmp_path):
    # E1 at eps=0.02 certifies unshifted but not shifted: the run exits 1
    # after one attempt and still writes both files
    data = json.loads((SCENES / "e1.json").read_text())
    data["epsilon"] = 0.02
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    out = tmp_path / "out"
    assert main(["construct", "--scene", str(path), "--out", str(out), "--rigorous"]) == 1
    assert json.loads((out / "report.json").read_text())["pass"] is False
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES[:2]}
    assert got == {
        "blindset.json": "431f0e87bced9d00b8c401bec0d700a1dab706b7cd5b7bb0b759d19a26a774c7",
        "report.json": "2186d3a3ac373ad7b6ae81031a974b45dd7d1a7e520ae84a06c34c422e4d12e9",
    }
