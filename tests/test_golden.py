"""Byte identity of the bundled scenes' outputs against the benchmark's reference.

perfbench/README.md records the sha256 of every file that `construct` and
then `render` write for the bundled Q1, P1 and E1 scenes.  A change that keeps
the output bytes keeps these values; a change that alters them on purpose
updates that table.
"""

import hashlib
from pathlib import Path

import pytest

from curveblinds.cli import main

README = Path(__file__).resolve().parents[1] / "perfbench" / "README.md"
FILES = ("blindset.json", "report.json", "figure.svg")


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


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_bundled_outputs_match_reference_hashes(scene, tmp_path):
    reference = _reference_hashes()
    assert set(reference) == set(FILES)
    assert main(["construct", "--scene", scene, "--out", str(tmp_path)]) == 0
    blindset, figure = str(tmp_path / "blindset.json"), str(tmp_path / "figure.svg")
    assert main(["render", "--scene", scene, "--blindset", blindset, "--out", figure]) == 0
    for name in FILES:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == reference[name][scene], name
