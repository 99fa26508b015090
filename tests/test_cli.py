"""Command-line interface: construct, render, checks, duality, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from curveblinds import cli, verify
from curveblinds.blinds import BlindSet, iter_vb, vb
from curveblinds.cli import _BLOCK_ROWS, _dump_json, main, run_checks, run_construct
from curveblinds.curve import builtin_curve
from curveblinds.geometry import Point, Segment
from curveblinds.measure import AlphaSet, FiberArc, project_blinds_grid, project_fiber_arc
from curveblinds.projline import CCW
from curveblinds.scene import SceneSpec, load_scene
from curveblinds.verify import VerificationReport, check_cover, check_small
from scalar_projection import records


def test_construct_writes_outputs(tmp_path):
    code = main(["construct", "--scene", "Q1", "--out", str(tmp_path)])
    assert code == 0
    blindset = json.loads((tmp_path / "blindset.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert report["scene_id"] == "Q1"
    assert report["pieces"] == len(blindset["segments"])
    assert blindset["scene"]["scene_id"] == "Q1"
    assert "elapsed_seconds" not in report  # timing must not break determinism
    assert report["cover"]["pass"] and report["small"]["pass"]


def test_construct_rigorous_reports_padding(tmp_path):
    code = main(["construct", "--scene", "Q1", "--out", str(tmp_path), "--rigorous"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rigorous"] is True
    assert report["cover"]["padding"] > 0.0
    assert report["small"]["padding"] > 0.0


def _off_grid(alphas, rng):
    """Midpoints and seeded random points strictly between grid neighbours."""
    grid = alphas.grid()
    starts, steps = np.tile(grid[:-1], 2), np.tile(np.diff(grid), 2)
    fractions = np.concatenate(
        [np.full(len(grid) - 1, 0.5), rng.uniform(0.01, 0.99, len(grid) - 1)]
    )
    points = (starts + fractions * steps).tolist()
    # a pair of neighbours across a gap between components brackets no alpha of the set
    return [a for a in points if alphas.contains_alpha(a)]


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_rigorous_certificates_hold_between_grid_points(scene, tmp_path):
    spec = load_scene(scene)
    blindset, report = run_construct(spec, tmp_path, rigorous=True)
    assert report["pass"]
    curve = spec.curve()
    blinds = BlindSet(blindset["segments"])
    arc = FiberArc(spec.y, *spec.subrange)  # the unpadded arc
    rng = np.random.default_rng(11)
    cover_alphas = _off_grid(spec.a_cover(), rng)
    targets = project_fiber_arc(curve, cover_alphas, arc)
    start = 0
    for proj in project_blinds_grid(curve, cover_alphas, blinds):
        covered = proj.inflate(1e-9).covers(targets.row_slice(start, start + proj.rows))
        assert covered.all(), cover_alphas[start + int(np.argmin(covered))]
        start += proj.rows
    small_alphas = _off_grid(spec.a_small(), rng)
    assert len(small_alphas) >= 2 * 199
    worst = max(p.measures().max() for p in project_blinds_grid(curve, small_alphas, blinds))
    assert worst < spec.epsilon


@pytest.mark.parametrize("points", [0, 1])
def test_segment_points_is_recorded_only(points, tmp_path):
    spec = load_scene("P1")
    reference, _ = run_construct(spec, tmp_path / "reference")
    blindset, report = run_construct(
        dataclasses.replace(spec, segment_points=points), tmp_path / "out"
    )
    assert report["pass"]
    assert np.array_equal(blindset["segments"], reference["segments"])
    assert blindset["scene"]["grids"]["segment_points"] == points


def test_construct_grid_alpha_override(tmp_path):
    spec = load_scene("Q1")
    _, report = run_construct(spec, tmp_path / "a")
    coarse = dataclasses.replace(spec, alpha_points=50)
    _, report2 = run_construct(coarse, tmp_path / "b")
    assert len(report["cover"]["per_alpha"]) > len(report2["cover"]["per_alpha"])


@pytest.mark.parametrize("points", ["1", "0", "-5"])
def test_construct_rejects_too_small_alpha_grid(points, tmp_path, capsys):
    code = main(["construct", "--scene", "Q1", "--grid-alpha", points, "--out", str(tmp_path)])
    assert code == 2
    assert "grids.alpha_points: expected an integer >= 2" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_construct_unknown_scene_exit_2(tmp_path, capsys):
    code = main(["construct", "--scene", "NOPE", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_render_produces_svg(tmp_path):
    assert main(["construct", "--scene", "Q1", "--out", str(tmp_path)]) == 0
    out = tmp_path / "figure.svg"
    code = main(
        [
            "render",
            "--scene",
            "Q1",
            "--blindset",
            str(tmp_path / "blindset.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    assert "<polyline" in svg


def test_render_escapes_the_scene_id_in_the_title(tmp_path):
    # the title is the scene's scene_id, written into the SVG as text
    data = load_scene("Q1").to_json_dict()
    data["scene_id"] = "Q1 <a&b>"
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data))
    assert main(["construct", "--scene", str(scene), "--out", str(tmp_path)]) == 0
    out = tmp_path / "figure.svg"
    args = ["--scene", str(scene), "--blindset", str(tmp_path / "blindset.json")]
    assert main(["render", *args, "--out", str(out)]) == 0
    root = ET.parse(out).getroot()
    (title,) = root.iter("{http://www.w3.org/2000/svg}text")
    assert title.text == "Q1 <a&b>"


def test_construct_and_render_use_utf8_under_an_ascii_locale(tmp_path):
    # a scene file, and a figure, holding a non-ASCII scene_id, in a process
    # whose locale encoding is ASCII
    data = load_scene("Q1").to_json_dict()
    data["scene_id"] = "Q1 \u00e9"
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env["PYTHONPATH"] = src
    out = tmp_path / "out"
    blindset, figure = out / "blindset.json", out / "figure.svg"
    runs = [
        ["construct", "--scene", str(scene), "--out", str(out)],
        ["render", "--scene", str(scene), "--blindset", str(blindset), "--out", str(figure)],
    ]
    for args in runs:
        done = subprocess.run(
            [sys.executable, "-m", "curveblinds.cli", *args], env=env, capture_output=True
        )
        assert done.returncode == 0, done.stderr
        if args[0] == "construct":  # stdout escapes what ASCII lacks
            assert b"PASS construct [Q1 \\xe9]" in done.stdout
    (title,) = ET.parse(figure).getroot().iter("{http://www.w3.org/2000/svg}text")
    assert title.text == "Q1 \u00e9"


def test_render_missing_blindset_exit_2(tmp_path):
    code = main(
        [
            "render",
            "--scene",
            "Q1",
            "--blindset",
            str(tmp_path / "missing.json"),
            "--out",
            str(tmp_path / "f.svg"),
        ]
    )
    assert code == 2


def test_construct_rejects_non_object_scene_field(tmp_path, capsys):
    scene = load_scene("Q1").to_json_dict()
    scene["grids"] = []
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main(["construct", "--scene", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: grids: expected a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_construct_rejects_a_scene_id_the_figure_cannot_carry(tmp_path, capsys):
    scene = load_scene("Q1").to_json_dict()
    scene["scene_id"] = "Q1\u0001"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main(["construct", "--scene", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: scene_id: U+0001 " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _render(scene: str, blindset, out) -> int:
    return main(["render", "--scene", scene, "--blindset", str(blindset), "--out", str(out)])


def test_render_rejects_a_blindset_built_for_another_scene(tmp_path, capsys):
    assert main(["construct", "--scene", "P1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    blindset, out = tmp_path / "blindset.json", tmp_path / "f.svg"
    assert _render("Q1", blindset, out) == 2
    assert "scene.scene_id" in capsys.readouterr().err
    assert not out.exists()
    # every drawn field is compared, each named in the error
    data = json.loads(blindset.read_text())
    drawn = {
        "curve": {"name": "exp"}, "y": [0.0, 0.0], "subrange": [0.2, 0.3], "A_cover": [1.0, 1.1]
    }
    for key, value in drawn.items():
        edited = json.loads(json.dumps(data))
        edited["scene"][key] = value
        path = tmp_path / f"edited-{key}.json"
        path.write_text(json.dumps(edited))
        assert _render("P1", path, out) == 2
        assert f"scene.{key} is " in capsys.readouterr().err
        assert not out.exists()


def test_render_accepts_overrides_and_a_blindset_without_scene(tmp_path):
    out = tmp_path / "f.svg"
    assert main(["construct", "--scene", "Q1", "--grid-alpha", "50", "--out", str(tmp_path)]) == 0
    assert _render("Q1", tmp_path / "blindset.json", out) == 0
    data = json.loads((tmp_path / "blindset.json").read_text())
    del data["scene"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    assert _render("P1", bare, out) == 0


def test_render_rejects_a_blindset_that_is_not_an_object(tmp_path, capsys):
    path, out = tmp_path / "list.json", tmp_path / "f.svg"
    path.write_text("[1, 2]")
    assert _render("Q1", path, out) == 2
    assert "expected a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "segments: missing field"),
        ({"segments": [[0, 0, 1, 1]], "meta": [1]}, "meta: expected a JSON object"),
        ({"segments": [[0, 0, 1, 1]], "provenance": [1]}, "provenance: expected a list"),
        (
            {"segments": [[0, 0, 1, 1]], "provenance": [[0], [1]]},
            "provenance: expected one entry per segment (1), got 2",
        ),
        ({"segments": [[0, 0, 1, 1], [0, 0, 1, math.nan]]}, "segments: expected a nonempty"),
        ({"segments": [[0, 0, 1, 1], [0, -math.inf, 1, 1]]}, "segments: expected a nonempty"),
        ({"segments": []}, "segments: expected a nonempty"),
        ({"segments": [[0, 0, 1, 1], [0, 0, 1]]}, "segments: expected a nonempty"),
        ({"segments": [0, 0, 1, 1]}, "segments: expected a nonempty"),
        ({"segments": [[0, 0, 1, "x"]]}, "segments: expected a nonempty"),
        ({"segments": [[0, 0, 1, "1"]]}, "segments: expected a nonempty"),
        ({"segments": [[0, 0, 1, None]]}, "segments: expected a nonempty"),
        # numpy reads true as 1, in an int or a float array
        ({"segments": [[0, 0, 1, True]]}, "segments: expected a nonempty"),
        ({"segments": [[0.0, 0.5, 1.0, True]]}, "segments: expected a nonempty"),
        ({"segments": [[0.0, 0.5, 1.0, 1.0], [0.25, 0.5, 0.75, True]]}, "segments: expected a nonempty"),
        ({"segments": [[0.0, 0.5, 1.0, 1.0], [False, 0.5, 1.0, 1.0]]}, "segments: expected a nonempty"),
    ],
    ids=[
        "no_segments", "meta_list", "provenance_ints", "provenance_length", "nan", "inf", "empty",
        "ragged", "flat", "text", "numeric_text", "null", "int_bool", "float_bool", "lone_bool",
        "float_false",
    ],
)
def test_render_rejects_a_malformed_blindset(data, field, tmp_path, capsys):
    path, out = tmp_path / "blindset.json", tmp_path / "f.svg"
    path.write_text(json.dumps(data))
    assert _render("Q1", path, out) == 2
    assert f"error: {path}: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_construct_names_the_failing_stage(tmp_path, capsys):
    # Q1 misses eps=0.015 on the smallness certificate; one attempt fails fast
    data = load_scene("Q1").to_json_dict()
    data["epsilon"] = 0.015
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data))
    start = time.perf_counter()
    code = main(["construct", "--scene", str(scene), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert "error (stage small): FAIL small [Q1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's error of the same name, a MemoryError subclass."""


@pytest.mark.parametrize(
    "error",
    [
        MemoryError(),
        _ArrayMemoryError("Unable to allocate 93.0 MiB for an array with shape (12189696,)"),
    ],
    ids=["bare", "numpy"],
)
def test_construct_out_of_memory_exits_2(error, monkeypatch, tmp_path, capsys):
    # the construction's memory error is raised here, not provoked
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "key_construction", exhausted)
    code = main(["construct", "--scene", "Q1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: construct ran out of memory") and err.count("\n") == 1
    assert str(error) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rigorous", [False, True])
def test_construct_projects_the_final_blinds_once_per_grid(monkeypatch, tmp_path, rigorous):
    projected = []  # blind sets of the key construction, once per projection pass
    original = verify.project_blinds_grid

    def counting(curve, alphas, blinds):
        if blinds.meta.get("kind") == "key_construction":
            projected.append(blinds)
        return original(curve, alphas, blinds)

    monkeypatch.setattr(verify, "project_blinds_grid", counting)
    _, report = run_construct(load_scene("E1"), tmp_path, rigorous=rigorous)
    assert report["pass"] is True
    assert len(projected) == 2 and projected[0] is projected[1]


def test_render_empty_blindset_exit_2(tmp_path, capsys):
    path = tmp_path / "blindset.json"
    path.write_text(json.dumps({"segments": [], "meta": {}}))
    out = tmp_path / "f.svg"
    code = main(["render", "--scene", "Q1", "--blindset", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _spec(scene: str, eps: float | None = None) -> SceneSpec:
    """The bundled scene, at eps if one is given."""
    data = load_scene(scene).to_json_dict()
    if eps is not None:
        data["epsilon"] = eps
    return SceneSpec.from_json_dict(data)


@pytest.mark.parametrize("scene, eps", [("Q1", None), ("P1", None), ("E1", None), ("P1", 0.015)])
def test_render_draws_the_sidecar_as_the_parsed_segments(scene, eps, tmp_path):
    spec = _spec(scene, eps)
    blindset = tmp_path / "blindset.json"
    run_construct(spec, tmp_path)
    raw = blindset.read_bytes()
    cached = cli._sidecar_segments(blindset, raw)
    assert cached is not None
    assert cached[0].tobytes() == np.array(json.loads(raw)["segments"]).tobytes()
    cli.run_render(spec, blindset, tmp_path / "hit.svg")
    (tmp_path / "blindset.f64").unlink()
    cli.run_render(spec, blindset, tmp_path / "miss.svg")
    assert (tmp_path / "hit.svg").read_bytes() == (tmp_path / "miss.svg").read_bytes()


def test_construct_writes_the_digest_then_the_rows(tmp_path):
    assert main(["construct", "--scene", "Q1", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "blindset.json").read_bytes()
    rows = np.array(json.loads(raw)["segments"], dtype="<f8").tobytes()
    expected = hashlib.sha256(raw + rows).digest() + rows
    assert (tmp_path / "blindset.f64").read_bytes() == expected


def _assert_sidecar_ignored(spec: SceneSpec, out_dir: Path, sidecar: bytes | None) -> None:
    """With sidecar in place (a directory if None), render draws out_dir's blind set as without."""
    blindset, path = out_dir / "blindset.json", out_dir / "blindset.f64"
    path.unlink()
    cli.run_render(spec, blindset, out_dir / "parsed.svg")
    if sidecar is None:
        path.mkdir()
    else:
        path.write_bytes(sidecar)
    assert cli._sidecar_segments(blindset, blindset.read_bytes()) is None
    cli.run_render(spec, blindset, out_dir / "figure.svg")
    assert (out_dir / "figure.svg").read_bytes() == (out_dir / "parsed.svg").read_bytes()


def test_render_ignores_a_sidecar_left_by_another_construction(tmp_path):
    stale = []
    for scene, eps in [("Q1", None), ("P1", None)]:
        run_construct(_spec(scene, eps), tmp_path)
        stale.append((tmp_path / "blindset.f64").read_bytes())
    spec = _spec("P1", 0.03)
    run_construct(spec, tmp_path)
    current = (tmp_path / "blindset.f64").read_bytes()
    assert len(current) != len(stale[1])
    # one of the right length whose digest is that of another file
    stale.append(bytes([current[0] ^ 1]) + current[1:])
    for sidecar in stale:
        _assert_sidecar_ignored(spec, tmp_path, sidecar)


@pytest.mark.parametrize(
    "cut",
    ["row", "half_row", "digest_only", "short", "empty", "garbage", "edited_row", "directory"],
)
def test_render_ignores_a_truncated_garbage_or_unreadable_sidecar(cut, tmp_path):
    spec = _spec("Q1")
    run_construct(spec, tmp_path)
    current = (tmp_path / "blindset.f64").read_bytes()
    sidecar = {
        "row": current[:-32],  # 32 + 32 n bytes still, its digest unchanged
        "half_row": current[:-16],
        "digest_only": current[:32],
        "short": current[:31],
        "empty": b"",
        "garbage": np.random.default_rng(0).bytes(len(current)),
        "edited_row": current[:-1] + bytes([current[-1] ^ 1]),
        "directory": None,
    }[cut]
    _assert_sidecar_ignored(spec, tmp_path, sidecar)


def _first_coordinate(text: str) -> slice:
    """Where the text of a blind set's first segment coordinate lies in text."""
    start = text.index('"segments": [\n    [\n      ') + len('"segments": [\n    [\n      ')
    return slice(start, text.index(",", start))


def test_render_reads_an_edited_blindset_past_its_sidecar(tmp_path):
    spec = _spec("Q1")
    run_construct(spec, tmp_path)
    blindset = tmp_path / "blindset.json"
    text = blindset.read_text()
    where = _first_coordinate(text)
    value = text[where]
    edited = value[:-1] + str((int(value[-1]) + 1) % 10)
    blindset.write_text(text[: where.start] + edited + text[where.stop :])
    assert (tmp_path / "blindset.f64").exists()
    assert cli._read_blindset(spec, blindset).coords[0, 0] == float(edited) != float(value)


def test_render_rejects_a_boolean_in_the_segments_past_a_sidecar(tmp_path, capsys):
    run_construct(_spec("Q1"), tmp_path)
    blindset, out = tmp_path / "blindset.json", tmp_path / "f.svg"
    text = blindset.read_text()
    where = _first_coordinate(text)
    blindset.write_text(text[: where.start] + "true" + text[where.stop :])
    assert (tmp_path / "blindset.f64").exists()
    assert _render("Q1", blindset, out) == 2
    assert "segments: expected a nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_checks_suites_pass(capsys):
    for suite in ("rotation", "projection", "duality"):
        assert main(["checks", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_checks_all_runs_every_battery(capsys):
    assert main(["checks", "all"]) == 0
    out = capsys.readouterr().out
    for name in ("rotation/", "projection/", "duality/"):
        assert name in out


def test_duality_subcommand(capsys):
    assert main(["duality"]) == 0
    assert "similarity_residual" in capsys.readouterr().out


def test_run_checks_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_checks("geometry")


def _reference_json(data):
    return json.dumps(data, sort_keys=True, indent=2, default=_as_lists) + "\n"


def _as_lists(array):
    """An array as json.dumps' nested lists; a record array as a list of objects."""
    return records(array) if array.dtype.names else array.tolist()


def _small_report(measures):
    n = len(measures)
    per_alpha = np.rec.fromarrays(
        [0.1 * np.arange(n), np.zeros(n), np.array(measures, dtype=float)],
        names="alpha,deficit,projected_measure",
    )
    return VerificationReport("t", "small", True, 0.05, 0.0, 0.1, 0.02, per_alpha).to_json_dict()


def _writer_documents():
    seg = Segment(Point(0.3, 0.0), Point(0.5, 0.1))
    scene = load_scene("Q1").to_json_dict()
    edge_floats = [-0.0, 0.0, 1e-07, 1e22, -1.5, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    curve = builtin_curve("parabola")
    blinds = vb(seg, 1.2, 2.1, 6)
    target = BlindSet(np.array([[0.3, 0.0, 0.5, 0.1]]))
    alphas = AlphaSet.interval(0.55, 0.7, 15)
    # one block whose cells span every layout: exponents -4 to 14 beside
    # exponent-form and fallback cells, 16- and 17-digit ties, range ends
    repr_edges = [
        1e-4, 1e14, 123456789012345.6, 9.9999847412109375, 1.00002288818359375,
        0.1, 100.0, 12345.0, -7.0, -0.000123, 2.0**49, 2.0**-13,
        np.nextafter(1e-4, 0), np.nextafter(1e15, 0), 1e15, 5e-324,
        -0.0, 0.0, 1e16, 0.30000000000000004,
    ]
    return {
        "vb": {**vb(seg, 1.2, 2.1, 6).to_json_dict(), "scene": scene},
        "iter_vb": {
            **iter_vb(seg, 1.4, 2.4, [2, 3], chirality=CCW).to_json_dict(),
            "scene": scene,
        },
        "edge_floats": {"segments": np.array(edge_floats).reshape(2, 4), "x": edge_floats},
        "non_finite_matrix": {"segments": np.array([[0.5, np.nan], [np.inf, -np.inf]])},
        "blocks": {"segments": np.random.default_rng(2).normal(size=(2 * _BLOCK_ROWS + 3, 4))},
        "one_block": {"m": np.ones((_BLOCK_ROWS, 1)), "e": np.zeros((0, 4)), "v": np.arange(3.0)},
        "report": {
            "cover": check_cover(curve, blinds, target, alphas).to_json_dict(),
            "small": check_small(curve, blinds, alphas, bound=1.0).to_json_dict(),
            "pass": True,
            "worst": float("nan"),
        },
        "per_alpha_edges": {"small": _small_report(edge_floats)},
        "repr_edges": {
            "segments": np.array(repr_edges).reshape(-1, 4),
            "t": np.rec.fromarrays(
                [repr_edges, np.float32(repr_edges), np.arange(20) % 3 == 0, np.arange(20)],
                names="x,x32,flag,i",
            ),
        },
        "per_alpha_non_finite": {"small": _small_report([0.5, float("nan"), float("inf")])},
        "per_alpha_empty": {"small": _small_report([])},
        "percent_keys": {"t": [{"5%": 1.0, "%r": True}, {"5%": -0.0, "%r": False}]},
        "percent_fields": {
            "t": np.rec.fromarrays([[1.0, -0.0], [True, False]], names=["5%", "%r"])
        },
        "not_tables": {
            "ints": [{"a": 1, "b": 2.0}],
            "nested": [{"a": [1.0, 2.0]}],
            "keys_differ": [{"a": 1.0}, {"b": 1.0}],
            "numpy_float": [{"a": np.float64(0.5)}],
            "empty_rows": [{}, {}],
            "mixed": [{"a": 1.0}, 2],
        },
        "plain": {"s": 'line\nbreak "é"', "n": None, "e": {}, "l": [], "d": {"z": {"y": [1, {}]}}},
    }


@pytest.mark.parametrize("name", sorted(_writer_documents()))
def test_dump_json_matches_json_dumps(name, tmp_path):
    data = _writer_documents()[name]
    _dump_json(data, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == _reference_json(data)


def _cell_texts(values):
    """The JSON writer's text of each value, written as a one-column matrix."""
    x = np.asarray(values, dtype=float).ravel()
    size = 4 * _BLOCK_ROWS  # the cells of one block of segment rows
    text = "".join(
        cli._format_rows([x[lo : lo + size]], [b"\n"], skip=1 if lo == 0 else 0)
        for lo in range(0, len(x), size)
    )
    return text.split("\n")


def _assert_cells_are_repr(values):
    x = np.asarray(values, dtype=float).ravel()
    expected = [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in x.tolist()]
    got = _cell_texts(x)
    assert len(got) == len(expected)
    wrong = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not wrong, wrong[:10]


def _ties(digits, rng):
    """Floats halfway between two decimals of the given number of digits.

    m * 2**-j with m odd has j fraction digits, the last a 5; in
    [10**e, 10**(e + 1)), j = digits - e makes it digits + 1 digits long.
    """
    out = []
    for e in range(-4, 15):
        j = digits - e
        lo, hi = math.ceil(10.0**e * 2**j), math.floor(10.0 ** (e + 1) * 2**j)
        if hi < 2**53:
            out.append((rng.integers(lo, hi, 300) | 1) * 2.0**-j)
    return np.concatenate(out)


def _repr_cases():
    rng = np.random.default_rng(25)
    p10 = np.array([float(f"1e{k}") for k in range(-6, 18)])
    p2 = 2.0 ** np.arange(-20, 60)
    edges = np.array([1e-4, 1e15, 1e16, 9.999999999999999e14, 123456789012345.6])
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(1e-4, 0)])
    return {
        "uniform": rng.uniform(-2.0, 2.0, 10**6),
        "significant_digits": [
            float(f"{rng.integers(10 ** (d - 1), 10**d)}e{p}")
            for d in range(1, 18)
            for p in rng.integers(-22, 12, 300)
        ],
        "integral": np.concatenate(
            [np.round(rng.uniform(-1e6, 1e6, 3000)), np.round(rng.uniform(-1e16, 1e16, 3000))]
        ),
        "powers_of_ten": np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)]),
        "powers_of_two": np.concatenate([p2, np.nextafter(p2, 0), np.nextafter(p2, np.inf)]),
        "range_ends": np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)]),
        "zeros_subnormal_largest": np.concatenate(
            [[0.0, -0.0, 1.7976931348623157e308, np.nan, np.inf], tiny, -tiny]
        ),
        "ties_15": _ties(15, rng),
        "ties_16": _ties(16, rng),
        "ties_17": _ties(17, rng),
    }


@pytest.mark.parametrize("case", sorted(_repr_cases()))
def test_cells_are_float_repr(case):
    values = np.asarray(_repr_cases()[case], dtype=float)
    _assert_cells_are_repr(values)
    _assert_cells_are_repr(-values)


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_cells_of_the_benchmark_constructions_are_float_repr(scene, tmp_path):
    spec = load_scene(scene)
    for eps in (spec.epsilon, {"Q1": 0.02, "P1": 0.015, "E1": 0.01}[scene]):
        data = spec.to_json_dict()
        data["epsilon"] = eps
        blindset, report = run_construct(SceneSpec.from_json_dict(data), tmp_path)
        segments = blindset["segments"]
        _assert_cells_are_repr(segments)
        for part in ("cover", "small"):
            per_alpha = report[part]["per_alpha"]
            for name in per_alpha.dtype.names:
                if per_alpha[name].dtype.kind == "f":
                    _assert_cells_are_repr(per_alpha[name])
        if (scene, eps) == ("P1", 0.015):
            # a formatter that sent every cell to repr would be as slow as before
            fast = cli._repr_digits(segments)[2]
            assert fast.mean() >= 0.99, fast.mean()
