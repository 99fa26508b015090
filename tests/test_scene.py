"""Scene JSON loading, validation field paths, and bundled scenes."""

import dataclasses
import json

import pytest

from curveblinds import scene
from curveblinds.scene import BUNDLED_SCENES, SceneError, SceneSpec, load_scene


def _valid_scene_dict():
    return {
        "schema_version": 1,
        "scene_id": "T1",
        "curve": {"name": "parabola"},
        "y": [0.5, 0.1],
        "subrange": [0.3, 0.6],
        "A_small": [[0.46, 0.54]],
        "A_cover": [0.78, 0.86],
        "epsilon": 0.05,
        "delta": 0.01,
        "grids": {"alpha_points": 50, "segment_points": 17},
        "caps": {"N_max": 1024, "m_max": 32},
        "seed": 3,
    }


def test_bundled_scenes_load_and_validate():
    assert BUNDLED_SCENES == ("Q1", "P1", "E1")
    for name in BUNDLED_SCENES:
        spec = load_scene(name)
        assert spec.scene_id == name
        spec.curve()  # constructible
        assert spec.a_small().components
        assert spec.a_cover().components
        # y sits in A_small, disjoint from A_cover
        assert spec.a_small().contains_alpha(spec.y.x1, tol=1e-12)


def test_roundtrip_through_json_dict():
    spec = SceneSpec.from_json_dict(_valid_scene_dict())
    again = SceneSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    assert again.caps.n_max == 1024
    assert again.alpha_points == 50
    assert again.seed == 3


def test_load_scene_builds_the_curve_once(monkeypatch):
    built = []

    def counting(name, bounds=None):
        built.append((name, bounds))
        return scene_builtin_curve(name, bounds)

    scene_builtin_curve = scene.builtin_curve
    monkeypatch.setattr(scene, "builtin_curve", counting)
    spec = load_scene("E1")
    curve = spec.curve()
    assert spec.curve() is curve and built == [("exp", None)]
    # a copy, made without the curve, compares equal; its curve follows its own fields
    assert dataclasses.replace(spec) == spec
    finer = dataclasses.replace(spec, epsilon=0.01)
    assert (finer.curve().name, finer.curve().a, finer.curve().b) == ("exp", curve.a, curve.b)
    narrow = dataclasses.replace(spec, curve_name="parabola", curve_bounds=(0.1, 0.9))
    assert (narrow.curve().name, narrow.curve().a, narrow.curve().b) == ("parabola", 0.1, 0.9)
    assert spec.curve() is curve and narrow.curve() is narrow.curve()
    assert len(built) == 3
    assert "_curve" not in repr(spec)


def test_load_scene_from_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_valid_scene_dict()))
    spec = load_scene(path)
    assert spec.scene_id == "T1"


def test_load_scene_missing():
    with pytest.raises(SceneError):
        load_scene("NOPE42")


@pytest.mark.parametrize(
    "mutate,path_hint",
    [
        (lambda d: d.pop("schema_version"), "schema_version"),
        (lambda d: d.update(schema_version=9), "schema_version"),
        (lambda d: d["curve"].update(name="circle"), "curve.name"),
        (lambda d: d.update(y=[0.5]), "y"),
        (lambda d: d.update(subrange=[0.6, 0.3]), "subrange"),
        (lambda d: d.update(A_small=[]), "A_small"),
        (lambda d: d.update(A_small=[[0.8, 0.84]]), "A_small[0]"),  # overlaps cover
        (lambda d: d.update(A_small=[[0.2, 0.3], [0.25, 0.4]]), "A_small"),
        (lambda d: d.update(y=[0.1, 0.1]), "y"),  # y.x1 outside A_small
        (lambda d: d.update(epsilon=-1.0), "epsilon"),
        (lambda d: d.update(delta=0.0), "delta"),
        (lambda d: d["curve"].update(bounds=[1.0, 0.0]), "curve.bounds"),
        # faults that used to surface only in construct, naming no field
        (
            lambda d: d["curve"].update(name="quarter_circle", bounds=[-1.0, 0.7]),
            "curve.bounds: quarter-circle bounds must lie inside (-1, 1)",
        ),
        (lambda d: d["curve"].update(name="exp", bounds=[0.0, 1000.0]), "curve.bounds: math range error"),
        (lambda d: d.update(subrange=[0.3, 1.2]), "subrange: must lie inside the curve domain"),
        (lambda d: d.update(subrange=[-0.1, 0.6]), "subrange: must lie inside the curve domain"),
        (lambda d: d.update(A_cover=[1.5, 1.6]), "subrange: the fiber arc at y over [a', b'] leaves"),
        (lambda d: d.update(A_cover=[0.6, 1.2]), "subrange: the fiber arc at y over [a', b'] leaves"),
        # fields that must be JSON objects
        (lambda d: d.update(curve="parabola"), "curve: expected a JSON object"),
        (lambda d: d.update(curve=["parabola"]), "curve: expected a JSON object"),
        (lambda d: d.update(grids=[]), "grids: expected a JSON object"),
        (lambda d: d.update(grids="fine"), "grids: expected a JSON object"),
        (lambda d: d.update(caps=5), "caps: expected a JSON object"),
        (lambda d: d.update(caps=None), "caps: expected a JSON object"),
    ],
)
def test_validation_failures_carry_field_path(mutate, path_hint):
    data = _valid_scene_dict()
    mutate(data)
    with pytest.raises(SceneError) as err:
        SceneSpec.from_json_dict(data)
    assert path_hint in str(err.value)


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("name", ["epsilon", "delta"])
def test_scales_must_be_finite(name, value, tmp_path):
    # json reads these tokens as floats; NaN fails every comparison
    text = json.dumps(_valid_scene_dict()).replace(
        f'"{name}": {_valid_scene_dict()[name]}', f'"{name}": {value}'
    )
    assert value in text
    path = tmp_path / "scene.json"
    path.write_text(text)
    with pytest.raises(SceneError, match=f"^{name}: must be finite and positive"):
        load_scene(path)


def test_defaults_fill_in():
    data = _valid_scene_dict()
    del data["grids"], data["caps"], data["seed"], data["scene_id"]
    spec = SceneSpec.from_json_dict(data)
    assert spec.alpha_points == 200
    assert spec.segment_points == 33
    assert spec.seed == 0
    assert spec.scene_id == "scene"


@pytest.mark.parametrize("value", [123, None, 1.5, True, ["Q1"], {"id": "Q1"}])
def test_non_string_scene_id_is_rejected(value):
    data = _valid_scene_dict()
    data["scene_id"] = value
    with pytest.raises(SceneError, match=r"^scene_id: expected a string"):
        SceneSpec.from_json_dict(data)


@pytest.mark.parametrize(
    "value,code", [("Q1\u0001", "0001"), ("Q1\ud800", "D800"), ("Q1 \ufffe\u0000", "FFFE")]
)
def test_scene_id_outside_xml_chars_is_rejected(value, code):
    # the figure writes scene_id as XML text: a control character would make
    # it ill-formed, and a lone surrogate cannot be encoded at all
    data = _valid_scene_dict()
    data["scene_id"] = value
    with pytest.raises(SceneError, match=rf"^scene_id: U\+{code} "):
        SceneSpec.from_json_dict(data)


@pytest.mark.parametrize(
    "value", ["Q1 \u00e9", "Q1 <a&b>", "Q1\t\n\r\U0001f600", "\ud7ff\ue000\ufffd\U0010ffff"]
)
def test_scene_id_of_xml_chars_loads(value):
    data = _valid_scene_dict()
    data["scene_id"] = value
    assert SceneSpec.from_json_dict(data).scene_id == value


@pytest.mark.parametrize(
    "path,value",
    [
        ("epsilon", "abc"),
        ("delta", "abc"),
        ("epsilon", True),
        ("grids.alpha_points", "x"),
        ("grids.alpha_points", 1.7),
        ("grids.alpha_points", -5),
        ("grids.alpha_points", 1),
        ("grids.segment_points", "x"),
        ("grids.segment_points", -1),
        ("caps.N_max", 0),
        ("caps.N_max", "big"),
        ("caps.m_max", 0),
        ("caps.m_max", 2.5),
        ("seed", "s"),
        ("seed", 1.5),
        ("schema_version", "1"),
        ("y", [0.5, "abc"]),
        ("A_small", [["a", 0.54]]),
        ("seed", -3),
    ],
)
def test_numeric_fields_fail_with_their_name(path, value):
    # the error names the field; A_small names the offending component
    data = _valid_scene_dict()
    *parents, key = path.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = value
    with pytest.raises(SceneError) as err:
        SceneSpec.from_json_dict(data)
    named = "A_small[0]" if path == "A_small" else path
    assert str(err.value).startswith(f"{named}: ")
