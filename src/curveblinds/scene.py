"""Scene specifications: JSON ingestion, validation, bundled scenes.

A scene bundles the key-construction inputs: the curve, the fiber point y,
the parameter subrange of the fiber arc, the alpha-sets A_small / A_cover,
the scales epsilon and delta, plus grid densities and search caps.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .blinds import Caps
from .curve import CurveProfile, builtin_curve, builtin_curve_names
from .geometry import Point
from .measure import AlphaSet


class SceneError(ValueError):
    """Scene validation failure; message carries the offending field path."""


@dataclass(frozen=True)
class SceneSpec:
    schema_version: int
    scene_id: str
    curve_name: str
    curve_bounds: Optional[tuple[float, float]]
    y: Point
    subrange: tuple[float, float]
    a_small_components: tuple[tuple[float, float], ...]
    a_cover_component: tuple[float, float]
    epsilon: float
    delta: float
    alpha_points: int = 200
    segment_points: int = 33  # recorded in blindset.json; the construction ignores it
    caps: Caps = field(default_factory=Caps)
    seed: int = 0
    # the profile of curve_name and curve_bounds, built on the first curve()
    # call (or by from_json_dict, which builds it to validate the scene); a
    # copy made by dataclasses.replace starts without it
    _curve: Optional[CurveProfile] = field(default=None, init=False, repr=False, compare=False)

    def curve(self) -> CurveProfile:
        if self._curve is None:
            object.__setattr__(self, "_curve", builtin_curve(self.curve_name, self.curve_bounds))
        return self._curve

    def a_small(self) -> AlphaSet:
        return AlphaSet.from_intervals(self.a_small_components, self.alpha_points)

    def a_cover(self) -> AlphaSet:
        return AlphaSet.from_intervals([self.a_cover_component], self.alpha_points)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "scene_id": self.scene_id,
            "curve": {"name": self.curve_name},
            "y": [self.y.x1, self.y.x2],
            "subrange": list(self.subrange),
            "A_small": [list(c) for c in self.a_small_components],
            "A_cover": list(self.a_cover_component),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "grids": {
                "alpha_points": self.alpha_points,
                "segment_points": self.segment_points,
            },
            "caps": {"N_max": self.caps.n_max, "m_max": self.caps.m_max},
            "seed": self.seed,
        }
        if self.curve_bounds is not None:
            out["curve"]["bounds"] = list(self.curve_bounds)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SceneSpec":
        def fail(path: str, msg: str) -> SceneError:
            return SceneError(f"{path}: {msg}")

        def need(key: str):
            if not isinstance(data, dict) or key not in data:
                raise fail(key, "missing field")
            return data[key]

        def number(path: str, v) -> float:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise fail(path, f"expected a number, got {v!r}")
            return float(v)

        def integer(path: str, v, minimum: int) -> int:
            if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
                raise fail(path, f"expected an integer >= {minimum}, got {v!r}")
            return v

        def obj(path: str, v) -> dict:
            if not isinstance(v, dict):
                raise fail(path, f"expected a JSON object, got {v!r}")
            return v

        def pair(path: str, v) -> tuple[float, float]:
            if not (isinstance(v, (list, tuple)) and len(v) == 2):
                raise fail(path, "expected a [lo, hi] pair")
            lo, hi = number(path, v[0]), number(path, v[1])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise fail(path, "entries must be finite")
            return lo, hi

        version = integer("schema_version", need("schema_version"), 1)
        if version != 1:
            raise fail("schema_version", f"unsupported version {version}")
        curve_node = obj("curve", need("curve"))
        name = curve_node.get("name")
        if name not in builtin_curve_names():
            raise fail("curve.name", f"unknown curve {name!r}")
        bounds = None
        if "bounds" in curve_node:
            bounds = pair("curve.bounds", curve_node["bounds"])
            if not bounds[0] < bounds[1]:
                raise fail("curve.bounds", "expected [a, b] with a < b")
        try:
            curve = builtin_curve(name, bounds)
        except (ValueError, OverflowError) as exc:
            raise fail("curve.bounds", str(exc)) from None
        y_lo, y_hi = pair("y", need("y"))
        sub = pair("subrange", need("subrange"))
        if not sub[0] < sub[1]:
            raise fail("subrange", "expected a' < b'")
        if not curve.a <= sub[0] < sub[1] <= curve.b:
            raise fail("subrange", f"must lie inside the curve domain [{curve.a}, {curve.b}]")
        small_raw = need("A_small")
        if not (isinstance(small_raw, list) and small_raw):
            raise fail("A_small", "expected a nonempty list of intervals")
        small = []
        for i, comp in enumerate(small_raw):
            lo, hi = pair(f"A_small[{i}]", comp)
            if not lo <= hi:
                raise fail(f"A_small[{i}]", "expected [lo, hi] with lo <= hi")
            small.append((lo, hi))
        small.sort()
        cover = pair("A_cover", need("A_cover"))
        if cover[0] > cover[1]:
            raise fail("A_cover", "expected lo <= hi")
        if curve.clearance(y_lo - sub[1], y_lo - sub[0], cover) <= 0.0:
            raise fail("subrange", "the fiber arc at y over [a', b'] leaves the strip over A_cover")
        for i, (slo, shi) in enumerate(small):
            if not (shi < cover[0] or cover[1] < slo):
                raise fail(f"A_small[{i}]", "overlaps A_cover")
        for (p_lo, p_hi), (q_lo, q_hi) in zip(small, small[1:]):
            if q_lo <= p_hi:
                raise fail("A_small", "components overlap")
        if not any(lo <= y_lo <= hi for lo, hi in small):
            raise fail("y", f"y.x1={y_lo!r} must lie in some A_small component")
        epsilon, delta = (number(key, need(key)) for key in ("epsilon", "delta"))
        for key, value in (("epsilon", epsilon), ("delta", delta)):
            if not (math.isfinite(value) and value > 0.0):
                raise fail(key, "must be finite and positive")
        scene_id = data.get("scene_id", "scene")
        if not isinstance(scene_id, str):
            raise fail("scene_id", f"expected a string, got {scene_id!r}")
        # the figure writes scene_id as XML text: these are the code points outside
        # XML 1.0's Char production, lone surrogates included
        if bad := re.search("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", scene_id):
            raise fail("scene_id", f"U+{ord(bad.group()):04X} cannot appear in XML text")
        grids = obj("grids", data.get("grids", {}))
        caps_node = obj("caps", data.get("caps", {}))
        spec = cls(
            schema_version=version,
            scene_id=scene_id,
            curve_name=name,
            curve_bounds=bounds,
            y=Point(y_lo, y_hi),
            subrange=sub,
            a_small_components=tuple(small),
            a_cover_component=cover,
            epsilon=epsilon,
            delta=delta,
            alpha_points=integer("grids.alpha_points", grids.get("alpha_points", 200), 2),
            segment_points=integer("grids.segment_points", grids.get("segment_points", 33), 0),
            caps=Caps(
                n_max=integer("caps.N_max", caps_node.get("N_max", Caps.n_max), 1),
                m_max=integer("caps.m_max", caps_node.get("m_max", Caps.m_max), 1),
            ),
            seed=integer("seed", data.get("seed", 0), 0),
        )
        object.__setattr__(spec, "_curve", curve)
        return spec


BUNDLED_SCENES = ("Q1", "P1", "E1")


def load_scene(source: str | Path) -> SceneSpec:
    """Load a scene by bundled name (Q1/P1/E1) or from a JSON file path."""
    name = str(source)
    if name in BUNDLED_SCENES:
        text = (
            resources.files("curveblinds").joinpath(f"scenes/{name.lower()}.json")
        ).read_text(encoding="utf-8")
    else:
        path = Path(source)
        if not path.exists():
            raise SceneError(f"scene {name!r} is neither bundled nor an existing file")
        text = path.read_text(encoding="utf-8")
    return SceneSpec.from_json_dict(json.loads(text))
