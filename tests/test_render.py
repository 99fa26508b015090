"""SVG rendering: structure, determinism, stage coloring."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curveblinds.blinds import BlindSet, iter_vb, vb
from curveblinds.curve import builtin_curve, fiber_point
from curveblinds.geometry import Point, Segment
from curveblinds.measure import FiberArc
from curveblinds.projline import CCW
from curveblinds.render import (
    _BLOCK_ROWS,
    _HEIGHT,
    _MARGIN,
    _STAGE_COLORS,
    _Frame,
    _polylines,
    render_svg,
)


def _sample():
    curve = builtin_curve("parabola")
    seg = Segment(Point(0.3, 0.0), Point(0.5, 0.1))
    blinds = vb(seg, 1.2, 2.1, 6)
    arc = FiberArc(Point(0.5, 0.1), 0.3, 0.6)
    return curve, blinds, arc


def test_render_svg_structure():
    curve, blinds, arc = _sample()
    svg = render_svg(curve, blinds, arc=arc, alpha=0.8, title="demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "demo" in svg
    # one drawn polyline per blind segment (plus the fiber curve)
    assert svg.count("<polyline") >= len(blinds)


@pytest.mark.parametrize("title", ["Q1 <a&b>", "x & y", "</text>", "a > b"])
def test_render_svg_title_is_escaped(title):
    curve, blinds, arc = _sample()
    root = ET.fromstring(render_svg(curve, blinds, arc=arc, alpha=0.8, title=title))
    (text,) = root.iter("{http://www.w3.org/2000/svg}text")
    assert text.text == title


def test_render_svg_deterministic():
    curve, blinds, arc = _sample()
    a = render_svg(curve, blinds, arc=arc, alpha=0.8, title="x")
    b = render_svg(curve, blinds, arc=arc, alpha=0.8, title="x")
    assert a == b


def test_render_svg_without_arc():
    curve, blinds, _ = _sample()
    svg = render_svg(curve, blinds)
    assert "<svg" in svg


def _reference_polyline(frame, xs, ys, color, width, dash=""):
    """One polyline, mapped and formatted point by point."""
    pts = " ".join(
        f"{px:.3f},{py:.3f}" for px, py in (frame.to_px(x, y) for x, y in zip(xs, ys))
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width:.3f}"{dash_attr}/>'
    )


def _reference_svg(curve, blinds, arc=None, alpha=None, title=""):
    """render_svg with every coordinate mapped and formatted one at a time."""
    coords = blinds.coords
    xs = [coords[:, 0].min(), coords[:, 0].max(), coords[:, 2].min(), coords[:, 2].max()]
    ys = [coords[:, 1].min(), coords[:, 1].max(), coords[:, 3].min(), coords[:, 3].max()]
    arc_pts = None
    if arc is not None:
        arc_pts = [fiber_point(curve, arc.y, float(t)) for t in np.linspace(arc.lo, arc.hi, 400)]
        xs += [p.x1 for p in arc_pts]
        ys += [p.x2 for p in arc_pts]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" '
        'viewBox="0 0 800 600">',
        '<rect width="800" height="600" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="40" y="24" font-family="monospace" font-size="16">{title}</text>'
        )
    if alpha is not None:
        for x_edge in (alpha - curve.b, alpha - curve.a):
            parts.append(
                _reference_polyline(
                    frame, [x_edge, x_edge], [frame.y_lo, frame.y_hi], "#999999", 1.0, "6,4"
                )
            )
    if arc_pts is not None:
        parts.append(
            _reference_polyline(
                frame, [p.x1 for p in arc_pts], [p.x2 for p in arc_pts], "#000000", 1.6
            )
        )
    for i, (x1a, x2a, x1b, x2b) in enumerate(coords.tolist()):
        stage = 0 if blinds.provenance is None else len(blinds.provenance[i]) % 4
        parts.append(
            _reference_polyline(frame, [x1a, x1b], [x2a, x2b], _STAGE_COLORS[stage], 0.9)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _stage_sets():
    seg = Segment(Point(0.3, 0.0), Point(0.5, 0.1))
    stages = iter_vb(seg, 1.4, 2.4, [2, 3, 2], chirality=CCW)
    return {"vb": vb(seg, 1.2, 2.1, 6), "iter_vb": stages, "plain": BlindSet(stages.coords)}


@pytest.mark.parametrize("kind", ["vb", "iter_vb", "plain"])
@pytest.mark.parametrize("name", ["parabola", "quarter_circle", "exp"])
def test_render_svg_matches_per_point_reference(kind, name):
    curve = builtin_curve(name)
    blinds = _stage_sets()[kind]
    arc = FiberArc(Point(0.5, 0.1), curve.a + 0.1, curve.b - 0.2)
    for kwargs in ({"arc": arc, "alpha": 0.8, "title": "t"}, {}):
        assert render_svg(curve, blinds, **kwargs) == _reference_svg(curve, blinds, **kwargs)
    # blades are colored by provenance depth: 1 for vb, 3 here for iter_vb
    color = _STAGE_COLORS[{"vb": 1, "iter_vb": 3, "plain": 0}[kind]]
    assert render_svg(curve, blinds).count(f'stroke="{color}"') == len(blinds)


def test_polylines_match_per_point_reference_with_negative_zero():
    frame = _Frame(-1.0, 2.0, -0.5, 1.5)
    # model coordinates that land just left of / above pixel 0, so "%.3f"
    # prints -0.000, plus an exact -0.0 and a value far outside the frame
    left = frame.x_lo - _MARGIN / frame.scale
    top = frame.y_lo + (_HEIGHT - _MARGIN) / frame.scale
    xs = np.array([[left - 1e-6, left - 4e-4 / frame.scale, left, 1e7]])
    ys = np.array([[top + 1e-6, top + 4e-4 / frame.scale, top, -1e7]])
    got = _polylines(frame, xs, ys, ["#000000"], np.zeros(1, int), 1.6)
    assert got == [_reference_polyline(frame, xs[0], ys[0], "#000000", 1.6)]
    assert "-0.000," in got[0] and ",-0.000" in got[0]
    rng = np.random.default_rng(3)
    n = _BLOCK_ROWS + 5
    xs = rng.uniform(-3.0, 4.0, (n, 2))
    ys = rng.uniform(-3.0, 4.0, (n, 2))
    stage = np.arange(n) % 4
    colors = [_STAGE_COLORS[i] for i in stage]
    got = _polylines(frame, xs, ys, _STAGE_COLORS, stage, 0.9, dash="6,4")
    assert len(got) == 2
    assert "\n".join(got) == "\n".join(
        _reference_polyline(frame, x, y, c, 0.9, "6,4") for x, y, c in zip(xs, ys, colors)
    )


class _PixelFrame:
    """A frame whose model coordinates are the pixel coordinates."""

    def to_px(self, x, y):
        return x, y


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


def _as_points(values):
    """(xs, ys) of two-point rows, read off the values four at a time."""
    rows = values[: len(values) // 4 * 4].reshape(-1, 2, 2)
    return rows[:, 0], rows[:, 1]


def _pixel_cases():
    rng = np.random.default_rng(7)
    m = np.arange(-6000.0, 6000.0)
    near_zero = [-0.0, 0.0, -5e-324, 5e-324, -1e-300, -1e-10, -0.0004999, -0.0005, 0.0005]
    return {
        # v * 1000 ends in .5 exactly: ties that "%.3f" breaks half-even
        "binary_ties": _as_points(_with_neighbours(np.concatenate([m / 16, m / 1024]))),
        # decimal halves k.5 / 1000 are not binary: their nearest double is
        # above or below the half, and v * 1000 may round onto it
        "decimal_halves": _as_points(_with_neighbours((m + 0.5) / 1000)),
        "near_zero": _as_points(
            np.concatenate([_with_neighbours(near_zero), -rng.uniform(0.0, 0.0005, 2000)])
        ),
        "large": _as_points(
            np.concatenate(
                [
                    rng.uniform(-1e12, 1e12, 2000),
                    np.logspace(-3, 12, 500),
                    -np.logspace(-3, 12, 500),
                    [2.0**52 / 1000, -5e12, 1e15, -2.0**60],
                ]
            )
        ),
        # one row of 400 points, as the fiber arc is drawn, crossing zero
        "arc_row": (
            np.sort(rng.uniform(-50.0, 850.0, (1, 400))),
            rng.uniform(-1.0, 1.0, (1, 400)) * np.logspace(-5, 3, 400),
        ),
    }


@pytest.mark.parametrize(
    "case", ["binary_ties", "decimal_halves", "near_zero", "large", "arc_row"]
)
def test_polylines_format_each_coordinate_like_percent_3f(case):
    xs, ys = _pixel_cases()[case]
    stage = np.arange(len(xs)) ** 2 % 3
    colors = [_STAGE_COLORS[i] for i in stage]
    got = _polylines(_PixelFrame(), xs, ys, _STAGE_COLORS, stage, 0.9, dash="6,4")
    assert len(got) == -(-len(xs) // _BLOCK_ROWS)
    assert "\n".join(got).split("\n") == [
        _reference_polyline(_PixelFrame(), x, y, c, 0.9, "6,4")
        for x, y, c in zip(xs, ys, colors)
    ]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"row": 1, "value": math.nan}, r"row 1 is \[0.1, nan, 0.3, 0.4\]"),
        ({"row": 0, "value": math.inf}, r"row 0 is \[0.0, inf, 1.0, 0.5\]"),
        ({"row": 1, "value": -math.inf}, r"row 1 is \[0.1, -inf, 0.3, 0.4\]"),
        ({"alpha": math.nan}, "alpha must be finite, got nan"),
        ({"alpha": math.inf}, "alpha must be finite, got inf"),
    ],
    ids=["nan_coord", "inf_coord", "neg_inf_coord", "nan_alpha", "inf_alpha"],
)
def test_render_svg_rejects_non_finite_input(bad, message):
    # rejected before the frame is built, so no RuntimeWarning (an error
    # under the test settings) and no "nan" polyline
    curve, _, arc = _sample()
    coords = np.array([[0.0, 0.0, 1.0, 0.5], [0.1, 0.2, 0.3, 0.4]])
    if "row" in bad:
        coords[bad["row"], 1] = bad["value"]
    with pytest.raises(ValueError, match=message):
        render_svg(curve, BlindSet(coords), arc=arc, alpha=bad.get("alpha", 0.8))
