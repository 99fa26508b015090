"""Direction arithmetic on R/piZ: normalization, metric, arcs, schedules."""

import math

import numpy as np
import pytest

from curveblinds.projline import (
    CCW,
    CW,
    PI,
    Arc,
    Direction,
    _arc_offsets,
    _schedules,
    angle_schedule,
    as_direction,
    ccw_delta,
    dist,
    normalize,
)
import keylemma_reference as reference


def test_normalize_reduces_modulo_pi():
    assert normalize(0.0).angle == 0.0
    assert math.isclose(normalize(PI + 0.3).angle, 0.3, abs_tol=1e-15)
    assert math.isclose(normalize(-0.3).angle, PI - 0.3, abs_tol=1e-15)
    assert math.isclose(normalize(7 * PI + 1.0).angle, 1.0, abs_tol=1e-12)
    assert normalize(PI).angle == 0.0


def test_normalize_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize(math.inf)
    with pytest.raises(ValueError):
        normalize(math.nan)


def test_direction_validates_range():
    with pytest.raises(ValueError):
        Direction(-0.1)
    with pytest.raises(ValueError):
        Direction(PI)
    assert Direction(0.0).angle == 0.0


def test_as_direction_coerces_floats_and_passes_directions_through():
    d = Direction(1.0)
    assert as_direction(d) is d
    assert math.isclose(as_direction(PI + 0.25).angle, 0.25, abs_tol=1e-15)


def test_dist_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, c = rng.uniform(-10, 10, size=3)
        d_ab = dist(a, b)
        assert 0.0 <= d_ab <= PI / 2 + 1e-15
        assert math.isclose(d_ab, dist(b, a), abs_tol=1e-12)
        # invariance under shifting either argument by pi
        assert math.isclose(d_ab, dist(a + PI, b), abs_tol=1e-9)
        # triangle inequality
        assert d_ab <= dist(a, c) + dist(c, b) + 1e-12


def test_ccw_delta_complement():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(0, PI, size=2)
        if abs(a - b) < 1e-12:
            continue
        fwd = ccw_delta(a, b)
        back = ccw_delta(b, a)
        assert math.isclose(fwd + back, PI, abs_tol=1e-12)
        assert math.isclose(min(fwd, back), dist(a, b), abs_tol=1e-12)


def test_arc_length_depends_on_chirality():
    arc = Arc(normalize(0.2), normalize(1.0), CCW)
    assert math.isclose(arc.length, 0.8, abs_tol=1e-12)
    arc_cw = Arc(normalize(0.2), normalize(1.0), CW)
    assert math.isclose(arc_cw.length, PI - 0.8, abs_tol=1e-12)


def test_arc_coerces_float_endpoints():
    arc = Arc(0.2, 1.0)
    assert isinstance(arc.start, Direction)
    assert math.isclose(arc.length, 0.8, abs_tol=1e-12)


def test_arc_rejects_degenerate():
    with pytest.raises(ValueError):
        Arc(normalize(0.5), normalize(0.5), CCW)
    with pytest.raises(ValueError):
        Arc(0.2, 1.0, "widdershins")


def test_arc_contains_closed_and_strict():
    arc = Arc(0.2, 1.0, CCW)
    assert arc.contains(0.2)
    assert arc.contains(1.0)
    assert arc.contains(0.6)
    assert not arc.contains(1.2)
    assert not arc.contains(0.1)
    assert arc.contains_strictly(0.6)
    assert not arc.contains_strictly(0.2)
    assert arc.contains(0.9999)


def test_arc_contains_wrapping():
    # ccw from 3.0 through 0 to 0.5
    arc = Arc(3.0, 0.5, CCW)
    assert arc.contains(3.1)
    assert arc.contains(0.1)
    assert not arc.contains(1.5)


def test_angle_schedule_spacing_and_endpoints():
    sched = angle_schedule(0.3, 1.5, 6, CCW)
    assert len(sched) == 7
    assert math.isclose(sched[0].angle, 0.3, abs_tol=1e-15)
    assert math.isclose(sched[-1].angle, 1.5, abs_tol=1e-15)
    gaps = [ccw_delta(sched[i], sched[i + 1]) for i in range(6)]
    assert max(gaps) - min(gaps) < 1e-12


def test_angle_schedule_cw_and_wrapping():
    sched = angle_schedule(0.5, 3.0, 4, CW)
    assert math.isclose(sched[-1].angle, 3.0, abs_tol=1e-15)
    total = ccw_delta(3.0, 0.5)
    gaps = [ccw_delta(sched[i + 1], sched[i]) for i in range(4)]
    assert math.isclose(sum(gaps), total, abs_tol=1e-12)


def test_angle_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        angle_schedule(0.3, 1.5, 0, CCW)
    with pytest.raises(ValueError):
        angle_schedule(0.3, 0.3, 3, CCW)
    with pytest.raises(ValueError):
        angle_schedule(0.3, 1.5, 3, "spinwise")


@pytest.mark.parametrize("chirality", [CCW, CW])
def test_schedule_rows_equal_the_scalar_loop_bit_for_bit(chirality):
    # ragged depths in one call; about half the arcs wrap through direction 0
    rng = np.random.default_rng(6)
    below_pi = math.nextafter(PI, 0.0)
    start = np.concatenate([rng.uniform(0.0, PI, 2000), [0.0, below_pi, 1e-17, below_pi]])
    end = np.concatenate([rng.uniform(0.0, PI, 2000), [below_pi, 0.0, below_pi, 1e-17]])
    m = rng.integers(1, 65, len(start))
    rows = _schedules(start, end, m, chirality == CCW)
    assert rows.shape == (len(start), m.max() + 1)
    wraps = 0
    for i, (s, e, depth) in enumerate(zip(start.tolist(), end.tolist(), m.tolist())):
        want = reference.angle_schedule(s, e, depth, chirality)
        assert [a.hex() for a in rows[i, : depth + 1].tolist()] == [a.hex() for a in want]
        assert np.isnan(rows[i, depth + 1 :]).all()
        if i % 20 == 0:
            assert [d.angle for d in angle_schedule(s, e, depth, chirality)] == want
        wraps += (e < s) == (chirality == CCW)
    assert wraps > 900


def _offset_cases(rng):
    """Arcs with angles near their start, at 0 and pi, and at random."""
    below_pi = math.nextafter(PI, 0.0)
    starts = [0.0, 1e-17, below_pi, PI / 2, *rng.uniform(0.0, PI, size=6)]
    for start in starts:
        for chirality in (CCW, CW):
            arc = Arc(start, normalize(start + 0.7), chirality)
            near = [start + d for d in (-1e-17, 0.0, 1e-17, -PI, PI, -PI - 1e-17, PI + 1e-17)]
            raw = [-1e-17, 0.0, 1e-17, PI - 1e-17, below_pi, PI + 1e-17, -PI / 2, PI / 2]
            thetas = np.array(near + raw + list(rng.uniform(-PI / 2, PI / 2, size=20)))
            yield arc, thetas


def test_arc_offsets_match_scalar_offset_bit_for_bit():
    rng = np.random.default_rng(3)
    for arc, thetas in _offset_cases(rng):
        got = _arc_offsets(thetas, arc.start.angle, arc.chirality == CCW)
        want = [arc.offset(float(t)) for t in thetas]
        assert [float(u).hex() for u in got] == [u.hex() for u in want]


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
def test_arc_offsets_with_tolerance_decide_contains(tol):
    # an offset within tol of pi is a position just before the start
    rng = np.random.default_rng(4)
    at_tol = (PI - tol) - PI  # exact: from start 0, an offset of exactly pi - tol
    for arc, thetas in _offset_cases(rng):
        edges = [arc.start.angle, arc.end.angle]
        thetas = np.concatenate(
            [
                thetas,
                [e + s * d for e in edges for s in (-1, 1) for d in (tol / 2, 2 * tol)],
                [at_tol, -at_tol],
            ]
        )
        got = _arc_offsets(thetas, arc.start.angle, arc.chirality == CCW, tol) <= arc.length + tol
        assert got.tolist() == [arc.contains(float(t), tol) for t in thetas]
