"""Interval unions, alpha-sets, and projection measures."""

import dataclasses
import math

import numpy as np
import pytest

from curveblinds.blinds import BlindSet
from curveblinds.curve import CurveProfile, builtin_curve, eval_phi
from curveblinds.geometry import Point, Segment
from curveblinds.measure import (
    BUDGET,
    AlphaSet,
    EMPTY,
    FiberArc,
    _canonical_rows,
    contains,
    project_blinds,
    project_blinds_grid,
    project_fiber_arc,
    union_of,
)
from scalar_projection import project_segment, project_segments


def test_union_of_canonicalizes():
    u = union_of([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)])
    assert u.intervals == ((0.0, 2.0), (3.0, 4.0))
    assert math.isclose(u.measure, 3.0)
    assert union_of([]).is_empty
    assert EMPTY.measure == 0.0


def test_union_of_merges_dust_gaps():
    u = union_of([(0.0, 1.0), (1.0 + 1e-15, 2.0)])
    assert len(u.intervals) == 1


def test_union_of_rejects_inverted():
    with pytest.raises(ValueError):
        union_of([(1.0, 0.0)])


def test_union_from_arrays_matches_union_of():
    # each row of a batch canonicalizes as union_of does; lo = +inf marks a gap
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        los = rng.uniform(-5, 5, (rows, n))
        his = los + rng.uniform(0.0, 1.0, (rows, n))
        los[rng.random((rows, n)) < 0.2] = np.inf
        fast = _canonical_rows(los, his)
        for row, got in enumerate(fast):
            kept = los[row] < np.inf
            slow = union_of(list(zip(los[row][kept].tolist(), his[row][kept].tolist())))
            assert got.intervals == slow.intervals


def test_inflate_and_erode():
    u = union_of([(0.0, 1.0), (2.0, 2.1)])
    inflated = u.inflate(0.2)
    assert math.isclose(inflated.measure, 1.4 + 0.5)
    eroded = u.erode(0.1)
    assert eroded.intervals == ((0.1, 0.9),)  # the short interval vanishes
    # erosion then inflation is a contraction
    back = eroded.inflate(0.1)
    assert contains(u, back)
    with pytest.raises(ValueError):
        u.inflate(-0.1)
    with pytest.raises(ValueError):
        u.erode(-0.1)


def test_difference():
    u = union_of([(0.0, 4.0)])
    v = union_of([(1.0, 2.0), (3.0, 5.0)])
    d = u.difference(v)
    assert d.intervals == ((0.0, 1.0), (2.0, 3.0))
    assert u.difference(u).is_empty


def test_contains_with_margin():
    u = union_of([(0.0, 1.0)])
    t = union_of([(0.1, 0.9)])
    assert contains(u, t)
    assert not contains(t, u)
    assert contains(t, u, margin=0.2)
    with pytest.raises(ValueError):
        contains(u, t, margin=-1.0)


def test_contains_requires_single_component_cover():
    u = union_of([(0.0, 0.4), (0.6, 1.0)])
    t = union_of([(0.1, 0.9)])  # spans the gap
    assert not contains(u, t)


def test_alpha_set_grid_and_membership():
    aset = AlphaSet.from_intervals([(0.0, 1.0), (2.0, 2.5)], points_per_component=11)
    grid = aset.grid()
    assert grid[0] == 0.0 and grid[-1] == 2.5
    # spacing within each component is at most grid_step
    for lo, hi in aset.components:
        inside = grid[(grid >= lo) & (grid <= hi)]
        assert inside[0] == lo and inside[-1] == hi
        assert np.all(np.diff(inside) <= aset.grid_step + 1e-12)
    assert aset.contains_alpha(0.5)
    assert not aset.contains_alpha(1.5)
    assert aset.bounds == (0.0, 2.5)


def test_alpha_set_validation():
    with pytest.raises(ValueError):
        AlphaSet((), 0.1)
    with pytest.raises(ValueError):
        AlphaSet(((0.0, 1.0), (0.5, 2.0)), 0.1)
    with pytest.raises(ValueError):
        AlphaSet(((1.0, 0.0),), 0.1)
    with pytest.raises(ValueError):
        AlphaSet(((0.0, 1.0),), -0.1)


def _segment_oracle(curve, alpha, seg, samples=20001):
    """Min/max of Phi_alpha over the strip-clipped segment, by dense sampling."""
    ts = np.linspace(0.0, 1.0, samples)
    lo, hi = curve.strip(alpha)
    vals = []
    for t in ts:
        p = seg.point_at(float(t))
        if lo - 1e-12 <= p.x1 <= hi + 1e-12:
            vals.append(eval_phi(curve, alpha, Point(min(hi, max(lo, p.x1)), p.x2)))
    return (min(vals), max(vals)) if vals else None


def test_project_segment_matches_sampling_oracle():
    rng = np.random.default_rng(1)
    for name in ("parabola", "quarter_circle", "exp"):
        curve = builtin_curve(name)
        for _ in range(20):
            alpha = float(rng.uniform(curve.a - 0.3, curve.b + 0.8))
            a = Point(float(rng.uniform(alpha - 1.5, alpha + 0.5)), float(rng.uniform(-1, 1)))
            b = Point(a.x1 + float(rng.uniform(-0.8, 0.8)), a.x2 + float(rng.uniform(-0.8, 0.8)))
            if a == b:
                continue
            seg = Segment(a, b)
            u = project_blinds(curve, alpha, BlindSet.from_segments([seg]))
            assert u == project_segment(curve, alpha, seg)
            oracle = _segment_oracle(curve, alpha, seg)
            if oracle is None:
                assert u.is_empty
                continue
            if u.is_empty:
                # clipped sliver below sampling resolution
                continue
            (lo, hi), (olo, ohi) = u.intervals[0], oracle
            # exact interval contains the sampled values ...
            assert lo <= olo + 1e-9
            assert hi >= ohi - 1e-9
            # ... and the sampling approaches the endpoints (first order at
            # clipped boundaries, hence the looser tolerance)
            assert abs(lo - olo) < 1e-4
            assert abs(hi - ohi) < 1e-4


def test_project_segment_vertical():
    curve = builtin_curve("parabola")
    blinds = BlindSet.from_segments([Segment(Point(1.5, 0.0), Point(1.5, 2.0))])
    u = project_blinds(curve, 2.0, blinds)
    base = curve.f(0.5)
    assert u.intervals == ((base, 2.0 + base),)
    assert project_blinds(curve, 5.0, blinds).is_empty


def test_project_fiber_arc_matches_sampling():
    rng = np.random.default_rng(2)
    for name in ("parabola", "exp"):
        curve = builtin_curve(name)
        y = Point(0.5, 1.0)
        arc = FiberArc(y, curve.a + 0.1, curve.b - 0.1)
        for _ in range(10):
            alpha = float(rng.uniform(curve.a + 0.7, curve.b + 0.5))
            u = project_fiber_arc(curve, alpha, arc)
            s = alpha - y.x1
            t0 = max(arc.lo, curve.a - s, curve.a)
            t1 = min(arc.hi, curve.b - s, curve.b)
            if t0 > t1:
                assert u.is_empty
                continue
            ts = np.linspace(t0, t1, 5001)
            vals = [
                y.x2 - curve.f(curve.clamp_t(t)) + curve.f(curve.clamp_t(t + s))
                for t in ts
            ]
            lo, hi = u.intervals[0]
            assert abs(lo - min(vals)) < 1e-9
            assert abs(hi - max(vals)) < 1e-9


def test_fiber_arc_rejects_empty_range():
    with pytest.raises(ValueError):
        FiberArc(Point(0.0, 0.0), 1.0, 1.0)


def test_project_blinds_fast_path_matches_slow_path():
    # the kernel, with and without array support, against the scalar
    # reference; convex and concave curves: interior critical points are
    # minima on the first and maxima on the second
    blinds = _random_blinds(np.random.default_rng(4), 40)
    for name in ("parabola", "quarter_circle"):
        fast_curve = builtin_curve(name)
        slow_curve = dataclasses.replace(fast_curve, supports_arrays=False)
        for alpha in np.linspace(-0.5, 2.0, 11).tolist():
            slow = project_segments(fast_curve, alpha, blinds.segments)
            for curve in (fast_curve, slow_curve):
                fast = project_blinds(curve, alpha, blinds)
                assert len(fast.intervals) == len(slow.intervals)
                for (flo, fhi), (slo, shi) in zip(fast.intervals, slow.intervals):
                    assert abs(flo - slo) < 1e-9
                    assert abs(fhi - shi) < 1e-9


def test_project_blinds_drops_segments_outside_the_strip():
    # the vertical segment at x1=2 misses the strip [-0.5, 0.5] of alpha=0.5;
    # its unclipped image [-1, 1] would swallow the other segment's
    curve = builtin_curve("parabola")
    blinds = BlindSet(np.array([[0.0, 0.0, 0.1, 0.0], [2.0, -1.0, 2.0, 1.0]]))
    expected = project_segment(curve, 0.5, blinds.segments[0])
    assert list(project_blinds_grid(curve, [0.5, 0.5], blinds)) == [expected] * 2


def _random_blinds(rng, n):
    """Short segments of every direction, a tenth of them vertical, spread so
    that the strips of the test alphas meet some, all or none of them."""
    ax = rng.uniform(-1.5, 1.8, n)
    ay = rng.uniform(-1.0, 1.0, n)
    length = rng.uniform(1e-3, 0.3, n)
    theta = rng.uniform(0.0, math.pi, n)
    bx = ax + length * np.cos(theta)
    by = ay + length * np.sin(theta)
    vertical = rng.random(n) < 0.1
    bx[vertical] = ax[vertical]
    return BlindSet(np.column_stack([ax, ay, bx, by]))


def _assert_grid_matches_per_alpha(curve, alphas, blinds):
    batched = list(project_blinds_grid(curve, alphas, blinds))
    assert len(batched) == len(alphas)
    for alpha, got in zip(alphas, batched):
        assert got.intervals == project_blinds(curve, alpha, blinds).intervals
    return batched


@pytest.mark.parametrize("name", ["parabola", "quarter_circle", "exp"])
def test_project_blinds_grid_equals_per_alpha(name):
    curve = builtin_curve(name)
    rng = np.random.default_rng(7)
    # 97 alphas: not a multiple of the row count of any size below; the far
    # alphas' strips miss every segment
    alphas = np.concatenate([np.linspace(-1.0, 2.5, 95), [4.0, 5.0]]).tolist()
    for n in (1, 5, 120, 1248):
        batched = _assert_grid_matches_per_alpha(curve, alphas, _random_blinds(rng, n))
        assert batched[-1].is_empty and not batched[len(alphas) // 2].is_empty


@pytest.mark.parametrize(
    "n", [BUDGET // 2, BUDGET // 2 + 1, BUDGET - 1, BUDGET, BUDGET + 1]
)
def test_project_blinds_grid_equals_per_alpha_at_batch_edges(n):
    curve = builtin_curve("parabola")
    blinds = _random_blinds(np.random.default_rng(n), n)
    _assert_grid_matches_per_alpha(curve, np.linspace(-0.5, 2.0, 7).tolist(), blinds)


def test_project_blinds_grid_fallback_for_scalar_curves():
    # a curve without array support runs the same kernel, one f call per element
    curve = CurveProfile(
        f=lambda t: t * t,
        df=lambda t: 2.0 * t,
        a=0.0,
        b=1.0,
        monotone="increasing",
        df_bound=2.0,
    )
    blinds = _random_blinds(np.random.default_rng(3), 30)
    alphas = np.linspace(-1.0, 3.0, 11).tolist()
    batched = _assert_grid_matches_per_alpha(curve, alphas, blinds)
    for alpha, got in zip(alphas, batched):
        assert got == project_segments(curve, alpha, blinds.segments)
