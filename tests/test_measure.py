"""Interval unions, alpha-sets, and projection measures."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveblinds import measure
from curveblinds.blinds import BlindSet
from curveblinds.curve import CurveProfile, builtin_curve, eval_phi
from curveblinds.geometry import Point, Segment
from curveblinds.keylemma import key_construction
from curveblinds.measure import (
    BUDGET,
    MERGE_TOL,
    AlphaSet,
    FiberArc,
    _collapse_chains,
    _endpoint_only,
    project_blinds,
    project_blinds_grid,
    project_fiber_arc,
)
from curveblinds.scene import load_scene
from scalar_projection import (
    argsort_canonical_rows,
    batch_of,
    canonical_rows,
    contains,
    general_projection_grid,
    project_segment,
    project_segments,
    rows_of,
    union_of,
)
from scalar_projection import project_fiber_arc as scalar_fiber_arc


def test_canonical_rows_canonicalizes():
    u = batch_of([[(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)], []])
    assert rows_of(u) == [((0.0, 2.0), (3.0, 4.0)), ()]
    assert u.measures().tolist() == [3.0, 0.0]
    assert rows_of(batch_of([[]])) == [()]
    assert batch_of([[], []]).measures().tolist() == [0.0, 0.0]


def test_canonical_rows_merges_dust_gaps():
    u = batch_of([[(0.0, 1.0), (1.0 + 1e-15, 2.0)]])
    assert rows_of(u) == [((0.0, 2.0),)]


def test_union_from_arrays_matches_union_of():
    # each row of a batch canonicalizes as union_of does; lo = +inf marks a gap
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        los = rng.uniform(-5, 5, (rows, n))
        his = los + rng.uniform(0.0, 1.0, (rows, n))
        los[rng.random((rows, n)) < 0.2] = np.inf
        expected = [
            union_of(zip(lo[lo < np.inf].tolist(), hi[lo < np.inf].tolist())).intervals
            for lo, hi in zip(los, his)
        ]
        assert rows_of(canonical_rows(los, his)) == expected


def _blade_rows(rng, rows=2, runs=96):
    # the kernel's row shape: each blade projects to an ascending run of
    # 64-256 intervals, and the runs come in shuffled order
    out = []
    for _ in range(rows):
        row = []
        for _ in range(runs):
            k = int(rng.integers(64, 257))
            lo = rng.uniform(-3.0, 3.0) + np.cumsum(rng.exponential(0.002, k))
            row.append((lo, lo + rng.exponential(0.002, k)))
        order = rng.permutation(runs)
        out.append([np.concatenate([row[i][j] for i in order]) for j in (0, 1)])
    n = min(len(lo) for lo, _ in out)
    assert n >= 10_000
    return np.array([lo[:n] for lo, _ in out]), np.array([hi[:n] for _, hi in out])


def _random_rows(rng):
    los = rng.uniform(-5.0, 5.0, (3, 4000))
    return los, los + rng.exponential(0.003, los.shape)


def _gap_rows(rng):
    # gaps carry finite hi values: in rows 0-1 above every interval of their
    # row, in rows 2-3 below every one (as _layout's fill and the kernel's
    # out-of-strip segments may be); a canonicalizer that sorts hi without
    # masking the gaps fails on the latter
    los = rng.uniform(-1.0, 1.0, (6, 300))
    his = los + rng.exponential(0.01, los.shape)
    gaps = rng.random(los.shape) < 0.3
    gaps[4] = True  # an empty row
    gaps[5, 1:] = True  # a row of one interval
    los[gaps] = np.inf
    his[gaps] = rng.uniform(5.0, 50.0, int(gaps.sum()))
    his[2:4][gaps[2:4]] *= -1.0
    return los, his


def _tie_and_touch_rows(rng):
    # repeated lo values, and neighbours that touch within MERGE_TOL or
    # just beyond it
    base = np.round(rng.uniform(0.0, 1.0, (4, 2000)), 2)
    his = base + rng.choice([0.0, 0.001, 0.005], base.shape)
    los = base.copy()
    los[:, 1::2] = his[:, 0::2] + rng.choice([0.0, 0.5, 1.0, 2.0], (4, 1000)) * MERGE_TOL
    his[:, 1::2] = np.maximum(his[:, 1::2], los[:, 1::2])
    return los, his


def _chained_row(rng):
    # one row in blade order, few enough chains to be collapsed: the chains
    # come in descending order, so each starts below its disjoint predecessor
    # (a one-sided join test merges the two); inside a chain there are gaps,
    # neighbours that touch, from either side, at exactly MERGE_TOL or just
    # beyond it, and zeros of either sign
    los, his = [], []
    for k in range(60):
        lo = 4.0 - 0.02 * k + np.cumsum(rng.exponential(1e-5, 512))
        hi = lo + 5e-5
        for j in range(64, 512, 64):
            reach = hi[j - 1] + MERGE_TOL
            lo[j] = rng.choice([reach, np.nextafter(reach, np.inf)])
            hi[j] = max(hi[j], lo[j])
        # interval 4 lies below interval 3, which touches it from above
        hi[4] = lo[3] - 1e-6
        lo[4] = hi[4] - 1e-6
        reach = hi[4] + MERGE_TOL
        lo[3] = reach if k % 2 else np.nextafter(reach, np.inf)
        gaps = rng.choice(512, 3, replace=False)
        lo[gaps] = np.inf
        hi[gaps] = rng.choice([-10.0, 10.0], 3)
        los.append(lo)
        his.append(hi)
    los, his = np.concatenate(los)[None], np.concatenate(his)[None]
    los[0, 200:204], his[0, 200:204] = [-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, 1e-6, 2e-6]
    assert _collapse_chains(los, his)[0].shape[1] < los.shape[1]
    return los, his


def _many_runs_row(rng):
    # one row of mostly disjoint intervals: too many chains to be collapsed
    los = rng.uniform(-5.0, 5.0, (1, 4000))
    his = los + rng.exponential(0.0003, los.shape)
    assert _collapse_chains(los, his)[0] is los
    return los, his


def _unbounded_gap_free_rows(rng):
    # no gaps, as the endpoint-only evaluation makes, so the his are sorted
    # as given; intervals in rows 3 and 4 reach -inf or +inf, which are not gaps
    los = rng.uniform(-1.0, 1.0, (5, 300))
    his = los + rng.exponential(0.01, los.shape)
    los[3, ::50] = -np.inf
    his[4, 100] = np.inf
    assert (np.sort(los, axis=1)[:, -1] < np.inf).all()
    return los, his


def _one_gap_rows(rng):
    # a single gap, whose hi lies below every interval, in the last of many
    # otherwise gap-free rows: the gap must still be masked
    los = rng.uniform(-1.0, 1.0, (8, 300))
    his = los + rng.exponential(0.01, los.shape)
    los[7, 150], his[7, 150] = np.inf, -50.0
    return los, his


@pytest.mark.parametrize(
    "make",
    [
        _blade_rows, _random_rows, _gap_rows, _tie_and_touch_rows, _chained_row, _many_runs_row,
        _unbounded_gap_free_rows, _one_gap_rows,
    ],
    ids=lambda f: f.__name__[1:],
)
def test_canonical_rows_equal_the_argsort_reference(make):
    los, his = make(np.random.default_rng(7))
    assert (his >= los)[los < np.inf].all()
    los_in, his_in = los.copy(), his.copy()
    got = canonical_rows(los, his)
    want = argsort_canonical_rows(los, his)
    # inputs are untouched: callers pass views of the arrays they keep
    assert np.array_equal(los, los_in) and np.array_equal(his, his_in)
    assert got.rows == want.rows
    for name in ("lo", "hi", "row"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.row.dtype == want.row.dtype
    # the inputs produce both merged groups and separate ones
    assert len(np.unique(want.row)) < len(want.lo) < los.size


def test_cover_rows_of_the_large_constructions_collapse(monkeypatch):
    # fine P1 (n > BUDGET / 2) runs one-row batches: over A_cover the blades
    # chain into few runs and collapse; over A_small its rows fall apart into
    # thousands and are sorted as given.  Fine E1 (n <= BUDGET / 2) runs
    # batches of several rows, which never go through _collapse_chains
    chains = []

    def spy(los, his):
        got = _collapse_chains(los, his)
        chains.append(got[0].shape[1] < los.shape[1])
        return got

    monkeypatch.setattr(measure, "_collapse_chains", spy)
    for scene, eps in (("P1", 0.015), ("E1", 0.01)):
        spec = dataclasses.replace(load_scene(scene), epsilon=eps)
        blinds = key_construction(
            spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            spec.epsilon, spec.delta, caps=spec.caps,
        ).blinds
        one_row = scene == "P1"
        assert (len(blinds) > BUDGET // 2) == one_row
        for grid, collapsed in ((spec.a_cover(), True), (spec.a_small(), False)):
            chains.clear()
            batches = list(project_blinds_grid(spec.curve(), grid.grid(), blinds))
            assert sum(b.rows for b in batches) == len(grid.grid())
            if one_row:
                assert len(chains) == len(grid.grid())
                assert set(chains) == {collapsed}
            else:
                # only a last step of one alpha reaches _collapse_chains
                assert len(chains) == (len(grid.grid()) % (BUDGET // len(blinds)) == 1)


def test_inflate_and_erode():
    u = batch_of([[(0.0, 1.0), (2.0, 2.1)], []])
    inflated = u.inflate(0.2)
    assert math.isclose(inflated.measures()[0], 1.4 + 0.5)
    eroded = u.erode(0.1)
    assert rows_of(eroded) == [((0.1, 0.9),), ()]  # the short interval vanishes
    # erosion then inflation is a contraction
    back = eroded.inflate(0.1)
    assert u.covers(back).all()
    with pytest.raises(ValueError):
        u.inflate(-0.1)
    with pytest.raises(ValueError):
        u.erode(-0.1)


def test_difference():
    u = batch_of([[(0.0, 4.0)], [(0.0, 1.0)], []])
    v = batch_of([[(1.0, 2.0), (3.0, 5.0)], [], [(0.0, 1.0)]])
    assert rows_of(u.difference(v)) == [((0.0, 1.0), (2.0, 3.0)), ((0.0, 1.0),), ()]
    assert rows_of(u.difference(u)) == [(), (), ()]


def test_contains_with_margin():
    # containment with a margin is containment in the inflated union
    u = batch_of([[(0.0, 1.0)]])
    t = batch_of([[(0.1, 0.9)]])
    assert u.covers(t).all()
    assert not t.covers(u).any()
    assert t.inflate(0.2).covers(u).all()


def test_contains_requires_single_component_cover():
    u = batch_of([[(0.0, 0.4), (0.6, 1.0)], [(0.0, 0.4), (0.4 + 1e-15, 1.0)]])
    t = batch_of([[(0.1, 0.9)], [(0.1, 0.9)]])  # spans the gap; dust merges
    assert u.covers(t).tolist() == [False, True]


# interval rows with dust gaps of 1e-15 and exactly MERGE_TOL, overlaps,
# degenerate [x, x] intervals and empty rows, listed in any order
_GAPS = st.sampled_from([-0.3, 0.0, 1e-15, MERGE_TOL, 2e-12, 1e-9, 0.25])
_WIDTHS = st.sampled_from([0.0, 1e-15, MERGE_TOL, 1e-9, 0.05]) | st.floats(0.0, 1.0)


@st.composite
def _interval_rows(draw, rows):
    out = []
    for _ in range(rows):
        x = draw(st.floats(-2.0, 2.0))
        row = []
        for _ in range(draw(st.integers(0, 6))):
            x += draw(_GAPS)
            width = draw(_WIDTHS)
            row.append((x, x + width))
            x += width
        out.append(draw(st.permutations(row)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(lambda rows: st.tuples(_interval_rows(rows), _interval_rows(rows))),
    st.sampled_from([0.0, 1e-9]),
    st.sampled_from([1e-15, MERGE_TOL, 1e-9, 0.01, 0.2]) | st.floats(0.0, 0.5),
)
def test_array_operations_match_scalar_reference(rows, margin, shift):
    a_rows, b_rows = rows
    a, b = batch_of(a_rows), batch_of(b_rows)
    ra = [union_of(row) for row in a_rows]
    rb = [union_of(row) for row in b_rows]
    assert rows_of(a) == [u.intervals for u in ra]
    assert a.measures().tolist() == [u.measure for u in ra]
    inflated, eroded = a.inflate(shift), a.erode(shift)
    assert rows_of(inflated) == [u.inflate(shift).intervals for u in ra]
    assert rows_of(eroded) == [u.erode(shift).intervals for u in ra]
    assert eroded.measures().tolist() == [u.erode(shift).measure for u in ra]
    grown = a.inflate(margin)
    assert grown.covers(b).tolist() == [contains(u, v, margin) for u, v in zip(ra, rb)]
    # the certificate skips the margin for rows covered without it
    assert not (a.covers(b) & ~grown.covers(b)).any()
    for target, scalar in ((b, rb), (b.inflate(shift), [v.inflate(shift) for v in rb])):
        expected = [v.difference(u.inflate(margin)) for u, v in zip(ra, scalar)]
        deficit = target.difference(grown)
        assert rows_of(deficit) == [d.intervals for d in expected]
        assert deficit.measures().tolist() == [d.measure for d in expected]


# radii at and around MERGE_TOL, and large enough to merge whole rows
_RADII = (
    st.sampled_from([0.0, MERGE_TOL / 2.0, MERGE_TOL, np.nextafter(MERGE_TOL, 1.0), 2.0 * MERGE_TOL])
    | st.floats(0.0, 1.0)
    | st.floats(1.0, 1e4)
    | st.just(1e3)
)


def _resorted(lo, hi, row, rows):
    """The canonical union of intervals given in row order, by sorting."""
    return canonical_rows(measure._layout(row, rows, lo, np.inf), measure._layout(row, rows, hi, 0.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(lambda rows: st.tuples(_interval_rows(rows), _interval_rows(rows))),
    _RADII,
)
def test_order_preserving_operations_equal_the_sorting_canonicalizer(rows, r):
    # lo -/+ r and hi +/- r keep a canonical union's order, and so do the
    # pieces of a difference: merging neighbours gives the groups that
    # sorting them gives, bit for bit
    u, v = batch_of(rows[0]), batch_of(rows[1])

    def operations():
        return [
            u.inflate(r), u.erode(r),
            u.difference(v), v.inflate(r).difference(u), u.difference(u.erode(r)),
        ]

    got = operations()
    with mock.patch.object(measure, "_merge_neighbours", _resorted):
        want = operations()
    for g, w in zip(got, want):
        assert g.rows == w.rows
        for name in ("lo", "hi", "row"):
            assert getattr(g, name).dtype == getattr(w, name).dtype
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name


def test_measures_sum_left_to_right():
    # disjoint intervals over thirty binades: pairwise summation (np.sum,
    # np.add.reduceat) differs from Python's left-to-right sum on some rows
    rng = np.random.default_rng(5)
    rows = [
        np.sort(np.exp(rng.uniform(-30.0, 0.0, 2 * k))).reshape(k, 2).tolist()
        for k in rng.integers(0, 300, 40).tolist()
    ]
    widths = [[hi - lo for lo, hi in row] for row in rows]
    assert any(sum(w) != float(np.sum(w)) for w in widths)
    assert batch_of(rows).measures().tolist() == [union_of(row).measure for row in rows]


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
            assert rows_of(u) == [project_segment(curve, alpha, seg).intervals]
            oracle = _segment_oracle(curve, alpha, seg)
            if oracle is None:
                assert rows_of(u) == [()]
                continue
            if rows_of(u) == [()]:
                # clipped sliver below sampling resolution
                continue
            (lo, hi), (olo, ohi) = (u.lo[0], u.hi[0]), oracle
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
    assert rows_of(u) == [((base, 2.0 + base),)]
    assert rows_of(project_blinds(curve, 5.0, blinds)) == [()]


def test_project_fiber_arc_matches_sampling():
    rng = np.random.default_rng(2)
    for name in ("parabola", "exp"):
        curve = builtin_curve(name)
        y = Point(0.5, 1.0)
        arc = FiberArc(y, curve.a + 0.1, curve.b - 0.1)
        for _ in range(10):
            alpha = float(rng.uniform(curve.a + 0.7, curve.b + 0.5))
            u = project_fiber_arc(curve, alpha, arc)
            assert rows_of(u) == [scalar_fiber_arc(curve, alpha, arc).intervals]
            s = alpha - y.x1
            t0 = max(arc.lo, curve.a - s, curve.a)
            t1 = min(arc.hi, curve.b - s, curve.b)
            if t0 > t1:
                assert rows_of(u) == [()]
                continue
            ts = np.linspace(t0, t1, 5001)
            vals = [
                y.x2 - curve.f(curve.clamp_t(t)) + curve.f(curve.clamp_t(t + s))
                for t in ts
            ]
            lo, hi = u.lo[0], u.hi[0]
            assert abs(lo - min(vals)) < 1e-9
            assert abs(hi - max(vals)) < 1e-9


def test_project_fiber_arc_batch_matches_scalar_reference():
    # a grid across the whole strip range, plus alphas whose admissible
    # parameter range is empty by less and by more than DOMAIN_TOL at either end
    for name in ("parabola", "quarter_circle", "exp"):
        curve = builtin_curve(name)
        y = Point(0.5, 1.0)
        arc = FiberArc(y, curve.a + 0.2 * (curve.b - curve.a), curve.b - 0.1 * (curve.b - curve.a))
        edges = [y.x1 + curve.b - arc.lo, y.x1 + curve.a - arc.hi]
        alphas = np.linspace(edges[1] - 0.1, edges[0] + 0.1, 41).tolist()
        alphas += [e + sign * d for e in edges for sign in (1, -1) for d in (5e-13, 3e-12)]
        expected = [scalar_fiber_arc(curve, alpha, arc).intervals for alpha in alphas]
        assert rows_of(project_fiber_arc(curve, alphas, arc)) == expected
        assert sum(len(row) == 1 and row[0][0] == row[0][1] for row in expected) >= 2


def test_fiber_arc_rejects_empty_range():
    with pytest.raises(ValueError):
        FiberArc(Point(0.0, 0.0), 1.0, 1.0)


def test_project_blinds_fast_path_matches_slow_path():
    # the kernel against the scalar reference; convex and concave curves:
    # interior critical points are minima on the first and maxima on the second
    blinds = _random_blinds(np.random.default_rng(4), 40)
    for name in ("parabola", "quarter_circle"):
        curve = builtin_curve(name)
        for alpha in np.linspace(-0.5, 2.0, 11).tolist():
            slow = project_segments(curve, alpha, blinds.segments)
            (fast,) = rows_of(project_blinds(curve, alpha, blinds))
            assert len(fast) == len(slow.intervals)
            for (flo, fhi), (slo, shi) in zip(fast, slow.intervals):
                assert abs(flo - slo) < 1e-9
                assert abs(fhi - shi) < 1e-9


def test_project_blinds_drops_segments_outside_the_strip():
    # the vertical segment at x1=2 misses the strip [-0.5, 0.5] of alpha=0.5;
    # its unclipped image [-1, 1] would swallow the other segment's
    curve = builtin_curve("parabola")
    blinds = BlindSet(np.array([[0.0, 0.0, 0.1, 0.0], [2.0, -1.0, 2.0, 1.0]]))
    expected = project_segment(curve, 0.5, blinds.segments[0])
    (batch,) = project_blinds_grid(curve, [0.5, 0.5], blinds)
    assert rows_of(batch) == [expected.intervals] * 2


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
    batches = list(project_blinds_grid(curve, alphas, blinds))
    step = max(1, BUDGET // len(blinds))
    assert sum(b.rows for b in batches) == len(alphas)
    for b in batches:
        # whole kernel steps, stacked while rows x widest row stays within BUDGET
        assert b.rows % step == 0 or b is batches[-1]
        assert b.rows <= step or b.rows * np.bincount(b.row).max() <= BUDGET
    batched = [row for b in batches for row in rows_of(b)]
    assert len(batched) == len(alphas)
    for alpha, got in zip(alphas, batched):
        assert [got] == rows_of(project_blinds(curve, alpha, blinds))
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
        assert batched[-1] == () and batched[len(alphas) // 2] != ()


@pytest.mark.parametrize(
    "n", [BUDGET // 2, BUDGET // 2 + 1, BUDGET - 1, BUDGET, BUDGET + 1]
)
def test_project_blinds_grid_equals_per_alpha_at_batch_edges(n):
    curve = builtin_curve("parabola")
    blinds = _random_blinds(np.random.default_rng(n), n)
    _assert_grid_matches_per_alpha(curve, np.linspace(-0.5, 2.0, 7).tolist(), blinds)


def test_project_blinds_grid_stacks_steps_up_to_budget():
    # one alpha per kernel step; narrow rows stack, a row as wide as the
    # budget allows stands alone
    curve = builtin_curve("parabola")
    blinds = _random_blinds(np.random.default_rng(9), BUDGET)
    alphas = np.linspace(-0.5, 2.0, 7).tolist()
    batches = _assert_grid_matches_per_alpha(curve, alphas, blinds)
    assert len(list(project_blinds_grid(curve, alphas, blinds))) < len(alphas)
    # short horizontal segments 1e-3 apart project to BUDGET disjoint intervals
    heights = np.arange(BUDGET) * 1e-3
    wide = BlindSet(np.column_stack([np.full(BUDGET, 0.2), heights, np.full(BUDGET, 0.2001), heights]))
    rows = list(project_blinds_grid(curve, [0.5, 0.5, 0.5], wide))
    assert [(b.rows, len(b.row)) for b in rows] == [(1, BUDGET)] * 3
    assert batches[len(alphas) // 2] != ()


@pytest.mark.parametrize("mixed", [False, True], ids=["endpoint_only", "mixed"])
def test_project_blinds_grid_batches_outlive_the_next_batch(mixed):
    # the kernel reuses its batch buffers: every yielded batch, kept while the
    # later ones are made, must still hold its own rows.  BUDGET / 16 short
    # steep segments inside every strip of the alphas project to disjoint
    # intervals, so each batch is one kernel step of about 16 alphas
    curve = builtin_curve("parabola")
    n = BUDGET // 16
    x, heights = np.linspace(0.3, 0.8, n), np.arange(n) * 1e-2
    coords = np.column_stack([x, heights, x + 1e-4, heights + 5e-4])
    if mixed:
        coords = np.concatenate([coords, _random_blinds(np.random.default_rng(5), 64).coords])
    blinds = BlindSet(coords)
    alphas = np.linspace(1.0, 1.2, 97).tolist()
    endpoint_only = _endpoint_only(curve, np.array(alphas), coords)
    assert endpoint_only[:n].all() and endpoint_only.all() != mixed
    assert len(list(project_blinds_grid(curve, alphas, blinds))) >= 3
    # both collect every batch with list() before comparing any of them
    _assert_grid_matches_per_alpha(curve, alphas, blinds)
    _assert_bitwise_general(curve, alphas, blinds)


def test_project_blinds_grid_fallback_for_scalar_curves():
    # a custom profile, built outside builtin_curve, runs the same kernel
    curve = CurveProfile(
        f=lambda t: t * t,
        df=lambda t: 2.0 * t,
        df_inverse=lambda u: u / 2.0,
        a=0.0,
        b=1.0,
        df_bound=2.0,
    )
    blinds = _random_blinds(np.random.default_rng(3), 30)
    alphas = np.linspace(-1.0, 3.0, 11).tolist()
    batched = _assert_grid_matches_per_alpha(curve, alphas, blinds)
    for alpha, got in zip(alphas, batched):
        assert got == project_segments(curve, alpha, blinds.segments).intervals


def _assert_bitwise_general(curve, alphas, blinds):
    """The kernel's batches equal the all-general reference's, bit for bit."""
    got = list(project_blinds_grid(curve, alphas, blinds))
    want = list(general_projection_grid(curve, alphas, blinds))
    assert [b.rows for b in got] == [b.rows for b in want]
    for g, w in zip(got, want):
        for name in ("lo", "hi", "row"):
            assert np.array_equal(getattr(g, name), getattr(w, name))
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes()


# distances from a decision boundary, in x1 units: inside, at and beyond the
# margin (1e-9 per unit of coordinate magnitude), down to rounding dust
_OFFSETS = [0.0] + [s * d for d in (1e-12, 5e-10, 1e-9, 2e-9, 3e-9, 5e-9, 1e-8, 1e-6, 1e-3) for s in (1, -1)]


def _adversarial_blinds(curve, a_lo, a_hi):
    """Segments at the endpoint-only boundaries of the alpha range [a_lo, a_hi]:
    ends near the edges a_hi - b and a_lo - a of the strips' common part,
    near-vertical and vertical ones, and critical x1 positions that meet the
    x1 range at only one end of the alpha range or miss it by an offset."""
    edge_lo, edge_hi = a_hi - curve.b, a_lo - curve.a
    mid = (a_lo + a_hi - curve.a - curve.b) / 2.0
    dlo, dhi = curve.df_range()
    slopes = (dlo - 1.0, dhi + 1.0, (3.0 * dlo + dhi) / 4.0, (dlo + 3.0 * dhi) / 4.0)
    rows = []
    for d in _OFFSETS:
        for s in slopes:
            rows.append((edge_lo + d, edge_lo + d + 0.05, s))  # left end at the edge
            rows.append((edge_hi - d - 0.05, edge_hi - d, s))  # right end at the edge
    for dx in (1e-12, 2e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        for x in (mid, edge_lo + 2e-9, edge_hi - 2e-9, edge_lo - 1e-7):
            rows += [(x, x + dx, 0.1 / dx), (x + dx, x, 0.1 / dx)]
    for s in slopes[2:]:
        tc = curve.df_inv(s)
        p_lo, p_hi = a_lo - tc, a_hi - tc  # the critical x1 position at a_lo, a_hi
        half = (p_hi - p_lo) / 2.0
        rows.append((p_lo - 0.05, p_lo + half, s))  # crit inside at a_lo only
        rows.append((p_hi - half, p_hi + 0.05, s))  # crit inside at a_hi only
        for d in _OFFSETS:
            rows.append((p_lo - d - 0.05, p_lo - d, s))  # crit right of it from a_lo on
            rows.append((p_hi + d, p_hi + d + 0.05, s))  # crit left of it up to a_hi
    coords = []
    for i, (x0, x1, s) in enumerate(rows):
        y0 = 0.01 * i
        seg = [x0, y0, x1, y0 + s * (x1 - x0)]
        coords += [seg, seg[2:] + seg[:2]]  # both orientations
    coords.append([mid, 0.0, mid, 0.3])  # exactly vertical
    return BlindSet(np.array(coords))


@pytest.mark.parametrize("name", ["parabola", "quarter_circle", "exp"])
@pytest.mark.parametrize("span", [0.0, 1e-6, 0.4, 3.5])
def test_endpoint_only_evaluation_is_bitwise_the_general_one(name, span):
    # single-alpha, narrow, moderate and wide grids (the widest has no strip
    # common to all its alphas, so every segment takes the general path)
    curve = builtin_curve(name)
    a_lo = (curve.a + curve.b) / 2.0 + 0.5 - span / 2.0
    alphas = np.linspace(a_lo, a_lo + span, 1 if span == 0.0 else 41)
    blinds = _adversarial_blinds(curve, alphas[0], alphas[-1])
    endpoint_only = _endpoint_only(curve, alphas, blinds.coords)
    assert endpoint_only.any() == (span < 3.5) and not endpoint_only.all()
    _assert_bitwise_general(curve, alphas, blinds)
    _assert_bitwise_general(curve, alphas, _random_blinds(np.random.default_rng(11), 300))


@pytest.mark.parametrize("name", ["parabola", "quarter_circle", "exp"])
@pytest.mark.parametrize("span", [0.0, 1e-6, 0.4])
def test_endpoint_only_values_need_no_clip(name, span):
    # the endpoint-only evaluation leaves out the general one's clip of
    # alpha - x1 to [a, b]; strictly inside [a, b], the clip returns every
    # value with its bits (at a bound it could swap -0.0 and 0.0)
    curve = builtin_curve(name)
    a_lo = (curve.a + curve.b) / 2.0 + 0.5 - span / 2.0
    alphas = np.linspace(a_lo, a_lo + span, 1 if span == 0.0 else 41)
    for blinds in (
        _adversarial_blinds(curve, alphas[0], alphas[-1]),
        _random_blinds(np.random.default_rng(11), 300),
    ):
        coords = blinds.coords[_endpoint_only(curve, alphas, blinds.coords)]
        assert len(coords)
        dx1 = coords[:, 2] - coords[:, 0]
        for t in (0.0, 1.0):
            s = alphas[:, None] - (t * dx1 + coords[:, 0])
            assert (s > curve.a).all() and (s < curve.b).all()


def test_endpoint_only_sends_crossings_to_the_general_path():
    # parabola strips are [alpha - 1, alpha], so over alpha in [0.3, 0.7]
    # their common part is [-0.3, 0.3]; at slope 1 the critical x1 position
    # is alpha - 0.5
    curve = builtin_curve("parabola")
    alphas = np.linspace(0.3, 0.7, 41)
    assert curve.df_inv(1.0) == 0.5
    coords = np.array([
        [0.0, 0.0, 0.1, 0.0],  # inside every strip; critical position alpha on its right
        [0.5, 0.0, 0.6, 0.0],  # the edge alpha crosses it at alpha in [0.5, 0.6]
        [-0.35, 0.0, -0.2, 0.0],  # the edge alpha - 1 crosses it at alpha in [0.65, 0.7]
        # the critical position lies left of it at alpha = 0.3, right of it at
        # 0.7, and crosses it at alpha in [0.5, 0.6]
        [0.0, 0.0, 0.1, 0.1],
        [-0.25, 0.0, -0.15, 0.1],  # the critical position crosses it at alpha in [0.25, 0.35]
        [0.1, 0.0, 0.1, 0.1],  # vertical
    ])
    assert _endpoint_only(curve, alphas, coords).tolist() == [True] + [False] * 5
    # at alpha = 0.7 alone only the edge alpha - 1 crosses a segment
    assert _endpoint_only(curve, alphas[-1:], coords).tolist() == [True, True, False, True, True, False]
    _assert_bitwise_general(curve, alphas, BlindSet(coords))


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_benchmark_constructions_take_the_endpoint_only_path(scene):
    # every segment of the key construction, at the shipped and the fine eps,
    # on both certificate grids: a fall back to the general path would keep
    # the bytes and lose the speed
    spec = load_scene(scene)
    curve = spec.curve()
    for eps in (spec.epsilon, {"Q1": 0.02, "P1": 0.015, "E1": 0.01}[scene]):
        result = key_construction(
            curve, spec.y, spec.subrange, spec.a_small(), spec.a_cover(), eps, spec.delta,
            caps=spec.caps,
        )
        for grid in (spec.a_cover().grid(), spec.a_small().grid()):
            assert _endpoint_only(curve, grid, result.blinds.coords).all()


@pytest.mark.parametrize(
    "ends", [(math.nan, 0.1), (0.0, math.nan), (-math.inf, 0.1), (0.0, math.inf)]
)
def test_alpha_set_rejects_non_finite_component_ends(ends):
    # a NaN end would otherwise build and fail later, in grid()
    with pytest.raises(ValueError, match="needs finite ends"):
        AlphaSet.from_intervals([ends])
    with pytest.raises(ValueError, match="needs finite ends"):
        AlphaSet(((0.0, 0.05), ends), 0.01)


@pytest.mark.parametrize("points", [-5, 0, 1, 1.7, 2.0, True, "200"])
def test_alpha_set_rejects_too_few_or_non_integer_points(points):
    with pytest.raises(ValueError, match="points per component"):
        AlphaSet.from_intervals([(0.0, 1.0)], points_per_component=points)
    assert len(AlphaSet.interval(0.0, 1.0, 2).grid()) == 2
