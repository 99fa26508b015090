"""The blind construction stack: rotate, vb, iterated blinds."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveblinds import blinds as blinds_module
from curveblinds.blinds import (
    BlindSet,
    Caps,
    ConstructionError,
    _distances_to_parents,
    _divide_rotate_level,
    _hulls_cover_ok,
    _infer_chirality,
    _level_search,
    auto_iter_vb,
    auto_vb_cover,
    iter_vb,
    rotate,
    vb,
)
from curveblinds.cli import _dump_json
from curveblinds.curve import builtin_curve
from curveblinds.geometry import Point, Segment
from curveblinds.measure import AlphaSet, project_blinds
from curveblinds.projline import (
    ANGLE_TOL,
    CCW,
    CHIRALITIES,
    CW,
    PI,
    Arc,
    Direction,
    angle_schedule,
    as_direction,
    dist,
    normalize,
)
from level_search_reference import doubling_level_search
from scalar_projection import contains, project_segment, to_scalar

SEG = Segment(Point(0.0, 0.0), Point(1.0, 0.3))


def test_divide_pieces_partition_segment():
    # every blade starts where its piece of the divided segment starts
    blinds = vb(SEG, 1.2, 2.1, 7)
    assert len(blinds) == 7
    starts = blinds.coords[:, 0:2]
    assert tuple(starts[0]) == SEG.a.as_tuple()
    steps = np.diff(np.vstack([starts, SEG.b.as_tuple()]), axis=0)
    assert np.allclose(steps, np.subtract(SEG.b.as_tuple(), SEG.a.as_tuple()) / 7, atol=1e-15)
    with pytest.raises(ValueError):
        vb(SEG, 1.2, 2.1, 0)


def test_rotate_directions():
    theta_small = normalize(1.2)
    theta_cover = normalize(2.1)
    out = rotate(SEG, theta_small, theta_cover)
    assert out.a == SEG.a
    assert dist(out.direction, theta_small) < 1e-9
    closing = Segment(SEG.b, out.b)
    assert dist(closing.direction, theta_cover) < 1e-9


def test_rotate_accepts_raw_floats():
    out = rotate(SEG, 1.2, 2.1)
    assert dist(out.direction, 1.2) < 1e-9


def test_rotate_rejects_degenerate_angles():
    with pytest.raises(ValueError):
        rotate(SEG, SEG.direction, 2.1)
    with pytest.raises(ValueError):
        rotate(SEG, 1.2, 1.2)


def test_vb_blades_and_provenance():
    blinds = vb(SEG, 1.2, 2.1, 5)
    assert len(blinds) == 5
    assert blinds.provenance == [(i,) for i in range(5)]
    for blade in blinds.segments:
        assert dist(blade.direction, 1.2) < 1e-9
    assert blinds.meta["chirality"] == CCW


def test_vb_orientation_violation():
    # requesting the chirality whose arc misses the segment direction
    with pytest.raises(ValueError):
        vb(SEG, 1.2, 2.1, 3, chirality=CW)


def test_branch_tree_shapes():
    # the tree is given by one branching count >= 1 per level
    for counts in ([], [2, 0], [-1]):
        with pytest.raises(ValueError):
            iter_vb(SEG, 1.4, 2.4, counts, chirality=CCW)
    assert len(iter_vb(SEG, 1.4, 2.4, (1, 1, 1), chirality=CCW)) == 1


def test_iter_vb_leaves_and_directions():
    blinds = iter_vb(SEG, 1.4, 2.4, [2, 3], chirality=CCW)
    assert len(blinds) == 6
    for leaf in blinds.segments:
        assert dist(leaf.direction, 1.4) < 1e-9
    assert sorted(blinds.provenance) == [
        (i, j) for i in range(2) for j in range(3)
    ]


def test_iter_vb_rejects_bad_chirality():
    with pytest.raises(ValueError):
        iter_vb(SEG, 1.4, 2.4, [2, 2], chirality="left")


# -- reference: the recursive Segment-object construction ------------------
#
# An independent implementation that vb and iter_vb are compared against:
# DIVIDE by Segment.point_at, ROTATE one piece at a time, and IterVB as a
# depth-first recursion that builds one VB per tree node.


def _ref_divide(seg, n):
    pts = [seg.point_at(i / n) for i in range(n + 1)]
    return [Segment(pts[i], pts[i + 1]) for i in range(n)]


def _ref_rotate(seg, theta_small, theta_cover):
    theta_seg = seg.direction
    for u, v in ((theta_seg, theta_small), (theta_seg, theta_cover), (theta_small, theta_cover)):
        if dist(u, v) <= ANGLE_TOL:
            raise ValueError("degenerate angle configuration")
    cs, ss = math.cos(theta_small.angle), math.sin(theta_small.angle)
    cc, sc = math.cos(theta_cover.angle), math.sin(theta_cover.angle)
    det = cs * sc - ss * cc
    wx = seg.b.x1 - seg.a.x1
    wy = seg.b.x2 - seg.a.x2
    s = (wx * sc - wy * cc) / det
    return Segment(seg.a, Point(seg.a.x1 + s * cs, seg.a.x2 + s * ss))


def _ref_vb(seg, theta_small, theta_cover, n, chirality=None):
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    theta_seg = seg.direction
    inferred = [
        chir for chir in CHIRALITIES
        if Arc(theta_cover, theta_small, chir).contains_strictly(theta_seg)
    ]
    if not inferred or chirality not in (None, inferred[0]):
        raise ValueError("orientation violation")
    return [_ref_rotate(piece, theta_small, theta_cover) for piece in _ref_divide(seg, n)]


def _ref_iter_vb(seg, theta_small, theta_cover, counts, chirality):
    """(coords, provenance), or the stage of the first failing node."""
    theta_cover = as_direction(theta_cover)
    schedule = angle_schedule(seg.direction, theta_small, len(counts), chirality)
    leaves, provenance = [], []

    def build(node, index):
        level = len(index)
        if level == len(counts):
            leaves.append([node.a.x1, node.a.x2, node.b.x1, node.b.x2])
            provenance.append(index)
            return
        try:
            stage = _ref_vb(node, schedule[level + 1], theta_cover, counts[level], chirality)
        except ValueError as exc:
            raise ConstructionError(str(exc), stage=index) from exc
        for child_i, child in enumerate(stage):
            build(child, index + (child_i,))

    build(seg, ())
    return np.array(leaves), provenance


def test_vb_matches_recursive_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta_seg = float(rng.uniform(0.0, math.pi))
        a = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        length = float(rng.uniform(0.01, 2.0))
        seg = Segment(a, Point(a.x1 + length * math.cos(theta_seg), a.x2 + length * math.sin(theta_seg)))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        gap_small = float(rng.uniform(0.05, 1.2))
        theta_small = normalize(theta_seg + sign * gap_small)
        theta_cover = normalize(theta_seg - sign * float(rng.uniform(0.05, math.pi - gap_small - 0.05)))
        n = int(rng.integers(1, 40))
        expected = _ref_vb(seg, theta_small, theta_cover, n)
        got = vb(seg, theta_small, theta_cover, n)
        ref = np.array([[s.a.x1, s.a.x2, s.b.x1, s.b.x2] for s in expected])
        assert np.max(np.abs(got.coords - ref)) <= 1e-12
        assert got.provenance == [(i,) for i in range(n)]
        assert got.meta["chirality"] == (CCW if sign > 0 else CW)


def test_iter_vb_matches_recursive_reference():
    rng = np.random.default_rng(12)
    seg = Segment(Point(0.2, -0.1), Point(0.9, 0.25))
    theta0 = seg.direction.angle
    failures = set()
    for _ in range(150):
        chirality = CCW if rng.random() < 0.5 else CW
        sign = 1.0 if chirality == CCW else -1.0
        theta_small = normalize(theta0 + sign * float(rng.uniform(0.1, 1.2)))
        # a cover direction off the far side keeps every level oriented; one
        # between theta0 and theta_small makes the schedule cross it at some level
        gap_cover = float(rng.choice([rng.uniform(-1.5, -0.05), rng.uniform(0.05, 1.1)]))
        theta_cover = normalize(theta0 + sign * gap_cover)
        counts = [int(c) for c in rng.integers(1, 5, size=int(rng.integers(1, 5)))]
        try:
            ref_coords, ref_prov = _ref_iter_vb(seg, theta_small, theta_cover, counts, chirality)
        except ConstructionError as ref_exc:
            with pytest.raises(ConstructionError) as exc:
                iter_vb(seg, theta_small, theta_cover, counts, chirality=chirality)
            assert exc.value.stage == ref_exc.stage
            failures.add(len(ref_exc.stage))
            continue
        got = iter_vb(seg, theta_small, theta_cover, counts, chirality=chirality)
        assert np.max(np.abs(got.coords - ref_coords)) <= 1e-12
        assert got.provenance == ref_prov
        assert got.provenance == list(itertools.product(*map(range, counts)))
    # violations are seen both at the root and below it
    assert 0 in failures and len(failures) > 1


def test_blind_set_json_roundtrip():
    blinds = vb(SEG, 1.2, 2.1, 4)
    data = blinds.to_json_dict()
    back = BlindSet.from_json_dict(data)
    assert np.allclose(back.coords, blinds.coords)
    assert back.provenance == blinds.provenance
    assert back.meta["kind"] == "vb"


def test_written_meta_reads_back_equal(tmp_path):
    # meta holds plain numbers, so the written blindset.json reads back equal
    curve, a_cover, seg = _q1_context()
    made = [
        vb(SEG, 1.2, 2.1, np.int64(4)),
        iter_vb(SEG, 1.4, 2.4, [2, 3], chirality=CCW),
        auto_vb_cover(curve, seg, 0.6, 2.5, a_cover, n_max=2**14)[1],
        auto_iter_vb(curve, seg, 0.75, 2.5, 0.05, a_cover=a_cover, chirality=CCW, delta=0.01),
    ]
    for blinds in made:
        path = tmp_path / f"{blinds.meta['kind']}.json"
        _dump_json(blinds.to_json_dict(), path)
        back = BlindSet.from_json_dict(json.loads(path.read_text()))
        assert back.meta == blinds.meta
        assert type(blinds.meta.get("n", 0)) is int


def test_blind_set_validation():
    with pytest.raises(ValueError):
        BlindSet(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        BlindSet(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        BlindSet(np.ones((2, 4)), provenance=[(0,)])


def test_blind_set_total_length_and_distance():
    blinds = BlindSet.from_segments([SEG])
    assert math.isclose(blinds.total_length, SEG.length)
    assert blinds.max_distance_to(SEG) < 1e-15


def _q1_context():
    """A covering-ready configuration on the quarter-circle curve."""
    curve = builtin_curve("quarter_circle")
    a_cover = AlphaSet.interval(0.4, 0.48, 50)
    seg = Segment(Point(-0.1, 0.9), Point(-0.08, 0.91))
    return curve, a_cover, seg


def test_auto_vb_cover_certifies_projection_containment():
    curve, a_cover, seg = _q1_context()
    n, blinds = auto_vb_cover(curve, seg, 0.6, 2.5, a_cover, n_max=2**14)
    assert len(blinds) == n
    # independent oracle: the blind projections must cover the segment's
    for alpha in a_cover.grid():
        target = project_segment(curve, float(alpha), seg)
        got = to_scalar(project_blinds(curve, float(alpha), blinds))
        assert contains(got, target, 1e-9)


def test_auto_vb_cover_respects_max_offset():
    curve, a_cover, seg = _q1_context()
    n, blinds = auto_vb_cover(
        curve, seg, 0.6, 2.5, a_cover, n_max=2**16, max_offset=0.002
    )
    assert blinds.max_distance_to(seg) <= 0.002 + 1e-12


def test_auto_vb_cover_cap_error():
    curve, a_cover, seg = _q1_context()
    for kwargs in (
        # an unattainable blade-offset bound forces the doubling past the cap
        dict(n_max=64, max_offset=1e-12),
        # a starting count above the cap is never tried
        dict(n0=128, n_max=64),
    ):
        with pytest.raises(ConstructionError) as err:
            auto_vb_cover(curve, seg, 0.6, 2.5, a_cover, **kwargs)
        assert err.value.stage == "vb_cover"


def test_auto_iter_vb_stays_within_budget_and_reaches_small_direction():
    curve, a_cover, seg = _q1_context()
    eps = 0.05
    blinds = auto_iter_vb(
        curve, seg, 0.75, 2.5, eps, a_cover=a_cover, chirality=CCW,
        caps=Caps(n_max=2**20, m_max=128), delta=0.01,
    )
    for leaf in blinds.segments:
        assert dist(leaf.direction, 0.75) < 1e-9
    # every leaf stays within the seed radius delta0 of the base segment
    assert blinds.max_distance_to(seg) <= blinds.meta["delta0"] + 1e-12
    assert blinds.meta["depth"] == len(blinds.meta["level_counts"])


def test_auto_iter_vb_cap_names_the_failing_level():
    curve, a_cover, seg = _q1_context()
    kwargs = dict(a_cover=a_cover, chirality=CCW, delta=0.01)
    counts = auto_iter_vb(
        curve, seg, 0.75, 2.5, 0.05, caps=Caps(n_max=2**20, m_max=128), **kwargs
    ).meta["level_counts"]
    failing = [k for k, n in enumerate(counts) if n >= 2]
    assert failing
    for k in failing:
        # one piece fewer than level k needs: the levels before it still fit
        n_max = math.prod(counts[: k + 1]) - 1
        with pytest.raises(ConstructionError) as err:
            auto_iter_vb(
                curve, seg, 0.75, 2.5, 0.05, caps=Caps(n_max=n_max, m_max=128), **kwargs
            )
        assert type(err.value.stage) is int and err.value.stage == k
        assert f"at level {k + 1}/{len(counts)}" in str(err.value)


def _hulls_cover_reference(curve, hulls, level_dir, theta_cover, chirality, a_cover):
    """The covering hypotheses' arc test as a scalar loop over the hulls.

    Each hull's theta range [phi_lo, phi_hi] must have both ends in the closed
    arc (Arc.contains) and meet them in traversal order; an offset within the
    tolerance of pi lies just before the start.
    """
    tol = 1e-12
    arc = Arc(theta_cover, level_dir, chirality)

    def position(theta):
        u = arc.offset(theta)
        return u - PI if u >= PI - tol else u

    amin, amax = a_cover.bounds
    for row in hulls:
        x1s = row[[0, 2, 4]]
        ts = np.clip([amin - x1s.max(), amax - x1s.min()], curve.a, curve.b)
        phis = np.arctan(curve.df(ts)).tolist()
        lo, hi = min(phis), max(phis)
        first, second = (lo, hi) if chirality == CCW else (hi, lo)
        if not (arc.contains(first, tol) and arc.contains(second, tol)):
            return False
        if position(first) > position(second) + tol:
            return False
    return True


@pytest.mark.parametrize("name", ["quarter_circle", "parabola"])
def test_hulls_cover_ok_matches_scalar_arc_test(name):
    curve = builtin_curve(name)
    rng = np.random.default_rng(11)
    a_cover = AlphaSet.interval(0.4, 0.48, 20)
    amin, amax = a_cover.bounds
    # the strip interior for every alpha in A_cover
    x_lo, x_hi = amax - curve.b + 1e-6, amin - curve.a - 1e-6
    margins = [5e-13, -5e-13, 2e-12, -2e-12]
    verdicts = set()
    trials = {CCW: [], CW: []}
    for trial in range(400):
        hulls = np.empty((3, 6))
        hulls[:, 0::2] = rng.uniform(x_lo, x_hi, size=(3, 3))
        hulls[:, 1::2] = rng.uniform(-1.0, 1.0, size=(3, 3))
        chirality = CCW if trial % 2 == 0 else CW
        if trial % 4 < 2:
            # an arc through the hulls' own theta range, ends straddling the tolerance
            x1s = hulls[:, 0::2]
            ts = np.concatenate([amin - x1s.max(axis=1), amax - x1s.min(axis=1)])
            phis = np.arctan(curve.df(np.clip(ts, curve.a, curve.b)))
            before, after = (float(m) for m in rng.choice(margins, size=2))
            if chirality == CCW:
                theta_cover = normalize(float(phis.min()) - before)
                level_dir = normalize(float(phis.max()) + after)
            else:
                theta_cover = normalize(float(phis.max()) + before)
                level_dir = normalize(float(phis.min()) - after)
        else:
            theta_cover = normalize(float(rng.uniform(0.0, PI)))
            level_dir = normalize(theta_cover.angle + float(rng.uniform(0.1, 3.0)))
        expected = _hulls_cover_reference(
            curve, hulls, level_dir, theta_cover, chirality, a_cover
        )
        got = _hulls_cover_ok(
            curve, hulls, [len(hulls)], np.array([level_dir.angle]),
            np.array([theta_cover.angle]), chirality, a_cover,
        )
        assert got.tolist() == [expected]
        verdicts.add(expected)
        trials[chirality].append((hulls, level_dir.angle, theta_cover.angle, expected))
    assert verdicts == {True, False}
    # one call over every trial of a chirality gives each group its own verdict
    for chirality, groups in trials.items():
        hulls, level_dirs, covers, expected = zip(*groups)
        got = _hulls_cover_ok(
            curve, np.concatenate(hulls), np.full(len(groups), 3), np.array(level_dirs),
            np.array(covers), chirality, a_cover,
        )
        assert got.tolist() == list(expected)


def test_auto_iter_vb_preconditions():
    curve, a_cover, seg = _q1_context()
    long_seg = Segment(Point(-0.1, 0.9), Point(0.3, 1.1))
    with pytest.raises(ConstructionError):
        auto_iter_vb(curve, long_seg, 0.75, 2.5, 0.05)
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            auto_iter_vb(curve, seg, 0.75, 2.5, eps)
    with pytest.raises(ConstructionError):
        # depth cap too small for the requested arc/eps
        auto_iter_vb(curve, seg, 0.75, 2.5, 0.05, caps=Caps(m_max=2))


def test_auto_iter_vb_small_set_precondition():
    curve, a_cover, seg = _q1_context()
    # over alpha ~ 0, theta_alpha(seg.a) ~ atan(df(0.1)) ~ -0.1 rad which is
    # far outside the short schedule arc [seg.dir, seg.dir + eps]
    a_small = AlphaSet.interval(-0.05, 0.05, 20)
    with pytest.raises(ConstructionError):
        auto_iter_vb(
            curve, seg, normalize(seg.direction.angle + 0.04), 2.5, 0.05,
            a_small=a_small, chirality=CCW,
        )


def _small_precondition_reference(curve, seg, theta_small, chirality, a_small):
    """The A_small precondition as a scalar loop: (message, witness) or None."""
    band = Arc(seg.direction, theta_small, chirality)
    for alpha in a_small.grid():
        t = alpha - seg.a.x1
        if not curve.a - 1e-12 <= t <= curve.b + 1e-12:
            continue
        phi = math.atan(curve.df(curve.clamp_t(t)))
        if not band.contains(phi, tol=1e-9):
            return (
                f"theta_alpha(seg.a) = {phi:.6g} outside the schedule arc at "
                f"alpha={float(alpha):.6g}",
                float(alpha),
            )
    return None


@pytest.mark.parametrize("name", ["parabola", "quarter_circle", "exp"])
def test_auto_iter_vb_small_precondition_matches_scalar_loop(name):
    curve = builtin_curve(name)
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(60):
        x1 = float(rng.uniform(-1.0, 1.0))
        width = curve.b - curve.a
        components = []
        lo = x1 + curve.a + float(rng.uniform(-0.3, 0.8)) * width
        for _ in range(int(rng.integers(1, 3))):
            hi = lo + float(rng.uniform(0.0, 0.4)) * width
            components.append((lo, hi))
            lo = hi + float(rng.uniform(0.05, 0.2)) * width
        a_small = AlphaSet.from_intervals(components, int(rng.integers(5, 60)))
        ts = np.clip(a_small.grid() - x1, curve.a, curve.b)
        phis = [math.atan(curve.df(float(t))) for t in ts]
        # a band around the attained directions, sometimes a little too short;
        # margins of +-5e-10 and +-2e-9 straddle the 1e-9 membership tolerance
        lo_dir, hi_dir = min(phis), max(phis)
        lo_dir -= float(rng.choice([rng.uniform(-0.03, 0.05), 5e-10, -5e-10, 2e-9, -2e-9]))
        hi_dir += float(rng.choice([rng.uniform(-0.03, 0.05), 5e-10, -5e-10, 2e-9, -2e-9]))
        chirality = CCW if rng.random() < 0.5 else CW
        theta0, theta_small = (lo_dir, hi_dir) if chirality == CCW else (hi_dir, lo_dir)
        theta_cover = theta0 - (0.4 if chirality == CCW else -0.4)
        a = Point(x1, float(rng.uniform(-1.0, 1.0)))
        seg = Segment(a, Point(a.x1 + 0.1 * math.cos(theta0), a.x2 + 0.1 * math.sin(theta0)))
        expected = _small_precondition_reference(curve, seg, theta_small, chirality, a_small)
        got = None
        try:
            auto_iter_vb(
                curve, seg, theta_small, theta_cover, 0.3,
                a_small=a_small, chirality=chirality, caps=Caps(n_max=16),
            )
        except ConstructionError as exc:
            if exc.stage == "precondition":
                got = (str(exc), exc.witness)
        assert got == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_divide_rotate_level_rows_match_one_row_calls():
    # per-row directions and ragged piece counts: each row's children and hulls
    # are bit for bit those of a call on that row alone
    rng = np.random.default_rng(3)
    coords = rng.uniform(-1.0, 1.0, size=(6, 4))
    target = rng.uniform(0.0, PI, size=6)
    cover = np.fmod(target + rng.uniform(0.3, 2.8, size=6), PI)
    n = np.array([1, 3, 1, 7, 2, 5])
    children, hulls = _divide_rotate_level(coords, target, cover, n)
    one_row = [
        _divide_rotate_level(coords[i : i + 1], float(target[i]), float(cover[i]), int(n[i]))
        for i in range(6)
    ]
    assert np.array_equal(children, np.concatenate([c for c, _ in one_row]))
    assert np.array_equal(hulls, np.concatenate([h for _, h in one_row]))
    with pytest.raises(ValueError):
        _divide_rotate_level(coords, target, cover, np.array([1, 1, 0, 1, 1, 1]))
    with pytest.raises(ValueError):
        _divide_rotate_level(coords, target, np.where(np.arange(6) == 4, target, cover), n)


def _divide_rotate_rows(coords, target, cover, n):
    """Per-row reference for _divide_rotate_level, in Python floats: each row
    checks its own angles and takes its own math.cos / math.sin."""
    children, hulls = [], []
    for (ax, ay, bx, by), t, c, m in zip(coords.tolist(), target, cover, n):
        if dist(t, c) <= ANGLE_TOL:
            raise ValueError(
                f"degenerate angle configuration (target/cover): {Direction(t)} vs {Direction(c)}"
            )
        cs, ss, cc, sc = math.cos(t), math.sin(t), math.cos(c), math.sin(c)
        det = cs * sc - ss * cc
        for j in range(m):
            lo, hi = j / m, (j + 1) / m
            pax, pbx = ax + (bx - ax) * lo, ax + (bx - ax) * hi
            pay, pby = ay + (by - ay) * lo, ay + (by - ay) * hi
            s = ((pbx - pax) * sc - (pby - pay) * cc) / det
            children.append([pax, pay, pax + s * cs, pay + s * ss])
            hulls.append([pax, pay, pbx, pby, pax + s * cs, pay + s * ss])
    return np.array(children), np.array(hulls)


def test_divide_rotate_level_matches_per_row_reference():
    # ragged groups of rows: a few (target, cover) pairs shared by many rows,
    # in no order, next to pairs of their own, and a zero of either sign
    rng = np.random.default_rng(5)
    k = 60
    coords = rng.uniform(-1.0, 1.0, size=(k, 4))
    shared = [(0.0, 1.1), (-0.0, 1.1), (1.2, 2.1), (2.9, 0.4)]
    pick = rng.integers(0, len(shared), size=k)
    target = np.array([shared[i][0] for i in pick])
    cover = np.array([shared[i][1] for i in pick])
    own = rng.random(k) < 0.3
    target[own] = rng.uniform(0.0, PI, size=own.sum())
    cover[own] = np.fmod(target[own] + rng.uniform(0.3, 2.8, size=own.sum()), PI)
    # a first child starting at y = -0.0 keeps that sign in its tip's y only
    # if its target's sine is -0.0 too: the zeros of either sign are two pairs
    target[:2], cover[:2] = (-0.0, 0.0), 1.1
    coords[:2, 1], coords[:2, 3] = -0.0, -0.5
    n = rng.integers(1, 8, size=k)
    children, hulls = _divide_rotate_level(coords, target, cover, n)
    want = _divide_rotate_rows(coords, target.tolist(), cover.tolist(), n.tolist())
    assert children.tobytes() == want[0].tobytes()
    assert hulls.tobytes() == want[1].tobytes()
    # one angle for all rows
    children, _ = _divide_rotate_level(coords, 1.2, 2.1, 3)
    assert children.tobytes() == _divide_rotate_rows(coords, [1.2] * k, [2.1] * k, [3] * k)[0].tobytes()


def test_divide_rotate_level_names_the_first_degenerate_row():
    # two degenerate pairs; the one of the earlier row sorts after the other
    coords = np.random.default_rng(6).uniform(-1.0, 1.0, size=(5, 4))
    target = [1.2, 2.0, 1.2, 0.5, 2.0]
    cover = [2.1, 2.0 + 0.5 * ANGLE_TOL, 2.1, 0.5, 2.0 + 0.5 * ANGLE_TOL]
    with pytest.raises(ValueError) as want:
        _divide_rotate_rows(coords, target, cover, [1] * 5)
    with pytest.raises(ValueError) as got:
        _divide_rotate_level(coords, np.array(target), np.array(cover), 2)
    assert str(got.value) == str(want.value)
    assert str(Direction(2.0)) in str(got.value)


def _farthest_tip(parents, target, cover, n):
    """The farthest blade tip from its own parent when every parent is cut into n."""
    children, _ = _divide_rotate_level(parents, target, cover, n)
    return float(np.max(_distances_to_parents(np.repeat(parents, n, axis=0), children[:, 2:4])))


def test_level_search_groups_are_independent(monkeypatch):
    # group "one" passes at n=1, group "eight" (two parents) needs n=8 and
    # group "never" has a budget no blade meets, so it passes the cap
    one = np.array([[0.0, 0.0, 1.0, 0.3]])
    eight = np.array([[1.0, 0.3, 2.0, 0.5], [2.0, 0.5, 2.5, 1.0]])
    never = np.array([[3.0, 0.0, 3.4, 0.2]])
    target, cover, n_max = 1.2, 2.1, 64
    budget = {
        "one": math.inf,
        "eight": math.sqrt(
            _farthest_tip(eight, target, cover, 4) * _farthest_tip(eight, target, cover, 8)
        ),
        "never": 0.0,
    }
    parents = {"one": one, "eight": eight, "never": never}

    def search(names):
        return _level_search(
            None, np.concatenate([parents[g] for g in names]),
            np.array([len(parents[g]) for g in names]), 0.5, target, cover, CCW, None,
            np.array([budget[g] for g in names]), 1, n_max,
        )

    alone = {g: search([g]) for g in ("one", "eight")}
    assert alone["one"][0].tolist() == [1] and alone["eight"][0].tolist() == [8]
    counts, children = search(["one", "eight"])
    assert counts.tolist() == [1, 8]
    assert np.array_equal(children, np.concatenate([alone["one"][1], alone["eight"][1]]))

    # one division at n = 1 predicts the counts: "eight" is divided at 8 only
    calls = []

    def spy(coords, target, cover, n, *args):
        calls.append((coords.copy(), np.broadcast_to(n, len(coords)).tolist()))
        return _divide_rotate_level(coords, target, cover, n, *args)

    monkeypatch.setattr(blinds_module, "_divide_rotate_level", spy)
    assert search(["one", "eight"])[0].tolist() == [1, 8]
    both = np.concatenate([one, eight])
    assert [n for _, n in calls] == [[1, 1, 1], [1, 8, 8]]
    assert all(np.array_equal(got, both) for got, _ in calls)

    # "never" passes the cap in the prediction, so the search doubles from 1:
    # an accepted group is not divided again, and the overflow names its group
    calls.clear()
    assert search(["one", "eight", "never"]) == 2
    rows = [np.concatenate([one, eight, never])] * 2 + [np.concatenate([eight, never])] * 3
    rows += [never] * 3  # n = 16, 32, 64 for "never"; 128 passes the cap
    assert len(calls) == len(rows)
    assert all(np.array_equal(got, want) for (got, _), want in zip(calls, rows))
    assert search(["never", "one"]) == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_level_search_matches_the_doubling_reference(data):
    # groups of parents near the Q1 covering configuration, each with its own
    # start count and a budget at a tip distance (to the ulp), unbounded, zero
    # or unattainable below the cap; a degenerate angle pair sometimes
    curve, a_cover, seg = _q1_context()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    groups = data.draw(st.integers(1, 4))
    sizes = np.array(data.draw(st.lists(st.integers(1, 3), min_size=groups, max_size=groups)))
    base = np.array([seg.a.x1, seg.a.x2, seg.b.x1, seg.b.x2])
    parents = base + rng.normal(scale=0.005, size=(int(sizes.sum()), 4))
    target = 0.6 + rng.uniform(-0.05, 0.05, size=groups)
    cover = 2.5 + rng.uniform(-0.05, 0.05, size=groups)
    if data.draw(st.integers(0, 9)) == 0:
        g = data.draw(st.integers(0, groups - 1))
        cover[g] = target[g] + 0.5 * ANGLE_TOL
    start = np.array(data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=groups,
                                        max_size=groups)))
    n_max = data.draw(st.sampled_from([8, 64, 512, 2**14]))
    first = np.cumsum(sizes) - sizes
    budget = []
    for g in range(groups):
        own = parents[first[g] : first[g] + sizes[g]]
        kind = data.draw(st.sampled_from(["far1/n", "far1/n", "far(n)", "far(n)", "inf", "zero"]))
        # a count at or just past the cap
        n = int(start[g]) * 2 ** data.draw(st.integers(0, int(math.log2(n_max / start[g])) + 1))
        if kind in ("inf", "zero") or dist(target[g], cover[g]) <= ANGLE_TOL:
            budget.append(math.inf if kind == "inf" else 0.0)
            continue
        far1 = _farthest_tip(own, target[g], cover[g], 1)
        far = _farthest_tip(own, target[g], cover[g], n)
        # the error of far(n) is absolute in the coordinates, not relative to it
        assert abs(far * n - far1) <= 1e-12 * (far1 + n * np.max(np.abs(own)))
        value = far1 / n if kind == "far1/n" else far
        toward = data.draw(st.sampled_from([-math.inf, value, math.inf]))
        budget.append(float(np.nextafter(value, toward)))
    args = (
        curve, parents, sizes, seg.direction.angle, target, cover,
        _infer_chirality(seg.direction, Direction(0.6), Direction(2.5)),
        data.draw(st.sampled_from([None, a_cover])), np.array(budget), start, n_max,
    )

    def run(search):
        try:
            return search(*args)
        except ValueError as exc:
            return str(exc)

    got, want = run(_level_search), run(doubling_level_search)
    if isinstance(want, tuple):
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got == want
