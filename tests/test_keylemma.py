"""The key-construction pipeline: polygon chains, angle bands, local stages."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from curveblinds import blinds as blinds_module
from curveblinds import keylemma as keylemma_module
from curveblinds import verify
from curveblinds.blinds import BlindSet, ConstructionError
from curveblinds.curve import builtin_curve, fiber_point, tangent_direction
from curveblinds.geometry import Point, Segment
from curveblinds.keylemma import (
    _tangent_chain,
    _vertex_distances,
    compute_bands,
    default_alpha_box,
    key_construction,
    local_construction,
    polygon_approx,
)
from curveblinds.measure import AlphaSet, FiberArc, project_blinds
from curveblinds.projline import CCW, Arc, normalize
from curveblinds.scene import load_scene
from curveblinds.verify import check_cover, check_small
import keylemma_reference as reference
from scalar_projection import (
    contains,
    max_endpoint_distance,
    project_fiber_arc,
    project_segment,
    project_segments,
    report_bits,
    scalar_exp,
    segments_of,
    to_scalar,
)


def _fiber_distance_oracle(curve, arc, p):
    """Independent point-to-fiber distance via bounded scalar minimization.

    A second search in the offset from the first minimizer gets below the
    first search's step tolerance, which is relative to the parameter.
    """

    def d2(t):
        q = fiber_point(curve, arc.y, float(t))
        return (q.x1 - p.x1) ** 2 + (q.x2 - p.x2) ** 2

    t0 = minimize_scalar(d2, bounds=(arc.lo, arc.hi), method="bounded").x
    h = 1e-3 * (arc.hi - arc.lo)
    refined = minimize_scalar(
        lambda s: d2(t0 + s),
        bounds=(max(arc.lo, t0 - h) - t0, min(arc.hi, t0 + h) - t0),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return math.sqrt(min(refined.fun, d2(arc.lo), d2(arc.hi)))


def test_polygon_approx_tangency_distance_and_covering():
    curve = builtin_curve("parabola")
    y = Point(0.5, 0.1)
    subrange = (0.3, 0.6)
    eps, delta = 0.05, 0.01
    chain = polygon_approx(curve, y, subrange, eps, delta)
    arc = chain.source
    segs = segments_of(chain.coords())
    assert len(chain.tangency_params) == len(segs)

    # tangency: the fiber point at t_i lies on segment i, with matching slope
    for seg, t in zip(segs, chain.tangency_params):
        p = fiber_point(curve, y, t)
        assert seg.distance_to_point(p) < 1e-9
        theta = tangent_direction(curve, y.x1, p)
        from curveblinds.projline import dist

        assert dist(seg.direction, theta) < 1e-9

    # every segment is short and every vertex is delta-close to the arc
    assert all(s.length < eps for s in segs)
    for v in chain.vertices.tolist():
        assert _fiber_distance_oracle(curve, arc, Point(*v)) <= delta + 1e-9

    # projection covering of the arc on an alpha-grid spanning the strip box
    alphas = default_alpha_box(curve, arc, points=100)
    for alpha in alphas.grid():
        alpha = float(alpha)
        target = project_fiber_arc(curve, alpha, arc)
        if target.is_empty:
            continue
        assert contains(project_segments(curve, alpha, segs), target, 1e-9)


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1", "scalar_exp"])
@pytest.mark.parametrize("n", [2, 3, 16, 1024])
def test_tangent_chain_matches_scalar_reference(scene, n):
    spec = load_scene("E1" if scene == "scalar_exp" else scene)
    curve = scalar_exp() if scene == "scalar_exp" else spec.curve()
    chain = _tangent_chain(curve, FiberArc(spec.y, *spec.subrange), n)
    want = reference.chain_vertices(curve, spec.y, spec.subrange, n)
    assert chain.vertices.shape == (n + 1, 2)
    assert chain.vertices.tobytes() == np.array([p.as_tuple() for p in want]).tobytes()
    assert chain.tangency_params.tobytes() == np.linspace(*spec.subrange, n).tobytes()


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_vertex_distances_match_oracle(scene):
    spec = load_scene(scene)
    curve = spec.curve()
    for eps in (0.05, 0.01, 0.002):
        chain = polygon_approx(curve, spec.y, spec.subrange, eps, spec.delta)
        got = list(_vertex_distances(curve, chain))
        assert len(got) == len(chain.vertices) - 2
        for d, v in zip(got, chain.vertices[1:-1].tolist()):
            oracle = _fiber_distance_oracle(curve, chain.source, Point(*v))
            assert oracle - 1e-12 <= d <= oracle + 1e-9


def _chain_curve_and_arc(scene, padded):
    """A bundled scene's curve and fiber arc, padded as rigorous mode pads it."""
    spec = load_scene("E1" if scene == "scalar_exp" else scene)
    curve = scalar_exp() if scene == "scalar_exp" else spec.curve()
    a1, b1 = spec.subrange
    if padded:
        a_cover = spec.a_cover()
        shift = curve.df_bound * a_cover.grid_step / 2.0
        pad = keylemma_module._rigorous_pad(curve, spec.y, (a1, b1), a_cover, shift)
        a1, b1 = max(curve.a, a1 - pad), min(curve.b, b1 + pad)
    return curve, FiberArc(spec.y, a1, b1)


@pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize("scene", ["Q1", "P1", "E1", "scalar_exp"])
@pytest.mark.parametrize("n", [2, 3, 16, 100, 1024])
def test_vertex_distances_equal_the_scalar_search(scene, n, padded):
    curve, arc = _chain_curve_and_arc(scene, padded)
    chain = _tangent_chain(curve, arc, n)
    got = _vertex_distances(curve, chain)
    want = np.array(reference.vertex_distances(curve, chain))
    assert got.shape == (n - 1,) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1", "scalar_exp"])
def test_vertex_search_stopped_at_delta_keeps_every_decision(scene):
    curve, arc = _chain_curve_and_arc(scene, False)
    chain = _tangent_chain(curve, arc, 16)
    full = np.array(reference.vertex_distances(curve, chain))
    grid = default_alpha_box(curve, arc)
    cover_ok = check_cover(curve, BlindSet(chain.coords()), arc, grid).passed
    deltas = sorted({
        float(np.nextafter(d, to)) for d in full.tolist() for to in (-np.inf, d, np.inf)
    })
    for delta in deltas:
        got = _vertex_distances(curve, chain, delta)
        assert np.array_equal(got > delta, full > delta)
        # a vertex beyond delta never stops: its bound is the full search's
        assert got[full > delta].tobytes() == full[full > delta].tobytes()
        ok = keylemma_module._polygon_ok(curve, chain, 1.0, delta, grid)
        assert ok == (cover_ok and not np.any(full > delta))
    assert cover_ok


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_polygon_vertex_search_stops_at_delta(monkeypatch, scene):
    # the chains of the bundled key construction lie well within delta, so
    # the vertex search stops after its first probes: a few f calls in all,
    # where one scalar search per vertex made about 56
    spec = load_scene(scene)
    base = spec.curve()
    inside, calls = [False], [0]

    def f(t):
        calls[0] += inside[0]
        return base.f(t)

    original = keylemma_module._vertex_distances

    def counted(*args):
        inside[0] = True
        try:
            return original(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(keylemma_module, "_vertex_distances", counted)
    key_construction(
        dataclasses.replace(base, f=f), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        spec.epsilon, spec.delta, caps=spec.caps,
    )
    assert 1 <= calls[0] <= 10


@pytest.mark.parametrize(
    "eps, points", [(None, None), (0.03, None), (0.03, 30)], ids=["shipped", "eps0.03", "points30"]
)
@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_rigorous_pad_equals_the_scalar_loop(scene, eps, points):
    # eps does not enter the pad; the alpha-grid does
    spec = load_scene(scene)
    spec = dataclasses.replace(
        spec, epsilon=eps or spec.epsilon, alpha_points=points or spec.alpha_points
    )
    curve, a_cover = spec.curve(), spec.a_cover()
    shift = curve.df_bound * a_cover.grid_step / 2.0
    args = (curve, spec.y, spec.subrange, a_cover, shift)
    got = keylemma_module._rigorous_pad(*args)
    assert type(got) is float and got > 0.0
    assert np.float64(got).tobytes() == np.float64(reference.rigorous_pad(*args)).tobytes()


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_rigorous_pad_equals_the_scalar_loop_on_random_arcs(scene):
    # random subranges and fiber points reach rates whose bits depend on the
    # order of the additions in alpha - y1 + t
    spec = load_scene(scene)
    curve, a_cover = spec.curve(), spec.a_cover()
    shift = curve.df_bound * a_cover.grid_step / 2.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(curve.a, curve.b, 2)).tolist()
        y = Point(spec.y.x1 + float(rng.uniform(-0.05, 0.05)), spec.y.x2)
        args = (curve, y, (lo, hi), a_cover, shift)
        got = keylemma_module._rigorous_pad(*args)
        assert np.float64(got).tobytes() == np.float64(reference.rigorous_pad(*args)).tobytes()


def test_polygon_approx_rejects_bad_input():
    curve = builtin_curve("parabola")
    with pytest.raises(ValueError):
        polygon_approx(curve, Point(0.5, 0.1), (0.6, 0.3), 0.05, 0.01)
    with pytest.raises(ValueError):
        polygon_approx(curve, Point(0.5, 0.1), (0.3, 0.6), -0.05, 0.01)


def _q1_band_context():
    spec = load_scene("Q1")
    curve = spec.curve()
    chain = polygon_approx(curve, spec.y, spec.subrange, spec.epsilon, spec.delta)
    segs = segments_of(chain.coords())
    seg = segs[len(segs) // 2]
    # the x1 window of the segment's delta-neighborhood
    window = (min(seg.a.x1, seg.b.x1) - spec.delta, max(seg.a.x1, seg.b.x1) + spec.delta)
    return spec, curve, seg, window


VERTICAL = normalize(math.pi / 2)
SIDES = ("cover_lo", "cover_hi", "small_lo", "small_hi", "eps0")


def _arcs(bands, i=0):
    """Unit i's cover and small bands as counterclockwise arcs."""
    return (
        Arc(bands.cover_lo[i], bands.cover_hi[i], CCW),
        Arc(bands.small_lo[i], bands.small_hi[i], CCW),
    )


def _band_row(bands, i=0):
    return tuple(float(getattr(bands, side)[i]) for side in SIDES)


def test_compute_bands_encloses_sampled_directions():
    spec, curve, seg, window = _q1_band_context()
    a_cover = spec.a_cover()
    # the shipped A_small lies below A_cover; a second component above it puts
    # small directions on both sides of the cover band, so the small band
    # wraps through the vertical direction
    straddling = AlphaSet.from_intervals([*spec.a_small_components, (0.6, 0.7)], 50)
    for a_small, straddle in ((spec.a_small(), False), (straddling, True)):
        bands = compute_bands(curve, *window, a_small, a_cover)
        assert all(getattr(bands, side).shape == (1,) for side in SIDES)
        assert bands.eps0[0] > 0.0
        assert _arcs(bands)[1].contains(VERTICAL) == straddle
        _assert_bands_enclose_and_separate(curve, window, _arcs(bands), a_small, a_cover)


def _assert_bands_enclose_and_separate(curve, window, arcs, a_small, a_cover):
    rng = np.random.default_rng(0)
    cover_arc, small_arc = arcs
    # oracle: tangent directions at random (alpha, region x1) samples must
    # land in the matching band, and the bands must stay disjoint
    for aset, band in ((a_cover, cover_arc), (a_small, small_arc)):
        for _ in range(300):
            lo, hi = aset.components[int(rng.integers(len(aset.components)))]
            alpha = float(rng.uniform(lo, hi))
            x1 = float(rng.uniform(*window))
            t = alpha - x1
            if not curve.a <= t <= curve.b:
                continue
            theta = math.atan(curve.df(t)) % math.pi
            assert band.contains(theta, tol=1e-12)
    # separation: the two arcs do not intersect
    for probe in np.linspace(0.0, math.pi, 721, endpoint=False):
        assert not (cover_arc.contains(float(probe)) and small_arc.contains(float(probe)))


def _random_band_scene(rng, curve):
    """A region's x1 window, A_cover inside its strip window, 1-3 A_small parts.

    The small components lie below A_cover, above it, or on both sides, and
    may run past the strip; about one scene in ten puts A_cover outside the
    strip window.
    """
    width = curve.b - curve.a
    c = float(rng.uniform(-1.0, 1.0))
    w = float(rng.uniform(0.0, 0.05 * width))
    r = float(rng.uniform(0.0, 0.05 * width))
    x1_lo, x1_hi = c - w / 2 - r, c + w / 2 + r
    room_lo, room_hi = curve.a + x1_hi, curve.b + x1_lo
    if rng.random() < 0.1:
        room_lo, room_hi = room_lo - 0.2 * width, room_hi + 0.2 * width
    clo, chi = np.sort(rng.uniform(room_lo, room_hi, 2))
    below = (curve.a + x1_lo - 0.2 * width, clo - 1e-9)
    above = (chi + 1e-9, curve.b + x1_hi + 0.2 * width)
    k = int(rng.integers(1, 4))
    sides = [(below, above)[int(rng.integers(2))]] * k
    if k > 1 and rng.random() < 0.5:
        sides[0] = below
        sides[-1] = above
    comps = []
    for lo, hi in (below, above):
        ends = np.sort(rng.uniform(lo, hi, 2 * sides.count((lo, hi))))
        comps += [(float(p), float(q)) for p, q in zip(ends[::2], ends[1::2])]
    return (x1_lo, x1_hi), AlphaSet.from_intervals(comps, 2), AlphaSet.interval(clo, chi, 2)


def _assert_rows_match_reference(got, want):
    assert got[:4] == want[:4]
    assert abs(got[4] - want[4]) <= 1e-15


def test_compute_bands_matches_three_branch_reference():
    rng = np.random.default_rng(20)
    separated = straddling = failed = 0
    for name in ("parabola", "quarter_circle", "exp"):
        curve = builtin_curve(name)
        for _ in range(800):
            window, a_small, a_cover = _random_band_scene(rng, curve)
            try:
                want = reference.compute_bands(curve, *window, a_small, a_cover)
            except (ValueError, ConstructionError) as exc:
                with pytest.raises(type(exc)) as info:
                    compute_bands(curve, *window, a_small, a_cover)
                assert type(info.value) is type(exc)
                assert getattr(info.value, "stage", None) == getattr(exc, "stage", None)
                failed += 1
                continue
            got = compute_bands(curve, *window, a_small, a_cover)
            _assert_rows_match_reference(_band_row(got), want)
            separated += 1
            straddling += _arcs(got)[1].contains(VERTICAL)
    # every case of the reference is exercised
    assert separated > 500 and straddling > 100 and failed > 500


def _unit_outcome(call):
    """The bands row of a one-unit call, or its exception as comparable data."""
    try:
        return _band_row(call())
    except (ValueError, ConstructionError) as exc:
        return (type(exc), str(exc), getattr(exc, "stage", None), getattr(exc, "witness", None))


def test_compute_bands_batch_equals_its_units():
    # one call over many x1 windows: each row is the one-unit call's and the
    # reference's; a failing batch raises what its first failing unit raises
    rng = np.random.default_rng(21)
    passed = late = 0
    first_checks = set()
    for name in ("parabola", "quarter_circle", "exp"):
        curve = builtin_curve(name)
        width = curve.b - curve.a
        for _ in range(150):
            (lo, hi), a_small, a_cover = _random_band_scene(rng, curve)
            k = int(rng.integers(1, 25))
            shift = rng.normal(0.0, 0.1 * width, k) * (rng.random(k) < 0.1)
            widen = rng.uniform(0.0, 0.01 * width, k)
            x1_lo, x1_hi = lo + shift - widen, hi + shift + widen
            units = [
                _unit_outcome(lambda i=i: compute_bands(curve, x1_lo[i], x1_hi[i], a_small, a_cover))
                for i in range(k)
            ]
            fails = [i for i, u in enumerate(units) if isinstance(u[0], type)]
            for i in range(k):
                try:
                    want = reference.compute_bands(curve, x1_lo[i], x1_hi[i], a_small, a_cover)
                except (ValueError, ConstructionError) as exc:
                    assert units[i][0] is type(exc) and units[i][2] == getattr(exc, "stage", None)
                else:
                    _assert_rows_match_reference(units[i], want)
            got = _unit_outcome(lambda: compute_bands(curve, x1_lo, x1_hi, a_small, a_cover))
            if fails:
                assert got == units[fails[0]]
                late += fails[0] > 0
                first_checks.add(got[1].split(" (")[0])
            else:
                bands = compute_bands(curve, x1_lo, x1_hi, a_small, a_cover)
                assert [_band_row(bands, i) for i in range(k)] == units
                passed += 1
    assert passed > 100 and late > 30
    # each failing check is first somewhere
    assert {"compact region leaves the strip over A_cover",
            "no admissible directions over A_small",
            "inflated direction sets overlap"} <= first_checks


def test_compute_bands_rejects_overlapping_sets():
    spec, curve, seg, window = _q1_band_context()
    overlapping = AlphaSet.from_intervals([(0.41, 0.45)], 20)  # inside A_cover
    with pytest.raises(ValueError):
        compute_bands(curve, *window, overlapping, spec.a_cover())


def test_compute_bands_rejects_region_leaving_strip():
    spec, curve, seg, window = _q1_band_context()
    far = AlphaSet.from_intervals([(5.0, 5.1)], 10)
    with pytest.raises(ConstructionError) as info:
        compute_bands(curve, *window, spec.a_small(), far)
    assert info.value.stage == "bands"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compute_bands_names_a_non_finite_window(bad):
    # a NaN window failed every admissibility test and was blamed on A_small
    spec, curve, seg, (lo, hi) = _q1_band_context()
    sets = (spec.a_small(), spec.a_cover())
    with pytest.raises(ValueError, match=rf"x1 window must be finite: unit 0 is \[{bad!r}, "):
        compute_bands(curve, bad, hi, *sets)
    with pytest.raises(ValueError, match=rf"unit 1 is \[{lo!r}, {bad!r}\]"):
        compute_bands(curve, [lo, lo, bad], [hi, bad, hi], *sets)


def test_local_construction_covers_and_stays_close():
    spec, curve, seg, window = _q1_band_context()
    a_small, a_cover = spec.a_small(), spec.a_cover()
    bands = compute_bands(curve, *window, a_small, a_cover)
    blinds = local_construction(
        curve, seg, bands, a_small, a_cover, spec.epsilon, spec.delta,
        caps=spec.caps,
    )
    # stays within delta of the base segment
    assert max_endpoint_distance(blinds.coords, seg) <= spec.delta + 1e-12
    # covering oracle: projections contain the segment's projections
    for alpha in a_cover.grid():
        target = project_segment(curve, float(alpha), seg)
        got = to_scalar(project_blinds(curve, float(alpha), blinds))
        assert contains(got, target, 1e-9)
    # smallness sanity: projected measure over A_small shrinks below eps
    worst = max(
        project_blinds(curve, float(a), blinds).measures()[0] for a in a_small.grid()
    )
    assert worst < spec.epsilon


def test_local_construction_preconditions():
    spec, curve, seg, window = _q1_band_context()
    bands = compute_bands(curve, *window, spec.a_small(), spec.a_cover())
    long_seg = Segment(seg.a, Point(seg.a.x1 + 1.0, seg.a.x2 + 0.5))
    with pytest.raises(ConstructionError):
        local_construction(
            curve, long_seg, bands, spec.a_small(), spec.a_cover(),
            spec.epsilon, spec.delta,
        )


def test_key_construction_q1_end_to_end():
    spec = load_scene("Q1")
    result = key_construction(
        spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        spec.epsilon, spec.delta, caps=spec.caps,
    )
    assert result.cover_report.passed
    assert result.small_report.passed
    assert result.small_report.worst_value < spec.epsilon
    assert len(result.blinds) > 0


def test_key_construction_rejects_bad_scene_geometry():
    spec = load_scene("Q1")
    curve = spec.curve()
    with pytest.raises(ValueError):
        # y.x1 outside A_small
        key_construction(
            curve, Point(5.0, 0.2), spec.subrange, spec.a_small(),
            spec.a_cover(), spec.epsilon, spec.delta,
        )
    with pytest.raises(ValueError):
        # multi-component cover set
        key_construction(
            curve, spec.y, spec.subrange, spec.a_small(),
            AlphaSet.from_intervals([(0.4, 0.44), (0.46, 0.48)], 50),
            spec.epsilon, spec.delta,
        )


def test_key_construction_error_names_the_failing_stage():
    # Q1 at eps=0.015 builds fine but misses the smallness bound, so the
    # construction ends on the smallness certificate, not an exception
    spec = load_scene("Q1")
    with pytest.raises(ConstructionError) as info:
        key_construction(
            spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            0.015, spec.delta, caps=spec.caps, scene_id="Q1",
        )
    message = str(info.value)
    assert info.value.stage == "small"
    assert message.startswith("FAIL small [Q1]: worst ")
    assert "(bound 0.015, " in message


@pytest.mark.parametrize("scene, eps", [("Q1", None), ("P1", None), ("E1", None), ("Q1", 0.02)])
def test_key_construction_matches_unit_by_unit(scene, eps):
    # the batched construction equals one local_construction per chain unit;
    # Q1 at eps=0.02 has units with two stage-1 blades
    spec = load_scene(scene)
    eps = spec.epsilon if eps is None else eps
    args = (spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(), eps)
    blinds = key_construction(*args, spec.delta, caps=spec.caps).blinds
    coords, units = reference.unit_by_unit(*args, blinds.meta["delta"], spec.caps)
    assert np.array_equal(blinds.coords, coords)
    assert np.array_equal(blinds.meta["units"], units)
    assert (max(u[1] for u in units) > 1) == (scene == "Q1" and eps == 0.02)


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_key_construction_tiny_cap_fails_fast_with_a_stage(scene):
    spec = load_scene(scene)
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as info:
        key_construction(
            spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            spec.epsilon, spec.delta, caps=dataclasses.replace(spec.caps, n_max=4),
        )
    assert time.perf_counter() - start < 1.0
    stage = info.value.stage
    assert stage == "vb_cover" or type(stage) is int


def test_key_construction_computes_bands_once(monkeypatch):
    # one array call over the x1 windows of every chain unit
    calls = []
    original = keylemma_module.compute_bands

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(keylemma_module, "compute_bands", counted)
    spec = load_scene("P1")
    result = key_construction(
        spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        spec.epsilon, spec.delta, caps=spec.caps,
    )
    assert len(calls) == 1
    assert len(calls[0][1]) == result.blinds.meta["chain_segments"] > 1


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.01])
@pytest.mark.parametrize("name", ["eps", "delta"])
@pytest.mark.parametrize("entry", ["polygon_approx", "key_construction", "local_construction"])
def test_eps_and_delta_must_be_finite_and_positive(entry, name, value):
    # rejected up front, before any chain or blind is built
    spec = load_scene("Q1")
    scales = {"eps": spec.epsilon, "delta": spec.delta, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got"):
        if entry == "polygon_approx":
            polygon_approx(spec.curve(), spec.y, spec.subrange, **scales)
        elif entry == "local_construction":
            _, curve, seg, window = _q1_band_context()
            bands = compute_bands(curve, *window, spec.a_small(), spec.a_cover())
            local_construction(curve, seg, bands, spec.a_small(), spec.a_cover(), **scales)
        else:
            key_construction(
                spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(), **scales
            )


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_key_construction_batches_every_level_search(monkeypatch, scene):
    # each bundled scene: one stage-1 search plus one per stage-2 level; each
    # makes one divide-and-rotate call at n = 1 to predict its counts and one
    # per doubling round, and every group is accepted at its predicted count
    calls = {"_level_search": 0, "_divide_rotate_level": 0}
    for name in calls:
        original = getattr(blinds_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (blinds_module, keylemma_module):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    spec = load_scene(scene)
    key_construction(
        spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        spec.epsilon, spec.delta, caps=spec.caps,
    )
    searches = {"Q1": 5, "P1": 5, "E1": 3}[scene]
    assert calls == {"_level_search": searches, "_divide_rotate_level": 2 * searches}


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["Q1", "P1", "E1"]),
    st.floats(0.015, 0.1),
    st.floats(0.25, 0.5),
    st.integers(30, 200),
)
def test_key_construction_certifies_or_fails_fast_with_a_stage(scene, eps, share, points):
    # one attempt: a scene either certifies at the requested eps or raises a
    # ConstructionError naming its stage, within seconds
    spec = dataclasses.replace(
        load_scene(scene), epsilon=eps, delta=share * eps, alpha_points=points
    )
    start = time.perf_counter()
    try:
        result = key_construction(
            spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            eps, spec.delta, caps=spec.caps, scene_id=scene,
        )
    except ConstructionError as exc:
        assert exc.stage is not None
    else:
        assert result.cover_report.passed and result.small_report.passed
        assert result.small_report.worst_value < eps
    assert time.perf_counter() - start < 10.0


def test_key_construction_on_scalar_only_curve():
    # a custom profile from scalar-only functions, wrapped to take arrays
    curve = scalar_exp()
    spec = dataclasses.replace(load_scene("E1"), alpha_points=20)
    result = key_construction(
        curve, spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        spec.epsilon, spec.delta, caps=spec.caps,
        scene_id="E1",
    )
    assert result.cover_report.passed
    assert result.small_report.passed


@pytest.mark.parametrize("scene", ["Q1", "P1", "E1"])
def test_rigorous_reports_are_the_shifted_checks_on_the_unpadded_arc(scene):
    spec = load_scene(scene)
    curve, a_small, a_cover = spec.curve(), spec.a_small(), spec.a_cover()
    result = key_construction(
        curve, spec.y, spec.subrange, a_small, a_cover, spec.epsilon, spec.delta,
        caps=spec.caps, scene_id=scene, rigorous=True,
    )
    arc = FiberArc(spec.y, *spec.subrange)
    cover = check_cover(
        curve, result.blinds, arc, a_cover, scene_id=scene,
        shift=curve.df_bound * a_cover.grid_step / 2.0,
    )
    small = check_small(
        curve, result.blinds, a_small, bound=spec.epsilon, scene_id=scene,
        shift=curve.df_bound * a_small.grid_step / 2.0,
    )
    assert report_bits(result.cover_report) == report_bits(cover)
    assert report_bits(result.small_report) == report_bits(small)
    assert cover.padding > 0.0 and small.padding > 0.0


@pytest.mark.parametrize("rigorous", [False, True])
@pytest.mark.parametrize("eps, points", [(None, 200), (0.018, 30)])
def test_key_construction_projects_its_blinds_once_per_grid(
    monkeypatch, rigorous, eps, points
):
    # Q1 as shipped certifies; at eps=0.018 it misses the smallness bound
    spec = dataclasses.replace(load_scene("Q1"), alpha_points=points)
    a_small, a_cover = spec.a_small(), spec.a_cover()
    projected = []  # (blind set, grid) of every projection of a key-construction set
    original = verify.project_blinds_grid

    def counting(curve, alphas, blinds):
        if blinds.meta.get("kind") == "key_construction":
            projected.append((blinds, np.asarray(alphas)))
        return original(curve, alphas, blinds)

    monkeypatch.setattr(verify, "project_blinds_grid", counting)
    args = (spec.curve(), spec.y, spec.subrange, a_small, a_cover)
    kwargs = dict(caps=spec.caps, rigorous=rigorous)
    if eps is None:
        result = key_construction(*args, spec.epsilon, spec.delta, **kwargs)
        assert projected[-1][0] is result.blinds
    else:
        with pytest.raises(ConstructionError) as info:
            key_construction(*args, eps, spec.delta, **kwargs)
        assert info.value.stage == "small"
    assert len(projected) == 2
    (first, cover_grid), (second, small_grid) = projected
    assert first is second
    assert np.array_equal(cover_grid, a_cover.grid())
    assert np.array_equal(small_grid, a_small.grid())
