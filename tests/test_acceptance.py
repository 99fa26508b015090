"""Acceptance gate: one pass/fail line per criterion, at the stated tolerances.

Each test prints its verdict line unconditionally (bypassing capture) so a
full run shows the twelve-line scorecard, then asserts the criterion.
"""

import math
import time

import numpy as np

from curveblinds.blinds import iter_vb, vb
from curveblinds.curve import (
    builtin_curve,
    builtin_curve_names,
    diff_interval,
    fiber_point,
    project_disk,
    tangent_direction,
)
from curveblinds.duality import LineParam, line_slice, parabola_slice, similarity_residual
from curveblinds.geometry import Disk, Point, Segment
from curveblinds.keylemma import (
    compute_bands,
    default_alpha_box,
    key_construction,
    local_construction,
    polygon_approx,
)
from curveblinds.measure import project_blinds
from curveblinds.projline import CCW, angle_schedule, dist
from curveblinds.scene import BUNDLED_SCENES, load_scene
from curveblinds.verify import gradient_check, law_of_sines_check
from curveblinds.cli import run_construct
from scalar_projection import contains, project_fiber_arc, project_segments, segments_of


def _verdict(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_criterion_01_rotation_law_of_sines(capsys):
    start = time.perf_counter()
    worst = law_of_sines_check(trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _verdict(
        capsys, ok, "rotation length identity",
        f"max relative residual {worst:.3e} (< 1e-10) in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_blind_total_length(capsys):
    seg = Segment(Point(0.0, 0.0), Point(1.0, 0.3))
    theta_small, theta_cover = 1.2, 2.1
    expected = (
        math.sin(dist(seg.direction, theta_cover))
        / math.sin(dist(theta_small, theta_cover))
        * seg.length
    )
    worst = max(
        abs(vb(seg, theta_small, theta_cover, n).total_length - expected)
        for n in (1, 3, 10, 100)
    )
    ok = worst < 1e-10
    _verdict(
        capsys, ok, "blind total-length identity",
        f"max |total - formula| {worst:.3e} over N in {{1, 3, 10, 100}} (< 1e-10)",
    )


def test_criterion_03_iterated_level_sums(capsys):
    rng = np.random.default_rng(2)
    seg = Segment(Point(0.0, 0.0), Point(1.0, 0.3))
    worst = 0.0
    for _ in range(20):
        theta_small = float(rng.uniform(1.3, 1.9))
        theta_cover = float(rng.uniform(2.3, 2.9))
        m = int(rng.integers(2, 7))
        counts = [int(rng.integers(1, 4))] * m
        blinds = iter_vb(seg, theta_small, theta_cover, counts, chirality=CCW)
        schedule = angle_schedule(seg.direction, theta_small, m, CCW)
        by_level: dict[int, float] = {}
        for piece, idx in zip(segments_of(blinds.coords), blinds.provenance):
            by_level[len(idx)] = by_level.get(len(idx), 0.0) + piece.length
        for level, total in by_level.items():
            expected = (
                math.sin(dist(schedule[0], theta_cover))
                / math.sin(dist(schedule[level], theta_cover))
                * seg.length
            )
            worst = max(worst, abs(total - expected))
    ok = worst < 1e-10
    _verdict(
        capsys, ok, "iterated level sums",
        f"max level-sum residual {worst:.3e} over 20 configurations (< 1e-10)",
    )


def test_criterion_04_scene_covering(capsys):
    details = []
    ok = True
    for name in BUNDLED_SCENES:
        spec = load_scene(name)
        start = time.perf_counter()
        result = key_construction(
            spec.curve(), spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            spec.epsilon, spec.delta, caps=spec.caps,
            scene_id=name,
        )
        elapsed = time.perf_counter() - start
        good = (
            result.cover_report.passed
            and result.cover_report.bound == 1e-9
            and elapsed < 30.0
        )
        ok &= good
        details.append(f"{name} {'ok' if good else 'FAIL'} ({elapsed:.2f}s)")
    _verdict(
        capsys, ok, "scene covering certificates",
        "; ".join(details) + " with margin 1e-9 (< 30s each)",
    )


def test_criterion_05_smallness_scaling(capsys):
    spec = load_scene("Q1")
    curve = spec.curve()
    a_small, a_cover = spec.a_small(), spec.a_cover()
    chain = polygon_approx(curve, spec.y, spec.subrange, 0.04, spec.delta)
    segs = segments_of(chain.coords())
    seg = segs[len(segs) // 2]
    x1_lo, x1_hi = min(seg.a.x1, seg.b.x1), max(seg.a.x1, seg.b.x1)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        delta = eps / 5.0
        bands = compute_bands(curve, x1_lo - delta, x1_hi + delta, a_small, a_cover)
        blinds = local_construction(
            curve, seg, bands, a_small, a_cover, eps, delta, caps=spec.caps
        )
        worst = max(
            project_blinds(curve, float(a), blinds).measures()[0]
            for a in a_small.grid()
        )
        ratios.append(worst / (eps * seg.length))
    spread = max(ratios) / min(ratios)
    ok = spread < 2.0
    _verdict(
        capsys, ok, "smallness scaling",
        f"fitted K in [{min(ratios):.3g}, {max(ratios):.3g}] over "
        f"eps in {{0.2, 0.1, 0.05}}, spread {spread:.2f}x (< 2x)",
    )


def test_criterion_06_polygon_approximation(capsys):
    curve = builtin_curve("parabola")
    y = Point(0.5, 0.1)
    eps, delta = 0.05, 0.01
    chain = polygon_approx(curve, y, (0.3, 0.6), eps, delta)
    arc = chain.source
    segs = segments_of(chain.coords())

    worst_tan = 0.0
    for seg, t in zip(segs, chain.tangency_params):
        p = fiber_point(curve, y, t)
        worst_tan = max(
            worst_tan,
            seg.distance_to_point(p),
            dist(seg.direction, tangent_direction(curve, y.x1, p)),
        )

    def fiber_distance(p):
        ts = np.linspace(arc.lo, arc.hi, 4096)
        xs = y.x1 - ts
        ys = y.x2 - curve.f(ts)
        return float(np.min(np.hypot(xs - p.x1, ys - p.x2)))

    worst_dist = max(fiber_distance(Point(*v)) for v in chain.vertices.tolist())

    covered = True
    for alpha in default_alpha_box(curve, arc, points=100).grid():
        alpha = float(alpha)
        target = project_fiber_arc(curve, alpha, arc)
        if target.is_empty:
            continue
        covered &= contains(project_segments(curve, alpha, segs), target, 1e-9)

    ok = worst_tan < 1e-9 and worst_dist <= delta + 1e-6 and covered
    _verdict(
        capsys, ok, "polygon approximation",
        f"tangency residual {worst_tan:.2e} (< 1e-9), vertex distance "
        f"{worst_dist:.4g} (<= delta={delta}), covering "
        f"{'ok' if covered else 'FAIL'} on 100-point alpha grid",
    )


def test_criterion_07_key_construction(capsys):
    spec = load_scene("Q1")
    curve = spec.curve()
    start = time.perf_counter()
    result = key_construction(
        curve, spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
        0.05, spec.delta, caps=spec.caps,
    )
    elapsed = time.perf_counter() - start
    base_ok = (
        result.cover_report.passed
        and result.small_report.passed
        and result.small_report.worst_value < 0.05
        and elapsed < 60.0
    )
    sweep = []
    for eps in (0.2, 0.1, 0.05):
        r = key_construction(
            curve, spec.y, spec.subrange, spec.a_small(), spec.a_cover(),
            eps, eps / 5.0, caps=spec.caps,
        )
        sweep.append(r.small_report.worst_value)
    monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
    ok = base_ok and monotone
    _verdict(
        capsys, ok, "key construction",
        f"Q1 eps=0.05: cover pass, measure {result.small_report.worst_value:.4g}"
        f" (< 0.05) in {elapsed:.2f}s (< 60s); sweep measures "
        + " > ".join(f"{v:.4g}" for v in sweep)
        + (" monotone" if monotone else " NOT monotone"),
    )


def test_criterion_08_gradient_consistency(capsys):
    worst = max(
        gradient_check(builtin_curve(name), samples=1000, h=1e-6, seed=0)
        for name in builtin_curve_names()
    )
    ok = worst < 1e-5
    _verdict(
        capsys, ok, "gradient consistency",
        f"max relative error {worst:.3e} over all builtin curves (< 1e-5)",
    )


def test_criterion_09_disk_projection(capsys):
    rng = np.random.default_rng(7)
    names = builtin_curve_names()
    worst_exceed = 0.0
    worst_gap = 0.0
    angles = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    for i in range(200):
        curve = builtin_curve(names[i % 3])
        alpha = float(rng.uniform(curve.a + 0.4, curve.b + 0.4))
        lo, hi = curve.strip(alpha)
        r = float(rng.uniform(0.05, 0.45)) * (hi - lo) / 2.0
        c1 = float(rng.uniform(lo + r, hi - r))
        disk = Disk(Point(c1, float(rng.uniform(-1, 1))), r)
        bot, top = project_disk(curve, alpha, disk)
        # the open disk's extreme values sit arbitrarily close to its boundary
        rr = r * (1.0 - 1e-12)
        xs = disk.center.x1 + rr * np.cos(angles)
        ys = disk.center.x2 + rr * np.sin(angles)
        vals = ys + curve.f(np.clip(alpha - xs, curve.a, curve.b))
        worst_exceed = max(
            worst_exceed, float(np.max(vals)) - top, bot - float(np.min(vals))
        )
        worst_gap = max(
            worst_gap, top - float(np.max(vals)), float(np.min(vals)) - bot
        )
    ok = worst_exceed <= 1e-9 and worst_gap < 1e-6
    _verdict(
        capsys, ok, "disk projection interval",
        f"200 pairs: sampled overshoot {worst_exceed:.2e} (<= 1e-9), endpoint "
        f"gap {worst_gap:.2e} (< 1e-6)",
    )


def test_criterion_10_difference_interval(capsys):
    curve = builtin_curve("parabola")
    a1, b1 = 0.1, 0.9
    sub = (a1, b1)
    worst_deg = max(
        hi - lo
        for lo, hi in (
            diff_interval(curve, sub, s)
            for s in (curve.a - b1, 0.0, curve.b - a1)
        )
    )
    bound_ok = True
    for s in np.linspace(curve.a - b1, curve.b - a1, 500):
        lo, hi = diff_interval(curve, sub, float(s))
        bound_ok &= hi - lo <= curve.df_bound * abs(float(s)) + 1e-12
    ok = worst_deg < 1e-10 and bound_ok
    _verdict(
        capsys, ok, "difference interval",
        f"degenerate widths {worst_deg:.2e} (< 1e-10); width bound "
        f"{'holds' if bound_ok else 'FAILS'} on 500-point sweep",
    )


def test_criterion_11_duality_identities(capsys):
    rng = np.random.default_rng(0)
    worst_res = 0.0
    worst_diff = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-5, 5))
        b = float(rng.uniform(-5, 5))
        c = float(rng.uniform(-10, 10))
        worst_res = max(worst_res, similarity_residual(LineParam(a, b), c))
        para = parabola_slice(a, b, c)
        line = line_slice(LineParam(b, a), c)
        worst_diff = max(worst_diff, abs((para.x2 - line.x2) - c * c))
    ok = worst_res < 1e-12 and worst_diff < 1e-12
    _verdict(
        capsys, ok, "duality identities",
        f"similarity residual {worst_res:.2e} (< 1e-12), slice difference "
        f"minus c^2 {worst_diff:.2e} (< 1e-12)",
    )


def test_criterion_12_determinism(capsys, tmp_path):
    spec = load_scene("Q1")
    run_construct(spec, tmp_path / "a")
    run_construct(spec, tmp_path / "b")
    same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("blindset.json", "report.json")
    )
    _verdict(
        capsys, same, "determinism",
        "Q1 construct twice: blindset.json and report.json byte-identical",
    )
