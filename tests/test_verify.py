"""The certification harness: covering, smallness, gradient, rotation checks."""

import math
import re

import numpy as np
import pytest

from curveblinds.blinds import BlindSet
from curveblinds.curve import builtin_curve
from curveblinds.geometry import Point
from curveblinds.keylemma import default_alpha_box, polygon_approx
from curveblinds.measure import AlphaSet, FiberArc, IntervalUnion, project_blinds_grid
from curveblinds.verify import (
    check_cover,
    check_small,
    cover_views,
    gradient_check,
    law_of_sines_check,
    small_views,
)
from scalar_projection import (
    contains,
    project_fiber_arc,
    project_segments,
    records,
    report_bits,
    segments_of,
)

CURVE = builtin_curve("parabola")
ALPHAS = AlphaSet.interval(0.7, 0.9, 20)  # strips contain all test segments


#: one segment, as blinds and as the covering target they cover exactly
SELF = BlindSet(np.array([[0.3, 0.0, 0.5, 0.1]]))


def test_check_cover_passes_on_self_cover():
    report = check_cover(CURVE, SELF, SELF, ALPHAS, scene_id="t")
    assert report.passed
    assert report.kind == "cover"
    assert report.worst_value == 0.0
    assert report.per_alpha.covered.all()
    assert "PASS" in report.summary_line()


def test_check_cover_fails_with_deficit():
    # a vertically shifted copy misses part of the target projection
    shifted = BlindSet(np.array([[0.3, 0.05, 0.5, 0.15]]))
    report = check_cover(CURVE, shifted, SELF, ALPHAS)
    assert not report.passed
    assert report.worst_value > 0.0
    assert report.padding == 0.0
    assert "FAIL" in report.summary_line()


def test_check_cover_margin_is_not_padding():
    # the blinds fall 5e-10 short of the target, inside the 1e-9 margin at
    # every grid point; the margin is a tolerance, not headroom, so even a
    # tiny grid step certifies nothing between grid points
    short = BlindSet(np.array([[0.3, 5e-10, 0.5, 0.1 + 5e-10]]))
    tiny = AlphaSet(((0.8, 0.8 + 1e-11),), 1e-12)
    assert 2.0 * CURVE.df_bound * tiny.grid_step < 1e-9
    report = check_cover(CURVE, short, SELF, tiny)
    assert report.passed
    assert report.padding == 0.0


def test_check_cover_shift_mode_requires_interior_slack():
    shift = CURVE.df_bound * ALPHAS.grid_step / 2.0
    # exact self-cover has no interior slack: the eroded cover cannot contain
    # the inflated target
    tight = check_cover(CURVE, SELF, SELF, ALPHAS, shift=shift)
    assert not tight.passed
    # a tall vertical segment projects onto a wide interval: real slack
    big = BlindSet(np.array([[0.4, -1.0, 0.4, 1.0]]))
    roomy = check_cover(CURVE, big, SELF, ALPHAS, shift=shift)
    assert roomy.passed
    assert math.isclose(roomy.padding, ALPHAS.grid_step / 2.0)


def test_check_cover_accepts_fiber_arc_target():
    arc = FiberArc(Point(0.5, 1.0), 0.2, 0.4)
    big = BlindSet(np.array([[0.0, -3.0, 0.6, 4.0]]))
    report = check_cover(CURVE, big, arc, AlphaSet.interval(0.9, 1.1, 10))
    assert report.passed


def test_check_cover_validates_margins():
    # NaN fails every comparison: unchecked, it would pass as 0
    for value in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="shift must be finite and >= 0"):
            check_cover(CURVE, SELF, SELF, ALPHAS, shift=value)
        with pytest.raises(ValueError, match="shift must be finite and >= 0"):
            cover_views(CURVE, SELF, [(SELF, 0.0), (SELF, value)], ALPHAS)


def test_check_small_bounds_projected_measure():
    report = check_small(CURVE, SELF, ALPHAS, bound=1.0, scene_id="t")
    assert report.passed
    assert 0.0 < report.worst_value < 1.0
    failing = check_small(CURVE, SELF, ALPHAS, bound=report.worst_value / 2)
    assert not failing.passed


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_check_small_validates_bound_and_shift(value):
    with pytest.raises(ValueError, match="bound must be finite and > 0"):
        check_small(CURVE, SELF, ALPHAS, bound=value)
    if value != 0.0:
        with pytest.raises(ValueError, match="shift must be finite and >= 0"):
            check_small(CURVE, SELF, ALPHAS, bound=1.0, shift=value)
        with pytest.raises(ValueError, match="shift must be finite and >= 0"):
            small_views(CURVE, SELF, ALPHAS, 1.0, [0.0, value])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_checks_name_a_non_finite_blind_coordinate(bad):
    # a NaN segment projected to nothing: check_small read "PASS small: worst 0"
    blinds = BlindSet(np.array([[0.3, 0.0, 0.5, bad]]))
    match = r"blind coordinates must be finite: row 0 is"
    for check in (
        lambda: check_small(CURVE, blinds, ALPHAS, bound=1.0),
        lambda: small_views(CURVE, blinds, ALPHAS, 1.0, [0.0, 0.01]),
        lambda: check_cover(CURVE, blinds, SELF, ALPHAS),
        lambda: check_cover(CURVE, SELF, blinds, ALPHAS),
        lambda: cover_views(CURVE, SELF, [(SELF, 0.0), (blinds, 0.0)], ALPHAS),
    ):
        with pytest.raises(ValueError, match=match):
            check()


def test_check_small_shift_mode_padding():
    shift = CURVE.df_bound * ALPHAS.grid_step / 2.0
    report = check_small(CURVE, SELF, ALPHAS, bound=1.0, shift=shift)
    assert report.passed
    assert math.isclose(report.padding, ALPHAS.grid_step / 2.0)
    plain = check_small(CURVE, SELF, ALPHAS, bound=1.0)
    # inflation can only increase the certified worst measure
    assert report.worst_value >= plain.worst_value


def _edge_case_row(dx: float = 0.0) -> list[float]:
    # for dx = 0 the strip edge alpha - b = alpha - 1 crosses the segment for
    # every alpha in [0.75, 0.85], inside ALPHAS; its slope 6 exceeds df_bound
    return [-0.25 + dx, 0.0, -0.15 + dx, 0.6]


def test_strip_edge_inside_the_grid_grants_no_padding():
    blinds = BlindSet(np.array([_edge_case_row()]))
    shift = CURVE.df_bound * ALPHAS.grid_step / 2.0
    shifted = check_small(CURVE, blinds, ALPHAS, bound=10.0, shift=shift)
    plain = check_small(CURVE, blinds, ALPHAS, bound=10.0)
    assert shifted.passed and plain.passed
    assert shifted.padding == 0.0 and plain.padding == 0.0
    # padding would certify a bound that fails: the clipped endpoint slides
    # faster than df_bound, so some alpha within half a step of a grid point
    # projects to more than that grid point's inflated measure
    grid, half = ALPHAS.grid(), ALPHAS.grid_step / 2.0
    fine = np.linspace(grid[0] - half, grid[-1] + half, 2001)
    fine_measure = IntervalUnion.stack(project_blinds_grid(CURVE, fine, blinds)).measures()
    nearest = np.abs(fine[:, None] - grid[None, :]).argmin(axis=1)
    grid_measure = shifted.per_alpha.projected_measure
    assert np.max(fine_measure - grid_measure[nearest]) > 1e-4
    # the same segment inside the strip for every such alpha keeps its padding
    inside = BlindSet(np.array([_edge_case_row(dx=0.5)]))
    assert check_small(CURVE, inside, ALPHAS, bound=10.0, shift=shift).padding == half
    assert check_small(CURVE, inside, ALPHAS, bound=10.0).padding == half


def test_strip_edge_voids_cover_padding_for_blinds_and_target():
    tall = [0.4, -3.0, 0.4, 3.0]
    shift = CURVE.df_bound * ALPHAS.grid_step / 2.0
    roomy = check_cover(CURVE, BlindSet(np.array([tall])), SELF, ALPHAS, shift=shift)
    assert roomy.passed and roomy.padding > 0.0
    blinds = BlindSet(np.array([tall, _edge_case_row()]))
    report = check_cover(CURVE, blinds, SELF, ALPHAS, shift=shift)
    assert report.passed and report.padding == 0.0
    target = BlindSet(np.array([_edge_case_row()]))
    report = check_cover(CURVE, BlindSet(np.array([tall])), target, ALPHAS, shift=shift)
    assert report.passed and report.padding == 0.0


def test_views_of_one_pass_match_one_view_checks():
    for curve, blinds, target, alphas in _failing_cover_cases():
        shifts = [0.0, 0.004, 0.001]
        views = [(target, shift) for shift in shifts]
        views.append((BlindSet(np.array([[0.0, 0.0, 0.3, 0.1]])), 0.002))
        reports = cover_views(curve, blinds, views, alphas, scene_id="v")
        for (view_target, shift), report in zip(views, reports):
            single = check_cover(curve, blinds, view_target, alphas, "v", shift)
            assert report_bits(report) == report_bits(single)
        reports = small_views(curve, blinds, alphas, 0.5, shifts, scene_id="v")
        for shift, report in zip(shifts, reports):
            single = check_small(curve, blinds, alphas, 0.5, "v", shift)
            assert report_bits(report) == report_bits(single)


def test_report_json_shape():
    report = check_cover(CURVE, SELF, SELF, ALPHAS, scene_id="t")
    small = check_small(CURVE, SELF, ALPHAS, bound=1.0, scene_id="t")
    fields = {
        "cover": ("alpha", "covered", "deficit", "projected_measure"),
        "small": ("alpha", "deficit", "projected_measure"),
    }
    for kind, checked in (("cover", report), ("small", small)):
        data = checked.to_json_dict()
        assert data["kind"] == kind
        assert data["pass"] is True
        assert type(data["worst_alpha"]) is float and type(data["worst_value"]) is float
        assert data["per_alpha"].dtype.names == fields[kind]
        # one record per grid alpha, the count tracing reports as alpha_points
        assert len(data["per_alpha"]) == len(ALPHAS.grid()) == 20


def test_gradient_check_small_on_builtins():
    for name in ("parabola", "quarter_circle", "exp"):
        assert gradient_check(builtin_curve(name), samples=100, seed=1) < 1e-5
    with pytest.raises(ValueError):
        gradient_check(CURVE, h=0.0)


@pytest.mark.parametrize("samples", [0, -3])
def test_gradient_check_rejects_no_samples(samples):
    # no sample would be a vacuous pass: a worst error of 0.0
    with pytest.raises(ValueError, match="samples must be >= 1"):
        gradient_check(CURVE, samples=samples)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"samples": True}, "samples must be an integer, got True"),
        ({"samples": 3, "h": math.nan}, "step h must be finite and > 0, got nan"),
        ({"samples": 3, "h": math.inf}, "step h must be finite and > 0, got inf"),
    ],
)
def test_gradient_check_rejects_invalid_counts_and_steps(kwargs, message):
    # a float count used to die in range(), True ran one sample, and a NaN or
    # infinite step passed the h <= 0 test and failed in the evaluation
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gradient_check(CURVE, **kwargs)


@pytest.mark.parametrize("trials", [2.5, True])
def test_law_of_sines_check_rejects_counts_that_are_not_integers(trials):
    with pytest.raises(ValueError, match=f"^trials must be an integer, got {trials!r}$"):
        law_of_sines_check(trials=trials)


def test_law_of_sines_check_small():
    assert law_of_sines_check(trials=200, seed=1) < 1e-10
    with pytest.raises(ValueError):
        law_of_sines_check(trials=0)


def _failing_cover_cases():
    """Blinds that leave parts of their target uncovered at many alphas: a
    tangent chain of the fiber arc with every segment shrunk to 90% about
    its midpoint, and short random segments against one long segment."""
    curve = builtin_curve("parabola")
    chain = polygon_approx(curve, Point(0.5, 0.1), (0.3, 0.6), 0.05, 0.01)
    ends = chain.coords().reshape(-1, 2, 2)
    mid = ends.mean(axis=1, keepdims=True)
    shrunk = BlindSet((mid + 0.9 * (ends - mid)).reshape(-1, 4))
    yield curve, shrunk, chain.source, default_alpha_box(curve, chain.source, 80)
    rng = np.random.default_rng(8)
    ax, ay = rng.uniform(-0.2, 0.6, 20), rng.uniform(-0.3, 0.3, 20)
    theta, length = rng.uniform(0.0, math.pi, 20), rng.uniform(0.01, 0.2, 20)
    coords = np.column_stack([ax, ay, ax + length * np.cos(theta), ay + length * np.sin(theta)])
    target = BlindSet(np.array([[-0.1, -0.2, 0.5, 0.25]]))
    yield curve, BlindSet(coords), target, AlphaSet.from_intervals([(0.3, 0.7), (0.9, 1.2)], 45)


@pytest.mark.parametrize("shift", [0.0, 0.004])
def test_check_reports_match_scalar_per_alpha_loop(shift):
    # every per_alpha row equals the scalar per-alpha loop of the reference
    # interval operations, bit for bit, including rows with a nonzero deficit
    for curve, blinds, target, alphas in _failing_cover_cases():
        cover_rows, small_rows = [], []
        for alpha in alphas.grid().tolist():
            proj_e = project_segments(curve, alpha, segments_of(blinds.coords))
            if isinstance(target, BlindSet):
                proj_t = project_segments(curve, alpha, segments_of(target.coords))
            else:
                proj_t = project_fiber_arc(curve, alpha, target)
            small_rows.append(
                {"alpha": alpha, "deficit": 0.0, "projected_measure": proj_e.inflate(shift).measure}
            )
            if shift > 0.0:
                proj_e = proj_e.erode(shift)
                proj_t = proj_t.inflate(shift)
            ok = contains(proj_e, proj_t, 1e-9)
            deficit = proj_t.difference(proj_e.inflate(1e-9)).measure if not ok else 0.0
            cover_rows.append(
                {"alpha": alpha, "covered": ok, "deficit": deficit, "projected_measure": proj_e.measure}
            )
        cover = check_cover(curve, blinds, target, alphas, shift=shift).to_json_dict()
        small = check_small(curve, blinds, alphas, bound=1.0, shift=shift).to_json_dict()
        assert records(cover["per_alpha"]) == cover_rows
        assert records(small["per_alpha"]) == small_rows
        assert sum(not row["covered"] for row in cover_rows) > 5
        assert sum(row["deficit"] > 1e-6 for row in cover_rows) > 5
        worst = max(cover_rows, key=lambda row: row["deficit"])
        assert (cover["worst_alpha"], cover["worst_value"]) == (worst["alpha"], worst["deficit"])
        worst = max(small_rows, key=lambda row: row["projected_measure"])
        assert (small["worst_alpha"], small["worst_value"]) == (
            worst["alpha"],
            worst["projected_measure"],
        )
