"""Curve profiles and the projection family Phi_alpha."""

import math

import numpy as np
import pytest

from curveblinds.curve import (
    CurveProfile,
    DomainError,
    _golden_max,
    builtin_curve,
    builtin_curve_names,
    diff_interval,
    eval_phi,
    fiber_point,
    grad_phi,
    project_disk,
    tangent_direction,
)
from curveblinds.geometry import Disk, Point
import keylemma_reference as reference
from scalar_projection import scalar_exp

ALL_CURVES = [builtin_curve(name) for name in builtin_curve_names()]


def test_builtin_names():
    assert builtin_curve_names() == ["exp", "parabola", "quarter_circle"]
    with pytest.raises(ValueError):
        builtin_curve("circle")


def test_profile_rejects_non_monotone_df():
    with pytest.raises(ValueError, match="not strictly monotone"):
        CurveProfile(
            f=np.sin,
            df=np.cos,  # falls on [0, pi], rises after
            df_inverse=np.arccos,
            a=0.0,
            b=4.0,
            df_bound=1.0,
        )


def test_profile_reads_a_decreasing_df_off_the_samples():
    curve = CurveProfile(f=np.sin, df=np.cos, df_inverse=np.arccos, a=0.0, b=3.0, df_bound=1.0)
    assert curve.df_range() == (math.cos(3.0), 1.0)
    for t in np.linspace(0.0, 3.0, 17):
        assert abs(curve.df_inv(math.cos(t)) - t) < 1e-9


def test_profile_rejects_bad_df_bound():
    with pytest.raises(ValueError):
        CurveProfile(
            f=lambda t: t * t,
            df=lambda t: 2.0 * t,
            df_inverse=lambda u: u / 2.0,
            a=0.0,
            b=1.0,
            df_bound=0.5,  # |df| reaches 2
        )


def test_profile_rejects_a_wrong_inverse():
    with pytest.raises(ValueError, match="round-trip"):
        CurveProfile(
            f=np.exp, df=np.exp, df_inverse=np.log1p, a=0.0, b=1.0, df_bound=math.exp(1.0)
        )


@pytest.mark.parametrize("field", ["f", "df", "df_inverse"])
def test_profile_rejects_scalar_only_callables(field):
    fns = dict(f=np.exp, df=np.exp, df_inverse=np.log)
    fns[field] = {"f": math.exp, "df": math.exp, "df_inverse": math.log}[field]
    with pytest.raises(ValueError, match=f"^{field} must evaluate numpy arrays elementwise"):
        CurveProfile(**fns, a=0.0, b=1.0, df_bound=math.exp(1.0))


def test_df_inv_roundtrip_all_curves():
    for curve in ALL_CURVES:
        for t in np.linspace(curve.a, curve.b, 17):
            u = curve.df(float(t))
            assert abs(curve.df_inv(u) - float(t)) < 1e-9


def test_array_evaluation_with_and_without_array_support():
    # the construction mixes scalar calls (compute_bands, fiber_point,
    # _rigorous_pad) with the array calls of the kernels: both must agree
    # bit for bit, for the builtins' numpy expressions and for scalar-only
    # functions wrapped to take arrays
    ts = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    for curve in ALL_CURVES + [scalar_exp()]:
        t = np.clip(ts, curve.a, curve.b)
        u = np.linspace(*curve.df_range(), 12).reshape(3, 4)
        for fn, values in ((curve.f, t), (curve.df, t), (curve.df_inv, u)):
            got = fn(values)
            assert isinstance(got, np.ndarray) and got.shape == values.shape
            want = [fn(v) for v in values.ravel().tolist()]
            assert got.ravel().tobytes() == np.array(want).tobytes()


def test_strip_and_domain_checks():
    curve = builtin_curve("parabola")  # domain [0, 1]
    assert curve.strip(2.0) == (1.0, 2.0)
    assert curve.in_strip(2.0, 1.5)
    assert not curve.in_strip(2.0, 0.5)
    with pytest.raises(DomainError):
        eval_phi(curve, 2.0, Point(0.5, 0.0))
    with pytest.raises(DomainError):
        grad_phi(curve, 2.0, Point(2.5, 0.0))
    with pytest.raises(DomainError):
        tangent_direction(curve, 2.0, Point(-1.0, 0.0))


def test_eval_phi_matches_definition():
    for curve in ALL_CURVES:
        alpha = curve.a + 0.7 * (curve.b - curve.a)
        x = Point(0.0, 0.3)  # t = alpha is inside [a, b]
        expected = 0.3 + curve.f(alpha)
        assert math.isclose(eval_phi(curve, alpha, x), expected, rel_tol=1e-12)


def test_fiber_point_lies_on_fiber():
    # Phi_{y1}(fiber_point(t)) == y2 for every parameter t
    for curve in ALL_CURVES:
        y = Point(0.5, 1.25)
        for t in np.linspace(curve.a, curve.b, 9):
            p = fiber_point(curve, y, float(t))
            assert abs(eval_phi(curve, y.x1, p) - y.x2) < 1e-12
    with pytest.raises(ValueError):
        fiber_point(ALL_CURVES[0], Point(0.0, 0.0), 99.0)


def test_tangent_direction_matches_fiber_secant():
    # the fiber's secant direction converges to theta_alpha at the point
    curve = builtin_curve("parabola")
    y = Point(0.4, 0.9)
    t = 0.55
    p = fiber_point(curve, y, t)
    q = fiber_point(curve, y, t + 1e-7)
    secant = math.atan2(q.x2 - p.x2, q.x1 - p.x1) % math.pi
    theta = tangent_direction(curve, y.x1, p).angle
    assert abs(secant - theta) < 1e-6


def _diff_oracle(curve, subrange, s, samples=20001):
    """Brute-force min/max of f(t+s) - f(t) over the admissible t-range."""
    t0 = max(curve.a - s, subrange[0])
    t1 = min(curve.b - s, subrange[1])
    ts = np.linspace(t0, t1, samples)
    vals = np.array(
        [curve.f(curve.clamp_t(t + s)) - curve.f(curve.clamp_t(t)) for t in ts]
    )
    return float(np.min(vals)), float(np.max(vals))


def test_diff_interval_matches_sampling_oracle():
    for curve in ALL_CURVES:
        sub = (
            curve.a + 0.1 * (curve.b - curve.a),
            curve.a + 0.9 * (curve.b - curve.a),
        )
        s_lo, s_hi = curve.a - sub[1], curve.b - sub[0]
        for s in np.linspace(s_lo, s_hi, 11):
            lo, hi = diff_interval(curve, sub, float(s))
            olo, ohi = _diff_oracle(curve, sub, float(s))
            assert abs(lo - olo) < 1e-10
            assert abs(hi - ohi) < 1e-10


def test_diff_interval_rejects_out_of_range():
    curve = builtin_curve("parabola")
    with pytest.raises(ValueError):
        diff_interval(curve, (0.1, 0.9), 5.0)
    with pytest.raises(ValueError):
        diff_interval(curve, (-1.0, 0.5), 0.1)


def _disk_oracle(curve, alpha, disk, samples=4000):
    """Max/min of Phi_alpha over the disk via boundary-circle sampling."""
    angles = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    xs = disk.center.x1 + disk.radius * np.cos(angles)
    ys = disk.center.x2 + disk.radius * np.sin(angles)
    lo, hi = curve.strip(alpha)
    keep = (xs >= lo) & (xs <= hi)
    vals = [
        ys[i] + curve.f(curve.clamp_t(alpha - xs[i]))
        for i in np.flatnonzero(keep)
    ]
    return min(vals), max(vals)


def _oracle_disks():
    """(curve, alpha, disk): ten disks inside the strip for each builtin curve."""
    rng = np.random.default_rng(3)
    for curve in ALL_CURVES:
        for _ in range(10):
            alpha = float(rng.uniform(curve.a + 0.5, curve.b + 0.5))
            lo, hi = curve.strip(alpha)
            r = float(rng.uniform(0.05, 0.2)) * (hi - lo)
            c1 = float(rng.uniform(lo + r, hi - r))
            yield curve, alpha, Disk(Point(c1, float(rng.uniform(-1, 1))), r)


def test_project_disk_matches_boundary_oracle():
    for curve, alpha, disk in _oracle_disks():
        bot, top = project_disk(curve, alpha, disk)
        obot, otop = _disk_oracle(curve, alpha, disk)
        assert top >= otop - 1e-12
        assert bot <= obot + 1e-12
        # boundary sampling approaches the endpoints quadratically
        assert top - otop < 1e-5
        assert obot - bot < 1e-5


def test_project_disk_equals_the_scalar_search():
    # one array search over every local-max bracket keeps the bits of one
    # scalar search per bracket; the disks of the cli's checks too
    disks = list(_oracle_disks()) + [
        (builtin_curve("parabola"), float(alpha), Disk(Point(0.5, 0.2), 0.3))
        for alpha in np.linspace(0.3, 1.2, 7)
    ]
    for curve, alpha, disk in disks:
        got = np.array(project_disk(curve, alpha, disk))
        assert got.tobytes() == np.array(reference.project_disk(curve, alpha, disk)).tobytes()


def test_project_disk_misses_strip():
    curve = builtin_curve("parabola")
    with pytest.raises(DomainError):
        project_disk(curve, 10.0, Disk(Point(0.0, 0.0), 0.5))


def test_golden_max_returns_at_once_without_brackets(time_limit):
    # all() of an empty mask is true, so the loop must not be entered
    with time_limit(10):
        out = _golden_max(lambda x, i: -x * x, np.empty(0), np.empty(0), 1e-12)
    assert out.shape == (0,)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_project_disk_rejects_a_non_finite_alpha(alpha, time_limit):
    # a NaN alpha makes every seed value NaN, leaving the search no bracket
    curve = builtin_curve("parabola")
    with time_limit(10), pytest.raises(ValueError, match="^alpha must be finite, got"):
        project_disk(curve, alpha, Disk(Point(0.5, 0.2), 0.3))
