"""Certification harness: covering, smallness, gradient and rotation checks.

Grid certificates come with a Lipschitz-in-alpha padding: since
d(Phi_alpha)/d(alpha) = f'(alpha - x1) is bounded by df_bound, endpoint
motion between grid points is controlled, which extends per-grid-point
passes to closed-interval certificates when enough headroom is left and no
segment meets a strip edge.  cover_views and small_views evaluate several
views (covering targets and shifts, or smallness shifts) of one projection
pass; check_cover and check_small are their one-view case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .blinds import BlindSet, rotate
from .curve import CurveProfile, eval_phi, grad_phi
from .geometry import Point, Segment
from .measure import AlphaSet, FiberArc, IntervalUnion, project_blinds_grid, project_fiber_arc
from .projline import _count, dist, normalize

Target = Union[BlindSet, FiberArc]

#: Tolerance of the covering certificate on each grid point's deficit.
_MARGIN = 1e-9


@dataclass
class VerificationReport:
    scene_id: str
    kind: str  # "cover" | "small"
    passed: bool
    bound: float  # margin for cover reports, measure bound for small reports
    padding: float  # certified alpha-slack around each grid point (0 if none)
    worst_alpha: float
    worst_value: float
    #: one record per grid alpha: alpha, covered (cover reports only),
    #: deficit and projected_measure
    per_alpha: np.recarray

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.kind} [{self.scene_id}]: worst "
            f"{self.worst_value:.6g} at alpha={self.worst_alpha:.6g} "
            f"(bound {self.bound:.3g}, padding {self.padding:.3g})"
        )

    def to_json_dict(self) -> dict:
        out = {key: value for key, value in vars(self).items() if key != "passed"}
        out["pass"] = self.passed
        return out


def check_cover(
    curve: CurveProfile,
    blinds: BlindSet,
    target: Target,
    alphas: AlphaSet,
    scene_id: str = "",
    shift: float = 0.0,
) -> VerificationReport:
    """Certify Phi_alpha(blinds) contains Phi_alpha(target) over the grid.

    The target is a FiberArc or a BlindSet; a blind-set target is projected
    by the same kernel as the blinds.
    With shift > 0 the per-grid-point test erodes the blind projection and
    inflates the target by shift, so a pass certifies covering on the whole
    closed interval when shift >= df_bound * (half the grid spacing): moving
    alpha by dalpha moves every projected point by at most df_bound * dalpha.
    That rate holds only away from the strip edges, so no padding is granted
    where a blind or the target meets one (see _clear_of_strip_edges).
    """
    return cover_views(curve, blinds, [(target, shift)], alphas, scene_id)[0]


def cover_views(
    curve: CurveProfile,
    blinds: BlindSet,
    views: Sequence[tuple[Target, float]],
    alphas: AlphaSet,
    scene_id: str = "",
) -> list[VerificationReport]:
    """check_cover's report for each (target, shift) view, from one projection pass.

    The blinds are projected over the grid once; every batch of rows goes
    through each view's erosion, containment and deficit in turn, so each
    report is the one check_cover(target, shift=shift) returns.
    """
    for _, shift in views:
        _require_finite("shift", shift)
    grid = alphas.grid()
    targets = []
    for target, shift in views:
        if isinstance(target, FiberArc):
            rows = project_fiber_arc(curve, grid, target)
        else:
            rows = IntervalUnion.stack(project_blinds_grid(curve, grid, target))
        targets.append(rows.inflate(shift))
    columns = [([], [], []) for _ in views]  # covered, deficit, measure batches
    start = 0
    for proj in project_blinds_grid(curve, grid, blinds):
        stop = start + proj.rows
        for (_, shift), rows, (covered, deficits, measures) in zip(views, targets, columns):
            proj_t = rows.row_slice(start, stop)
            proj_e = proj.erode(shift) if shift > 0.0 else proj
            ok = proj_e.covers(proj_t)
            deficit = np.zeros(len(ok))
            if not ok.all():
                # the margin only widens proj_e, so rows covered without it stay covered
                grown = proj_e.inflate(_MARGIN)
                ok = grown.covers(proj_t)
                deficit = proj_t.difference(grown).measures()
            deficits.append(deficit)
            covered.append(ok)
            measures.append(proj_e.measures())
        start = stop
    clear = _clear_of_strip_edges(curve, alphas, blinds)
    reports = []
    for (target, shift), batches in zip(views, columns):
        per_alpha = np.rec.fromarrays(
            [grid, *map(np.concatenate, batches)], names="alpha,covered,deficit,projected_measure"
        )
        worst = int(np.argmax(per_alpha.deficit))
        all_ok = bool(per_alpha.covered.all())
        # unshifted, a grid pass certifies nothing between grid points: the
        # margin is a tolerance on the deficit, not headroom
        padded = all_ok and clear and _clear_of_strip_edges(curve, alphas, target)
        reports.append(
            VerificationReport(
                scene_id=scene_id,
                kind="cover",
                passed=all_ok,
                bound=_MARGIN,
                padding=_shift_padding(curve, alphas, shift) if padded else 0.0,
                worst_alpha=float(grid[worst]),
                worst_value=float(per_alpha.deficit[worst]),
                per_alpha=per_alpha,
            )
        )
    return reports


def check_small(
    curve: CurveProfile,
    blinds: BlindSet,
    alphas: AlphaSet,
    bound: float,
    scene_id: str = "",
    shift: float = 0.0,
) -> VerificationReport:
    """Certify per-alpha projected measure of the blinds stays below bound.

    With shift > 0 the per-grid-point measure is taken on the projection
    inflated by shift; since every projected point moves by at most
    df_bound * dalpha, a pass with shift >= df_bound * (half the grid
    spacing) bounds the measure on the whole closed interval.  That rate
    holds only away from the strip edges, so no padding is granted where a
    blind meets one (see _clear_of_strip_edges).
    """
    return small_views(curve, blinds, alphas, bound, [shift], scene_id)[0]


def small_views(
    curve: CurveProfile,
    blinds: BlindSet,
    alphas: AlphaSet,
    bound: float,
    shifts: Sequence[float],
    scene_id: str = "",
) -> list[VerificationReport]:
    """check_small's report for each shift, from one projection pass."""
    _require_finite("bound", bound, positive=True)
    for shift in shifts:
        _require_finite("shift", shift)
    grid = alphas.grid()
    columns = [[] for _ in shifts]  # measure batches
    n_max = [0] * len(shifts)
    for proj in project_blinds_grid(curve, grid, blinds):
        for v, shift in enumerate(shifts):
            proj_v = proj.inflate(shift) if shift > 0.0 else proj
            columns[v].append(proj_v.measures())
            n_max[v] = max(n_max[v], int(np.bincount(proj_v.row, minlength=1).max()))
    clear = _clear_of_strip_edges(curve, alphas, blinds)
    reports = []
    for shift, batches, n in zip(shifts, columns, n_max):
        measure = np.concatenate(batches)
        per_alpha = np.rec.fromarrays(
            [grid, np.zeros(len(grid)), measure], names="alpha,deficit,projected_measure"
        )
        worst = int(np.argmax(measure))
        worst_value = float(measure[worst])
        passed = worst_value < bound
        padding = 0.0
        if passed and clear and shift > 0.0:
            padding = _shift_padding(curve, alphas, shift)
        elif passed and clear and n > 0:
            # measure of an n-interval union moves by <= 2 n df_bound dalpha
            half_step = alphas.grid_step / 2.0
            if worst_value + 2.0 * n * curve.df_bound * half_step < bound:
                padding = half_step
        reports.append(
            VerificationReport(
                scene_id=scene_id,
                kind="small",
                passed=passed,
                bound=bound,
                padding=padding,
                worst_alpha=float(grid[worst]),
                worst_value=worst_value,
                per_alpha=per_alpha,
            )
        )
    return reports


def _require_finite(name: str, value: float, positive: bool = False) -> None:
    """Reject NaN, an infinity and a negative value; with positive, 0 too."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def _shift_padding(curve: CurveProfile, alphas: AlphaSet, shift: float) -> float:
    """Half the grid step if shift covers the endpoint motion over it, else 0."""
    half_step = alphas.grid_step / 2.0
    return half_step if shift > 0.0 and shift >= curve.df_bound * half_step else 0.0


def _clear_of_strip_edges(curve: CurveProfile, alphas: AlphaSet, item: Target) -> bool:
    """No segment of item, nor its arc, meets a strip edge of a certified alpha.

    Padding certifies the alphas within half a grid step of a grid point,
    which make up each component widened by half a step.  A segment that the
    edge alpha - b or alpha - a crosses inside that range is clipped there:
    its clipped endpoint slides along it at a rate set by its slope, which
    df_bound does not bound.
    """
    if isinstance(item, FiberArc):
        # the fiber point at parameter t has x1 = y1 - t
        x1_lo, x1_hi = item.y.x1 - item.hi, item.y.x1 - item.lo
    else:
        x1_lo = np.minimum(item.coords[:, 0], item.coords[:, 2])
        x1_hi = np.maximum(item.coords[:, 0], item.coords[:, 2])
    half_step = alphas.grid_step / 2.0
    for lo, hi in alphas.components:
        for end in (curve.b, curve.a):
            edge_lo, edge_hi = lo - half_step - end, hi + half_step - end
            if np.any((x1_lo <= edge_hi) & (x1_hi >= edge_lo)):
                return False
    return True


def gradient_check(
    curve: CurveProfile, samples: int = 1000, h: float = 1e-6, seed: int = 0
) -> float:
    """Max relative error of grad_phi against central differences of eval_phi."""
    _require_finite("step h", h, positive=True)
    if _count(samples, "samples") < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    width = curve.b - curve.a
    for _ in range(samples):
        alpha = float(rng.uniform(-1.0, 1.0))
        # keep x1 strictly interior so both difference stencils stay in-strip
        t = float(rng.uniform(curve.a + 0.05 * width, curve.b - 0.05 * width))
        x1 = alpha - t
        x2 = float(rng.uniform(-1.0, 1.0))
        g1, g2 = grad_phi(curve, alpha, Point(x1, x2))
        d1 = (
            eval_phi(curve, alpha, Point(x1 + h, x2))
            - eval_phi(curve, alpha, Point(x1 - h, x2))
        ) / (2.0 * h)
        d2 = (
            eval_phi(curve, alpha, Point(x1, x2 + h))
            - eval_phi(curve, alpha, Point(x1, x2 - h))
        ) / (2.0 * h)
        scale = max(1.0, abs(g1), abs(g2))
        worst = max(worst, abs(d1 - g1) / scale, abs(d2 - g2) / scale)
    return worst


def law_of_sines_check(trials: int = 1000, seed: int = 0) -> float:
    """Max relative residual of |rotate(seg)| against the law-of-sines formula.

    Samples valid triples for both chiralities: angles pairwise at least
    0.05 rad apart so the rotation is well conditioned.
    """
    if _count(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        for sign in (1.0, -1.0):  # counterclockwise and clockwise configurations
            a = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            theta_seg = float(rng.uniform(0.0, math.pi))
            length = float(rng.uniform(0.1, 2.0))
            b = Point(
                a.x1 + length * math.cos(theta_seg),
                a.x2 + length * math.sin(theta_seg),
            )
            seg = Segment(a, b)
            gap_small = float(rng.uniform(0.05, 1.2))
            gap_cover = float(rng.uniform(gap_small + 0.05, gap_small + 1.4))
            theta_small = normalize(theta_seg + sign * gap_small)
            theta_cover = normalize(theta_seg + sign * gap_cover)
            result = rotate(seg, theta_small, theta_cover)
            expected = (
                math.sin(dist(seg.direction, theta_cover))
                / math.sin(dist(theta_small, theta_cover))
                * seg.length
            )
            worst = max(worst, abs(result.length - expected) / expected)
    return worst
