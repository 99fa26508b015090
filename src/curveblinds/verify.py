"""Certification harness: covering, smallness, gradient and rotation checks.

Grid certificates come with a Lipschitz-in-alpha padding: since
d(Phi_alpha)/d(alpha) = f'(alpha - x1) is bounded by df_bound, endpoint
motion between grid points is controlled, which extends per-grid-point
passes to closed-interval certificates when enough headroom is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .blinds import BlindSet, rotate
from .curve import CurveProfile, eval_phi, grad_phi
from .geometry import Point, Segment
from .measure import AlphaSet, FiberArc, IntervalUnion, project_blinds_grid, project_fiber_arc
from .projline import dist, normalize

Target = Union[Segment, FiberArc]


@dataclass
class PerAlpha:
    alpha: float
    covered: Optional[bool]
    deficit: float
    projected_measure: float

    def to_json_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


@dataclass
class VerificationReport:
    scene_id: str
    kind: str  # "cover" | "small"
    passed: bool
    bound: float  # margin for cover reports, measure bound for small reports
    padding: float  # certified alpha-slack around each grid point (0 if none)
    worst_alpha: float
    worst_value: float
    per_alpha: list[PerAlpha] = field(default_factory=list)

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
        out["per_alpha"] = [pa.to_json_dict() for pa in self.per_alpha]
        return out


def check_cover(
    curve: CurveProfile,
    blinds: BlindSet,
    target: Target,
    alphas: AlphaSet,
    margin: float = 1e-9,
    scene_id: str = "",
    shift: float = 0.0,
) -> VerificationReport:
    """Certify Phi_alpha(blinds) contains Phi_alpha(target) over the grid.

    With shift > 0 the per-grid-point test erodes the blind projection and
    inflates the target by shift, so a pass certifies covering on the whole
    closed interval when shift >= df_bound * (half the grid spacing): moving
    alpha by dalpha moves every projected point by at most df_bound * dalpha.
    """
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    if shift < 0.0:
        raise ValueError(f"shift must be >= 0, got {shift!r}")
    grid = alphas.grid()
    if isinstance(target, Segment):
        segment = BlindSet.from_segments([target])
        targets = IntervalUnion.stack(project_blinds_grid(curve, grid, segment))
    else:
        targets = project_fiber_arc(curve, grid, target)
    targets = targets.inflate(shift)
    covered, deficits, measures, start = [], [], [], 0
    for proj_e in project_blinds_grid(curve, grid, blinds):
        proj_t = targets.row_slice(start, start + proj_e.rows)
        start += proj_e.rows
        if shift > 0.0:
            proj_e = proj_e.erode(shift)
        ok = proj_e.covers(proj_t)
        deficit = np.zeros(len(ok))
        if not ok.all():
            # the margin only widens proj_e, so rows covered without it stay covered
            grown = proj_e.inflate(margin)
            ok = grown.covers(proj_t)
            deficit = proj_t.difference(grown).measures()
        deficits.append(deficit)
        covered.append(ok)
        measures.append(proj_e.measures())
    covered, deficit, measure = map(np.concatenate, (covered, deficits, measures))
    per_alpha = list(map(PerAlpha, *(x.tolist() for x in (grid, covered, deficit, measure))))
    worst = per_alpha[int(np.argmax(deficit))]
    all_ok = bool(covered.all())
    # unshifted, a grid pass certifies nothing between grid points: the margin
    # is a tolerance on the deficit, not headroom
    return VerificationReport(
        scene_id=scene_id,
        kind="cover",
        passed=all_ok,
        bound=margin,
        padding=_shift_padding(curve, alphas, shift) if all_ok else 0.0,
        worst_alpha=worst.alpha,
        worst_value=worst.deficit,
        per_alpha=per_alpha,
    )


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
    spacing) bounds the measure on the whole closed interval.
    """
    if bound <= 0.0:
        raise ValueError(f"bound must be positive, got {bound!r}")
    if shift < 0.0:
        raise ValueError(f"shift must be >= 0, got {shift!r}")
    grid = alphas.grid()
    measures, n_max = [], 0
    for proj in project_blinds_grid(curve, grid, blinds):
        if shift > 0.0:
            proj = proj.inflate(shift)
        measures.append(proj.measures())
        n_max = max(n_max, int(np.bincount(proj.row, minlength=1).max()))
    measure = np.concatenate(measures)
    per_alpha = [PerAlpha(a, None, 0.0, m) for a, m in zip(grid.tolist(), measure.tolist())]
    worst = per_alpha[int(np.argmax(measure))]
    passed = worst.projected_measure < bound
    padding = 0.0
    if passed and shift > 0.0:
        padding = _shift_padding(curve, alphas, shift)
    elif passed and n_max > 0:
        # measure of an n-interval union moves by <= 2 n df_bound dalpha
        half_step = alphas.grid_step / 2.0
        if worst.projected_measure + 2.0 * n_max * curve.df_bound * half_step < bound:
            padding = half_step
    return VerificationReport(
        scene_id=scene_id,
        kind="small",
        passed=passed,
        bound=bound,
        padding=padding,
        worst_alpha=worst.alpha,
        worst_value=worst.projected_measure,
        per_alpha=per_alpha,
    )


def _shift_padding(curve: CurveProfile, alphas: AlphaSet, shift: float) -> float:
    """Half the grid step if shift covers the endpoint motion over it, else 0."""
    half_step = alphas.grid_step / 2.0
    return half_step if shift > 0.0 and shift >= curve.df_bound * half_step else 0.0


def gradient_check(
    curve: CurveProfile, samples: int = 1000, h: float = 1e-6, seed: int = 0
) -> float:
    """Max relative error of grad_phi against central differences of eval_phi."""
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
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
    if trials < 1:
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
