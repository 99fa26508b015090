"""The key-construction pipeline.

Given a fiber point y and a parameter subrange, the fiber arc gamma is
approximated by a tangent-line polygon chain, every vertex computed in one
array expression over the partition points; per chain segment, disjoint
direction bands for the cover and small alpha-sets are computed from the
x1 window of the segment's delta-neighborhood, the small band by one
circular-order rule (the small directions' positions along ``Arc.offsets``
of the gap after the cover band); a two-stage blind construction (one
clockwise stage toward the lower small band edge, then counterclockwise
iterated blinds toward the upper edge), run on all chain segments at once,
produces a segment family that covers gamma's projections over A_cover
while projecting with small measure over A_small.

Each piece count is chosen once for the requested eps, as in the
Venetian-blind lemma: the family is built and certified in one pass, and a
stage that cannot be met raises ConstructionError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .blinds import (
    BlindSet,
    Caps,
    ConstructionError,
    DEFAULT_CAPS,
    _directions,
    _iter_vb_stage,
    _lengths,
    _level_search,
    _row,
    _vb_cover_cap,
)
from .curve import CurveProfile, _golden_max, fiber_point
from .geometry import Point, Segment
from .measure import AlphaSet, FiberArc
from .projline import CCW, CW, Arc, Direction, dist, normalize
from .verify import VerificationReport, check_cover, cover_views, small_views


@dataclass(frozen=True)
class AngleBands:
    """Disjoint direction arcs enclosing the cover and small tangent sets.

    Counterclockwise cyclic order is cover_lo, cover_hi, small_lo, small_hi;
    the two closed arcs [cover_lo, cover_hi] and [small_lo, small_hi]
    (both counterclockwise) are separated by at least eps0.
    """

    cover_lo: Direction
    cover_hi: Direction
    small_lo: Direction
    small_hi: Direction
    eps0: float

    def __post_init__(self) -> None:
        if self.eps0 <= 0.0:
            raise ValueError(f"band separation must be positive, got {self.eps0!r}")

    @property
    def cover_arc(self) -> Arc:
        return Arc(self.cover_lo, self.cover_hi, CCW)

    @property
    def small_arc(self) -> Arc:
        return Arc(self.small_lo, self.small_hi, CCW)


@dataclass(frozen=True)
class PolyChain:
    """A tangent-line polygon chain approximating a fiber arc.

    Vertices p_0 ... p_N; segment i (from p_{i-1} to p_i) is tangent to the
    fiber arc at parameter tangency_params[i-1]; p_0 and p_N lie on the arc.
    """

    vertices: tuple[Point, ...]
    tangency_params: tuple[float, ...]
    source: FiberArc

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("chain needs at least two vertices")
        if len(self.tangency_params) != len(self.vertices) - 1:
            raise ValueError("need one tangency parameter per chain segment")

    def segments(self) -> list[Segment]:
        return [
            Segment(self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        ]

    def coords(self) -> np.ndarray:
        """The chain segments as (ax, ay, bx, by) rows."""
        v = np.array([p.as_tuple() for p in self.vertices])
        return np.concatenate([v[:-1], v[1:]], axis=1)


# -- polygon approximation --------------------------------------------------

#: Largest partition count polygon_approx tries before giving up.
_PARTITION_CAP = 2**20


def default_alpha_box(curve: CurveProfile, arc: FiberArc, points: int = 100) -> AlphaSet:
    """An alpha-grid spanning every alpha whose strip can meet the fiber arc."""
    lo = arc.y.x1 - arc.hi + curve.a - 0.1
    hi = arc.y.x1 - arc.lo + curve.b + 0.1
    return AlphaSet.interval(lo, hi, points)


def polygon_approx(
    curve: CurveProfile,
    y: Point,
    subrange: tuple[float, float],
    eps: float,
    delta: float,
    alpha_grid: Optional[AlphaSet] = None,
) -> PolyChain:
    """Tangent-line polygon chain P with Phi_alpha(P) containing Phi_alpha(gamma).

    Doubles the partition count until every chain segment is shorter than
    eps, the chain lies within delta of the fiber arc, and the projection
    covering certifies on the test alpha-grid.
    """
    a1, b1 = float(subrange[0]), float(subrange[1])
    if not curve.a - 1e-12 <= a1 < b1 <= curve.b + 1e-12:
        raise ValueError(f"invalid subrange [{a1!r}, {b1!r}] within [{curve.a}, {curve.b}]")
    if eps <= 0.0 or delta <= 0.0:
        raise ValueError("eps and delta must be positive")
    arc = FiberArc(y, a1, b1)
    if alpha_grid is None:
        alpha_grid = default_alpha_box(curve, arc)

    n = 2
    while n <= _PARTITION_CAP:
        chain = _tangent_chain(curve, arc, n)
        if _polygon_ok(curve, chain, eps, delta, alpha_grid):
            return chain
        n *= 2
    raise ConstructionError(
        f"polygon approximation exceeded partition cap {_PARTITION_CAP}", stage="polygon"
    )


def _tangent_chain(curve: CurveProfile, arc: FiberArc, n: int) -> PolyChain:
    """The tangent chain over n equally spaced partition points t_1 .. t_n.

    Interior vertices are tangent-line intersections at consecutive
    partition points, so segment i is tangent to the arc at t_i and the chain
    has n segments.  The fiber is the graph x2 = y2 - f(y1 - x1), with slope
    f'(t) at parameter t; tangent slopes differ since f' is injective.
    """
    y = arc.y
    ts = np.linspace(arc.lo, arc.hi, n)
    tc = np.clip(ts, curve.a, curve.b)
    qx, qy, s = y.x1 - tc, y.x2 - curve.f_array(tc), curve.df_array(tc)
    vx = (qy[1:] - qy[:-1] + s[:-1] * qx[:-1] - s[1:] * qx[1:]) / (s[:-1] - s[1:])
    vy = qy[:-1] + s[:-1] * (vx - qx[:-1])
    xs = np.concatenate(([qx[0]], vx, [qx[-1]])).tolist()
    ys = np.concatenate(([qy[0]], vy, [qy[-1]])).tolist()
    vertices = tuple(Point(p, q) for p, q in zip(xs, ys))
    return PolyChain(vertices, tuple(ts.tolist()), arc)


def _vertex_distances(curve: CurveProfile, chain: PolyChain) -> Iterator[float]:
    """Upper bounds on the distance from each interior vertex to the fiber arc.

    Interior vertex i meets the tangents at t_{i-1} and t_i; one golden-section
    search over that sub-arc finds its nearest arc point.  Every evaluated
    point lies on the arc, so each value bounds the true distance from above.
    """
    y, ts = chain.source.y, chain.tangency_params
    for p, lo, hi in zip(chain.vertices[1:-1], ts[:-1], ts[1:]):

        def neg_d2_at(t: float, p: Point = p) -> float:
            q = fiber_point(curve, y, t)
            return -((q.x1 - p.x1) ** 2 + (q.x2 - p.x2) ** 2)

        yield math.sqrt(-_golden_max(neg_d2_at, lo, hi, 1e-13))


def _polygon_ok(
    curve: CurveProfile,
    chain: PolyChain,
    eps: float,
    delta: float,
    alpha_grid: AlphaSet,
) -> bool:
    coords = chain.coords()
    if np.any(_lengths(coords) >= eps):
        return False
    # the end vertices lie on the arc
    if any(d > delta for d in _vertex_distances(curve, chain)):
        return False
    return check_cover(curve, BlindSet(coords), chain.source, alpha_grid, margin=1e-9).passed


# -- angle bands ------------------------------------------------------------

#: Safety margin added around the exact direction ranges of both bands.
_BAND_SLACK = 1e-7


def compute_bands(
    curve: CurveProfile,
    x1_lo: float,
    x1_hi: float,
    a_small: AlphaSet,
    a_cover: AlphaSet,
) -> AngleBands:
    """Disjoint direction bands over A_small / A_cover for a compact region.

    The region enters only through its x1 window [x1_lo, x1_hi]: tangent
    directions theta_alpha(x) = atan(f'(alpha - x1)) depend only on
    t = alpha - x1, and f' is monotone, so the exact direction range over
    (alpha-component) x (region) is attained at the endpoints of the
    corresponding t-window; the bands are those exact ranges plus a tiny
    safety slack.  The small band is the shortest arc enclosing the small
    directions inside the gap that runs counterclockwise from the cover band
    back to it; it may wrap through the vertical direction.
    """
    if len(a_cover.components) != 1:
        raise ValueError("A_cover must be a single interval")
    for clo, chi_ in a_cover.components:
        for slo, shi in a_small.components:
            if not (shi < clo or chi_ < slo):
                raise ValueError("A_small and A_cover must be disjoint")

    clo, chi_ = a_cover.bounds
    t_lo, t_hi = clo - x1_hi, chi_ - x1_lo
    if t_lo < curve.a or t_hi > curve.b:
        raise ConstructionError(
            f"compact region leaves the strip over A_cover "
            f"(t-window [{t_lo:.3g}, {t_hi:.3g}] vs [{curve.a}, {curve.b}])",
            stage="bands",
        )
    cover_phis = np.array(
        [math.atan(curve.df(t_lo)), math.atan(curve.df(t_hi))]
    )
    small_vals = []
    for slo, shi in a_small.components:
        w_lo = max(slo - x1_hi, curve.a)
        w_hi = min(shi - x1_lo, curve.b)
        if w_lo <= w_hi:
            small_vals.append(math.atan(curve.df(w_lo)))
            small_vals.append(math.atan(curve.df(w_hi)))
    if not small_vals:
        raise ConstructionError("no admissible directions over A_small", stage="bands")
    small_phis = np.array(small_vals)

    c_lo = float(np.min(cover_phis)) - _BAND_SLACK
    c_hi = float(np.max(cover_phis)) + _BAND_SLACK
    # positions of the small directions along the gap from the cover band's
    # upper edge counterclockwise to its lower edge; a direction inside the
    # cover band lands past the gap's end
    gap = Arc(normalize(c_hi), normalize(c_lo), CCW)
    u = gap.offsets(small_phis)
    first, last = int(np.argmin(u)), int(np.argmax(u))
    s_lo = float(small_phis[first]) - _BAND_SLACK
    s_hi = float(small_phis[last]) + _BAND_SLACK
    eps0 = min(float(u[first]), gap.length - float(u[last])) - _BAND_SLACK
    if eps0 <= 0.0:
        raise ConstructionError(
            f"inflated direction sets overlap (separation {eps0:.3g}); "
            "delta or grids too coarse",
            stage="bands",
            witness=((c_lo, c_hi), (s_lo, s_hi)),
        )
    return AngleBands(
        cover_lo=normalize(c_lo),
        cover_hi=normalize(c_hi),
        small_lo=normalize(s_lo),
        small_hi=normalize(s_hi),
        eps0=eps0,
    )


# -- two-stage local construction ------------------------------------------


def local_construction(
    curve: CurveProfile,
    seg: Segment,
    bands: AngleBands,
    a_small: AlphaSet,
    a_cover: AlphaSet,
    eps: float,
    delta: float,
    caps: Caps = DEFAULT_CAPS,
) -> BlindSet:
    """Cover-and-shrink blinds for one short segment, per the angle bands.

    Step 1 rotates the segment clockwise into blades of direction small_lo
    (cover direction cover_hi), staying within delta/2; step 2 runs
    counterclockwise iterated blinds on every blade toward small_hi (cover
    direction cover_lo), staying within delta of the original segment.  The
    two stages' covering arcs intersect to the cover band.
    """
    coords, stage1_n, leaves = _local_blinds(
        curve, _row(seg), [bands], a_small, a_cover, eps, delta, caps
    )
    return BlindSet(
        coords,
        provenance=None,
        meta={
            "kind": "local_construction",
            "stage1_n": int(stage1_n[0]),
            "stage2_counts": leaves.tolist(),
            "bands": {
                "cover_lo": bands.cover_lo.angle,
                "cover_hi": bands.cover_hi.angle,
                "small_lo": bands.small_lo.angle,
                "small_hi": bands.small_hi.angle,
                "eps0": bands.eps0,
            },
        },
    )


def _local_blinds(
    curve: CurveProfile,
    segs: np.ndarray,
    bands: list[AngleBands],
    a_small: AlphaSet,
    a_cover: AlphaSet,
    eps: float,
    delta: float,
    caps: Caps,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """local_construction on every row of ``segs`` at once, each with its bands.

    Returns (the leaves row by row and blade by blade, stage-1 blades per
    row, leaves per blade).
    """
    lengths, theta = _lengths(segs), _directions(segs)
    for length, t, b in zip(lengths.tolist(), theta.tolist(), bands):
        if length >= eps:
            raise ConstructionError(
                f"segment length {length:.3g} must be below eps={eps:.3g}", stage="precondition"
            )
        if not b.small_arc.contains_strictly(t, tol=1e-9):
            raise ConstructionError(
                f"segment direction {Direction(t)} is not strictly inside the "
                f"small band [{b.small_lo}, {b.small_hi}]",
                stage="band membership",
            )
    cover_lo, cover_hi, small_lo, small_hi = (
        [getattr(b, side).angle for b in bands]
        for side in ("cover_lo", "cover_hi", "small_lo", "small_hi")
    )
    # keep stage-1 blades below the stage-2 length precondition
    ratio = [
        math.sin(dist(t, c)) / math.sin(dist(s, c)) for t, s, c in zip(theta, small_lo, cover_hi)
    ]
    n0 = np.maximum(1, np.ceil(lengths * np.array(ratio) / (0.9 * eps))).astype(np.int64)
    # one parent per group, as in auto_vb_cover; band membership puts every
    # segment on the clockwise arc from cover_hi to small_lo
    found = _level_search(
        curve, segs, np.ones(len(segs), dtype=np.int64), theta, small_lo, cover_hi, CW,
        a_cover, delta / 2.0, n0, caps.n_max,
    )
    if isinstance(found, int):
        raise _vb_cover_cap(caps.n_max, segs[found], small_lo[found], cover_hi[found], a_cover)
    stage1_n, blades = found
    leaves, sizes, *_ = _iter_vb_stage(
        curve, blades, np.repeat(small_hi, stage1_n), np.repeat(cover_lo, stage1_n),
        eps, a_small, a_cover, CCW, caps, delta / 2.0,
    )
    return leaves, stage1_n, sizes


# -- end-to-end key construction -------------------------------------------


@dataclass
class KeyResult:
    """Output of key_construction: the blinds plus their certificates."""

    blinds: BlindSet
    cover_report: VerificationReport
    small_report: VerificationReport


def key_construction(
    curve: CurveProfile,
    y: Point,
    subrange: tuple[float, float],
    a_small: AlphaSet,
    a_cover: AlphaSet,
    eps: float,
    delta: float,
    caps: Caps = DEFAULT_CAPS,
    scene_id: str = "",
    rigorous: bool = False,
) -> KeyResult:
    """A finite segment family covering gamma over A_cover, small over A_small.

    Builds and certifies once, at the requested eps, with the working delta
    min(delta, 0.45 * clearance, eps) so that the closed delta-neighborhood
    of gamma stays inside the strip interior over A_cover.  A stage that
    cannot be met raises ConstructionError naming it: "polygon", "bands",
    a blind stage, or "cover" / "small" when a certificate fails, with that
    certificate's summary line as the message.

    With rigorous set, the blinds are built for a padded subrange (see
    _rigorous_pad) and the unshifted certificates on the padded arc decide
    pass or fail.  The reported certificates are shifted by df_bound times
    half a grid step and taken on the unpadded arc, so that a pass holds for
    every alpha; they come from the same projection pass over each grid as
    the deciding ones.
    """
    a1, b1 = float(subrange[0]), float(subrange[1])
    # rigorous: each grid's pass gets a second view, shifted, on the unpadded arc
    shifted_cover: list[tuple[FiberArc, float]] = []
    shifted_small: list[float] = []
    if rigorous:
        shift = curve.df_bound * a_cover.grid_step / 2.0
        pad = _rigorous_pad(curve, y, (a1, b1), a_cover, shift)
        shifted_cover.append((FiberArc(y, a1, b1), shift))
        shifted_small.append(curve.df_bound * a_small.grid_step / 2.0)
        a1, b1 = max(curve.a, a1 - pad), min(curve.b, b1 + pad)
    alpha0 = y.x1
    if not a_small.contains_alpha(alpha0, tol=1e-12):
        raise ValueError(f"alpha0={alpha0!r} must lie in A_small")
    if len(a_cover.components) != 1:
        raise ValueError("A_cover must be a single interval")
    amin, amax = a_cover.bounds
    x1_lo, x1_hi = y.x1 - b1, y.x1 - a1
    clearance = min(x1_lo - (amax - curve.b), (amin - curve.a) - x1_hi)
    if clearance <= 0.0:
        raise ValueError(
            f"fiber arc leaves the strip over A_cover (clearance {clearance:.3g})"
        )
    arc = FiberArc(y, a1, b1)
    delta_c = min(delta, 0.45 * clearance, eps)
    chain = polygon_approx(curve, y, (arc.lo, arc.hi), eps, delta_c / 2.0, alpha_grid=a_cover)
    segs = chain.coords()
    # a segment's delta_c-neighborhood spans its endpoints' x1 range, widened
    x1 = np.sort(segs[:, 0::2], axis=1).tolist()
    bands = [compute_bands(curve, lo - delta_c, hi + delta_c, a_small, a_cover) for lo, hi in x1]
    coords, stage1_n, leaves = _local_blinds(
        curve, segs, bands, a_small, a_cover, eps, delta_c, caps
    )
    # run-length unit labels: [chain_index, blade_count, leaf_count]
    per_unit = np.add.reduceat(leaves, np.cumsum(stage1_n) - stage1_n)
    units = np.stack([np.arange(len(segs)), stage1_n, per_unit], axis=1).tolist()
    blinds = BlindSet(
        coords,
        provenance=None,
        meta={
            "kind": "key_construction",
            "eps": eps,
            # the working scale is eps; the key stays for the pinned output bytes
            "eps_c": eps,
            "delta": delta_c,
            "units": units,
            "chain_segments": len(units),
        },
    )
    # view 0 of each grid decides; the last one is reported
    covers = cover_views(
        curve, blinds, [(arc, 0.0)] + shifted_cover, a_cover, margin=1e-9, scene_id=scene_id
    )
    smalls = small_views(curve, blinds, a_small, eps, [0.0] + shifted_small, scene_id=scene_id)
    for stage, views in (("cover", covers), ("small", smalls)):
        if not views[0].passed:
            raise ConstructionError(views[0].summary_line(), stage=stage)
    return KeyResult(blinds, covers[-1], smalls[-1])


def _rigorous_pad(
    curve: CurveProfile,
    y: Point,
    subrange: tuple[float, float],
    a_cover: AlphaSet,
    shift: float,
) -> float:
    """Subrange extension creating covering slack of at least 2*shift.

    The projected fiber-arc endpoint at parameter t moves under d(t) at rate
    |f'(alpha - y1 + t) - f'(t)|; padding by 2*shift over the slowest rate
    observed on the alpha-grid leaves room to erode the covering later.
    """
    slowest = math.inf
    for alpha in a_cover.grid():
        for t in subrange:
            rate = abs(
                curve.df(curve.clamp_t(float(alpha) - y.x1 + t))
                - curve.df(curve.clamp_t(t))
            )
            slowest = min(slowest, rate)
    if not math.isfinite(slowest) or slowest <= 0.0:
        raise ValueError("cannot pad subrange: projected endpoints are stationary")
    return 3.0 * shift / slowest
