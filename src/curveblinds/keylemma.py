"""The key-construction pipeline.

Given a fiber point y and a parameter subrange, the fiber arc gamma is
approximated by a tangent-line polygon chain, an (N+1, 2) vertex array from
one array expression, whose distances to the arc come from one array
golden-section search that stops a vertex within delta.  One compute_bands
call gives every chain segment its disjoint direction bands for the cover
and small alpha-sets, as angle arrays, from the x1 windows of the segments'
delta-neighborhoods.  A two-stage blind construction (one clockwise stage
toward the lower small band edge, then counterclockwise iterated blinds
toward the upper edge), run on all chain segments at once, produces a
segment family that covers gamma's projections over A_cover while
projecting with small measure over A_small.

Each piece count is chosen once for the requested eps, as in the
Venetian-blind lemma: the family is built and certified in one pass, and a
stage that cannot be met raises ConstructionError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
from .curve import CurveProfile, _golden_max
from .geometry import Point, Segment
from .measure import AlphaSet, FiberArc
from .projline import CCW, CW, Direction, _arc_offsets, dist
from .verify import VerificationReport, _require_finite, check_cover, cover_views, small_views


@dataclass(frozen=True, eq=False)
class AngleBands:
    """Disjoint direction arcs enclosing the cover and small tangent sets, per unit.

    Each field is a float array with one entry per chain unit, the angles in
    [0, pi).  Counterclockwise cyclic order is cover_lo, cover_hi, small_lo,
    small_hi; the two closed arcs [cover_lo, cover_hi] and [small_lo,
    small_hi] (both counterclockwise) are separated by at least eps0.
    """

    cover_lo: np.ndarray
    cover_hi: np.ndarray
    small_lo: np.ndarray
    small_hi: np.ndarray
    eps0: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(self.eps0 > 0.0):
            raise ValueError(f"band separation must be positive, got {self.eps0!r}")


@dataclass(frozen=True, eq=False)
class PolyChain:
    """A tangent-line polygon chain approximating a fiber arc.

    Vertices p_0 ... p_N, the rows of an (N+1, 2) array; segment i (from
    p_{i-1} to p_i) is tangent to the fiber arc at parameter
    tangency_params[i-1]; p_0 and p_N lie on the arc.
    """

    vertices: np.ndarray
    tangency_params: np.ndarray
    source: FiberArc

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError("chain needs at least two vertices")
        if len(self.tangency_params) != len(self.vertices) - 1:
            raise ValueError("need one tangency parameter per chain segment")
        if not np.isfinite(self.vertices).all():
            raise ValueError("chain vertices must be finite")

    def coords(self) -> np.ndarray:
        """The chain segments as (ax, ay, bx, by) rows."""
        return np.concatenate([self.vertices[:-1], self.vertices[1:]], axis=1)


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
    _require_finite("eps", eps, positive=True)
    _require_finite("delta", delta, positive=True)
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
    qx, qy, s = y.x1 - tc, y.x2 - curve.f(tc), curve.df(tc)
    vx = (qy[1:] - qy[:-1] + s[:-1] * qx[:-1] - s[1:] * qx[1:]) / (s[:-1] - s[1:])
    vy = qy[:-1] + s[:-1] * (vx - qx[:-1])
    xs = np.concatenate(([qx[0]], vx, [qx[-1]]))
    ys = np.concatenate(([qy[0]], vy, [qy[-1]]))
    return PolyChain(np.stack([xs, ys], axis=1), ts, arc)


def _vertex_distances(curve: CurveProfile, chain: PolyChain,
                      delta: Optional[float] = None) -> np.ndarray:
    """Upper bounds on the distance from each interior vertex to the fiber arc.

    Interior vertex i meets the tangents at t_{i-1} and t_i; one golden-section
    search over all those sub-arcs finds each vertex's nearest arc point.  An
    evaluated point lies on the arc, so bounds the distance from above; given
    delta, a vertex stops at the first such bound within delta.
    """
    y, ts = chain.source.y, chain.tangency_params
    px, py = chain.vertices[1:-1].T

    def neg_d2_at(t: np.ndarray, i: np.ndarray) -> np.ndarray:
        # -|fiber_point(t) - p_i|^2; float_power squares as Python's ** does
        t = np.clip(t, curve.a, curve.b)
        dx, dy = y.x1 - t - px[i], y.x2 - curve.f(t) - py[i]
        return -(np.float_power(dx, 2.0) + np.float_power(dy, 2.0))

    stop = None if delta is None else (lambda best: np.sqrt(-best) <= delta)
    return np.sqrt(-_golden_max(neg_d2_at, ts[:-1], ts[1:], 1e-13, stop))


def _polygon_ok(curve: CurveProfile, chain: PolyChain, eps: float, delta: float,
                alpha_grid: AlphaSet) -> bool:
    coords = chain.coords()
    if np.any(_lengths(coords) >= eps):
        return False
    # the end vertices lie on the arc
    if np.any(_vertex_distances(curve, chain, delta) > delta):
        return False
    return check_cover(curve, BlindSet(coords), chain.source, alpha_grid).passed


# -- angle bands ------------------------------------------------------------

#: Safety margin added around the exact direction ranges of both bands.
_BAND_SLACK = 1e-7


def compute_bands(
    curve: CurveProfile,
    x1_lo: np.ndarray | float,
    x1_hi: np.ndarray | float,
    a_small: AlphaSet,
    a_cover: AlphaSet,
) -> AngleBands:
    """Disjoint direction bands over A_small / A_cover, one unit per x1 window.

    A unit is a compact region that enters only through its x1 window
    [x1_lo, x1_hi]; a scalar pair is one unit.  Tangent directions
    theta_alpha(x) = atan(f'(alpha - x1)) depend only on t = alpha - x1 and
    f' is monotone, so a band is the exact direction range at the ends of
    its t-windows plus a tiny slack.  The small band is the shortest arc
    enclosing the small directions inside the gap that runs counterclockwise
    from the cover band back to it; it may wrap through the vertical.  The
    first failing unit raises ConstructionError("bands") for its first failing check;
    a NaN or infinite window end raises ValueError naming the first such unit.
    """
    if len(a_cover.components) != 1:
        raise ValueError("A_cover must be a single interval")
    clo, chi_ = a_cover.bounds
    if any(not (shi < clo or chi_ < slo) for slo, shi in a_small.components):
        raise ValueError("A_small and A_cover must be disjoint")

    x1_lo, x1_hi = np.atleast_1d(x1_lo, x1_hi)
    finite = np.isfinite(x1_lo) & np.isfinite(x1_hi)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"x1 window must be finite: unit {i} is [{float(x1_lo[i])!r}, {float(x1_hi[i])!r}]"
        )
    t_lo, t_hi = clo - x1_hi, chi_ - x1_lo
    outside = (t_lo < curve.a) | (t_hi > curve.b)
    # per small component, the t-window it meets (columns lo, hi, lo, hi, ...)
    comps = np.array(a_small.components)
    w_lo = np.maximum(comps[:, 0] - x1_hi[:, None], curve.a)
    w_hi = np.minimum(comps[:, 1] - x1_lo[:, None], curve.b)
    admissible = np.repeat(w_lo <= w_hi, 2, axis=1)
    ends = np.stack([w_lo, w_hi], axis=2).reshape(len(x1_lo), -1)
    ts = np.clip(np.column_stack([t_lo, t_hi, ends]), curve.a, curve.b)
    # math.atan, not np.arctan: numpy's SIMD arctan can differ in the last bit
    phis = np.array([math.atan(v) for v in curve.df(ts).ravel().tolist()]).reshape(ts.shape)
    c_lo = np.min(phis[:, :2], axis=1) - _BAND_SLACK
    c_hi = np.max(phis[:, :2], axis=1) + _BAND_SLACK
    small_phis = phis[:, 2:]
    # offsets from 0 reduce angles mod pi, as normalize does
    cover_lo, cover_hi = _arc_offsets(c_lo, 0.0, True), _arc_offsets(c_hi, 0.0, True)
    # positions of the small directions along the gap from the cover band's
    # upper edge counterclockwise to its lower edge; a direction inside the
    # cover band lands past the gap's end
    gap = _arc_offsets(cover_lo, cover_hi, True)
    u = _arc_offsets(small_phis, cover_hi[:, None], True)
    units = np.arange(len(u))
    first = np.argmin(np.where(admissible, u, math.inf), axis=1)
    last = np.argmax(np.where(admissible, u, -math.inf), axis=1)
    s_lo = small_phis[units, first] - _BAND_SLACK
    s_hi = small_phis[units, last] + _BAND_SLACK
    eps0 = np.minimum(u[units, first], gap - u[units, last]) - _BAND_SLACK
    bad = np.stack([outside, ~admissible.any(axis=1), eps0 <= 0.0])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        message, witness = (
            ("compact region leaves the strip over A_cover (t-window "
             f"[{t_lo[i]:.3g}, {t_hi[i]:.3g}] vs [{curve.a}, {curve.b}])", None),
            ("no admissible directions over A_small", None),
            (f"inflated direction sets overlap (separation {eps0[i]:.3g}); "
             "delta or grids too coarse",
             ((float(c_lo[i]), float(c_hi[i])), (float(s_lo[i]), float(s_hi[i])))),
        )[int(np.argmax(bad[:, i]))]
        raise ConstructionError(message, stage="bands", witness=witness)
    small_lo, small_hi = _arc_offsets(s_lo, 0.0, True), _arc_offsets(s_hi, 0.0, True)
    return AngleBands(cover_lo, cover_hi, small_lo, small_hi, eps0)


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
    _require_finite("eps", eps, positive=True)
    _require_finite("delta", delta, positive=True)
    coords, stage1_n, leaves = _local_blinds(
        curve, _row(seg), bands, a_small, a_cover, eps, delta, caps
    )
    return BlindSet(
        coords,
        provenance=None,
        meta={
            "kind": "local_construction",
            "stage1_n": int(stage1_n[0]),
            "stage2_counts": leaves.tolist(),
            "bands": {name: float(v[0]) for name, v in vars(bands).items()},
        },
    )


def _local_blinds(
    curve: CurveProfile,
    segs: np.ndarray,
    bands: AngleBands,
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
    if len(bands.eps0) != len(segs):
        raise ValueError(f"need one band row per segment, got {len(bands.eps0)} for {len(segs)}")
    small_lo, cover_hi = bands.small_lo, bands.cover_hi
    lengths, theta = _lengths(segs), _directions(segs)
    # strictly inside the small band, 1e-9 clear of both ends
    u = _arc_offsets(theta, small_lo, True)
    inside = (1e-9 <= u) & (u <= _arc_offsets(bands.small_hi, small_lo, True) - 1e-9)
    bad = np.stack([lengths >= eps, ~inside])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        message, stage = (
            (f"segment length {lengths[i]:.3g} must be below eps={eps:.3g}", "precondition"),
            (f"segment direction {Direction(theta[i])} is not strictly inside the small band "
             f"[{Direction(small_lo[i])}, {Direction(bands.small_hi[i])}]", "band membership"),
        )[int(np.argmax(bad[:, i]))]
        raise ConstructionError(message, stage=stage)
    # keep stage-1 blades below the stage-2 length precondition
    ratio = [
        math.sin(dist(t, c)) / math.sin(dist(s, c))
        for t, s, c in zip(theta.tolist(), small_lo.tolist(), cover_hi.tolist())
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
        curve, blades, np.repeat(bands.small_hi, stage1_n), np.repeat(bands.cover_lo, stage1_n),
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
    _require_finite("eps", eps, positive=True)
    _require_finite("delta", delta, positive=True)
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
    clearance = curve.clearance(y.x1 - b1, y.x1 - a1, a_cover.bounds)
    if clearance <= 0.0:
        raise ValueError(
            f"fiber arc leaves the strip over A_cover (clearance {clearance:.3g})"
        )
    arc = FiberArc(y, a1, b1)
    delta_c = min(delta, 0.45 * clearance, eps)
    chain = polygon_approx(curve, y, (arc.lo, arc.hi), eps, delta_c / 2.0, alpha_grid=a_cover)
    segs = chain.coords()
    # a segment's delta_c-neighborhood spans its endpoints' x1 range, widened
    x1 = np.sort(segs[:, 0::2], axis=1)
    bands = compute_bands(curve, x1[:, 0] - delta_c, x1[:, 1] + delta_c, a_small, a_cover)
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
    covers = cover_views(curve, blinds, [(arc, 0.0)] + shifted_cover, a_cover, scene_id=scene_id)
    smalls = small_views(curve, blinds, a_small, eps, [0.0] + shifted_small, scene_id=scene_id)
    for stage, views in (("cover", covers), ("small", smalls)):
        if not views[0].passed:
            raise ConstructionError(views[0].summary_line(), stage=stage)
    return KeyResult(blinds, covers[-1], smalls[-1])


def _rigorous_pad(curve: CurveProfile, y: Point, subrange: tuple[float, float],
                  a_cover: AlphaSet, shift: float) -> float:
    """Subrange extension creating covering slack of at least 3*shift.

    The projected fiber-arc endpoint at parameter t moves under d(t) at rate
    |f'(alpha - y1 + t) - f'(t)|; padding by 3*shift over the slowest rate at
    the subrange ends on the alpha-grid leaves room to erode the covering.
    """
    ts = np.array(subrange, dtype=float)
    far = curve.df(np.clip(a_cover.grid()[:, None] - y.x1 + ts, curve.a, curve.b))
    rates = np.abs(far - curve.df(np.clip(ts, curve.a, curve.b)))
    # fmin skips a NaN rate, as min() does
    slowest = float(np.fmin.reduce(rates, axis=None, initial=math.inf))
    if not math.isfinite(slowest) or slowest <= 0.0:
        raise ValueError("cannot pad subrange: projected endpoints are stationary")
    return 3.0 * shift / slowest
