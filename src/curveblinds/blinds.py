"""The Venetian-blind construction stack.

DIVIDE splits a segment into equal pieces; ROTATE replaces a piece by the
segment from its start to the intersection of two direction lines; VB does
both; IterVB iterates VB along an equally spaced angle schedule with one
branching count per level.  One array kernel, _divide_rotate_level, does the
dividing and rotating for every entry point.  The auto_* searches realize
the paper-style "sufficiently large" piece counts: stage 1 and every
stage-2 level run one level search, _level_search, over groups of parents
(many chain units or blades at once), which doubles each group's count under
one cap until its blade tips stay within budget and its hulls satisfy the
covering hypotheses.  auto_vb_cover and auto_iter_vb are one-group calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .curve import CurveProfile
from .geometry import Point, Segment
from .measure import AlphaSet
from .projline import (
    ANGLE_TOL,
    CCW,
    CHIRALITIES,
    PI,
    Arc,
    Direction,
    _arc_offsets,
    _count,
    _schedules,
    angle_schedule,
    as_direction,
    dist,
    normalize,
)


class ConstructionError(RuntimeError):
    """A blind construction failed; carries the failing stage information."""

    def __init__(self, message: str, stage: object = None, witness: object = None):
        super().__init__(message)
        self.stage = stage
        self.witness = witness


@dataclass(frozen=True)
class Caps:
    """Hard caps for the parameter searches."""

    n_max: int = 2**20
    m_max: int = 64


DEFAULT_CAPS = Caps()


@dataclass
class BlindSet:
    """A finite union of segments with construction provenance.

    ``coords`` holds one row (ax, ay, bx, by) per segment; ``provenance``
    (optional) holds one tree index tuple per segment; ``meta`` records the
    construction parameters as JSON values (directions as their angles).
    """

    coords: np.ndarray
    provenance: Optional[list[tuple[int, ...]]] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[1] != 4 or self.coords.shape[0] == 0:
            raise ValueError("coords must be a nonempty (n, 4) array")
        if self.provenance is not None and len(self.provenance) != len(self.coords):
            raise ValueError("provenance length must match segment count")

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def total_length(self) -> float:
        d = self.coords[:, 2:4] - self.coords[:, 0:2]
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def to_json_dict(self) -> dict:
        out = {
            "segments": self.coords,
            "meta": dict(self.meta),
        }
        if self.provenance is not None:
            out["provenance"] = [list(idx) for idx in self.provenance]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlindSet":
        """The blind set of a to_json_dict tree; a float segments array is kept, not copied."""
        prov = data.get("provenance")
        return cls(
            np.asarray(data["segments"], dtype=float),
            [tuple(idx) for idx in prov] if prov is not None else None,
            dict(data.get("meta", {})),
        )


def _distances_to_parents(parents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from every point to its own parent segment.

    ``parents`` holds (ax, ay, bx, by) rows and ``points`` (x, y) rows; the
    two broadcast against each other, one parent per point.
    """
    ax, ay = parents[..., 0], parents[..., 1]
    vx, vy = parents[..., 2] - ax, parents[..., 3] - ay
    wx, wy = points[..., 0] - ax, points[..., 1] - ay
    t = np.minimum(np.maximum((wx * vx + wy * vy) / (vx * vx + vy * vy), 0.0), 1.0)
    return np.hypot(wx - t * vx, wy - t * vy)


def _lengths(coords: np.ndarray) -> np.ndarray:
    """Segment.length of every row, by math.hypot as the property."""
    return np.array([math.hypot(bx - ax, by - ay) for ax, ay, bx, by in coords.tolist()])


def _directions(coords: np.ndarray) -> np.ndarray:
    """The angle of Segment.direction of every row, by math.atan2 as the property."""
    return np.array(
        [normalize(math.atan2(by - ay, bx - ax)).angle for ax, ay, bx, by in coords.tolist()]
    )


# -- divide and rotate ------------------------------------------------------


def _angle_table(target, cover) -> np.ndarray:
    """The cosines and sines of (target, cover) pairs, checked, one column per pair.

    ``target`` and ``cover`` are equal-length arrays or two angles.  Returns
    the rows cos target, sin target, cos cover, sin cover.  The first pair
    whose directions are within ANGLE_TOL raises, decided by projline.dist's
    IEEE operations on arrays.
    """
    t, c = np.atleast_1d(target, cover)
    d = np.fmod(np.abs(t - c), PI)
    bad = np.minimum(d, PI - d) <= ANGLE_TOL
    if bad.any():
        t, c = (float(v[np.argmax(bad)]) for v in (t, c))
        raise ValueError(
            f"degenerate angle configuration (target/cover): {Direction(t)} vs {Direction(c)}"
        )
    # math.cos/sin, not numpy's SIMD ones, which can differ in the last bit:
    # every output coordinate goes through them
    t, c = t.tolist(), c.tolist()
    trig = [*map(math.cos, t), *map(math.sin, t), *map(math.cos, c), *map(math.sin, c)]
    return np.array(trig).reshape(4, -1)


def _divide_rotate_level(
    coords: np.ndarray, trig: np.ndarray, n, hulls: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Divide every segment into its n pieces and rotate each to its target.

    This is the one implementation of DIVIDE and ROTATE: each piece is
    replaced by the segment from its start to where the line through its
    start with direction target meets the line through its end with
    direction cover.  ``trig`` is the _angle_table of the (target, cover)
    pairs, one column per row or one for all rows; the piece count ``n`` is
    given per row or once.
    Returns (children, hulls): children holds the new blades as rows
    (ax, ay, bx, by), the n children of each parent consecutive and in order
    along it; hulls holds each piece's triangle hull (pax, pay, pbx, pby, cx, cy),
    or is None with ``hulls`` false.
    """
    k = coords.shape[0]
    n = np.full(k, n, dtype=np.int64)
    if n.min() < 1:
        raise ValueError(f"piece count must be >= 1, got {int(n.min())}")
    # piece j of a row with n pieces spans the fractions j/n .. (j+1)/n of it
    row = np.repeat(np.arange(k), n)
    j = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)
    ax, ay, bx, by = coords[row].T
    m = n[row]
    lo, hi = j / m, (j + 1) / m
    pax, pbx = ax + (bx - ax) * lo, ax + (bx - ax) * hi
    pay, pby = ay + (by - ay) * lo, ay + (by - ay) * hi
    cs, ss, cc, sc = trig if trig.shape[1] == 1 else trig[:, row]
    # a + s*(cs, ss) = b + t*(cc, sc); solve for s by 2x2 cross products
    det = cs * sc - ss * cc  # sin(cover - target), bounded away from 0
    s = ((pbx - pax) * sc - (pby - pay) * cc) / det
    cx = pax + s * cs
    cy = pay + s * ss
    children = np.array([pax, pay, cx, cy]).T.copy()
    return children, np.array([pax, pay, pbx, pby, cx, cy]).T.copy() if hulls else None


def _row(seg: Segment) -> np.ndarray:
    """A segment as the (1, 4) coordinate array the level kernel takes."""
    return np.array([[seg.a.x1, seg.a.x2, seg.b.x1, seg.b.x2]])


def rotate(seg: Segment, theta_small: Direction, theta_cover: Direction) -> Segment:
    """ROTATE(seg): the segment from seg.a to the intersection point c.

    c is where the line through seg.a with direction theta_small meets the
    line through seg.b with direction theta_cover; thus the result has
    direction theta_small and LINE(seg.b, c) has direction theta_cover.
    """
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    theta_seg = seg.direction
    for v, labels in ((theta_small, "segment/small"), (theta_cover, "segment/cover")):
        if dist(theta_seg, v) <= ANGLE_TOL:
            raise ValueError(
                f"degenerate angle configuration ({labels}): {theta_seg} vs {v}"
            )
    trig = _angle_table(theta_small.angle, theta_cover.angle)
    children, _ = _divide_rotate_level(_row(seg), trig, 1)
    ax, ay, cx, cy = children[0].tolist()
    return Segment(Point(ax, ay), Point(cx, cy))


def _infer_chirality(
    theta_seg: Direction,
    theta_small: Direction,
    theta_cover: Direction,
    chirality: Optional[str] = None,
) -> str:
    """The chirality whose arc from theta_cover to theta_small contains theta_seg.

    A given ``chirality`` must be that one.
    """
    for chir in CHIRALITIES:
        if Arc(theta_cover, theta_small, chir).contains_strictly(theta_seg):
            if chirality not in (None, chir):
                raise ValueError(
                    f"orientation violation: segment direction {theta_seg} is not "
                    f"interior to the {chirality} arc from {theta_cover} to {theta_small}"
                )
            return chir
    raise ValueError(
        f"orientation violation: segment direction {theta_seg} lies on neither "
        f"open arc from {theta_cover} to {theta_small}"
    )


def vb(
    seg: Segment,
    theta_small: Direction,
    theta_cover: Direction,
    n: int,
    chirality: Optional[str] = None,
) -> BlindSet:
    """VB: divide into n pieces and rotate each one.

    The segment direction must lie strictly inside the arc from theta_cover
    to theta_small (in the given chirality, inferred when omitted).
    """
    n = _count(n, "n")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    inferred = _infer_chirality(seg.direction, theta_small, theta_cover, chirality)
    trig = _angle_table(theta_small.angle, theta_cover.angle)
    children, _ = _divide_rotate_level(_row(seg), trig, n)
    return BlindSet(
        children,
        provenance=[(i,) for i in range(n)],
        meta={
            "kind": "vb",
            "theta_small": theta_small.angle,
            "theta_cover": theta_cover.angle,
            "chirality": inferred,
            "n": n,
        },
    )


def iter_vb(
    seg: Segment,
    theta_small: Direction,
    theta_cover: Direction,
    counts: Sequence[int],
    chirality: str = CCW,
) -> BlindSet:
    """IterVB: VB iterated along the angle schedule, counts[k] pieces per node.

    Level k divides every node into counts[k] pieces and rotates them to the
    next schedule direction.  All nodes of a level share its direction, so
    the orientation is checked once per level; a violation names the first
    node of the level, (0,) * k.  Provenance is each leaf's index tuple, in
    the parent-major order the level kernel emits.
    """
    if chirality not in CHIRALITIES:
        raise ValueError(f"unknown chirality {chirality!r}")
    counts = tuple(_count(n, f"counts[{k}]") for k, n in enumerate(counts))
    if not counts or min(counts) < 1:
        raise ValueError(f"need one branching count >= 1 per level, got {counts!r}")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    schedule = angle_schedule(seg.direction, theta_small, len(counts), chirality)
    coords = _row(seg)
    for k, n in enumerate(counts):
        try:
            _infer_chirality(schedule[k], schedule[k + 1], theta_cover, chirality)
            trig = _angle_table(schedule[k + 1].angle, theta_cover.angle)
            coords, _ = _divide_rotate_level(coords, trig, n)
        except ValueError as exc:
            raise ConstructionError(
                f"stage {k + 1} blind failed at tree index {(0,) * k!r}: {exc}",
                stage=(0,) * k,
            ) from exc
    return BlindSet(
        coords,
        provenance=list(itertools.product(*map(range, counts))),
        meta={
            "kind": "iter_vb",
            "theta_small": theta_small.angle,
            "theta_cover": theta_cover.angle,
            "chirality": chirality,
            "depth": len(counts),
            "schedule": [d.angle for d in schedule],
        },
    )


def _hulls_cover_ok(
    curve: CurveProfile,
    hulls: np.ndarray,
    sizes: np.ndarray,
    level_dir: np.ndarray,
    theta_cover: np.ndarray,
    chirality: str,
    a_cover: AlphaSet,
) -> np.ndarray:
    """Covering hypotheses for every piece's triangle hull, one verdict per group.

    The hulls come sorted by group, sizes[g] of them in group g.  Checks that
    each hull lies in the strip interior for every alpha in the cover set and
    that theta_alpha over the hull stays inside the closed arc of its group,
    from theta_cover[g] to level_dir[g] (traversed in the construction
    chirality).  theta_alpha depends only on x1 and is monotone in it, so hull
    x1-extremes suffice; the alpha-interval hull [amin, amax] dominates every
    grid point.
    """
    ccw = chirality == CCW
    length = _arc_offsets(level_dir, theta_cover, ccw)
    if (length <= 0.0).any():
        g = int(np.argmax(length <= 0.0))
        start, end = Direction(float(theta_cover[g])), Direction(float(level_dir[g]))
        raise ValueError(f"degenerate arc: start {start} equals end {end}")
    x1 = hulls[:, (0, 2, 4)]
    x1min = x1.min(axis=1)
    x1max = x1.max(axis=1)
    amin, amax = a_cover.bounds
    # strip interior for all alpha in [amin, amax]; directions only over hulls inside it
    ok = (x1min > amax - curve.b + 1e-9) & (x1max < amin - curve.a - 1e-9)
    i = np.flatnonzero(ok)
    g = np.repeat(np.arange(len(sizes)), sizes)[i]
    t_lo = amin - x1max[i]
    t_hi = amax - x1min[i]
    phi_at_tlo = np.arctan(curve.df(np.clip(t_lo, curve.a, curve.b)))
    phi_at_thi = np.arctan(curve.df(np.clip(t_hi, curve.a, curve.b)))
    phi_lo = np.minimum(phi_at_tlo, phi_at_thi)
    phi_hi = np.maximum(phi_at_tlo, phi_at_thi)
    # the phi-interval [phi_lo, phi_hi] sits inside the arc iff traversal meets
    # its first end no later than its second, and the second within the arc;
    # as in Arc.contains, both arc ends carry the tolerance
    first, second = (phi_lo, phi_hi) if ccw else (phi_hi, phi_lo)
    tol = 1e-12
    u_first = _arc_offsets(first, theta_cover[g], ccw, tol)
    u_second = _arc_offsets(second, theta_cover[g], ccw, tol)
    ok[i] = (u_first <= u_second + tol) & (u_second <= length[g] + tol)
    return np.logical_and.reduceat(ok, np.cumsum(sizes) - sizes)


def _level_search(
    curve: CurveProfile,
    parents: np.ndarray,
    sizes: np.ndarray,
    level_dir: np.ndarray | float,
    target: np.ndarray | float,
    theta_cover: np.ndarray | float,
    chirality: str,
    a_cover: Optional[AlphaSet],
    budget: np.ndarray | float,
    n: np.ndarray | int,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray] | int:
    """The piece count of one level of blinds for each group, by doubling from n.

    The parents come sorted by group, sizes[g] of them in group g; the
    angles, budget and n are per group or one for all.  A group divides and
    rotates its parents into n pieces aimed at its target and is accepted
    when every blade tip lies within its budget of its own parent and, with
    ``a_cover`` given, every hull satisfies the covering hypotheses over its
    arc from theta_cover to ``level_dir``.  The others double n while
    n * sizes[g] <= n_max.  Returns (counts, children sorted by group), or
    the index of the first group past the cap.

    Each piece of a parent cut into n is its n = 1 blade scaled by 1/n about
    the piece start, so a group's farthest tip at n is far1 / n up to
    rounding in the coordinates.  One division at n = 1 moves each group past
    the counts whose tips certainly miss its budget, and the doubling starts
    from there.  The groups' _angle_table is built once, one column per
    parent: that division, which builds no hulls, and every doubling round
    take their parents' columns of it.
    """
    groups = len(sizes)
    level_dir, target, theta_cover, budget = (
        np.full(groups, v, dtype=float) for v in (level_dir, target, theta_cover, budget)
    )
    start = np.full(groups, n, dtype=np.int64)
    row_group = np.repeat(np.arange(groups), sizes)
    over = start * sizes > n_max
    if over.any():
        return int(np.argmax(over))
    trig = _angle_table(target, theta_cover)[:, row_group]
    # a count below 1 fails here as it would in the doubling
    children, _ = _divide_rotate_level(parents, trig, np.minimum(start, 1)[row_group], hulls=False)
    far1 = np.maximum.reduceat(
        _distances_to_parents(parents, children[:, 2:4]), np.cumsum(sizes) - sizes
    )
    miss = budget * (1.0 + 1e-9) + 1e-12 * np.abs(parents).max()
    counts = start.copy()
    while (short := (far1 / counts > miss) & (counts * sizes <= n_max)).any():
        counts[short] *= 2
    pending = np.ones(groups, dtype=bool)
    found, found_group = [], []
    while pending.any():
        over = pending & (counts * sizes > n_max)
        if over.any():
            return int(np.argmax(over))
        live = np.flatnonzero(pending)
        rows = np.flatnonzero(pending[row_group])
        g = row_group[rows]
        children, hulls = _divide_rotate_level(parents[rows], trig[:, rows], counts[g])
        parent = np.repeat(rows, counts[g])
        child_group = row_group[parent]
        far = _distances_to_parents(parents[parent], children[:, 2:4])
        ok = np.maximum.reduceat(far, np.searchsorted(child_group, live)) <= budget[live]
        if a_cover is not None:
            ok &= _hulls_cover_ok(
                curve, hulls, counts[live] * sizes[live], level_dir[live], theta_cover[live],
                chirality, a_cover,
            )
        pending[live[ok]] = False
        counts[live[~ok]] *= 2
        accepted = ~pending[child_group]
        found.append(children[accepted])
        found_group.append(child_group[accepted])
    order = np.argsort(np.concatenate(found_group), kind="stable")
    return counts, np.concatenate(found)[order]


def _vb_cover_cap(
    n_max: int, row: np.ndarray, theta_small: float, theta_cover: float, a_cover: AlphaSet
) -> ConstructionError:
    """The stage-1 error for the segment (ax, ay, bx, by) whose search passed n_max."""
    seg = Segment(Point(float(row[0]), float(row[1])), Point(float(row[2]), float(row[3])))
    return ConstructionError(
        f"stage 1 (vb_cover) exceeded N_max={n_max} for segment of length {seg.length:.3g} "
        f"(theta_seg={seg.direction}, theta_small={Direction(theta_small)}, "
        f"theta_cover={Direction(theta_cover)})",
        stage="vb_cover",
        witness=(a_cover.bounds, seg),
    )


def auto_vb_cover(
    curve: CurveProfile,
    seg: Segment,
    theta_small: Direction,
    theta_cover: Direction,
    a_cover: AlphaSet,
    n0: int = 1,
    n_max: int = 2**20,
    max_offset: Optional[float] = None,
) -> tuple[int, BlindSet]:
    """Double N until the one-stage covering hypotheses certify over A_cover.

    Optionally also requires all blades to stay within ``max_offset`` > 0 of
    the base segment (an infinite one bounds nothing, as None).  Returns the
    first passing (N, BlindSet).
    """
    n0 = _count(n0, "n0")
    if max_offset is not None and not max_offset > 0.0:
        raise ValueError(f"max_offset must be positive, got {max_offset!r}")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    theta_seg = seg.direction
    chirality = _infer_chirality(theta_seg, theta_small, theta_cover)
    # one parent: the blade starts lie on it, so the tips carry the offset
    found = _level_search(
        curve, _row(seg), np.ones(1, dtype=np.int64), theta_seg.angle, theta_small.angle,
        theta_cover.angle, chirality, a_cover, math.inf if max_offset is None else max_offset,
        max(1, n0), n_max,
    )
    if isinstance(found, int):
        raise _vb_cover_cap(n_max, _row(seg)[0], theta_small.angle, theta_cover.angle, a_cover)
    (n,), children = found
    n = int(n)
    return n, BlindSet(
        children,
        provenance=[(i,) for i in range(n)],
        meta={
            "kind": "auto_vb_cover",
            "theta_small": theta_small.angle,
            "theta_cover": theta_cover.angle,
            "chirality": chirality,
            "n": n,
        },
    )


def _atan_outside(slopes: np.ndarray, start, reach, ccw: bool) -> np.ndarray:
    """Whether atan(slopes[i]) lies outside the arc of length reach[i] from start[i].

    Both arc ends carry the tolerance 1e-9, as in Arc.contains, and every
    verdict is that of math.atan.  numpy's SIMD arctan can differ from it in
    the last bit, which moves an offset by far less than the 1e-11 guard band:
    only the entries it puts within the band of a decision threshold (the
    bound reach + 1e-9, or a wrap of _arc_offsets at 0, pi - 1e-9 or pi, met
    at offsets near 0, -1e-9 and pi - 1e-9) are redone with math.atan.
    """
    u = _arc_offsets(np.arctan(slopes), start, ccw, 1e-9)
    bound = reach + 1e-9
    near = np.abs([u - bound, u, u + 1e-9, u - (PI - 1e-9)]).min(axis=0) < 1e-11
    if near.any():
        phi = np.array([math.atan(v) for v in slopes[near].tolist()])
        u[near] = _arc_offsets(phi, start[near], ccw, 1e-9)
    return u > bound


def _iter_vb_stage(
    curve: CurveProfile,
    coords: np.ndarray,
    theta_small: np.ndarray,
    theta_cover: np.ndarray,
    eps: float,
    a_small: Optional[AlphaSet],
    a_cover: Optional[AlphaSet],
    chirality: str,
    caps: Caps,
    delta: Optional[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """auto_iter_vb's searches on every row, one group per blade.

    Each blade has its own depth and schedule; level k runs one level search
    over the blades deeper than k.  With ``a_small``, theta_alpha(seg.a) must
    lie on each blade's schedule arc at every alpha of its grid inside the
    curve's domain, decided on arrays by _atan_outside.  Returns (leaves sorted by blade, leaves
    per blade, level counts (blades x deepest depth), schedules (blades x
    deepest depth + 1, NaN past a blade's depth), delta0).
    """
    theta0, lengths = _directions(coords), _lengths(coords)
    reach = _arc_offsets(theta_small, theta0, chirality == CCW)
    # a float until checked against the cap (a NaN fails it), which a cast could wrap past
    depth = np.maximum(1.0, np.ceil(reach / eps - 1e-12))
    # each blade's first failing check, in the order length, direction, depth
    bad = np.stack([lengths >= eps, reach <= ANGLE_TOL, ~(depth <= caps.m_max)])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        message, stage = (
            (f"segment length {lengths[i]:.3g} must be below eps={eps:.3g}", "precondition"),
            ("segment already points in the small direction", "precondition"),
            (f"required depth m={depth[i]:.0f} exceeds cap {caps.m_max} "
             f"(arc {reach[i]:.3g}, eps {eps:.3g})", "depth"),
        )[int(np.argmax(bad[:, i]))]
        raise ConstructionError(message, stage=stage)

    if a_small is not None:
        alphas = a_small.grid()
        t = alphas - coords[:, 0:1]
        # outside dom Phi_alpha the hypothesis on theta_alpha(seg.a) is vacuous
        blade, col = np.nonzero((curve.a - 1e-12 <= t) & (t <= curve.b + 1e-12))
        slopes = curve.df(np.clip(t[blade, col], curve.a, curve.b))
        outside = _atan_outside(slopes, theta0[blade], reach[blade], chirality == CCW)
        if outside.any():
            i = int(np.argmax(outside))
            alpha = float(alphas[col[i]])
            raise ConstructionError(
                f"theta_alpha(seg.a) = {math.atan(slopes[i]):.6g} outside the schedule arc at "
                f"alpha={alpha:.6g}",
                stage="precondition",
                witness=alpha,
            )

    delta0 = min(eps, delta) / 4.0 if delta is not None else eps / 4.0
    # Geometrically decaying neighborhood radii delta_k = delta0 / 2^k: every
    # descendant of a level-k piece stays within delta_k of it, so at any
    # alpha the leaves squeeze onto the pieces of the direction-matching
    # level; the per-level drift allowance is delta_k - delta_{k+1}.
    shrink = 0.5

    depth = depth.astype(np.int64)
    angles = _schedules(theta0, theta_small, depth, chirality == CCW)
    counts = np.zeros((len(coords), depth.max()), dtype=np.int64)
    sizes = np.ones(len(coords), dtype=np.int64)
    leaves, leaf_blade = [], []
    for k in range(depth.max()):
        live = np.flatnonzero(depth > k)
        allowance = delta0 * shrink**k * (1.0 - shrink)
        found = _level_search(
            curve, coords, sizes[live], angles[live, k], angles[live, k + 1], theta_cover[live],
            chirality, a_cover, allowance, 1, caps.n_max,
        )
        if isinstance(found, int):
            raise ConstructionError(
                f"branching cap {caps.n_max} exceeded at level {k + 1}/{depth[live[found]]} "
                f"(deepest satisfied stage: {k})",
                stage=k,
            )
        counts[live, k], coords = found
        sizes[live] *= counts[live, k]
        # the blades whose last level this was leave with their leaves
        row_blade = np.repeat(live, sizes[live])
        last = depth[row_blade] == k + 1
        leaves.append(coords[last])
        leaf_blade.append(row_blade[last])
        coords = coords[~last]
    order = np.argsort(np.concatenate(leaf_blade), kind="stable")
    return np.concatenate(leaves)[order], sizes, counts, angles, delta0


def auto_iter_vb(
    curve: CurveProfile,
    seg: Segment,
    theta_small: Direction,
    theta_cover: Direction,
    eps: float,
    a_small: Optional[AlphaSet] = None,
    a_cover: Optional[AlphaSet] = None,
    chirality: str = CCW,
    caps: Caps = DEFAULT_CAPS,
    delta: Optional[float] = None,
) -> BlindSet:
    """Iterated blinds with automatically chosen depth and branching.

    Depth m makes the schedule step smaller than eps.  Per level, the
    branching count doubles until (i) every blade stays within the level's
    share of the neighborhood budget of its parent (so stage neighborhoods
    nest into B(seg.a, 2*eps)) and (ii) with A_cover present, the one-stage
    covering hypotheses certify for every piece.  The budget is eps / 4, or
    min(eps, delta) / 4 with a positive delta given.
    """
    if chirality not in CHIRALITIES:
        raise ValueError(f"unknown chirality {chirality!r}")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if delta is not None and not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    coords, _, counts, (schedule,), delta0 = _iter_vb_stage(
        curve, _row(seg), np.array([theta_small.angle]), np.array([theta_cover.angle]), eps,
        a_small, a_cover, chirality, caps, delta,
    )
    return BlindSet(
        coords,
        provenance=None,
        meta={
            "kind": "auto_iter_vb",
            "theta_small": theta_small.angle,
            "theta_cover": theta_cover.angle,
            "chirality": chirality,
            "depth": len(schedule) - 1,
            "level_counts": counts[0].tolist(),
            "eps": eps,
            "delta0": delta0,
            "schedule": schedule.tolist(),
        },
    )
