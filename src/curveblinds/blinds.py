"""The Venetian-blind construction stack.

DIVIDE splits a segment into equal pieces; ROTATE replaces a piece by the
segment from its start to the intersection of two direction lines; VB does
both; IterVB iterates VB along an equally spaced angle schedule with one
branching count per level.  One array kernel, _divide_rotate_level, does the
dividing and rotating for every entry point.  The auto_* searches realize
the paper-style "sufficiently large" piece counts: stage 1 (auto_vb_cover)
and every stage-2 level (auto_iter_vb) run one level search, _level_search,
which doubles the count under one cap until the blade tips stay within budget
and the hulls satisfy the covering hypotheses.
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
    Arc,
    Direction,
    angle_schedule,
    as_direction,
    dist,
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
    construction parameters.
    """

    coords: np.ndarray
    provenance: Optional[list[tuple[int, ...]]] = None
    meta: dict = field(default_factory=dict)
    _segments: Optional[list[Segment]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[1] != 4 or self.coords.shape[0] == 0:
            raise ValueError("coords must be a nonempty (n, 4) array")
        if self.provenance is not None and len(self.provenance) != len(self.coords):
            raise ValueError("provenance length must match segment count")

    @classmethod
    def from_segments(
        cls,
        segments: Sequence[Segment],
        provenance: Optional[list[tuple[int, ...]]] = None,
        meta: Optional[dict] = None,
    ) -> "BlindSet":
        coords = np.array(
            [[s.a.x1, s.a.x2, s.b.x1, s.b.x2] for s in segments], dtype=float
        )
        return cls(coords, provenance, meta or {})

    @property
    def segments(self) -> list[Segment]:
        if self._segments is None:
            self._segments = [
                Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in self.coords
            ]
        return self._segments

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def total_length(self) -> float:
        d = self.coords[:, 2:4] - self.coords[:, 0:2]
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def max_distance_to(self, seg: Segment) -> float:
        """Largest endpoint distance from this set to the given segment."""
        endpoints = self.coords.reshape(1, -1, 2)
        return float(np.max(_distances_to_parents(_row(seg), endpoints)))

    def to_json_dict(self) -> dict:
        out = {
            "segments": self.coords,
            "meta": _jsonable(self.meta),
        }
        if self.provenance is not None:
            out["provenance"] = [list(idx) for idx in self.provenance]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlindSet":
        prov = data.get("provenance")
        return cls(
            np.array(data["segments"], dtype=float),
            [tuple(idx) for idx in prov] if prov is not None else None,
            dict(data.get("meta", {})),
        )


def _jsonable(value):
    if isinstance(value, Direction):
        return value.angle
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _distances_to_parents(parents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from every point to its own parent segment.

    ``parents`` is a (k, 4) coordinate array and ``points`` is (k, n, 2), the
    n points of each parent row; returns the (k, n) distances.
    """
    a = parents[:, None, 0:2]
    v = parents[:, None, 2:4] - a
    w = points - a
    t = np.clip(np.sum(w * v, axis=2) / np.sum(v * v, axis=2), 0.0, 1.0)
    d = w - t[:, :, None] * v
    return np.hypot(d[:, :, 0], d[:, :, 1])


# -- divide and rotate ------------------------------------------------------


def _divide_rotate_level(
    coords: np.ndarray, target: Direction, cover: Direction, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Divide every segment into n pieces and rotate each to ``target``.

    This is the one implementation of DIVIDE and ROTATE: each piece is
    replaced by the segment from its start to where the line through its
    start with direction ``target`` meets the line through its end with
    direction ``cover``.  Returns (children, hulls): children is the (k*n, 4)
    coordinate array of the new blades, the n children of each parent
    consecutive and in order along it; hulls is (k*n, 6) with rows
    (pax, pay, pbx, pby, cx, cy) holding each piece's triangle hull vertices.
    """
    if n < 1:
        raise ValueError(f"piece count must be >= 1, got {n}")
    ax, ay, bx, by = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    fracs = np.arange(n + 1) / n
    px = ax[:, None] + (bx - ax)[:, None] * fracs
    py = ay[:, None] + (by - ay)[:, None] * fracs
    pax, pbx = px[:, :-1], px[:, 1:]
    pay, pby = py[:, :-1], py[:, 1:]
    target = as_direction(target)
    cover = as_direction(cover)
    if dist(target, cover) <= ANGLE_TOL:
        raise ValueError(
            f"degenerate angle configuration (target/cover): {target} vs {cover}"
        )
    cs, ss = math.cos(target.angle), math.sin(target.angle)
    cc, sc = math.cos(cover.angle), math.sin(cover.angle)
    # a + s*(cs, ss) = b + t*(cc, sc); solve for s by 2x2 cross products
    det = cs * sc - ss * cc  # sin(cover - target), bounded away from 0
    wx = pbx - pax
    wy = pby - pay
    s = (wx * sc - wy * cc) / det
    cx = pax + s * cs
    cy = pay + s * ss
    children = np.stack(
        [pax.ravel(), pay.ravel(), cx.ravel(), cy.ravel()], axis=1
    )
    hulls = np.stack(
        [pax.ravel(), pay.ravel(), pbx.ravel(), pby.ravel(), cx.ravel(), cy.ravel()],
        axis=1,
    )
    return children, hulls


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
    children, _ = _divide_rotate_level(_row(seg), theta_small, theta_cover, 1)
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
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    inferred = _infer_chirality(seg.direction, theta_small, theta_cover, chirality)
    children, _ = _divide_rotate_level(_row(seg), theta_small, theta_cover, n)
    return BlindSet(
        children,
        provenance=[(i,) for i in range(n)],
        meta={
            "kind": "vb",
            "theta_small": theta_small,
            "theta_cover": theta_cover,
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
    counts = tuple(counts)
    if not counts or min(counts) < 1:
        raise ValueError(f"need one branching count >= 1 per level, got {counts!r}")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    schedule = angle_schedule(seg.direction, theta_small, len(counts), chirality)
    coords = _row(seg)
    for k, n in enumerate(counts):
        try:
            _infer_chirality(schedule[k], schedule[k + 1], theta_cover, chirality)
            coords, _ = _divide_rotate_level(coords, schedule[k + 1], theta_cover, n)
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
            "theta_small": theta_small,
            "theta_cover": theta_cover,
            "chirality": chirality,
            "depth": len(counts),
            "schedule": [d.angle for d in schedule],
        },
    )


def _hulls_cover_ok(
    curve: CurveProfile,
    hulls: np.ndarray,
    level_dir: Direction,
    theta_cover: Direction,
    chirality: str,
    a_cover: AlphaSet,
    interior_tol: float = 1e-9,
) -> bool:
    """Covering hypotheses for every piece's triangle hull over A_cover.

    Checks that each hull lies in the strip interior for every alpha in the
    cover set and that theta_alpha over the hull stays inside the closed arc
    from theta_cover to the current level direction (traversed in the
    construction chirality).  theta_alpha depends only on x1 and is monotone
    in it, so hull x1-extremes suffice; the alpha-interval hull [amin, amax]
    dominates every grid point.
    """
    x1 = hulls[:, (0, 2, 4)]
    x1min = np.min(x1, axis=1)
    x1max = np.max(x1, axis=1)
    amin, amax = a_cover.bounds
    # strip interior for all alpha in [amin, amax]
    if np.min(x1min) <= amax - curve.b + interior_tol:
        return False
    if np.max(x1max) >= amin - curve.a - interior_tol:
        return False
    t_lo = amin - x1max
    t_hi = amax - x1min
    phi_at_tlo = np.arctan(curve.df_array(np.clip(t_lo, curve.a, curve.b)))
    phi_at_thi = np.arctan(curve.df_array(np.clip(t_hi, curve.a, curve.b)))
    phi_lo = np.minimum(phi_at_tlo, phi_at_thi)
    phi_hi = np.maximum(phi_at_tlo, phi_at_thi)
    # the phi-interval [phi_lo, phi_hi] sits inside the arc iff traversal meets
    # its first end no later than its second, and the second within the arc;
    # as in Arc.contains, both arc ends carry the tolerance
    arc = Arc(theta_cover, level_dir, chirality)
    first, second = (phi_lo, phi_hi) if chirality == CCW else (phi_hi, phi_lo)
    tol = 1e-12
    u_first = arc.offsets(first, tol)
    u_second = arc.offsets(second, tol)
    return bool(np.all((u_first <= u_second + tol) & (u_second <= arc.length + tol)))


def _level_search(
    curve: CurveProfile,
    parents: np.ndarray,
    level_dir: Direction,
    target: Direction,
    theta_cover: Direction,
    chirality: str,
    a_cover: Optional[AlphaSet],
    budget: float,
    n: int,
    n_max: int,
) -> Optional[tuple[int, np.ndarray]]:
    """The piece count of one level of blinds, by doubling from n.

    Divides and rotates each of the k ``parents`` into n pieces aimed at
    ``target`` and accepts when every blade tip lies within ``budget`` of its
    own parent and, with ``a_cover`` given, every hull satisfies the covering
    hypotheses over the arc from theta_cover to ``level_dir``.  Otherwise n
    doubles while n * k <= n_max.  Returns (n, children), or None past the cap.
    """
    k = parents.shape[0]
    while n * k <= n_max:
        children, hulls = _divide_rotate_level(parents, target, theta_cover, n)
        tips = children[:, 2:4].reshape(k, n, 2)
        if np.max(_distances_to_parents(parents, tips)) <= budget and (
            a_cover is None
            or _hulls_cover_ok(curve, hulls, level_dir, theta_cover, chirality, a_cover)
        ):
            return n, children
        n *= 2
    return None


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

    Optionally also requires all blades to stay within ``max_offset`` of the
    base segment.  Returns the first passing (N, BlindSet).
    """
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    theta_seg = seg.direction
    chirality = _infer_chirality(theta_seg, theta_small, theta_cover)
    # one parent: the blade starts lie on it, so the tips carry the offset
    found = _level_search(
        curve, _row(seg), theta_seg, theta_small, theta_cover, chirality, a_cover,
        math.inf if max_offset is None else max_offset, max(1, n0), n_max,
    )
    if found is not None:
        n, children = found
        return n, BlindSet(
            children,
            provenance=[(i,) for i in range(n)],
            meta={
                "kind": "auto_vb_cover",
                "theta_small": theta_small,
                "theta_cover": theta_cover,
                "chirality": chirality,
                "n": n,
            },
        )
    raise ConstructionError(
        f"auto_vb_cover exceeded N_max={n_max} for segment of length {seg.length:.3g} "
        f"(theta_seg={theta_seg}, theta_small={theta_small}, theta_cover={theta_cover})",
        stage="vb_cover",
        witness=(a_cover.bounds, seg),
    )


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
    covering hypotheses certify for every piece.
    """
    if chirality not in CHIRALITIES:
        raise ValueError(f"unknown chirality {chirality!r}")
    theta_small = as_direction(theta_small)
    theta_cover = as_direction(theta_cover)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if seg.length >= eps:
        raise ConstructionError(
            f"segment length {seg.length:.3g} must be below eps={eps:.3g}",
            stage="precondition",
        )
    theta0 = seg.direction
    band = Arc(theta0, theta_small, chirality) if theta0 != theta_small else None
    if band is None or band.length <= ANGLE_TOL:
        raise ConstructionError(
            "segment already points in the small direction", stage="precondition"
        )
    m = max(1, math.ceil(band.length / eps - 1e-12))
    if m > caps.m_max:
        raise ConstructionError(
            f"required depth m={m} exceeds cap {caps.m_max} "
            f"(arc {band.length:.3g}, eps {eps:.3g})",
            stage="depth",
        )
    schedule = angle_schedule(theta0, theta_small, m, chirality)

    if a_small is not None:
        alphas = a_small.grid()
        t = alphas - seg.a.x1
        # outside dom Phi_alpha the hypothesis on theta_alpha(seg.a) is vacuous
        inside = (curve.a - 1e-12 <= t) & (t <= curve.b + 1e-12)
        alphas = alphas[inside]
        slopes = curve.df_array(np.clip(t[inside], curve.a, curve.b))
        # math.atan, not np.arctan: numpy's SIMD arctan can differ in the last bit
        phi = np.array([math.atan(v) for v in slopes.tolist()], dtype=float)
        outside = band.offsets(phi, 1e-9) > band.length + 1e-9
        if outside.any():
            i = int(np.argmax(outside))
            raise ConstructionError(
                f"theta_alpha(seg.a) = {float(phi[i]):.6g} outside the schedule arc at "
                f"alpha={float(alphas[i]):.6g}",
                stage="precondition",
                witness=float(alphas[i]),
            )

    delta0 = min(eps, delta) / 4.0 if delta is not None else eps / 4.0
    # Geometrically decaying neighborhood radii delta_k = delta0 / 2^k: every
    # descendant of a level-k piece stays within delta_k of it, so at any
    # alpha the leaves squeeze onto the pieces of the direction-matching
    # level; the per-level drift allowance is delta_k - delta_{k+1}.
    shrink = 0.5

    coords = _row(seg)
    level_counts: list[int] = []
    for k in range(m):
        allowance = delta0 * shrink**k * (1.0 - shrink)
        found = _level_search(
            curve, coords, schedule[k], schedule[k + 1], theta_cover, chirality,
            a_cover, allowance, 1, caps.n_max,
        )
        if found is None:
            raise ConstructionError(
                f"branching cap {caps.n_max} exceeded at level {k + 1}/{m} "
                f"(deepest satisfied stage: {k})",
                stage=k,
            )
        n, coords = found
        level_counts.append(n)

    return BlindSet(
        coords,
        provenance=None,
        meta={
            "kind": "auto_iter_vb",
            "theta_small": theta_small,
            "theta_cover": theta_cover,
            "chirality": chirality,
            "depth": m,
            "level_counts": level_counts,
            "eps": eps,
            "delta0": delta0,
            "schedule": [d.angle for d in schedule],
        },
    )
