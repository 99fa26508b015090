"""1-D Lebesgue measure engine: batches of canonical interval unions.

Projections of segments, blind sets and fiber arcs land on the vertical
lines {alpha} x R, each image a finite union of closed intervals.  An
IntervalUnion holds the images of a batch of alphas, one row per alpha, as
flat arrays of canonical groups with each group's row.  _sort_rows and
_sorted_groups canonicalize the projection kernel's (rows x n) interval
arrays in any order, in its own buffers; _merge_neighbours takes intervals
sorted by row whose lo and hi rise within each row, as a union's do after a
shift or a cut.  Measures, inflation, erosion,
difference and containment act on whole batches.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .curve import DOMAIN_TOL, CurveProfile
from .geometry import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .blinds import BlindSet

#: Gaps below this merge during canonicalization (suppresses float dust).
MERGE_TOL = 1e-12

#: Elements per (rows x n) batch in project_blinds_grid: a set of n segments
#: projects max(1, BUDGET // n) alphas per batch (at most the grid's size).
#: A batch costs about fifty numpy calls whatever its size, so small sets
#: share that cost among many alphas and large ones hold one row at a time.
#: The batch arrays are made once per call and reused, so no batch allocates
#: an array of BUDGET elements that glibc would trim and fault in again for
#: the next; only curve.f's result is new in every batch.
BUDGET = 16384


@dataclass(frozen=True, eq=False)
class IntervalUnion:
    """Canonical unions of closed intervals, one per row of a batch.

    Group g is [lo[g], hi[g]] in row row[g]; groups are sorted by row, then
    by lo, and within a row they are disjoint with gaps wider than
    MERGE_TOL.  A row without groups is empty.
    """

    lo: np.ndarray
    hi: np.ndarray
    row: np.ndarray
    rows: int

    def measures(self) -> np.ndarray:
        """Each row's measure, summed left to right as Python's sum does."""
        widths = _layout(self.row, self.rows, self.hi - self.lo, 0.0)
        return np.cumsum(widths, axis=1)[:, -1]

    def inflate(self, r: float) -> "IntervalUnion":
        """Thicken every interval by r on both sides, merging neighbours that meet.

        lo - r and hi + r keep the canonical order, so _merge_neighbours
        merges the neighbours that meet, without a sort.
        """
        if r < 0.0:
            raise ValueError(f"inflation radius must be >= 0, got {r!r}")
        return _merge_neighbours(self.lo - r, self.hi + r, self.row, self.rows)

    def erode(self, r: float) -> "IntervalUnion":
        """Shrink every interval by r on both sides, dropping emptied ones.

        lo + r and hi - r keep the canonical order, so _merge_neighbours
        merges the neighbours that still meet, without a sort.
        """
        if r < 0.0:
            raise ValueError(f"erosion radius must be >= 0, got {r!r}")
        keep = self.hi - self.lo > 2.0 * r
        return _merge_neighbours(self.lo[keep] + r, self.hi[keep] - r, self.row[keep], self.rows)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Row by row, the closure of self minus other, as canonical unions.

        The groups of other that meet self's group t are a[t] .. b[t] - 1;
        t splits into the k + 1 pieces between them, each kept if nonempty.
        The pieces come in canonical order, so _merge_neighbours merges any
        that touch within MERGE_TOL, without a sort.
        """
        a = np.searchsorted(_keys(other.row, other.hi), _keys(self.row, self.lo), "right")
        b = np.searchsorted(_keys(other.row, other.lo), _keys(self.row, self.hi), "left")
        k = np.maximum(b - a, 0)
        owner = np.repeat(np.arange(len(k)), k + 1)
        piece = np.arange(len(owner)) - np.searchsorted(owner, owner)
        # index -1 and len(other) both land on the appended sentinel
        right_of = a[owner] + piece
        lo = np.where(piece == 0, self.lo[owner], np.append(other.hi, np.nan)[right_of - 1])
        hi = np.where(piece == k[owner], self.hi[owner], np.append(other.lo, np.nan)[right_of])
        keep = lo < hi
        return _merge_neighbours(lo[keep], hi[keep], self.row[owner][keep], self.rows)

    def covers(self, target: "IntervalUnion") -> np.ndarray:
        """Per row: every interval of target lies inside one interval of self."""
        # the only candidate is the last group of self starting at or before
        # the target interval; index -1 lands on the appended sentinel
        last = np.searchsorted(_keys(self.row, self.lo), _keys(target.row, target.lo), "right") - 1
        inside = np.append(self.row, -1)[last] == target.row
        inside &= target.hi <= np.append(self.hi, -np.inf)[last]
        return np.bincount(target.row[~inside], minlength=self.rows) == 0

    @classmethod
    def stack(cls, batches: Iterable["IntervalUnion"]) -> "IntervalUnion":
        """The rows of batches, in order, as one batch."""
        batches = list(batches)
        offsets = np.cumsum([0] + [b.rows for b in batches]).tolist()
        return cls(
            np.concatenate([b.lo for b in batches]),
            np.concatenate([b.hi for b in batches]),
            np.concatenate([b.row + offset for b, offset in zip(batches, offsets)]),
            offsets[-1],
        )

    def row_slice(self, start: int, stop: int) -> "IntervalUnion":
        """Rows start .. stop - 1 as a batch of their own."""
        part = slice(*np.searchsorted(self.row, (start, stop)))
        return IntervalUnion(self.lo[part], self.hi[part], self.row[part] - start, stop - start)


def _keys(row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(row, value) search keys: numpy orders complex numbers lexicographically,
    so one searchsorted searches every row at once."""
    keys = np.empty(len(row), dtype=complex)
    keys.real = row
    keys.imag = values
    return keys


def _layout(row: np.ndarray, rows: int, values: np.ndarray, fill: float) -> np.ndarray:
    """values as a (rows x width) array: each row's groups in order, then fill."""
    col = np.arange(len(row)) - np.searchsorted(row, row)
    out = np.full((rows, int(col.max(initial=0)) + 1), fill)
    out[row, col] = values
    return out


def _merge_neighbours(lo: np.ndarray, hi: np.ndarray, row: np.ndarray, rows: int) -> IntervalUnion:
    """Canonicalize intervals sorted by row whose lo and hi both rise within
    each row, as a canonical union's do after a shift or a cut.

    Sorting each row's lo and hi, as _sort_rows does, would leave both as
    given, so _sorted_groups' cuts are the cuts between neighbours: where the
    row changes or lo exceeds the previous hi by more than MERGE_TOL.  A
    group's hi is its last, and largest, hi; the groups are _sorted_groups'
    of the same intervals, bit for bit.
    """
    cuts = np.empty(len(lo), dtype=bool)
    cuts[:1] = True
    np.greater(lo[1:], hi[:-1] + MERGE_TOL, out=cuts[1:])
    cuts[1:] |= row[1:] != row[:-1]
    starts = np.flatnonzero(cuts)
    # a group ends just before the next group starts
    ends = np.append(starts, len(lo))[1:] - 1
    return IntervalUnion(lo[starts], hi[ends], row[starts], rows)


def _sort_rows(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row's lo and hi, each on their own, in place; gap his are +inf.

    A one-row batch first goes through _collapse_chains, which may return
    new, shorter arrays; those are sorted and returned instead.
    """
    if los.shape[0] == 1:
        los, his = _collapse_chains(los, his)
    los.sort(axis=1)
    his.sort(axis=1)
    return los, his


def _sorted_groups(
    los: np.ndarray, his: np.ndarray, cuts: np.ndarray, reach: np.ndarray
) -> IntervalUnion:
    """The canonical groups of (rows x n) intervals whose lo and hi are sorted
    each on their own within every row, gaps (lo = hi = +inf) last.

    As lo <= hi, where the i-th smallest lo exceeds the i-th smallest hi by
    over MERGE_TOL, the i intervals of smallest hi are those of smallest lo
    and that hi is their running max: group starts and maxima equal those of
    a pass in lo order, bit for bit.  cuts (bool) and reach (float), of at
    least rows * n entries, are scratch buffers.  The result owns its arrays.
    """
    rows, n = los.shape
    size = rows * n
    his, los = his.ravel(), los.ravel()
    cuts = cuts[:size]
    reach = np.add(his[:-1], MERGE_TOL, out=reach[: size - 1])
    np.greater(los[1:], reach, out=cuts[1:])
    cuts[::n] = True
    starts = np.flatnonzero(cuts)
    kept = los[starts] < np.inf
    # a group ends just before the next group or row starts
    ends = np.append(starts, size)[1:][kept] - 1
    return IntervalUnion(los[starts[kept]], his[ends], starts[kept] // n, rows)


def _collapse_chains(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A one-row batch with each chain of neighbours replaced by (min lo, max hi).

    Neighbours whose closures, widened by MERGE_TOL, meet join a chain, and
    the union of a chain lies in one canonical group with exactly its min lo
    and max hi, whatever else joins that group.  A comparison with NaN is
    false, so a NaN joins nothing, and a gap (lo = +inf) joins only an
    interval reaching +inf.  Rows of more than n / 16 chains come back as
    given: the reduction costs more per chain than the sorts save per entry.
    The first n / 16 entries are tested first, and a row whose prefix has
    more than that share of chains comes back as given too, without the
    full test; either way gives the same canonical rows.
    """
    lo, hi = los[0], his[0]
    for m in (len(lo) // 16, len(lo)):
        reach = hi[:m] + MERGE_TOL
        joins = lo[1:m] <= reach[:-1]
        joins &= lo[:m][:-1] <= reach[1:]
        if 16 * (m - np.count_nonzero(joins)) > m:
            return los, his
    starts = np.flatnonzero(np.append(True, ~joins))
    return np.minimum.reduceat(lo, starts)[None], np.maximum.reduceat(hi, starts)[None]


# -- alpha parameter sets ---------------------------------------------------


@dataclass(frozen=True)
class AlphaSet:
    """A finite union of disjoint closed alpha-intervals with a sample grid."""

    components: tuple[tuple[float, float], ...]
    grid_step: float

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("alpha set needs at least one component")
        prev_hi = -math.inf
        for lo, hi in self.components:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"component [{lo!r}, {hi!r}] needs finite ends, lo <= hi")
            if lo <= prev_hi:
                raise ValueError("alpha components must be sorted and disjoint")
            prev_hi = hi
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid step must be positive, got {self.grid_step!r}")

    @classmethod
    def from_intervals(
        cls, components: Iterable[Sequence[float]], points_per_component: int = 200
    ) -> "AlphaSet":
        n = points_per_component
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"points per component must be an integer >= 2, got {n!r}")
        comps = tuple(sorted((float(c[0]), float(c[1])) for c in components))
        width = max((hi - lo for lo, hi in comps), default=0.0)
        step = width / (n - 1) if width > 0.0 else 1.0
        return cls(comps, step)

    @classmethod
    def interval(cls, lo: float, hi: float, points: int = 200) -> "AlphaSet":
        return cls.from_intervals([(lo, hi)], points)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.components[0][0], self.components[-1][1])

    def contains_alpha(self, alpha: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= alpha <= hi + tol for lo, hi in self.components)

    def grid(self) -> np.ndarray:
        """All certification grid points, sorted; spacing <= grid_step."""
        counts = (int(math.ceil((hi - lo) / self.grid_step)) + 1 for lo, hi in self.components)
        return np.concatenate([np.linspace(*c, n) for c, n in zip(self.components, counts)])


# -- projections ------------------------------------------------------------


@dataclass(frozen=True)
class FiberArc:
    """A sub-arc of the fiber y - Gamma, parametrized by t in [lo, hi]."""

    y: Point
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty fiber arc parameter range [{self.lo!r}, {self.hi!r}]")


def project_fiber_arc(
    curve: CurveProfile, alphas: float | Sequence[float], arc: FiberArc
) -> IntervalUnion:
    """Image of Phi_alpha over the fiber arc clipped to the strip, one row per alpha.

    Along the fiber, Phi_alpha(t) = y2 - f(t) + f(t + (alpha - y1)); its
    derivative f'(t + s) - f'(t) has a fixed sign (f' strictly monotone), so
    each image is the one interval spanned by the values at the extreme
    admissible parameters.
    """
    s = np.atleast_1d(np.asarray(alphas, dtype=float)) - arc.y.x1
    # strip constraint: x1 = y1 - t in [alpha - b, alpha - a]  <=>  t in [a - s, b - s]
    t0 = np.maximum(np.maximum(arc.lo, curve.a - s), curve.a)
    t1 = np.minimum(np.minimum(arc.hi, curve.b - s), curve.b)
    row = np.flatnonzero(t0 <= t1 + DOMAIN_TOL)
    s, t0 = s[row], t0[row]
    t1 = np.maximum(t0, t1[row])
    v0, v1 = (
        arc.y.x2 - curve.f(np.clip(t, curve.a, curve.b))
        + curve.f(np.clip(t + s, curve.a, curve.b))
        for t in (t0, t1)
    )
    return IntervalUnion(np.minimum(v0, v1), np.maximum(v0, v1), row, np.size(alphas))


def project_blinds_grid(
    curve: CurveProfile, alphas: Sequence[float], blinds: "BlindSet"
) -> Iterator[IntervalUnion]:
    """Project a blind set on every alpha, yielding one batch of rows at a time.

    The one evaluation of Phi_alpha on segments.  Row i of a batch is the
    union of the images of all segments at the batch's i-th alpha; the
    batches follow the alphas in order.  Along a segment, Phi_alpha has
    monotone derivative in the parameter, so each image interval is spanned
    by the values at the strip-clipped endpoints and at the unique interior
    critical point where f'(alpha - x1) equals the segment slope.

    Each segment takes one of two evaluations, chosen once per call from the
    alphas' range [min, max] (see _endpoint_only).  A segment that no strip
    edge clips and whose critical point stays off it over that whole range,
    both by _ENDPOINT_MARGIN, takes the endpoint-only evaluation: the min and
    max of its values at t = 0.0 and 1.0.  Every other segment takes the
    general one: strip window, validity, clipping and the critical-point
    test.  On an endpoint-only segment the general evaluation clips the
    window to exactly [0.0, 1.0] and computes the same ends and values, but
    it also clips alpha - x1 to [a, b]; the margin keeps alpha - x1 strictly
    inside [a, b], where that clip returns its input bit for bit, so the
    endpoint-only evaluation omits it and the choice changes no bit of the
    result.  The alpha-independent segment terms are computed once, then
    max(1, BUDGET // n) alphas at a time are projected as (rows x n) arrays;
    their canonical rows are stacked into one batch while rows x widest row
    stays within BUDGET, so that consumers spend each numpy call on many
    alphas.  Every element goes through the same float operations whatever
    the batch size, so batching changes no bit of the result either.

    The batch arrays (endpoint values, lo and hi, the cut mask and reach) are
    allocated once per call and written through out=; each batch's lo and hi
    are sorted in place.  Up to a few thousand segments, per-batch numpy
    call overhead, not element work, bounds the kernel, hence the large
    BUDGET; reuse keeps it from costing page faults (see BUDGET).  The yielded
    batches own their arrays: none is a view of a buffer.
    """
    coords = blinds.coords
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size:
        return
    n = len(coords)
    rows = min(len(alphas), max(1, BUDGET // n))
    endpoint_only = _endpoint_only(curve, alphas, coords)
    split = int(np.count_nonzero(endpoint_only))
    # the batch buffers, written through out= by every batch; the sorts
    # ignore the column order (up to which of -0.0 and 0.0 sorts first), so
    # the endpoint-only segments take the first split columns
    los, his = np.empty((2, rows, n))
    cuts, reach = np.empty(rows * n, dtype=bool), np.empty(rows * n)
    parts = []
    if split:
        parts.append((_endpoint_images(curve, coords[endpoint_only], rows), slice(None, split)))
    if split < n:
        parts.append((_general_images(curve, coords[~endpoint_only]), slice(split, None)))
    pending, stacked, widest = [], 0, 0
    for first in range(0, len(alphas), rows):
        al = alphas[first : first + rows, None]
        for images, cols in parts:
            images(al, los[: len(al), cols], his[: len(al), cols])
        batch = _sorted_groups(*_sort_rows(los[: len(al)], his[: len(al)]), cuts, reach)
        count = int(np.bincount(batch.row, minlength=1).max())
        if pending and (stacked + batch.rows) * max(widest, count) > BUDGET:
            yield IntervalUnion.stack(pending)
            pending, stacked, widest = [], 0, 0
        pending.append(batch)
        stacked += batch.rows
        widest = max(widest, count)
    if pending:
        yield IntervalUnion.stack(pending)


#: Clearance, in x1 units per unit of coordinate magnitude, that an
#: endpoint-only segment keeps from every strip edge and from its critical
#: x1 position; far above the rounding of the general evaluation.
_ENDPOINT_MARGIN = 1e-9


def _segment_terms(curve: CurveProfile, coords: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ax, ay, dx1, dx2, vertical, tc_curve), one entry per segment.

    tc_curve is the curve parameter of the interior critical point, where
    f'(alpha - x1(t)) equals the slope; it does not depend on alpha.  NaN
    marks the segments whose slope f' never takes, and a NaN fails every
    comparison.
    """
    ax, ay = coords[:, 0], coords[:, 1]
    dx1 = coords[:, 2] - ax
    dx2 = coords[:, 3] - ay
    vertical = np.abs(dx1) <= DOMAIN_TOL
    dlo, dhi = curve.df_range()
    slope = dx2 / np.where(vertical, 1.0, dx1)
    has_crit = ~vertical & (slope >= dlo - 1e-9) & (slope <= dhi + 1e-9)
    tc_curve = np.full(len(coords), np.nan)
    tc_curve[has_crit] = curve.df_inv(slope[has_crit])
    return ax, ay, dx1, dx2, vertical, tc_curve


def _endpoint_only(curve: CurveProfile, alphas: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Which segments take the endpoint-only evaluation over the alphas' range.

    Such a segment is not vertical; its x1 range lies inside every strip
    [alpha - b, alpha - a] with alpha in [min, max] of the alphas; and its
    critical x1 position alpha - tc_curve, affine in alpha, stays on one
    side of that x1 range over the whole alpha range.  Both clearances are
    at least _ENDPOINT_MARGIN times the largest magnitude involved (at least
    1).  For such a segment the general evaluation finds it valid, clips its
    parameter window to exactly [0.0, 1.0] and finds no critical point
    inside, so its image is spanned by the two endpoint values.
    """
    ax, _, dx1, _, vertical, tc_curve = _segment_terms(curve, coords)
    x0, x1 = 0.0 * dx1 + ax, 1.0 * dx1 + ax
    x_lo, x_hi = np.minimum(x0, x1), np.maximum(x0, x1)
    a_lo, a_hi = float(alphas.min()), float(alphas.max())
    scale = max(1.0, float(np.abs(coords).max()), abs(a_lo), abs(a_hi), abs(curve.a), abs(curve.b))
    margin = _ENDPOINT_MARGIN * scale
    return (
        ~vertical
        & (x_lo >= a_hi - curve.b + margin)
        & (x_hi <= a_lo - curve.a - margin)
        & (np.isnan(tc_curve) | (a_hi - tc_curve < x_lo - margin) | (a_lo - tc_curve > x_hi + margin))
    )


def _endpoint_images(curve: CurveProfile, coords: np.ndarray, rows: int):
    """The endpoint-only evaluation: (al, lo, hi) writes each segment's image.

    The ends x = t * dx1 + ax, y = t * dx2 + ay at t = 0.0 and 1.0 are the
    general evaluation's own terms at those parameters, computed once and
    laid side by side, so that each batch of up to rows alphas takes one pass
    over both ends, in one buffer reused by every batch.
    The general evaluation clips al - x to [a, b]; here _endpoint_only keeps
    al - x inside [a, b] by _ENDPOINT_MARGIN times the scale, far above the
    rounding of one subtraction, so that clip returns its input unchanged
    and is left out: every value keeps its bits.
    """
    ax, ay = coords[:, 0], coords[:, 1]
    dx1 = coords[:, 2] - ax
    dx2 = coords[:, 3] - ay
    x = np.concatenate([t * dx1 + ax for t in (0.0, 1.0)])
    y = np.concatenate([t * dx2 + ay for t in (0.0, 1.0)])
    n = len(coords)
    buffer = np.empty((rows, 2 * n))

    def images(al: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        # y + f(al - x) for both ends
        v = buffer[: len(al)]
        np.subtract(al, x, out=v)
        np.add(y, curve.f(v), out=v)
        np.minimum(v[:, :n], v[:, n:], out=lo)
        np.maximum(v[:, :n], v[:, n:], out=hi)

    return images


def _general_images(curve: CurveProfile, coords: np.ndarray):
    """The general evaluation: (al, lo, hi) writes each segment's image.

    The strip window in the segment parameter decides validity and is
    clipped to [0, 1] (vertical segments keep the whole segment), then the
    values at the clipped ends and at an interior critical point span the
    image; an invalid segment is a gap, with lo and hi +inf.  Its
    temporaries are made afresh for each batch.
    """
    ax, ay, dx1, dx2, vertical, tc_curve = _segment_terms(curve, coords)
    safe_dx1 = np.where(vertical, 1.0, dx1)

    def value(al: np.ndarray, t: np.ndarray) -> np.ndarray:
        # ay + t * dx2 + f(clip(al - (ax + t * dx1))), in one reused buffer
        v = t * dx1
        v += ax
        np.subtract(al, v, out=v)
        fx = curve.f(np.clip(v, curve.a, curve.b, out=v))
        np.multiply(t, dx2, out=v)
        v += ay
        v += fx
        return v

    def images(al: np.ndarray, los: np.ndarray, his: np.ndarray) -> None:
        lo, hi = curve.strip(al)
        bound_lo = (lo - ax) / safe_dx1
        t1 = (hi - ax) / safe_dx1
        t0 = np.minimum(bound_lo, t1)
        np.maximum(bound_lo, t1, out=t1)
        del bound_lo
        # validity from the unclipped window: the strip-parameter range must
        # meet [0, 1], otherwise clipping would fabricate an endpoint touch;
        # vertical segments keep the full range and are valid inside the strip
        valid = np.where(
            vertical,
            (ax >= lo - DOMAIN_TOL) & (ax <= hi + DOMAIN_TOL),
            (t1 >= 0.0) & (t0 <= 1.0),
        )
        np.clip(t0, 0.0, 1.0, out=t0)
        np.clip(t1, 0.0, 1.0, out=t1)
        np.copyto(t0, 0.0, where=vertical)
        np.copyto(t1, 1.0, where=vertical)
        v0, v1 = value(al, t0), value(al, t1)
        np.minimum(v0, v1, out=los)
        np.maximum(v0, v1, out=his)
        del v0, v1
        tc = (al - tc_curve - ax) / safe_dx1
        inside = (tc > t0) & (tc < t1)
        del t0, t1
        if inside.any():
            vc = value(al, tc)
            np.minimum(los, vc, out=los, where=inside)
            np.maximum(his, vc, out=his, where=inside)
            del vc
        del tc, inside
        np.copyto(los, np.inf, where=~valid)
        np.copyto(his, np.inf, where=~valid)

    return images


def project_blinds(curve: CurveProfile, alpha: float, blinds: "BlindSet") -> IntervalUnion:
    """Canonical union of the Phi_alpha images of all members of a blind set, as one row."""
    return next(project_blinds_grid(curve, [alpha], blinds))
