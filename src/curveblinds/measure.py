"""1-D Lebesgue measure engine: batches of canonical interval unions.

Projections of segments, blind sets and fiber arcs land on the vertical
lines {alpha} x R, each image a finite union of closed intervals.  An
IntervalUnion holds the images of a batch of alphas, one row per alpha, as
flat arrays of canonical groups with each group's row.  The projection
kernel, project_blinds_grid, first replaces each run of overlapping
segments whose hull it certifies over an alpha range by one column of the
run's two extreme endpoints (_endpoint_columns: f' being strictly monotone,
an order of two endpoint values that holds at both ends of a range holds in
between): over the whole range, then over halves of it, bisected while that
saves columns x alphas (_column_leaves).  _canonical_groups then
canonicalizes the kernel's (rows x n) interval arrays in any order, in its
own buffers: a wide row pre-merges in blocks of _BLOCK intervals, and
_sorted_groups cuts the groups of the sorted rows.  _merge_neighbours takes
intervals sorted by row whose lo and hi rise within each row, as a union's
do after a shift or a cut.  Measures, inflation, erosion, difference and
containment act on whole batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .curve import DOMAIN_TOL, CurveProfile
from .geometry import Point
from .projline import _count

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

#: Intervals per block in _canonical_groups' pre-merge of a wide row.
_BLOCK = 128


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
        """Each row's measure, summed left to right as Python's sum does:
        bincount adds the weights in index order, each row from 0.0."""
        return np.bincount(self.row, weights=self.hi - self.lo, minlength=self.rows)

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


def _merge_neighbours(lo: np.ndarray, hi: np.ndarray, row: np.ndarray, rows: int) -> IntervalUnion:
    """Canonicalize intervals sorted by row whose lo and hi both rise within
    each row, as a canonical union's do after a shift or a cut.

    Sorting each row's lo and hi, as _canonical_groups does, would leave
    both as given, so _sorted_groups' cuts are the cuts between neighbours:
    where the row changes or lo exceeds the previous hi by more than
    MERGE_TOL.  A group's hi is its last, and largest, hi; the groups are
    _sorted_groups' of the same intervals, bit for bit.
    """
    cuts = np.empty(len(lo), dtype=bool)
    cuts[:1] = True
    np.greater(lo[1:], hi[:-1] + MERGE_TOL, out=cuts[1:])
    cuts[1:] |= row[1:] != row[:-1]
    starts = np.flatnonzero(cuts)
    # a group ends just before the next group starts
    ends = np.append(starts, len(lo))[1:] - 1
    return IntervalUnion(lo[starts], hi[ends], row[starts], rows)


def _canonical_groups(
    lo_buf: np.ndarray, hi_buf: np.ndarray, rows: int, n: int, cuts: np.ndarray, reach: np.ndarray
) -> IntervalUnion:
    """The canonical groups of the (rows x n) intervals in lo_buf and hi_buf.

    The intervals are the first rows * n entries of the flat buffers, row by
    row, in any order; a gap has lo = hi = +inf, and no entry is NaN.  The
    buffers and the scratch arrays cuts (bool) and reach (float) hold at
    least rows * n + _BLOCK entries and are overwritten.  Two steps:

    1. A one-row batch of more than BUDGET // 2 intervals is cut into
       blocks of _BLOCK intervals, the last padded with gaps; each block's
       lo and hi are sorted in one 2-D sort, and the block groups (see
       _sorted_groups) replace the intervals.  A row of gaps only has no
       block group and comes back as one empty row.
    2. Each row's lo and hi are sorted, and _sorted_groups cuts the groups.

    The canonical groups of a row are the components of the union of its
    [lo, fl(hi + MERGE_TOL)], each with its min lo and max hi.  A block
    group is connected, and its hull has exactly its min lo and max hi, so
    that replacing it by the hull leaves that union, and so every group,
    unchanged bit for bit.  The result owns its arrays.
    """
    los, his = lo_buf[: rows * n].reshape(rows, n), hi_buf[: rows * n].reshape(rows, n)
    if rows == 1 and n > BUDGET // 2:
        blocks = -(-n // _BLOCK)
        lo_buf[n : blocks * _BLOCK] = np.inf
        hi_buf[n : blocks * _BLOCK] = np.inf
        block_los = lo_buf[: blocks * _BLOCK].reshape(blocks, _BLOCK)
        block_his = hi_buf[: blocks * _BLOCK].reshape(blocks, _BLOCK)
        block_los.sort(axis=1)
        block_his.sort(axis=1)
        merged = _sorted_groups(block_los, block_his, cuts, reach)
        if not len(merged.lo):
            return IntervalUnion(merged.lo, merged.hi, merged.row, 1)
        los, his = merged.lo[None], merged.hi[None]
    los.sort(axis=1)
    his.sort(axis=1)
    return _sorted_groups(los, his, cuts, reach)


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
        n = _count(points_per_component, "points per component")
        if n < 2:
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
    result.

    Before the batch buffers are sized, _endpoint_columns turns the
    endpoint-only segments into columns: over three or more alphas, a run of
    consecutive segments whose images overlap, and whose extremes are the
    same two endpoints, at every alpha of the range becomes one column of
    those two endpoints.  f' being strictly monotone, the difference of two
    endpoint values is monotone in alpha, so each order checked at both ends
    of the range, by _HULL_MARGIN times the magnitude scale, holds in
    between; the column's image is the union of the run's, so no group
    changes.  The column takes the place of the run's first segment: the
    columns keep the segments' order, in which neighbours overlap far more
    often than others, so that the block pre-merge of a wide row (see
    _canonical_groups) leaves fewer block groups, and ties of -0.0 and 0.0
    meet the sorts in the order the segments give them.  Runs
    whose extreme ends switch inside the range fail over the whole range
    but may hold over a part of it, and the argument holds on any part: so
    _column_leaves splits the alphas, in the given order, into contiguous
    halves, each certified over its own [min, max] on its parent's columns,
    and keeps a split while the halves' columns x alphas fall below 0.9
    times the parent's.  A range of fewer than _SPLIT_ALPHAS alphas, or of
    fewer than _SPLIT_COLUMNS columns, is not split: there one certificate
    costs more than the columns it saves (the bundled jobs make one).

    Each leaf range is projected in turn, in alpha order: the
    alpha-independent terms are computed once, then max(1, BUDGET // n)
    alphas of the leaf at a time are projected as (rows x n) arrays, n its
    columns wide; the canonical rows, of all leaves, are stacked into one
    batch while rows x widest row stays within BUDGET, so that consumers
    spend each numpy call on many alphas.  Every element goes through the
    same float operations whatever the batch size and the leaf, so neither
    batching nor leaves change a bit of the result.

    The batch arrays (endpoint values, lo and hi, the cut mask and reach) are
    allocated once per call, sized for the largest batch of any leaf, and
    written through out=; _canonical_groups canonicalizes each batch's rows
    in them.  Up to a few thousand segments, per-batch numpy call overhead,
    not element work, bounds the kernel, hence the large BUDGET; reuse keeps
    it from costing page faults (see BUDGET).
    The yielded batches own their arrays: none is a view of a buffer.
    Alphas that are not a 1-D sequence, and a NaN or infinite alpha or blind
    coordinate, are rejected with ValueError naming the shape or the first
    one.
    """
    coords = blinds.coords
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"alphas must be a 1-D sequence, got shape {alphas.shape}")
    finite = np.isfinite(alphas)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"alpha must be finite, got alphas[{i}] = {float(alphas[i])!r}")
    _require_finite_coords(coords)
    if not alphas.size:
        return
    endpoint_only = _endpoint_only(curve, alphas, coords)
    general = len(coords) - int(np.count_nonzero(endpoint_only))
    columns = _endpoint_columns(curve, alphas, _segment_ends(coords[endpoint_only]))
    # (start, stop, ends, n, rows) of each leaf range, in alpha order
    leaves = []
    for start, stop, ends in _column_leaves(curve, alphas, 0, len(alphas), columns):
        n = ends.shape[-1] + general
        leaves.append((start, stop, ends, n, min(stop - start, max(1, BUDGET // n))))
    # the batch buffers, sized for the largest leaf batch and written through
    # out= by every batch, with room for _canonical_groups' block padding;
    # the canonical groups do not depend on the column order (up to which of
    # -0.0 and 0.0 comes first), so the endpoint-only columns come first
    size = max(rows * n for *_, n, rows in leaves) + _BLOCK
    lo_buf, hi_buf, reach = np.empty((3, size))
    cuts = np.empty(size, dtype=bool)
    values = np.empty(max(rows * 2 * ends.shape[-1] for _, _, ends, _, rows in leaves))
    general_images = _general_images(curve, coords[~endpoint_only]) if general else None
    pending, stacked, widest = [], 0, 0
    for start, stop, ends, n, rows in leaves:
        split = n - general
        los, his = lo_buf[: rows * n].reshape(rows, n), hi_buf[: rows * n].reshape(rows, n)
        parts = []
        if split:
            parts.append((_endpoint_images(curve, ends, values), slice(None, split)))
        if general:
            parts.append((general_images, slice(split, None)))
        for first in range(start, stop, rows):
            al = alphas[first : min(first + rows, stop), None]
            for images, cols in parts:
                images(al, los[: len(al), cols], his[: len(al), cols])
            batch = _canonical_groups(lo_buf, hi_buf, len(al), n, cuts, reach)
            count = int(np.bincount(batch.row, minlength=1).max())
            if pending and (stacked + batch.rows) * max(widest, count) > BUDGET:
                yield IntervalUnion.stack(pending)
                pending, stacked, widest = [], 0, 0
            pending.append(batch)
            stacked += batch.rows
            widest = max(widest, count)
    if pending:
        yield IntervalUnion.stack(pending)


def _require_finite_coords(coords: np.ndarray) -> None:
    """Reject (n, 4) segment rows holding a NaN or an infinity, naming the first."""
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"blind coordinates must be finite: row {row} is {coords[row].tolist()}")


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


#: Margin of the hull certificate, per unit of the largest coordinate, alpha
#: and endpoint-value magnitude (at least 1): the least amount by which one
#: endpoint value must lie below another, at both ends of the alpha range,
#: for their order to be taken as holding at every alpha in between.
_HULL_MARGIN = 1e-9


def _segment_ends(coords: np.ndarray) -> np.ndarray:
    """Each segment as a column of its two ends' (x, y): an array (2, 2, m).

    ends[0 or 1, t, i] is the x or y of segment i's end t, the general
    evaluation's own x = t * dx1 + ax and y = t * dx2 + ay at t = 0.0 and 1.0.
    """
    ends = np.empty((2, 2, len(coords)))
    for k in (0, 1):
        d = coords[:, k + 2] - coords[:, k]
        for t in (0, 1):
            np.multiply(float(t), d, out=ends[k, t])
            ends[k, t] += coords[:, k]
    return ends


def _endpoint_columns(curve: CurveProfile, alphas: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The columns ends (2, 2, m), as _segment_ends lays them out, with every
    run it certifies over the alphas' range [min, max] merged into one column.

    Column c's image at alpha is the interval spanned by its values at its
    two ends, y[t, c] + f(alpha - x[t, c]) for t = 0 and 1: a segment's
    image, and that of a column this function returned for a range holding
    [min, max].  The columns of a run of links become one, holding the run's
    minimum and maximum end; the other columns are kept.  With fewer than
    three alphas or two columns nothing is merged.

    The certificate: over the alpha range [min, max] every x of these ends
    stays inside [alpha - b, alpha - a] (see _endpoint_only, which decides
    over a range holding this one), so the difference of two endpoint
    values, (y_p - y_q) + f(alpha - x_p) - f(alpha - x_q), has derivative
    f'(alpha - x_p) - f'(alpha - x_q) of one sign, f' being strictly
    monotone: it is monotone in alpha, and an order that holds at both ends
    of the range holds in between.  Column i links to i + 1 when one fixed
    end of each lies below one fixed end of the other by the margin at both
    range ends: their images then overlap at every alpha, and a run of links
    projects to one interval, the hull of its ends' values.  A run is
    accepted when one fixed end is its minimum and one its maximum, each by
    the margin at both range ends: that interval is then bounded by exactly
    those two ends' values at every alpha, so the one column in place of
    the run leaves the union of the images, and every canonical group,
    unchanged bit for bit, by the argument _canonical_groups gives for
    block groups.  The hull column keeps the run's place, so the columns
    stay in segment order, for the block pre-merge and for the order of
    ties of -0.0 and 0.0 (see project_blinds_grid).

    The end values are computed with the kernel's own operations, and the
    margin is _HULL_MARGIN times the largest magnitude of the ends, the
    alpha range and these values (at least 1).  It assumes that every
    endpoint value the kernel computes, at any alpha of the range, lies
    within a quarter of the margin of the exact value at its computed x and
    y: that curve.f, with the rounding of alpha - x times |f'| included,
    errs by far less than 1e-10 times that magnitude, as elementwise numpy
    and math functions do by a few ulps.  Each strict order above then
    holds for the computed values too.
    """
    m = ends.shape[-1]
    if len(alphas) < 3 or m < 2:
        return ends
    x, y = ends
    # v[e, t, i]: the value of column i's end t at range end e
    v = np.subtract(np.array([alphas.min(), alphas.max()])[:, None, None], x)
    np.add(y, curve.f(v), out=v)
    scale = max(1.0, *(float(max(a.max(), -a.min())) for a in (ends, alphas, v)))
    margin = _HULL_MARGIN * scale
    up, down = np.zeros((2, m - 1), dtype=bool)
    for p in (0, 1):
        for q in (0, 1):
            gap = v[:, q, 1:] - v[:, p, :-1]
            up |= np.minimum(gap[0], gap[1]) >= margin  # end p of i below end q of i + 1
            down |= np.maximum(gap[0], gap[1]) <= -margin  # and end q of i + 1 below end p of i
    link = up & down
    if not link.any():
        return ends
    # the columns of runs of two or more, the first of each run, and each
    # one's run
    member = np.append(link, False) | np.append(False, link)
    starts = np.append(True, ~link)[member]
    run = np.cumsum(starts) - 1
    cut = np.flatnonzero(starts)
    w = np.compress(member, v, axis=2)
    # ends within the margin of their run's minimum, or maximum, at each range end
    low = np.minimum.reduceat(np.minimum(w[:, 0], w[:, 1]), cut, axis=1) + margin
    high = np.maximum.reduceat(np.maximum(w[:, 0], w[:, 1]), cut, axis=1) - margin
    near_lo = w <= np.take(low, run, axis=1)[:, None]
    near_hi = w >= np.take(high, run, axis=1)[:, None]
    # a run with one end near its minimum at either range end, and one near
    # its maximum: each is that extreme, by the margin, at both range ends
    hull = np.ones(len(cut), dtype=bool)
    extremes = []
    for near in (near_lo, near_hi):
        t, i = np.nonzero(near[0] | near[1])
        hull &= np.bincount(run[i], minlength=len(cut)) == 1
        extremes.append((t, i))
    if not hull.any():
        return ends
    column = np.flatnonzero(member)
    keep = np.ones(m, dtype=bool)
    keep[column[hull[run] & ~starts]] = False
    kept = np.flatnonzero(keep)
    # each column's two ends, as indices t * m + i into ends' rows; a hull
    # run's column sits where its first column did
    source = kept + np.array([[0], [m]])
    place = np.searchsorted(kept, column[cut[hull]])
    for row, (t, i) in zip(source, extremes):
        pick = np.empty(len(cut), dtype=np.intp)
        pick[run[i]] = t * m + column[i]
        row[place] = pick[hull]
    return np.take(ends.reshape(2, 2 * m), source, axis=1)


#: Bisection of the alpha range for hull columns: a range of at least
#: _SPLIT_ALPHAS alphas whose columns number at least _SPLIT_COLUMNS is
#: split in halves, kept while the halves' columns x alphas stay below 0.9
#: times the range's.  A certificate costs about as much as projecting its
#: columns at ten alphas, plus some fifty numpy calls, so on shorter ranges
#: or fewer columns the two halves' certificates cost more than they save.
_SPLIT_ALPHAS = 100
_SPLIT_COLUMNS = BUDGET // 8


def _column_leaves(
    curve: CurveProfile, alphas: np.ndarray, start: int, stop: int, columns: np.ndarray
) -> list[tuple[int, int, np.ndarray]]:
    """The leaf ranges (start, stop, columns) of alphas[start:stop], in order.

    columns are certified over the range's own [min, max] (_endpoint_columns).
    Each half of the range is certified on them, not on the segments: over
    the half, a column's image is still the interval spanned by its two
    ends, so it links and merges as a segment does, and the half's columns
    hold, over it, the union of the range's.  The halves replace the range
    while their columns x alphas fall below 0.9 times its own.
    """
    if stop - start < _SPLIT_ALPHAS or columns.shape[-1] < _SPLIT_COLUMNS:
        return [(start, stop, columns)]
    mid = (start + stop) // 2
    halves = [
        (a, b, _endpoint_columns(curve, alphas[a:b], columns)) for a, b in ((start, mid), (mid, stop))
    ]
    work = sum((b - a) * c.shape[-1] for a, b, c in halves)
    if 10 * work >= 9 * (stop - start) * columns.shape[-1]:
        return [(start, stop, columns)]
    return [leaf for half in halves for leaf in _column_leaves(curve, alphas, *half)]


def _endpoint_images(curve: CurveProfile, ends: np.ndarray, buffer: np.ndarray):
    """The endpoint-only evaluation: (al, lo, hi) writes each column's image.

    ends holds each column's two ends as _endpoint_columns gives them, the
    general evaluation's own x and y at t = 0.0 and 1.0; they are laid side
    by side, so that each batch of alphas takes one pass over both ends, in
    buffer, which holds at least 2 * len(al) * columns entries and is
    reused by every batch.
    The general evaluation clips al - x to [a, b]; here _endpoint_only keeps
    al - x inside [a, b] by _ENDPOINT_MARGIN times the scale, far above the
    rounding of one subtraction, so that clip returns its input unchanged
    and is left out: every value keeps its bits.
    """
    x, y = ends.reshape(2, -1)
    n = ends.shape[-1]

    def images(al: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        # y + f(al - x) for both ends
        v = buffer[: len(al) * 2 * n].reshape(len(al), 2 * n)
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
