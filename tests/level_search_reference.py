"""Reference for the level search: doubling from the start count.

``blinds._level_search`` moves each group with a finite budget straight to
the first count whose blade tips can meet it, predicted from one division
at n = 1, and then doubles.  ``doubling_level_search`` is the search it
replaces: every group starts at its start count and doubles until accepted,
so every count below the accepted one is divided and checked.  The
equivalence test requires the same counts, children and errors.  When a
group passes the cap, both return a group index, but not always the same
one: ``_level_search`` names the first group past the cap in its one pass,
and the test requires only that this group alone passes the cap here too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from curveblinds.blinds import (
    _angle_table,
    _distances_to_parents,
    _divide_rotate_level,
    _hulls_cover_ok,
)
from curveblinds.curve import CurveProfile
from curveblinds.measure import AlphaSet


def doubling_level_search(
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

    The arguments and the result are those of ``blinds._level_search``.
    """
    groups = len(sizes)
    level_dir, target, theta_cover, budget = (
        np.broadcast_to(v, (groups,)) for v in (level_dir, target, theta_cover, budget)
    )
    counts = np.array(np.broadcast_to(n, (groups,)), dtype=np.int64)
    row_group = np.repeat(np.arange(groups), sizes)
    pending = np.ones(groups, dtype=bool)
    found, found_group = [], []
    while pending.any():
        over = pending & (counts * sizes > n_max)
        if over.any():
            return int(np.argmax(over))
        live = np.flatnonzero(pending)
        rows = np.flatnonzero(pending[row_group])
        g = row_group[rows]
        trig = _angle_table(target[g], theta_cover[g])
        children, hulls = _divide_rotate_level(parents[rows], trig, counts[g])
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
