"""Arithmetic on the real projective line R/piZ (unoriented planar directions).

Directions of lines in the plane are identified modulo pi.  Everything
downstream (rotation constructions, angle schedules, covering arcs) goes
through the helpers here instead of comparing raw angle representatives,
which is the classic source of wraparound bugs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

PI = math.pi

#: Below this angular distance two directions are treated as degenerate.
ANGLE_TOL = 1e-10

CCW = "ccw"
CW = "cw"
CHIRALITIES = (CCW, CW)


@dataclass(frozen=True, order=True)
class Direction:
    """An unoriented planar direction, stored as an angle in [0, pi)."""

    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"direction angle must be finite, got {self.angle!r}")
        if not 0.0 <= self.angle < PI:
            raise ValueError(
                f"direction angle {self.angle!r} outside [0, pi); use normalize()"
            )

    def __repr__(self) -> str:
        return f"Direction({self.angle:.12g})"


def normalize(angle: float) -> Direction:
    """Reduce an angle modulo pi to its representative in [0, pi)."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    rep = math.fmod(angle, PI)
    if rep < 0.0:
        rep += PI
    if rep >= PI:  # fmod rounding can land exactly on pi
        rep = 0.0
    return Direction(rep)


def _as_angle(theta: Direction | float) -> float:
    return theta.angle if isinstance(theta, Direction) else float(theta)


def as_direction(theta: Direction | float) -> Direction:
    """Coerce a raw angle (any real) or Direction to a Direction."""
    return theta if isinstance(theta, Direction) else normalize(float(theta))


def dist(theta1: Direction | float, theta2: Direction | float) -> float:
    """The natural metric on R/piZ; values lie in [0, pi/2]."""
    d = math.fmod(abs(_as_angle(theta1) - _as_angle(theta2)), PI)
    return min(d, PI - d)


def ccw_delta(start: Direction | float, end: Direction | float) -> float:
    """Length of the counterclockwise arc from start to end, in [0, pi)."""
    d = math.fmod(_as_angle(end) - _as_angle(start), PI)
    if d < 0.0:
        d += PI
    if d >= PI:
        d = 0.0
    return d


@dataclass(frozen=True)
class Arc:
    """A closed arc on R/piZ traversed from start to end with a chirality.

    The traversed length must be strictly between 0 and pi; degenerate and
    full-circle arcs are rejected at construction.
    """

    start: Direction
    end: Direction
    chirality: str = CCW

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_direction(self.start))
        object.__setattr__(self, "end", as_direction(self.end))
        if self.chirality not in CHIRALITIES:
            raise ValueError(f"unknown chirality {self.chirality!r}")
        if self.length <= 0.0:
            raise ValueError(
                f"degenerate arc: start {self.start} equals end {self.end}"
            )

    @property
    def length(self) -> float:
        """Arc length traversed along the arc's chirality, in (0, pi)."""
        return self.offset(self.end)

    def offset(self, theta: Direction | float) -> float:
        """Position of theta along the arc's traversal direction, in [0, pi)."""
        if self.chirality == CCW:
            return ccw_delta(self.start, theta)
        return ccw_delta(theta, self.start)

    def contains(self, theta: Direction | float, tol: float = 1e-12) -> bool:
        """Membership in the closed arc, with tolerance at both endpoints."""
        u = self.offset(theta)
        return u <= self.length + tol or u >= PI - tol

    def contains_strictly(self, theta: Direction | float, tol: float = ANGLE_TOL) -> bool:
        """Membership in the open arc, at least tol away from both endpoints."""
        u = self.offset(theta)
        return tol <= u <= self.length - tol


def _arc_offsets(thetas, start, ccw: bool, tol: float = 0.0) -> np.ndarray:
    """Arc.offset of every angle in ``thetas``, bit for bit, from starts broadcast against them.

    With tol > 0, an offset within tol of pi becomes its (negative) position
    just before the start, so that ``Arc.contains(theta, tol)`` holds exactly
    when the offset is at most length + tol.
    """
    u = np.fmod(thetas - start if ccw else start - thetas, PI)
    u[u < 0.0] += PI
    u[u >= PI] = 0.0
    if tol > 0.0:
        u[u >= PI - tol] -= PI
    return u


def _count(value, name: str) -> int:
    """A count given as ``name``: any integer but a bool, else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def angle_schedule(
    theta0: Direction | float,
    theta_small: Direction | float,
    m: int,
    chirality: str = CCW,
) -> list[Direction]:
    """Equally spaced directions from theta0 to theta_small along an arc.

    Returns [theta_0, ..., theta_m] with theta_m == theta_small and with
    constant consecutive gaps of (arc length)/m along the given chirality.
    """
    m = _count(m, "m")
    if m < 1:
        raise ValueError(f"schedule depth must be >= 1, got {m}")
    arc = Arc(theta0, theta_small, chirality)
    row = _schedules(*np.atleast_1d(arc.start.angle, arc.end.angle, m), chirality == CCW)
    return [Direction(a) for a in row[0].tolist()]


def _schedules(start: np.ndarray, end: np.ndarray, m: np.ndarray, ccw: bool) -> np.ndarray:
    """angle_schedule of every row, NaN past each row's own depth m.

    Entry k of row i is start + (+-)length * k / m reduced mod pi, length
    being the arc from start to end; entry m is end itself.
    """
    k = np.arange(m.max() + 1)
    reach = _arc_offsets(end, start, ccw)[:, None]
    out = _arc_offsets(start[:, None] + (1.0 if ccw else -1.0) * reach * k / m[:, None], 0.0, True)
    out[:, 0] = start
    out[np.arange(len(m)), m] = end
    out[k > m[:, None]] = math.nan
    return out
