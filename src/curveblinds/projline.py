"""Arithmetic on the real projective line R/piZ (unoriented planar directions).

Directions of lines in the plane are identified modulo pi.  Everything
downstream (rotation constructions, angle schedules, covering arcs) goes
through the helpers here instead of comparing raw angle representatives,
which is the classic source of wraparound bugs.
"""

from __future__ import annotations

import math
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

    def offsets(self, thetas: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Arc.offset of every angle in an array, bit for bit.

        With tol > 0, an offset within tol of pi becomes its (negative)
        position just before the start, so that ``contains(theta, tol)``
        holds exactly when the offset is at most length + tol.
        """
        start = self.start.angle
        u = np.fmod(thetas - start if self.chirality == CCW else start - thetas, PI)
        u[u < 0.0] += PI
        u[u >= PI] = 0.0
        if tol > 0.0:
            u[u >= PI - tol] -= PI
        return u

    def contains(self, theta: Direction | float, tol: float = 1e-12) -> bool:
        """Membership in the closed arc, with tolerance at both endpoints."""
        u = self.offset(theta)
        return u <= self.length + tol or u >= PI - tol

    def contains_strictly(self, theta: Direction | float, tol: float = ANGLE_TOL) -> bool:
        """Membership in the open arc, at least tol away from both endpoints."""
        u = self.offset(theta)
        return tol <= u <= self.length - tol


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
    if m < 1:
        raise ValueError(f"schedule depth must be >= 1, got {m}")
    arc = Arc(theta0, theta_small, chirality)
    sign = 1.0 if chirality == CCW else -1.0
    steps = (normalize(arc.start.angle + sign * arc.length * k / m) for k in range(1, m))
    return [arc.start, *steps, arc.end]
