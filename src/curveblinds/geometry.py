"""Elementary planar geometry: points, oriented segments, disks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .projline import Direction, normalize


@dataclass(frozen=True)
class Point:
    """A point in the plane, coordinates (x1, x2)."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError(f"point coordinates must be finite: ({self.x1!r}, {self.x2!r})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x1 - other.x1, self.x2 - other.x2)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)


@dataclass(frozen=True)
class Segment:
    """An oriented line segment LINE(a, b) = {(1-t)a + t b : t in [0, 1]}."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"degenerate segment: both endpoints equal {self.a}")

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    @property
    def direction(self) -> Direction:
        """Unoriented direction of the segment, as a point of R/piZ."""
        return normalize(math.atan2(self.b.x2 - self.a.x2, self.b.x1 - self.a.x1))

    def point_at(self, t: float) -> Point:
        return Point(
            (1.0 - t) * self.a.x1 + t * self.b.x1,
            (1.0 - t) * self.a.x2 + t * self.b.x2,
        )

    @property
    def midpoint(self) -> Point:
        return self.point_at(0.5)

    def distance_to_point(self, p: Point) -> float:
        """Euclidean distance from p to the (closed) segment."""
        vx = self.b.x1 - self.a.x1
        vy = self.b.x2 - self.a.x2
        wx = p.x1 - self.a.x1
        wy = p.x2 - self.a.x2
        t = (wx * vx + wy * vy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        return math.hypot(wx - t * vx, wy - t * vy)


@dataclass(frozen=True)
class Disk:
    """A disk of positive radius."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"disk radius must be positive, got {self.radius!r}")
