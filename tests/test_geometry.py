"""Planar primitives: points, segments, disks."""

import math

import pytest

from curveblinds.geometry import Disk, Point, Segment


def test_point_distance_and_tuple():
    p = Point(1.0, 2.0)
    q = Point(4.0, -2.0)
    assert math.isclose(p.distance_to(q), 5.0)
    assert p.as_tuple() == (1.0, 2.0)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


def test_segment_length_direction_midpoint():
    seg = Segment(Point(0.0, 0.0), Point(3.0, 4.0))
    assert math.isclose(seg.length, 5.0)
    assert math.isclose(seg.direction.angle, math.atan2(4.0, 3.0), abs_tol=1e-15)
    assert seg.midpoint == Point(1.5, 2.0)
    assert seg.point_at(0.0) == seg.a
    assert seg.point_at(1.0) == seg.b


def test_segment_direction_is_unoriented():
    fwd = Segment(Point(0.0, 0.0), Point(1.0, 1.0))
    rev = Segment(Point(1.0, 1.0), Point(0.0, 0.0))
    assert math.isclose(fwd.direction.angle, rev.direction.angle, abs_tol=1e-15)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        Segment(Point(1.0, 1.0), Point(1.0, 1.0))


def test_segment_distance_to_point():
    seg = Segment(Point(0.0, 0.0), Point(2.0, 0.0))
    assert math.isclose(seg.distance_to_point(Point(1.0, 1.5)), 1.5)
    assert math.isclose(seg.distance_to_point(Point(-3.0, 4.0)), 5.0)
    assert seg.distance_to_point(Point(1.0, 0.0)) == 0.0


def test_disk_rejects_bad_radius():
    with pytest.raises(ValueError):
        Disk(Point(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Disk(Point(0.0, 0.0), -1.0)
