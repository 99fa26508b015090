"""Constructions and numerical certificates for curve-translate projections.

The package builds iterated Venetian-blind replacements of line segments
whose generalized projections (vertical slices of translated curve graphs)
cover prescribed fiber arcs over one parameter set while staying small over
another, and certifies both properties on dense parameter grids.
"""

from .blinds import BlindSet, Caps, ConstructionError, iter_vb, rotate, vb
from .curve import CurveProfile, builtin_curve, diff_interval, project_disk
from .duality import LineParam, line_slice, parabola_slice, similarity_residual
from .geometry import Disk, Point, Segment
from .keylemma import compute_bands, key_construction, local_construction, polygon_approx
from .measure import AlphaSet, FiberArc, project_blinds
from .scene import SceneError, SceneSpec, load_scene
from .verify import check_cover, check_small

__version__ = "0.1.0"

__all__ = [
    "AlphaSet",
    "BlindSet",
    "Caps",
    "ConstructionError",
    "CurveProfile",
    "Disk",
    "FiberArc",
    "LineParam",
    "Point",
    "SceneError",
    "SceneSpec",
    "Segment",
    "builtin_curve",
    "check_cover",
    "check_small",
    "compute_bands",
    "diff_interval",
    "iter_vb",
    "key_construction",
    "line_slice",
    "load_scene",
    "local_construction",
    "parabola_slice",
    "polygon_approx",
    "project_blinds",
    "project_disk",
    "rotate",
    "similarity_residual",
    "vb",
]
