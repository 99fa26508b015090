"""Constructions and numerical certificates for curve-translate projections.

The package builds iterated Venetian-blind replacements of line segments
whose generalized projections (vertical slices of translated curve graphs)
cover prescribed fiber arcs over one parameter set while staying small over
another, and certifies both properties on dense parameter grids.
"""

from .blinds import (
    BlindSet,
    Caps,
    ConstructionError,
    auto_iter_vb,
    auto_vb_cover,
    iter_vb,
    rotate,
    vb,
)
from .curve import (
    CurveProfile,
    DomainError,
    builtin_curve,
    builtin_curve_names,
    diff_interval,
    eval_phi,
    fiber_point,
    grad_phi,
    project_disk,
    tangent_direction,
)
from .duality import LineParam, line_slice, parabola_slice, similarity_residual
from .geometry import Disk, Point, Segment
from .keylemma import (
    AngleBands,
    KeyResult,
    PolyChain,
    compute_bands,
    key_construction,
    local_construction,
    polygon_approx,
)
from .measure import AlphaSet, FiberArc, IntervalUnion, project_blinds, project_fiber_arc
from .projline import (
    CCW,
    CW,
    Arc,
    Direction,
    angle_schedule,
    as_direction,
    dist,
    normalize,
)
from .scene import SceneError, SceneSpec, load_scene
from .verify import (
    VerificationReport,
    check_cover,
    check_small,
    gradient_check,
    law_of_sines_check,
)

__version__ = "0.1.0"

__all__ = [
    "CCW",
    "CW",
    "AlphaSet",
    "AngleBands",
    "Arc",
    "BlindSet",
    "Caps",
    "ConstructionError",
    "CurveProfile",
    "Direction",
    "Disk",
    "DomainError",
    "FiberArc",
    "IntervalUnion",
    "KeyResult",
    "LineParam",
    "Point",
    "PolyChain",
    "SceneError",
    "SceneSpec",
    "Segment",
    "VerificationReport",
    "angle_schedule",
    "as_direction",
    "auto_iter_vb",
    "auto_vb_cover",
    "builtin_curve",
    "builtin_curve_names",
    "check_cover",
    "check_small",
    "compute_bands",
    "diff_interval",
    "dist",
    "eval_phi",
    "fiber_point",
    "grad_phi",
    "gradient_check",
    "iter_vb",
    "key_construction",
    "law_of_sines_check",
    "line_slice",
    "load_scene",
    "local_construction",
    "normalize",
    "parabola_slice",
    "polygon_approx",
    "project_blinds",
    "project_disk",
    "project_fiber_arc",
    "rotate",
    "similarity_residual",
    "tangent_direction",
    "vb",
]
