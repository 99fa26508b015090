"""The package's top-level names: the entry points of the paper's steps and
the input types and exceptions needed to call them, nothing else."""

import importlib

import curveblinds

EXPORTED = {
    "blinds": ["BlindSet", "Caps", "ConstructionError", "iter_vb", "rotate", "vb"],
    "curve": ["CurveProfile", "builtin_curve", "diff_interval", "project_disk"],
    "duality": ["LineParam", "line_slice", "parabola_slice", "similarity_residual"],
    "geometry": ["Disk", "Point", "Segment"],
    "keylemma": ["compute_bands", "key_construction", "local_construction", "polygon_approx"],
    "measure": ["AlphaSet", "FiberArc", "project_blinds"],
    "scene": ["SceneError", "SceneSpec", "load_scene"],
    "verify": ["check_cover", "check_small"],
}

# return types and helpers: imported from their own modules only
MODULE_ONLY = {
    "blinds": ["auto_iter_vb", "auto_vb_cover"],
    "curve": ["DomainError", "builtin_curve_names", "eval_phi", "fiber_point",
              "grad_phi", "tangent_direction"],
    "keylemma": ["AngleBands", "KeyResult", "PolyChain"],
    "measure": ["IntervalUnion", "project_fiber_arc"],
    "projline": ["CCW", "CW", "Arc", "Direction", "angle_schedule", "as_direction",
                 "dist", "normalize"],
    "verify": ["VerificationReport", "gradient_check", "law_of_sines_check"],
}


def test_all_is_the_29_entry_points():
    names = [n for names in EXPORTED.values() for n in names]
    assert len(names) == 29
    assert sorted(curveblinds.__all__) == sorted(names)


def test_each_export_is_its_module_definition():
    for module, names in EXPORTED.items():
        mod = importlib.import_module(f"curveblinds.{module}")
        for name in names:
            obj = getattr(curveblinds, name)
            assert obj is getattr(mod, name)
            assert (obj.__module__, obj.__qualname__) == (mod.__name__, name)


def test_helpers_stay_in_their_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"curveblinds.{module}")
        for name in names:
            assert hasattr(mod, name)
            assert name not in curveblinds.__all__
