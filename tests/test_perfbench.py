"""The benchmark's trace mode names functions that exist in curveblinds."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_layers_resolve_in_curveblinds():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function, _, _ in tracing.LAYERS:
        owner = importlib.import_module(f"curveblinds.{module}")
        assert callable(getattr(owner, function, None)), f"curveblinds.{module}.{function}"
