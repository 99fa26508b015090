"""The benchmark's trace mode names functions that exist in curveblinds and
traces a rigorous job to the end."""

import importlib
import importlib.util
from pathlib import Path

import curveblinds.cli
from curveblinds.scene import load_scene

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_layers_resolve_in_curveblinds():
    tracing = _load_tracing()
    assert tracing.LAYERS
    for module, function, _, _ in tracing.LAYERS:
        owner = importlib.import_module(f"curveblinds.{module}")
        assert callable(getattr(owner, function, None)), f"curveblinds.{module}.{function}"


def test_traced_rigorous_construct_closes_every_span(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job("E1-rigorous"):
            _, report = curveblinds.cli.run_construct(load_scene("E1"), tmp_path, rigorous=True)
    finally:
        tracer.uninstall()
    assert report["pass"] is True
    assert tracer.spans
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"job", "cli.run_construct", "keylemma.key_construction"} <= names
    for span in tracer.spans:
        assert span[tracing.START] <= span[tracing.END], span[tracing.NAME]
    metrics = tracing.layer_metrics(tracer.spans, {"E1-rigorous": 1.0})
    assert metrics["verify.recertify.busy_s"] == 0.0
