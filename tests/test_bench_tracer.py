"""The benchmark tracer (bench/spans.py) wraps program functions by the
module name its caller looks them up through; a rename breaks it."""

import importlib.util
import os

import pytest

from cellfree import cli, harness, power
from cellfree.harness import ScenarioConfig, config_to_text

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
MODULES = {"cli": cli, "harness": harness, "power": power}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(spans):
    for binding, _ in spans.SPAN_BINDINGS + spans.MARKER_BINDINGS:
        module, attr = binding.split(".")
        assert callable(getattr(MODULES[module], attr, None)), binding


def test_traced_run_records_one_trial_per_outer_trial(spans, tmp_path, monkeypatch):
    # restore every binding the tracer replaces when the test ends
    for binding, _ in spans.SPAN_BINDINGS + spans.MARKER_BINDINGS:
        module, attr = binding.split(".")
        monkeypatch.setattr(MODULES[module], attr, getattr(MODULES[module], attr))
    monkeypatch.setattr(harness, "ThreadPoolExecutor", None, raising=False)
    tracer = spans.Tracer()
    tracer.install(MODULES)

    config = tmp_path / "tiny.cfg"
    config.write_text(config_to_text(ScenarioConfig(
        density=10.0, half_width_km=1.0, shadow="uncorrelated", csi="ls", code="alamouti",
        epsilon=0.1, outer=25, inner=20, seed=4)))
    assert cli.main(["run", "--scenario", str(config), "--out", str(tmp_path / "r.csv")]) == 0

    metrics, trial_ms = tracer.layer_metrics()
    assert len(trial_ms) == 25
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["harness.run_scenario.calls"] == 1
    assert metrics["harness.trial_stream.calls"] == 25
    assert metrics["deployment.place_ppp.calls"] == 25
