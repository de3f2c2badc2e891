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


def _traced_run(spans, tmp_path, monkeypatch, **config):
    """Layer metrics and trial durations of one traced `cellfree run`."""
    # restore every binding the tracer replaces when the test ends
    for binding, _ in spans.SPAN_BINDINGS + spans.MARKER_BINDINGS:
        module, attr = binding.split(".")
        monkeypatch.setattr(MODULES[module], attr, getattr(MODULES[module], attr))
    monkeypatch.setattr(harness, "ThreadPoolExecutor", None, raising=False)
    tracer = spans.Tracer()
    tracer.install(MODULES)

    path = tmp_path / "tiny.cfg"
    path.write_text(config_to_text(ScenarioConfig(**config)))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 0
    return tracer.layer_metrics()


def test_traced_run_records_one_trial_per_outer_trial(spans, tmp_path, monkeypatch):
    metrics, trial_ms = _traced_run(
        spans, tmp_path, monkeypatch, density=10.0, half_width_km=1.0, shadow="uncorrelated",
        csi="ls", code="alamouti", epsilon=0.1, outer=25, inner=20, seed=4)
    assert len(trial_ms) == 25
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["harness.run_scenario.calls"] == 1
    assert metrics["harness.trial_stream.calls"] == 25
    assert metrics["deployment.place_ppp.calls"] == 25


def test_traced_run_reaches_power_and_shadow_hooks(spans, tmp_path, monkeypatch):
    # the worst-position and correlated-shadow extras read the arguments of
    # the calls they wrap, so they must accept the signatures the run uses
    metrics, trial_ms = _traced_run(
        spans, tmp_path, monkeypatch, density=10.0, half_width_km=1.0, shadow="correlated",
        csi="ls", code="single", power="optimized", epsilon=0.1, outer=6, inner=100, seed=4)
    assert len(trial_ms) == 6
    assert metrics["deployment.worst_position.calls"] > 0
    assert metrics["deployment.worst_position.grid_points"] > 0
    assert metrics["propagation.shadow_fields.chol_mflop"] > 0


def test_traced_grouping_run_records_one_trial_per_outer_trial(spans, tmp_path, monkeypatch):
    # random_group_sums draws each grouping from its own domain-0 trial_stream
    # call; the fixed layout's domain-1 draws open no trial
    metrics, trial_ms = _traced_run(
        spans, tmp_path, monkeypatch, density=10.0, half_width_km=1.0, shadow="none",
        csi="perfect", code="alamouti", vary="grouping", layout_seed=3,
        terminals=((0.0, 0.0), (0.3, -0.2)), epsilon=0.1, outer=30, inner=1, seed=4)
    assert len(trial_ms) == 30
    assert metrics["harness.run_scenario.calls"] == 1
