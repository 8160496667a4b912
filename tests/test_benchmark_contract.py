"""The benchmark's tracer patches gpfl attributes by name; keep them there.

`perfbench/tracer.py` is loaded read-only from its file.  A refactor that
renames or drops one of the names it wraps would make `--trace 1` fail, so
this test names the break in the suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

from gpfl import dynamics, gpr, harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_spans_exist(tracer):
    missing = [name for name in tracer.HARNESS_SPANS if not hasattr(harness, name)]
    assert not missing


def test_gpr_spans_exist(tracer):
    missing = [name for name in tracer.GPR_SPANS if not hasattr(gpr, name)]
    assert not missing


def test_separately_wrapped_names_exist():
    assert callable(harness.fit)
    assert callable(harness.build_tick_controller)
    assert callable(dynamics._rk4_step)


def test_tick_controller_takes_variant_first():
    config = harness.ExperimentConfig(duration=0.05, eval_seeds=(0,))
    model = config.make_model()
    spec = harness.sample_spec(0, model.n_joints, config.n_sinusoids,
                               config.omega_min, config.omega_max)
    for variant in ("true", "nominal"):
        tick = harness.build_tick_controller(variant, model, config.make_nominal(model),
                                             config.make_gains(), spec)
        assert callable(tick)
