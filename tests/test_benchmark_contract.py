"""The benchmark uses gpfl names and config fields; keep them there.

`perfbench/tracer.py` and `perfbench/run.py` are read from their files, never
changed.  The tracer patches gpfl attributes by name, and every workload
builds an `ExperimentConfig` from its overrides.  A refactor that renames or
drops one of those names or fields would make the benchmark fail, so these
tests name the break in the suite instead.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from gpfl import dynamics, gpr, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _workload_overrides() -> dict:
    """`WORKLOADS` from perfbench/run.py as name -> config overrides.

    Only that one assignment is evaluated, so importing the script (which
    extends sys.path) is avoided.
    """
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "WORKLOADS" for t in n.targets))
    expr = compile(ast.Expression(node.value), str(PERFBENCH / "run.py"), "eval")
    return eval(expr, {"Workload": lambda eval_seeds, config: config})


WORKLOAD_OVERRIDES = _workload_overrides()


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


@pytest.fixture(scope="module")
def small_gp():
    config = harness.ExperimentConfig(duration=1.0, downsample=5, gp_n_starts=1,
                                      eval_seeds=(0,))
    gp, _, _ = harness.train_gp(config)
    return gp


@pytest.mark.parametrize("variant", ["gp", "robust_gp"])
def test_gp_run_predicts_once_per_tick(monkeypatch, small_gp, variant):
    # perfbench/test_perfbench.py expects gpr.predict.calls == runs * ticks
    calls = []
    real_predict = gpr.predict

    def counting(*args, **kwargs):
        calls.append(None)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(gpr, "predict", counting)
    config = harness.ExperimentConfig(duration=0.2, eval_seeds=(0,))
    result = harness.run_tracking(config, variant, 0, gp=small_gp)
    assert result.status == "ok"
    assert result.trace.n_ticks == 20
    assert len(calls) == 20


@pytest.mark.parametrize("workload", sorted(WORKLOAD_OVERRIDES))
def test_workload_overrides_build_a_config(workload):
    # as perfbench/workload.py's make_config does
    config = harness.ExperimentConfig(eval_seeds=(1,), out_dir="results",
                                      **WORKLOAD_OVERRIDES[workload])
    model = config.make_model()
    config.make_nominal(model)
    config.make_gains()
