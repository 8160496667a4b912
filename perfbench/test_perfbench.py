"""Self-tests of the benchmark at a tiny size (2 s runs).

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced per evaluation seed; the
tests check that every metric named in BENCHMARK.json is produced with its
unit, and that the traced counts equal their analytic values exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

DURATION = 2.0
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CONTROLLERS = {"sweep": 4, "true_400hz": 1, "gp_n250": 2}
RATE_HZ = {"sweep": 100.0, "true_400hz": 400.0, "gp_n250": 100.0}


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_metrics_and_analytic_counts(workload):
    plain, traced, seeds = run.collect(workload, 7, 0.0, True, duration=DURATION)
    assert len(plain) == len(traced) == len(seeds) == run.WORKLOADS[workload].eval_seeds

    medians, _ = run.end_to_end(plain)
    assert set(medians) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in medians.values())
    metrics = run.layers(plain, traced)
    assert set(metrics) == set(PER_LAYER_UNITS)

    ticks_per_run = int(round(DURATION * RATE_HZ[workload]))
    controllers = CONTROLLERS[workload]
    for rep in plain + traced:
        assert rep["ticks"] == controllers * ticks_per_run
    for rep in traced:
        layer = rep["layers"]
        assert layer["trajectory.evaluate.calls"] == controllers * ticks_per_run
        assert layer["dynamics.substeps"] == controllers * ticks_per_run * 10
        gp_runs = {"sweep": 2, "true_400hz": 0, "gp_n250": 2}[workload]
        assert layer["gpr.predict.calls"] == gp_runs * ticks_per_run
        assert layer["harness.run_tracking.calls"] == controllers
        assert layer["dynamics.simulate.calls"] == controllers
        assert sum(layer[f"control.tick.calls.{v}"] for v in run.VARIANTS) \
            == controllers * ticks_per_run
        if workload == "sweep":
            # trace + 2 plot-data files per run, dataset, model, 2 summaries
            assert layer["harness.write.files"] == controllers * 3 + 4
            assert layer["harness.write.bytes"] > 0
        else:
            assert layer["harness.write.files"] == 0
        if workload == "true_400hz":
            assert layer["gpr.stable_cholesky.calls"] == 0
        else:
            assert layer["gpr.cholesky_attempts_per_factor"] >= 1.0
            assert layer["gpr.n_train"] == {"sweep": 4, "gp_n250": 10}[workload]

    attempted, failed, _, table = run.check_runs(workload, plain + traced, seeds)
    assert attempted == 2 * len(seeds) * controllers
    assert len(table) == controllers


def _rep(runs):
    return {"runs": [list(r) for r in runs]}


def test_checks_count_failures():
    good = [("true", 1, "ok", 0.2), ("nominal", 1, "ok", 50.0),
            ("gp", 1, "ok", 30.0), ("robust_gp", 1, "ok", 10.0)]
    assert run.check_runs("sweep", [_rep(good)], [1])[:2] == (4, 0)
    # robust_gp above half of gp breaks the sweep check for every run
    weak = good[:3] + [("robust_gp", 1, "ok", 16.0)]
    assert run.check_runs("sweep", [_rep(weak)], [1])[:2] == (4, 4)
    # a changed RMSE between repetitions is a failure of that run
    drift = good[:3] + [("robust_gp", 1, "ok", 10.0 + 1e-12)]
    assert run.check_runs("sweep", [_rep(good), _rep(drift)], [1])[:2] == (8, 1)
    aborted = [("true", 1, "aborted@3: x", None)]
    assert run.check_runs("true_400hz", [_rep(aborted)], [1])[:2] == (1, 1)
    assert run.check_runs("true_400hz", [_rep([("true", 1, "ok", 5.5)])], [1])[:2] == (1, 1)
    assert run.check_runs("gp_n250", [_rep([("gp", 1, "ok", 9.0),
                                            ("robust_gp", 1, "ok", 9.5)])], [1])[:2] == (2, 2)


def test_end_to_end_reports_medians_as_timed():
    def rep(wall, setup, tracking, ticks=1000):
        return {"wall_s": wall, "setup_s": setup, "tracking_s": tracking, "ticks": ticks,
                "peak_rss_mb": 90.0 + wall}

    # the middle repetition has one slow stretch; it counts in full
    reps = [rep(3.0, 1.0, 2.0), rep(5.0, 1.2, 3.5), rep(3.2, 0.9, 2.5)]
    medians, per_rep = run.end_to_end(reps)
    assert per_rep["ticks_per_s"] == pytest.approx([500.0, 1000 / 3.5, 400.0])
    assert medians == pytest.approx({"wall_s": 3.2, "setup_s": 1.0, "ticks_per_s": 400.0,
                                     "peak_rss_mb": 93.2})
    layer = {name: 1.0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    traced = [dict(r, wall_s=r["wall_s"] + extra, layers=layer)
              for r, extra in zip(reps, (0.5, -0.25, 0.75))]
    assert run.layers(reps, traced)["trace.overhead_s"] == pytest.approx(0.5)


def test_eval_seeds_deterministic_and_disjoint_from_training():
    for workload in run.WORKLOADS:
        seeds = run.eval_seeds_for(workload, 3)
        assert seeds == run.eval_seeds_for(workload, 3)
        assert run.TRAINING_SEED not in seeds
        assert len(set(seeds)) == len(seeds)


def test_fails_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for path in BENCHMARK["paths"]:
        shutil.copytree(HERE.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([*BENCHMARK["command"], "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
