import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gpfl
from gpfl import gpr, harness
from gpfl.cli import main
from gpfl.config import ExperimentConfig, load_config, save_config
from gpfl.control import VARIANTS, ControllerSpec, GainSpec, design_lyapunov
from gpfl.dynamics import ManipulatorModel, RunTrace, ScaledIdentityNominal
from gpfl.harness import (ControllerStats, RunResult, compute_rmse,
                          run_experiment, run_tracking, summarize, train_gp,
                          validate)
from gpfl.trajectory import (ReferenceTrajectory, build_training_set, sample_reference,
                             sample_spec)
from oracles import tick_record_reference


def _make_trace(q, times=None):
    q = np.asarray(q, dtype=float)
    times = np.arange(len(q)) / 100.0 if times is None else times
    return RunTrace(times=times, q=q, dq=np.zeros_like(q), tau=np.zeros_like(q),
                    final_q=q[-1], final_dq=np.zeros(q.shape[1]))


def _make_reference(q, times=None):
    q = np.asarray(q, dtype=float)
    times = np.arange(len(q)) / 100.0 if times is None else times
    return ReferenceTrajectory(times=times, q=q, dq=np.zeros_like(q),
                               ddq=np.zeros_like(q))


def _result(controller, seed, rmse, status="ok"):
    return RunResult(controller=controller, seed=seed, trace=None,
                     reference=None, diagnostics=None,
                     rmse_joints_deg=None if rmse is None else np.full(2, rmse),
                     rmse_avg_deg=rmse, status=status)


class TestComputeRmse:
    def test_zero_error(self):
        q = np.random.default_rng(0).normal(size=(50, 2))
        per_joint, avg = compute_rmse(_make_trace(q), _make_reference(q))
        np.testing.assert_array_equal(per_joint, np.zeros(2))
        assert avg == 0.0

    def test_constant_one_degree_offset(self):
        q = np.zeros((40, 2))
        ref = _make_reference(q + np.radians(1.0))
        per_joint, avg = compute_rmse(_make_trace(q), ref)
        np.testing.assert_allclose(per_joint, [1.0, 1.0], rtol=1e-12)
        assert avg == pytest.approx(1.0, rel=1e-12)

    def test_sinusoidal_error_rms(self):
        t = np.arange(4000) / 100.0
        amp = np.radians(2.0)
        err = amp * np.sin(2.0 * np.pi * 0.5 * t)
        q_ref = np.column_stack([err, np.zeros_like(t)])
        per_joint, _ = compute_rmse(_make_trace(np.zeros_like(q_ref), times=t),
                                    _make_reference(q_ref, times=t))
        assert per_joint[0] == pytest.approx(2.0 / np.sqrt(2.0), rel=0.01)
        assert per_joint[1] == 0.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_rmse(_make_trace(np.zeros((10, 2))),
                         _make_reference(np.zeros((11, 2))))


class TestSummarize:
    def test_aggregates(self):
        results = [_result("a", 0, 1.0), _result("a", 1, 3.0),
                   _result("b", 0, 5.0), _result("b", 1, None, "aborted@3: x"),
                   _result("c", 0, None, "aborted@0: y")]
        summary = summarize(results, ("a", "b", "c"))
        assert summary.stats["a"] == ControllerStats(2.0, pytest.approx(np.sqrt(2.0)), 2, 0)
        assert summary.stats["b"].mean_rmse_deg == 5.0
        assert summary.stats["b"].std_rmse_deg == 0.0
        assert summary.stats["b"].n_ok == 1
        assert summary.stats["b"].n_failed == 1
        assert np.isnan(summary.stats["c"].mean_rmse_deg)
        assert summary.stats["c"].n_failed == 1


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(kp=80.0, eval_seeds=(3, 4), duration=12.5,
                                  controllers=("true", "gp"), noise_std=0.05,
                                  out_dir="elsewhere")
        path = tmp_path / "config.txt"
        save_config(config, path)
        loaded = load_config(path)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(config)

    def test_default_config_round_trip(self, tmp_path):
        path = tmp_path / "config.txt"
        save_config(ExperimentConfig(), path)
        assert dataclasses.asdict(load_config(path)) == dataclasses.asdict(ExperimentConfig())

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("not_a_field = 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("kp = 10\n# gains\nkp = 20\n")
        with pytest.raises(ValueError, match=f"{path}:3: duplicate key 'kp'"):
            load_config(path)

    @pytest.mark.parametrize("line", ["kp = abc", "eval_seeds = 1,x", "gp_n_starts = 2.5"])
    def test_malformed_value_names_the_line(self, tmp_path, line):
        path = tmp_path / "config.txt"
        path.write_text(f"# gains\n{line}\n")
        key, _, raw = line.partition(" = ")
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:2: bad value for {key!r}: {raw!r}"

    def test_removed_keys_rejected(self, tmp_path):
        for key in ("delta", "nominal_kind", "gp_init_lam", "gp_init_lengthscale",
                    "rho_scaling"):
            path = tmp_path / "config.txt"
            path.write_text(f"{key} = 0.1\n")
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                load_config(path)

    @pytest.mark.parametrize("key", ["m1", "kd", "beta", "epsilon", "integrator_substeps"])
    def test_rejected_value_names_the_file(self, tmp_path, key):
        # epsilon may be 0 (a pure sliding term), so it gets a negative value
        value = {"epsilon": -1.0, "integrator_substeps": 0}.get(key, 0.0)
        path = tmp_path / "config.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError) as direct:
            ExperimentConfig(**{key: value})
        with pytest.raises(ValueError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: {direct.value}"

    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.kp = 10.0

    def test_law_defaults_have_one_owner(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        tick_defaults = inspect.signature(harness.build_tick_controller).parameters
        assert defaults["kp"] is GainSpec.kp and defaults["kd"] is GainSpec.kd
        assert defaults["controllers"] is VARIANTS
        for name in ("epsilon", "beta"):
            assert defaults[name] is getattr(ControllerSpec, name)
            assert tick_defaults[name].default is getattr(ControllerSpec, name)
        model_fields = {"masses": ("m1", "m2"), "lengths": ("l1", "l2"),
                        "com_offsets": ("r1", "r2"), "inertias": ("i1", "i2")}
        for field, names in model_fields.items():
            for name, value in zip(names, getattr(ManipulatorModel, field)):
                assert defaults[name] is value
        assert defaults["gravity"] is ManipulatorModel.gravity
        assert defaults["nominal_scale"] is ScaledIdentityNominal.scale
        # the protocol's training-set values are the config's alone
        data_defaults = inspect.signature(build_training_set).parameters
        for name in ("duration", "control_rate", "downsample"):
            assert data_defaults[name].default is inspect.Parameter.empty

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.txt")

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(training_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(controllers=("pid",))
        with pytest.raises(ValueError):
            ExperimentConfig(duration=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(eval_seeds=())
        with pytest.raises(ValueError, match="eval_seeds must not repeat"):
            ExperimentConfig(eval_seeds=(3, 3), controllers=("nominal",))
        with pytest.raises(ValueError, match="controllers must not repeat"):
            ExperimentConfig(controllers=("gp", "true", "gp"))

    @pytest.mark.parametrize("field, value", [("eval_seeds", (0, -1)),
                                              ("training_seed", -1)])
    def test_negative_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("eval_seeds", (0.9, 2.7)), ("eval_seeds", (0, 1.0)), ("gp_n_starts", 2.5),
        ("integrator_substeps", 2.5), ("downsample", 2.5), ("n_sinusoids", 2.5),
        ("gp_max_iter", 3.5), ("training_seed", 1000.5), ("gp_fit_seed", 1.0)])
    def test_non_integer_rejected(self, field, value):
        # int() would silently truncate these; files and CLI flags parse ints
        # already, so this is the ExperimentConfig(...) / replace() path
        with pytest.raises(ValueError, match=f"{field} takes integers only"):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ExperimentConfig(), **{field: value})

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(eval_seeds=np.arange(2), gp_n_starts=np.int32(2))
        assert config.eval_seeds == (0, 1) and type(config.eval_seeds[0]) is int
        assert config.gp_n_starts == 2 and type(config.gp_n_starts) is int

    @pytest.mark.parametrize("value", [0, -1])
    def test_gp_n_starts_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="gp_n_starts"):
            ExperimentConfig(gp_n_starts=value)

    @pytest.mark.parametrize("overrides, message", [
        ({"omega_min": 1.0, "omega_max": 0.5}, "omega_min must be strictly below omega_max"),
        ({"n_sinusoids": 0}, "n_sinusoids must be >= 1")])
    def test_reference_band_and_count_rejected(self, overrides, message):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**overrides)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [
        "m1", "m2", "l1", "l2", "r1", "r2", "i1", "i2", "gravity",
        "nominal_scale", "kp", "kd", "epsilon", "beta", "noise_std",
        "omega_min", "omega_max",
        "duration", "control_rate", "initial_offset_q", "initial_offset_dq"])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})


@pytest.fixture(scope="module")
def small_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    config = ExperimentConfig(duration=5.0, eval_seeds=(0, 1), out_dir=str(out))
    summary = run_experiment(config)
    return config, summary, out


@pytest.mark.parametrize("controller, seed", [("bogus", 0), ("true", 1000), ("true", -1)])
def test_run_tracking_obeys_the_config_rules(controller, seed):
    # 1000 is the training seed, which no evaluation run may reuse
    config = ExperimentConfig(duration=0.05)
    assert config.training_seed == 1000
    with pytest.raises(ValueError):
        run_tracking(config, controller, seed)


def test_run_starts_on_its_reference_plus_the_initial_offsets():
    config = ExperimentConfig(duration=0.05, n_sinusoids=3, initial_offset_q=0.1,
                              initial_offset_dq=-0.2)
    result = run_tracking(config, "nominal", 0)
    ref = result.reference
    spec = sample_spec(0, 2, config.n_sinusoids, config.omega_min, config.omega_max)
    np.testing.assert_array_equal(ref.q, sample_reference(spec, config.duration,
                                                          config.control_rate).q)
    np.testing.assert_array_equal(result.trace.q[0], ref.q[0] + 0.1)
    np.testing.assert_array_equal(result.trace.dq[0], ref.dq[0] - 0.2)


class TestRunExperiment:
    def test_all_runs_ok(self, small_experiment):
        config, summary, _ = small_experiment
        assert len(summary.results) == len(config.eval_seeds) * len(config.controllers)
        assert all(r.status == "ok" for r in summary.results)
        for st in summary.stats.values():
            assert st.n_failed == 0
            assert np.isfinite(st.mean_rmse_deg)

    def test_artifact_files_exist(self, small_experiment):
        config, _, out = small_experiment
        assert (out / "summary.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "gp_dataset.csv").is_file()
        assert (out / "gp_model.txt").is_file()
        for seed in config.eval_seeds:
            for controller in config.controllers:
                assert (out / f"trace_{controller}_{seed}.csv").is_file()
                for j in (1, 2):
                    assert (out / f"plotdata_{seed}"
                            / f"{controller}_joint{j}.csv").is_file()

    def test_summary_csv_shape(self, small_experiment):
        config, _, out = small_experiment
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "controller,seed,rmse_j1_deg,rmse_j2_deg,rmse_avg_deg,status"
        assert len(lines) == 1 + len(config.eval_seeds) * len(config.controllers)
        for line in lines[1:]:
            assert line.split(",")[-1] == "ok"

    def test_trace_csv_values_finite(self, small_experiment):
        config, _, out = small_experiment
        path = out / "trace_robust_gp_0.csv"
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        for col in ("rho", "V", "z_norm"):
            assert col in header
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert data.shape[0] == int(config.duration * config.control_rate)
        assert np.isfinite(data).all()

    def test_nonrobust_trace_has_nan_rho(self, small_experiment):
        _, _, out = small_experiment
        lines = (out / "trace_true_0.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("rho")
        first = lines[1].split(",")
        assert first[idx] == "nan"
        # every variant's trace has the robust run's columns, in its order
        robust = (out / "trace_robust_gp_0.csv").read_text().split("\n", 1)[0]
        assert lines[0] == robust

    def test_plotdata_error_column(self, small_experiment):
        _, summary, out = small_experiment
        result = next(r for r in summary.results
                      if r.controller == "true" and r.seed == 0)
        path = out / "plotdata_0" / "true_joint1.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,q_rad,qd_rad,abs_err_deg,tau_Nm"
        k = 5
        row = [float(v) for v in lines[1 + k].split(",")]
        expected = abs(np.degrees(result.reference.q[k, 0] - result.trace.q[k, 0]))
        assert row[3] == pytest.approx(expected, rel=1e-12)

    def test_robust_diagnostics_round_trip_through_trace_csv(self, small_experiment):
        config, summary, out = small_experiment
        result = next(r for r in summary.results
                      if r.controller == "robust_gp" and r.seed == 0)
        n_ticks = result.trace.n_ticks
        lines = (out / "trace_robust_gp_0.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        for name, arr in result.diagnostics.items():
            assert arr.shape[0] == n_ticks
            assert np.isfinite(arr).all()
            cols = ([header.index(name)] if arr.ndim == 1 else
                    [header.index(f"{name}{j + 1}") for j in range(arr.shape[1])])
            np.testing.assert_array_equal(data[:, cols].reshape(arr.shape), arr)

    def test_gp_stats_beat_nominal(self, small_experiment):
        _, summary, _ = small_experiment
        assert summary.stats["gp"].mean_rmse_deg < summary.stats["nominal"].mean_rmse_deg


class TestAbortHandling:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_gains_abort_gracefully(self, tmp_path):
        config = ExperimentConfig(duration=1.0, eval_seeds=(0,),
                                  controllers=("nominal",), kp=1e12,
                                  initial_offset_q=0.01, out_dir=str(tmp_path))
        summary = run_experiment(config)
        result = summary.results[0]
        assert result.status.startswith("aborted@")
        assert result.trace is None
        assert result.rmse_avg_deg is None
        stats = summary.stats["nominal"]
        assert stats.n_failed == 1
        assert stats.n_ok == 0
        assert np.isnan(stats.mean_rmse_deg)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[2] == "nan"
        assert fields[-1].startswith("aborted@")
        assert "FAILED" in (tmp_path / "summary.txt").read_text()

    def test_controller_error_aborts_one_run_not_the_sweep(self, tmp_path, monkeypatch):
        law = harness.control

        def failing(spec, *args):
            if spec.variant == "nominal":
                raise FloatingPointError("posterior variance below the clamp")
            return law(spec, *args)

        monkeypatch.setattr(harness, "control", failing)
        config = ExperimentConfig(duration=0.5, eval_seeds=(0,),
                                  controllers=("true", "nominal"),
                                  out_dir=str(tmp_path))
        summary = run_experiment(config)
        status = {r.controller: r.status for r in summary.results}
        assert status["true"] == "ok"
        assert status["nominal"].startswith("aborted@0: ")
        assert "FloatingPointError" in status["nominal"]

    def test_non_finite_gp_query_aborts_one_run_not_the_sweep(self, tmp_path, monkeypatch):
        bad_tick = 7
        real_predict = gpr.predict
        calls = []

        def corrupting(model, x):
            # only the gp run queries the GP, so the call count is its tick
            calls.append(None)
            if len(calls) == bad_tick + 1:
                x = np.full_like(x, np.nan)
            return real_predict(model, x)

        monkeypatch.setattr(gpr, "predict", corrupting)
        config = ExperimentConfig(duration=1.0, downsample=5, gp_n_starts=1,
                                  eval_seeds=(0,), controllers=("true", "gp"),
                                  out_dir=str(tmp_path))
        summary = run_experiment(config)
        status = {r.controller: r.status for r in summary.results}
        assert status["true"] == "ok"
        assert status["gp"].startswith(f"aborted@{bad_tick}: ")
        assert "FloatingPointError" in status["gp"]
        assert (tmp_path / "summary.csv").is_file()


class TestRobustRecord:
    """`robust_record`, rebuilt after the run, against the per-tick reference."""

    # (rtol, atol) per column; etrue is bit-equal
    TOLERANCES = {"rho": (1e-6, 1e-8), "ehat": (1e-6, 1e-8), "evar": (1e-6, 1e-8),
                  "V": (1e-12, 1e-14), "z_norm": (1e-12, 1e-14)}

    @pytest.fixture(scope="class")
    def small_gp(self):
        config = ExperimentConfig(duration=1.0, downsample=5, gp_n_starts=1,
                                  eval_seeds=(0,))
        gp, _, _ = train_gp(config)
        return gp

    @pytest.mark.parametrize("overrides", [{}, {"initial_offset_q": 0.8, "epsilon": 0.05}])
    def test_matches_the_per_tick_reference(self, small_gp, overrides):
        config = ExperimentConfig(duration=2.0, eval_seeds=(0,), **overrides)
        result = run_tracking(config, "robust_gp", 0, gp=small_gp)
        assert result.status == "ok"
        model = config.make_model()
        gains = config.make_gains()
        law = ControllerSpec("robust_gp", gains, design_lyapunov(gains, model.n_joints),
                             config.epsilon, small_gp, config.beta)
        spec = sample_spec(0, model.n_joints, config.n_sinusoids,
                           config.omega_min, config.omega_max)
        expected = tick_record_reference(law, model, config.make_nominal(model), spec,
                                         result.trace)
        record = result.diagnostics
        assert list(record) == list(expected)
        np.testing.assert_array_equal(record["etrue"], expected["etrue"])
        for name, (rtol, atol) in self.TOLERANCES.items():
            assert record[name].shape == expected[name].shape
            np.testing.assert_allclose(record[name], expected[name], rtol=rtol, atol=atol)
        # the offset start leaves the boundary layer, where the law's other branch runs
        assert (record["z_norm"] >= config.epsilon).any() == bool(overrides)

    def test_exact_nominal_records_zero_mismatch(self, small_gp):
        # the model is a nominal that maps one state; a robust run on it ends ok
        config = ExperimentConfig(duration=0.5, eval_seeds=(0,))
        model = config.make_model()
        result = run_tracking(config, "robust_gp", 0, nominal=model, gp=small_gp)
        assert result.status == "ok"
        record = result.diagnostics
        np.testing.assert_array_equal(record["etrue"], np.zeros((50, 2)))
        gains = config.make_gains()
        law = ControllerSpec("robust_gp", gains, design_lyapunov(gains, model.n_joints),
                             config.epsilon, small_gp, config.beta)
        spec = sample_spec(0, model.n_joints, config.n_sinusoids,
                           config.omega_min, config.omega_max)
        expected = tick_record_reference(law, model, model, spec, result.trace)
        for name, (rtol, atol) in self.TOLERANCES.items():
            np.testing.assert_allclose(record[name], expected[name], rtol=rtol, atol=atol)

    def test_aborted_run_has_no_record(self, small_gp, monkeypatch):
        bad_tick = 7
        real_predict = gpr.predict
        calls = []

        def corrupting(model, x):
            calls.append(None)
            if len(calls) == bad_tick + 1:
                x = np.full_like(x, np.nan)
            return real_predict(model, x)

        monkeypatch.setattr(gpr, "predict", corrupting)
        config = ExperimentConfig(duration=1.0, eval_seeds=(0,))
        result = run_tracking(config, "robust_gp", 0, gp=small_gp)
        assert result.status.startswith(f"aborted@{bad_tick}: ")
        assert result.trace is None
        assert result.diagnostics is None


class TestLyapunovDecreaseMechanism:
    def test_robust_term_drains_v_during_transient(self):
        config = ExperimentConfig(duration=10.0, initial_offset_q=0.8,
                                  epsilon=0.05, eval_seeds=(0,),
                                  controllers=("robust_gp",))
        model = config.make_model()
        nominal = config.make_nominal(model)
        gp, _, _ = train_gp(config, model, nominal)
        result = run_tracking(config, "robust_gp", 0, model=model,
                              nominal=nominal, gp=gp)
        assert result.status == "ok"
        times = result.trace.times
        v = result.diagnostics["V"]
        early = (result.diagnostics["z_norm"][:-1] >= config.epsilon) & (times[:-1] <= 1.0)
        assert early.sum() > 30
        frac_dec = np.mean(v[1:][early] < v[:-1][early])
        assert frac_dec > 0.6
        v2 = v[np.flatnonzero(np.abs(times - 2.0) < 1e-9)[0]]
        assert v2 < 0.6 * v[0]


class TestValidate:
    def test_all_suites_pass(self):
        checks = validate(seed=0, n_states=50)
        names = [name for name, _, _ in checks]
        assert "inertia_spd" in names
        assert "gp_dense_oracle" in names
        assert "lyapunov_residual" in names
        for name, passed, detail in checks:
            assert passed, f"{name}: {detail}"

    def test_failed_lyapunov_solve_is_a_fail_row(self, monkeypatch, capsys):
        # a solve that returns a wrong Q: design_lyapunov's residual check raises
        monkeypatch.setattr("scipy.linalg.solve_continuous_lyapunov",
                            lambda a, q: np.eye(len(a)))
        checks = validate(seed=0, n_states=5)
        rows = {name: (passed, detail) for name, passed, detail in checks}
        passed, detail = rows.pop("lyapunov_residual")
        assert not passed
        assert "kp=1, kd=1: Lyapunov solve residual" in detail
        assert len(rows) == 6 and all(ok for ok, _ in rows.values())
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  lyapunov_residual" in out
        assert "6/7 invariant suites passed" in out


def test_runs_that_never_fit_do_not_load_scipy_optimize():
    # a fresh interpreter: this one has loaded scipy.optimize long ago
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import gpfl
        config = gpfl.ExperimentConfig(duration=0.5)
        assert gpfl.run_tracking(config, "true", 0).status == "ok"
        print("scipy.optimize" in sys.modules)
        rng = np.random.default_rng(0)
        ds = gpfl.GpDataset(inputs=rng.normal(size=(10, 2)),
                            targets=rng.normal(size=(10, 1)), noise_std=0.1)
        model = gpfl.fit(ds, gpfl.SeKernelParams(lam=1.0, lengthscales=[1.0, 1.0]),
                         n_starts=2, max_iter=5)
        print("scipy.optimize" in sys.modules, model.n_outputs)
    """)
    src = str(Path(gpfl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "1"]
