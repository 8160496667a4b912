import numpy as np
import pytest

from gpfl.cli import main
from gpfl.config import ExperimentConfig, save_config


def _write_config(tmp_path, **overrides):
    defaults = dict(duration=2.0, eval_seeds=(0,), controllers=("true",),
                    out_dir=str(tmp_path / "results"))
    defaults.update(overrides)
    path = tmp_path / "config.txt"
    save_config(ExperimentConfig(**defaults), path)
    return str(path)


class TestValidateCommand:
    def test_exit_zero_and_report(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "invariant suites passed" in out
        assert "FAIL" not in out

    def test_seed_flag_accepted(self):
        assert main(["validate", "--seed", "3"]) == 0

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["validate", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gpfl: --seed must be >= 0, got -1\n"

    def test_out_flag_rejected_by_parser(self, tmp_path):
        # validate writes nothing, so an --out it would ignore is an error
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--out", str(tmp_path / "results")])
        assert exc.value.code == 2
        assert not (tmp_path / "results").exists()


class TestRunCommand:
    def test_writes_trace(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", "--config", config, "--seed", "0",
                     "--controller", "true"]) == 0
        out = capsys.readouterr().out
        assert "rmse per joint" in out
        assert (tmp_path / "results" / "trace_true_0.csv").is_file()

    def test_out_flag_overrides_config(self, tmp_path):
        config = _write_config(tmp_path)
        override = tmp_path / "other"
        assert main(["run", "--config", config, "--controller", "true",
                     "--out", str(override)]) == 0
        assert (override / "trace_true_0.csv").is_file()

    @pytest.mark.parametrize("seed", ["1000", "-1"])
    def test_seed_obeys_the_config_seed_rules(self, tmp_path, capsys, seed):
        # 1000 is the training seed; --seed is the run's one evaluation seed
        config = _write_config(tmp_path)
        assert main(["run", "--config", config, "--controller", "true",
                     "--seed", seed]) == 1
        assert capsys.readouterr().err.startswith("gpfl: bad config: ")
        assert not (tmp_path / "results").exists()

    def test_unknown_controller_rejected_by_parser(self, tmp_path):
        config = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", config, "--controller", "pid"])
        assert exc.value.code == 2


class TestTrainCommand:
    def test_writes_dataset_model_and_config(self, tmp_path, capsys):
        config = _write_config(tmp_path, duration=5.0)
        assert main(["train", "--config", config]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "gp_dataset.csv").is_file()
        assert (out_dir / "gp_model.txt").is_file()
        assert (out_dir / "config.txt").is_file()
        out = capsys.readouterr().out
        assert "trained GP on 10 samples" in out

    @pytest.mark.parametrize("line", [
        "gp_n_starts = 0", "training_seed = -1", "eval_seeds = 0,-1",
        "gp_max_iter = 0", "gp_max_iter = -1", "gp_fit_seed = -1", "eval_seeds = 3,3",
        # checked by the factories the config builds its parts with
        "beta = -1", "epsilon = -1", "kp = 0", "kd = -1", "nominal_scale = 0",
        "m1 = 0", "l2 = -1", "r1 = 0", "i2 = -0.1",
        # round(0.004 * 100) = 0 control ticks; 50 * 1e308 overflows
        "duration = 0.004", "control_rate = 1e308"])
    def test_bad_config_rejected_before_any_output(self, tmp_path, capsys, line):
        path = tmp_path / "config.txt"
        out = tmp_path / "results"
        path.write_text(f"{line}\nout_dir = {out}\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "gpfl: bad config" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommand:
    def test_full_sweep(self, tmp_path, capsys):
        config = _write_config(tmp_path, controllers=("true", "nominal"))
        assert main(["experiment", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "controller" in out
        assert "true" in out and "nominal" in out
        out_dir = tmp_path / "results"
        assert (out_dir / "summary.csv").is_file()
        assert out.startswith((out_dir / "summary.txt").read_text())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_runs_flip_exit_code(self, tmp_path, capsys):
        config = _write_config(tmp_path, duration=1.0, kp=1e12,
                               initial_offset_q=0.01,
                               controllers=("nominal",))
        assert main(["experiment", "--config", config]) == 1
        assert "FAILED nominal seed 0" in capsys.readouterr().out

    def test_singular_inertia_aborts_runs_not_the_sweep(self, tmp_path, capsys):
        # a massless link 1 and point-mass links, started folded back: the
        # factorization of M(q) fails in the first RK4 substep of every run
        config = _write_config(tmp_path, m1=1e-30, i1=0.0, i2=0.0,
                               initial_offset_q=np.pi, duration=1.0,
                               controllers=("true", "nominal"), eval_seeds=(0, 1))
        assert main(["experiment", "--config", config]) == 1
        out = capsys.readouterr().out
        reason = ("aborted@0: integration raised NotPositiveDefiniteError: "
                  "inertia matrix is not positive definite")
        for seed in (0, 1):
            for controller in ("true", "nominal"):
                assert f"FAILED {controller} seed {seed}: {reason}" in out
        rows = (tmp_path / "results" / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(f",nan,nan,nan,{reason}") for row in rows)


class TestBadInvocations:
    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/does/not/exist.txt"]) == 1
        assert "bad config" in capsys.readouterr().err

    def test_invalid_config_contents(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("bogus_key = 1\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "bad config" in capsys.readouterr().err

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "gpfl", "validate"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "invariant suites passed" in proc.stdout
