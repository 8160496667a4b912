"""Acceptance suite: one test per advertised behavior of the toolkit.

Each test prints a single line with the measured quantities next to the
thresholds, so a -rA or failing run shows the numbers, not just the verdict.
The default-config sweep is shared through the session fixture.
"""

import dataclasses

import numpy as np
import pytest

from gpfl.cli import main
from gpfl.config import ExperimentConfig, save_config
from gpfl.control import ControllerSpec, control, gp_query_acceleration
from gpfl.dynamics import coriolis, gravity, inertia, simulate, total_energy
from gpfl.gpr import (GpDataset, SeKernelParams, load_dataset_csv,
                      load_model_txt, max_information_gain, model_from_params,
                      predict, se_kernel)
from gpfl.harness import run_tracking
from oracles import (TwoLinkOracle, finite_difference_inertia_rate,
                     gp_posterior_dense, info_gain_exhaustive)


def _robust_runs(summary):
    return [r for r in summary.results if r.controller == "robust_gp"]


def test_criterion_1_controller_ordering_and_separation(experiment):
    config, summary, _, elapsed = experiment
    mean = {name: st.mean_rmse_deg for name, st in summary.stats.items()}
    assert all(r.status == "ok" for r in summary.results)
    print(f"criterion 1: rmse true={mean['true']:.3f} robust_gp={mean['robust_gp']:.3f} "
          f"gp={mean['gp']:.3f} nominal={mean['nominal']:.3f} deg, "
          f"robust/gp={mean['robust_gp'] / mean['gp']:.3f} (<0.5), "
          f"sweep took {elapsed:.0f}s (<300s)")
    assert mean["true"] < mean["robust_gp"] < mean["gp"] < mean["nominal"]
    assert mean["robust_gp"] < 0.5 * mean["gp"]
    assert mean["gp"] < mean["nominal"]
    assert elapsed < 300.0


def test_criterion_2_true_model_floor_and_rate_scaling(experiment):
    config, summary, _, _ = experiment
    means = {100.0: summary.stats["true"].mean_rmse_deg}
    for rate in (200.0, 400.0):
        faster = dataclasses.replace(config, control_rate=rate)
        vals = [run_tracking(faster, "true", seed).rmse_avg_deg
                for seed in config.eval_seeds]
        means[rate] = float(np.mean(vals))
    print(f"criterion 2: rmse(true) at 100/200/400 Hz = "
          f"{means[100.0]:.4f}/{means[200.0]:.4f}/{means[400.0]:.4f} deg (<5, decreasing)")
    assert means[100.0] < 5.0
    assert means[100.0] > means[200.0] > means[400.0]


def test_criterion_3_gpr_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        noise_std = float(rng.uniform(0.05, 0.5))
        X = rng.uniform(-2.0, 2.0, size=(n, 6))
        Y = np.column_stack([np.sin(X @ rng.normal(size=6)),
                             np.cos(X @ rng.normal(size=6))])
        ds = GpDataset(inputs=X, targets=Y, noise_std=noise_std)
        params = [SeKernelParams(lam=float(rng.uniform(0.3, 3.0)),
                                 lengthscales=rng.uniform(0.4, 3.0, 6))
                  for _ in range(2)]
        model = model_from_params(ds, params)
        for _ in range(5):
            x_star = rng.uniform(-2.5, 2.5, 6)
            mean, var = predict(model, x_star)
            for i in range(2):
                m_ref, v_ref = gp_posterior_dense(
                    X, Y[:, i], x_star, params[i].lam, params[i].lengthscales,
                    noise_std ** 2, jitter=model.jitters[i])
                worst = max(worst, abs(mean[i] - m_ref), abs(var[i] - v_ref))
    print(f"criterion 3: worst |impl - dense oracle| = {worst:.3e} (<1e-8)")
    assert worst < 1e-8


def test_criterion_4_lyapunov_decrease_on_qualifying_ticks(experiment):
    config, summary, _, _ = experiment
    total = qualified = passed = 0
    for result in _robust_runs(summary):
        d = result.diagnostics
        total += len(d["V"])
        residual = np.linalg.norm(d["etrue"] - d["ehat"], axis=1)
        qualifies = ((d["z_norm"] >= config.epsilon) & (d["rho"] > residual))[:-1]
        qualified += int(qualifies.sum())
        passed += int((d["V"][1:] < d["V"][:-1])[qualifies].sum())
    pass_rate = passed / qualified if qualified else 1.0
    print(f"criterion 4: {qualified}/{total} ticks qualify (||z||>=eps and rho valid); "
          f"dV<0 on {pass_rate:.4f} of qualifying ticks (>=0.99)")
    assert pass_rate >= 0.99


def test_criterion_5_rho_validity_rate(experiment):
    config, summary, _, _ = experiment
    assert config.noise_std == 0.0
    per_seed = []
    valid = total = 0
    for result in _robust_runs(summary):
        d = result.diagnostics
        ok = int((d["rho"] >= np.linalg.norm(d["etrue"] - d["ehat"], axis=1)).sum())
        per_seed.append(ok / len(d["rho"]))
        valid += ok
        total += len(d["rho"])
    rate = valid / total
    print(f"criterion 5: rho >= ||e - e_hat|| on {rate:.4f} of {total} ticks "
          f"(>=0.95), per-seed min {min(per_seed):.4f}")
    assert rate >= 0.95


def test_criterion_6_dynamics_oracles(experiment):
    config, _, _, _ = experiment
    model = config.make_model()
    oracle = TwoLinkOracle(model.masses, model.lengths, model.com_offsets,
                           model.inertias, model.gravity)
    rng = np.random.default_rng(7)
    worst_eom = worst_skew = 0.0
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        dq = rng.uniform(-2.0, 2.0, 2)
        worst_eom = max(
            worst_eom,
            np.abs(inertia(model, q) - oracle.inertia(q)).max(),
            np.abs(gravity(model, q) - oracle.gravity(q)).max(),
            np.abs(coriolis(model, q, dq) @ dq - oracle.coriolis_torque(q, dq)).max())
        m_dot = finite_difference_inertia_rate(lambda qq: inertia(model, qq), q, dq)
        skew = m_dot - 2.0 * coriolis(model, q, dq)
        worst_skew = max(worst_skew, np.abs(skew + skew.T).max())

    q0, dq0 = np.array([0.4, 0.9]), np.array([1.0, -0.5])
    e0 = total_energy(model, q0, dq0)
    trace = simulate(model, lambda k, t, q, dq: np.zeros(2), q0, dq0, duration=10.0,
                     control_rate=100.0)
    e1 = total_energy(model, trace.final_q, trace.final_dq)
    drift = abs(e1 - e0) / abs(e0)
    print(f"criterion 6: worst EOM dev {worst_eom:.2e} (<1e-8), "
          f"skew residual {worst_skew:.2e} (<1e-6), energy drift {drift:.2e} (<1e-4)")
    assert worst_eom < 1e-8
    assert worst_skew < 1e-6
    assert drift < 1e-4


def test_criterion_7_prior_recovery_far_from_data(experiment):
    config, _, out, _ = experiment
    dataset = load_dataset_csv(out / "gp_dataset.csv")
    params, _ = load_model_txt(out / "gp_model.txt")
    gp = model_from_params(dataset, params)

    step = np.max([p.lengthscales for p in params], axis=0)
    x_far = dataset.inputs.max(axis=0) + 10.5 * step
    scaled_gap = min(np.linalg.norm((x_far - row) / p.lengthscales)
                     for p in params for row in dataset.inputs)
    assert scaled_gap >= 10.0

    mean, var = predict(gp, x_far)
    lam = np.array([p.lam for p in params])
    mean_norm = float(np.linalg.norm(mean))
    var_gap = float(np.abs(var - lam).max())

    model = config.make_model()
    nominal = config.make_nominal(model)
    gains = config.make_gains()
    q, dq = x_far[:2], x_far[2:4]
    desired = (x_far[:2].copy(), x_far[2:4].copy(), x_far[4:6].copy())
    a = gp_query_acceleration(desired[2], np.zeros(2), np.zeros(2), gains)
    np.testing.assert_array_equal(a, x_far[4:6])
    tau_gp = control(ControllerSpec("gp", gains, gp=gp), nominal, q, dq, desired)
    tau_nominal = control(ControllerSpec("nominal", gains), nominal, q, dq, desired)
    tau_gap = np.abs(tau_gp - tau_nominal).max()
    print(f"criterion 7: at {scaled_gap:.1f} lengthscales out, ||mean||={mean_norm:.2e} "
          f"(<1e-6*sqrt(lam)), |var-lam|max={var_gap:.2e} (<1e-6), "
          f"|tau_gp-tau_nominal|={tau_gap:.2e} (<1e-9)")
    assert mean_norm < 1e-6 * np.sqrt(lam.min())
    assert var_gap < 1e-6
    assert tau_gap < 1e-9


def test_criterion_8_experiment_reproducibility(tmp_path):
    config = ExperimentConfig(duration=10.0, eval_seeds=(0, 1),
                              out_dir=str(tmp_path / "unused"))
    config_path = tmp_path / "config.txt"
    save_config(config, config_path)
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["experiment", "--config", str(config_path),
                     "--out", str(out)]) == 0
        digests.append((out / "summary.csv").read_bytes())
    print(f"criterion 8: summary.csv byte-identical across runs: "
          f"{digests[0] == digests[1]} ({len(digests[0])} bytes)")
    assert digests[0] == digests[1]


def test_criterion_9_greedy_information_gain_near_optimal():
    rng = np.random.default_rng(99)
    floor = 1.0 - 1.0 / np.e
    worst_ratio = np.inf
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(3, 9))
        params = SeKernelParams(lam=float(rng.uniform(0.5, 2.5)),
                                lengthscales=rng.uniform(0.4, 2.5, dim))
        noise_bound = float(rng.uniform(0.2, 1.0))
        candidates = rng.uniform(-2.0, 2.0, size=(n, dim))
        greedy = max_information_gain(candidates, params, noise_bound, budget=3)
        best = info_gain_exhaustive(candidates,
                                    lambda a, b: se_kernel(a, b, params),
                                    noise_bound ** 2, budget=3)
        worst_ratio = min(worst_ratio, greedy / best)
        assert greedy >= floor * best - 1e-9
    print(f"criterion 9: min greedy/exhaustive ratio {worst_ratio:.4f} "
          f"(>= 1-1/e = {floor:.4f}) over 50 trials")
