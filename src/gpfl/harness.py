"""Experiment orchestration: training, tracking runs, RMSE tables, artifacts.

Reproduces the tracking comparison: train the mismatch GP once on the
training-seed trajectory, run every (evaluation seed, controller) pair for
the configured duration, and emit trace CSVs, plot-ready series and a
summary table.  All writers use `textio`'s 17-significant-digit floats so
identical configs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import gpr
from .config import ExperimentConfig
from .control import (LYAPUNOV_RESIDUAL_TOL, TERMS, ControllerSpec, GainSpec,
                      control, design_lyapunov, error_matrix, gp_query_acceleration)
from .dynamics import (ManipulatorModel, RunTrace, SimulationAborted, coriolis,
                       forward_dynamics, inertia, inverse_dynamics, simulate,
                       total_energy)
# mismatch_target is not called here; perfbench/tracer.py patches it by this name
from .gpr import (GpDataset, SeKernelParams, default_init_params, fit,
                  mismatch_target, mismatch_targets, model_from_params, predict)
from .textio import FLOAT, write_table
from .trajectory import (ReferenceTrajectory, build_training_set, evaluate,
                         sample_reference, sample_spec)


@dataclass
class RunResult:
    """One (controller, seed) tracking run with its trace and RMSE.

    `diagnostics` holds a finished robust run's `robust_record`; it is None
    for the other variants and for an aborted run.
    """

    controller: str
    seed: int
    trace: RunTrace | None
    reference: ReferenceTrajectory
    diagnostics: dict | None
    rmse_joints_deg: np.ndarray | None
    rmse_avg_deg: float | None
    status: str


@dataclass
class ControllerStats:
    mean_rmse_deg: float
    std_rmse_deg: float
    n_ok: int
    n_failed: int


@dataclass
class RunSummary:
    """All per-run rows plus per-controller mean/std aggregates."""

    results: list
    stats: dict


def train_gp(config: ExperimentConfig, model: ManipulatorModel | None = None,
             nominal=None):
    """Build the mismatch dataset from the training trajectory and fit the GP."""
    model = config.make_model() if model is None else model
    nominal = config.make_nominal(model) if nominal is None else nominal
    spec = sample_spec(config.training_seed, model.n_joints, config.n_sinusoids,
                       config.omega_min, config.omega_max)
    dataset = build_training_set(model, nominal, spec, config.duration,
                                 config.control_rate, config.downsample,
                                 config.noise_std)
    gp = fit(dataset, default_init_params(dataset), n_starts=config.gp_n_starts,
             max_iter=config.gp_max_iter, seed=config.gp_fit_seed)
    return gp, dataset, spec


def build_tick_controller(variant: str, model: ManipulatorModel, nominal,
                          gains: GainSpec, spec, gp=None,
                          lyapunov: np.ndarray | None = None, beta=ControllerSpec.beta,
                          epsilon=ControllerSpec.epsilon):
    """The law as the (k, t, q, dq) -> torque callable simulate expects; `true`
    is the law on the exact model."""
    law = ControllerSpec(variant, gains, lyapunov, epsilon, gp, beta)
    if variant == "true":
        nominal = model
    return lambda k, t, q, dq: control(law, nominal, q, dq, evaluate(spec, t))


def robust_record(law: ControllerSpec, model: ManipulatorModel, nominal, q, dq,
                  desired) -> dict:
    """The robust law's per-tick values, rebuilt after the run from (T, n) state
    rows q, dq and reference rows `desired` = (q_d, dq_d, ddq_d): rho, the GP
    mean `ehat` and variance `evar` at the query (q, dq, a), the true mismatch
    `etrue` there, V = xi^T Q xi and ||z||, keyed like the trace-CSV columns.
    The law's formulas run on all rows at once and `nominal` sees one state at
    a time, so the values are the ticks' up to rounding."""
    qd, dqd, ddqd = desired
    n = q.shape[1]
    xi = np.concatenate([qd - q, dqd - dq], axis=1)
    a = gp_query_acceleration(ddqd, xi[:, :n], xi[:, n:], law.gains)
    ehat, evar = gpr.predict_rows(law.gp, np.concatenate([q, dq, a], axis=1))
    Q = law.lyapunov
    z = np.fromiter((nominal.apply_inverse(*s) for s in zip(q, xi @ Q[n:, :].T)),
                    np.dtype((float, n)), len(q))
    return {"rho": gpr.rho_from_mean_var(ehat, evar, law.beta)[0], "ehat": ehat,
            "evar": evar, "etrue": mismatch_targets(model, nominal, q, dq, a),
            "V": np.sum((xi @ Q) * xi, axis=1), "z_norm": np.linalg.norm(z, axis=1)}


def run_tracking(config: ExperimentConfig, controller: str, seed: int,
                 model: ManipulatorModel | None = None, nominal=None,
                 gp=None, lyapunov: np.ndarray | None = None) -> RunResult:
    """Simulate one (controller, seed) pair from the on-reference initial state."""
    # the pair obeys the config's rules: a known controller, a seed off the training one
    config = replace(config, controllers=(controller,), eval_seeds=(seed,))
    model = config.make_model() if model is None else model
    nominal = config.make_nominal(model) if nominal is None else nominal
    gains = config.make_gains()
    add_mean, add_w = TERMS[controller]
    if add_mean and gp is None:
        gp, _, _ = train_gp(config, model, nominal)
    if add_w and lyapunov is None:
        lyapunov = design_lyapunov(gains, model.n_joints)
    spec = sample_spec(seed, model.n_joints, config.n_sinusoids,
                       config.omega_min, config.omega_max)
    ref = sample_reference(spec, config.duration, config.control_rate)
    tick = build_tick_controller(controller, model, nominal, gains, spec,
                                 gp=gp, lyapunov=lyapunov, beta=config.beta,
                                 epsilon=config.epsilon)
    try:
        trace = simulate(model, tick, ref.q[0] + config.initial_offset_q,
                         ref.dq[0] + config.initial_offset_dq, config.duration,
                         config.control_rate, config.integrator_substeps)
    except SimulationAborted as exc:
        return RunResult(controller, seed, None, ref, None, None, None,
                         f"aborted@{exc.tick}: {exc.reason}")
    diagnostics = None
    if add_w:
        law = ControllerSpec(controller, gains, lyapunov, config.epsilon, gp, config.beta)
        diagnostics = robust_record(law, model, nominal, trace.q, trace.dq,
                                    (ref.q, ref.dq, ref.ddq))
    rmse_joints, rmse_avg = compute_rmse(trace, ref)
    return RunResult(controller, seed, trace, ref, diagnostics, rmse_joints,
                     rmse_avg, "ok")


def compute_rmse(trace: RunTrace, reference: ReferenceTrajectory):
    """Per-joint and joint-averaged RMS tracking error in degrees."""
    if trace.q.shape != reference.q.shape:
        raise ValueError("trace and reference are not on the same tick grid")
    err_deg = np.degrees(reference.q - trace.q)
    per_joint = np.sqrt(np.mean(err_deg ** 2, axis=0))
    return per_joint, float(per_joint.mean())


def summarize(results: list, controllers) -> RunSummary:
    stats = {}
    for name in controllers:
        vals = [r.rmse_avg_deg for r in results
                if r.controller == name and r.status == "ok"]
        n_failed = sum(1 for r in results
                       if r.controller == name and r.status != "ok")
        mean = std = float("nan")
        if vals:
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        stats[name] = ControllerStats(mean, std, len(vals), n_failed)
    return RunSummary(results=results, stats=stats)


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunSummary:
    """Full sweep: train once, run every seed x controller, write artifacts."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = config.make_model()
    nominal = config.make_nominal(model)
    gp = None
    if any(TERMS[name][0] for name in config.controllers):  # a law adds the GP mean
        gp, _, _ = train_gp(config, model, nominal)
        write_gp_files(out, gp)

    results = []
    for seed in config.eval_seeds:
        for controller in config.controllers:
            result = run_tracking(config, controller, seed, model=model,
                                  nominal=nominal, gp=gp)
            results.append(result)
            if result.trace is not None:
                write_trace_csv(out, result)
                write_plotdata(out, result)
    summary = summarize(results, config.controllers)
    write_summary_csv(out / "summary.csv", summary)
    write_summary_txt(out / "summary.txt", summary)
    return summary


def write_gp_files(out_dir, gp) -> tuple:
    """Write the GP's dataset and model files into `out_dir`; returns both paths."""
    dataset_path, model_path = Path(out_dir) / "gp_dataset.csv", Path(out_dir) / "gp_model.txt"
    gpr.save_dataset_csv(gp.dataset, dataset_path)
    gpr.save_model_txt(gp, model_path, dataset_ref=dataset_path.name)
    return dataset_path, model_path


def write_trace_csv(out_dir, result: RunResult) -> Path:
    """Per-tick trace into `out_dir`, named for its run; returns its path.  The
    GP/robust columns are nan for the other variants."""
    path = Path(out_dir) / f"trace_{result.controller}_{result.seed}.csv"
    trace, ref = result.trace, result.reference
    n, n_j = trace.q.shape
    diagnostics = result.diagnostics
    if diagnostics is None:
        nan, nan_j = np.full(n, np.nan), np.full((n, n_j), np.nan)
        diagnostics = dict(rho=nan, ehat=nan_j, evar=nan_j, etrue=nan_j, V=nan, z_norm=nan)
    series = {"q": trace.q, "dq": trace.dq, "qd": ref.q, "qe": ref.q - trace.q,
              "dqe": ref.dq - trace.dq, "tau": trace.tau, **diagnostics}
    names = ["t"]
    for name, arr in series.items():
        names.extend([name] if arr.ndim == 1 else [f"{name}{j + 1}" for j in range(n_j)])
    write_table(path, names, [trace.times, *series.values()])
    return path


def write_plotdata(out_dir, result: RunResult) -> None:
    """Per-joint position/error/torque series (one file per joint)."""
    plot_dir = Path(out_dir) / f"plotdata_{result.seed}"
    plot_dir.mkdir(parents=True, exist_ok=True)
    trace, ref = result.trace, result.reference
    for j in range(trace.q.shape[1]):
        abs_err_deg = np.degrees(np.abs(ref.q[:, j] - trace.q[:, j]))
        write_table(plot_dir / f"{result.controller}_joint{j + 1}.csv",
                    ["t", "q_rad", "qd_rad", "abs_err_deg", "tau_Nm"],
                    [trace.times, trace.q[:, j], ref.q[:, j], abs_err_deg,
                     trace.tau[:, j]])


def write_summary_csv(path, summary: RunSummary) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("controller,seed,rmse_j1_deg,rmse_j2_deg,rmse_avg_deg,status\n")
        for r in summary.results:
            if r.status == "ok":
                fields = [r.controller, str(r.seed), FLOAT % r.rmse_joints_deg[0],
                          FLOAT % r.rmse_joints_deg[1], FLOAT % r.rmse_avg_deg, "ok"]
            else:
                fields = [r.controller, str(r.seed), "nan", "nan", "nan",
                          r.status.replace(",", ";")]
            fh.write(",".join(fields) + "\n")


def summary_text(summary: RunSummary) -> str:
    """Mean +/- std table over the evaluation seeds, a FAILED line per aborted run."""
    lines = [f"{'controller':<12}{'rmse_deg (mean +/- std)':>28}{'runs':>10}"]
    for name, st in summary.stats.items():
        runs = f"{st.n_ok}/{st.n_ok + st.n_failed}"
        lines.append(f"{name:<12}{st.mean_rmse_deg:>16.3f} +/- {st.std_rmse_deg:<8.3f}{runs:>9}")
    lines.extend(f"FAILED {r.controller} seed {r.seed}: {r.status}"
                 for r in summary.results if r.status != "ok")
    return "\n".join(lines) + "\n"


def write_summary_txt(path, summary: RunSummary) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(summary_text(summary))


def validate(config: ExperimentConfig | None = None, seed: int = 0,
             n_states: int = 100) -> list:
    """Self-contained invariant suites; returns (name, passed, detail) tuples.

    Covers the dynamics consistency oracles, the GP posterior against a dense
    numpy inversion, the Lyapunov design residual, and trajectory derivative
    consistency.
    """
    config = config if config is not None else ExperimentConfig()
    model = config.make_model()
    rng = np.random.default_rng(seed)
    checks = []

    # dynamics: inertia symmetric positive definite
    worst_asym = 0.0
    min_eig = np.inf
    for _ in range(n_states):
        q = rng.uniform(-np.pi, np.pi, size=2)
        M = inertia(model, q)
        worst_asym = max(worst_asym, float(np.abs(M - M.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(M).min()))
    checks.append(("inertia_spd", worst_asym < 1e-12 and min_eig > 0,
                   f"max asymmetry {worst_asym:.2e}, min eig {min_eig:.3e}"))

    # dynamics: forward then inverse dynamics round trip
    worst = 0.0
    for _ in range(n_states):
        q = rng.uniform(-np.pi, np.pi, size=2)
        dq = rng.uniform(-2, 2, size=2)
        ddq = rng.uniform(-5, 5, size=2)
        tau = inverse_dynamics(model, q, dq, ddq)
        ddq_back = forward_dynamics(model, q, dq, tau)
        worst = max(worst, float(np.abs(ddq_back - ddq).max()))
    checks.append(("forward_inverse_roundtrip", worst < 1e-9,
                   f"max residual {worst:.2e}"))

    # dynamics: skew-symmetry of dM/dt - 2C via finite differences
    worst = 0.0
    h = 1e-6
    for _ in range(n_states):
        q = rng.uniform(-np.pi, np.pi, size=2)
        dq = rng.uniform(-2, 2, size=2)
        m_dot = (inertia(model, q + h * dq) - inertia(model, q - h * dq)) / (2 * h)
        S = m_dot - 2.0 * coriolis(model, q, dq)
        worst = max(worst, float(np.abs(S + S.T).max()))
    checks.append(("skew_symmetry", worst < 1e-6, f"max residual {worst:.2e}"))

    # dynamics: torque-free energy conservation
    q0, dq0 = np.array([0.4, 0.9]), np.array([1.0, -0.5])
    e0 = total_energy(model, q0, dq0)
    trace = simulate(model, lambda k, t, q, dq: np.zeros(2), q0, dq0, 10.0,
                     config.control_rate, config.integrator_substeps)
    e1 = total_energy(model, trace.final_q, trace.final_dq)
    drift = abs(e1 - e0) / max(abs(e0), 1e-9)
    checks.append(("energy_drift", drift < 1e-4, f"relative drift {drift:.2e}"))

    # GPR: posterior against a dense numpy inversion
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(5, 30))
        X = rng.uniform(-2, 2, size=(n, 6))
        y = rng.normal(size=(n, 2))
        ds = GpDataset(inputs=X, targets=y, noise_std=0.3)
        params = [SeKernelParams(lam=float(rng.uniform(0.5, 2.0)),
                                 lengthscales=rng.uniform(0.8, 2.5, size=6))
                  for _ in range(2)]
        gp_model = model_from_params(ds, params)
        for _ in range(4):
            x_star = rng.uniform(-2, 2, size=6)
            mean, var = predict(gp_model, x_star)
            for i, p in enumerate(params):
                K = gpr.kernel_matrix(X, p)
                A = K + (ds.noise_std ** 2 + gp_model.jitters[i]) * np.eye(n)
                k_star = np.array([gpr.se_kernel(x_star, xr, p) for xr in X])
                mean_ref = k_star @ np.linalg.solve(A, y[:, i])
                var_ref = p.lam - k_star @ np.linalg.solve(A, k_star)
                worst = max(worst, abs(mean[i] - mean_ref), abs(var[i] - var_ref))
    checks.append(("gp_dense_oracle", worst < 1e-8, f"max deviation {worst:.2e}"))

    # Lyapunov design residual and positive definiteness; design_lyapunov
    # raises above the residual tolerance, and that is this suite's FAIL
    worst, min_eig, errors = 0.0, np.inf, []
    for kp, kd in ((config.kp, config.kd), (10.0, 5.0), (1.0, 1.0)):
        gains = GainSpec(kp=kp, kd=kd)
        try:
            Q = design_lyapunov(gains, 2)
        except ArithmeticError as exc:
            errors.append(f"kp={kp:g}, kd={kd:g}: {exc}")
            continue
        H = error_matrix(gains, 2)
        worst = max(worst, float(np.linalg.norm(H.T @ Q + Q @ H + np.eye(4))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(Q).min()))
    checks.append(("lyapunov_residual",
                   not errors and worst < LYAPUNOV_RESIDUAL_TOL and min_eig > 0,
                   "; ".join(errors) or f"max residual {worst:.2e}, min eig {min_eig:.3e}"))

    # trajectory: analytic derivatives against central differences
    spec = sample_spec(config.training_seed, 2, config.n_sinusoids,
                       config.omega_min, config.omega_max)
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        t = float(rng.uniform(0.0, config.duration))
        qm, _, _ = evaluate(spec, t - h)
        qp, _, _ = evaluate(spec, t + h)
        _, dq_ref, _ = evaluate(spec, t)
        worst = max(worst, float(np.abs((qp - qm) / (2 * h) - dq_ref).max()))
    checks.append(("trajectory_derivatives", worst < 1e-6,
                   f"max residual {worst:.2e}"))

    return checks
