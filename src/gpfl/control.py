"""Feedback-linearization control law and its robust term.

The four compared controllers are one law with terms switched on:

    tau = nominal.torque(q, dq, a) [+ GP mean] [+ w(rho)]

with the nominal inverse dynamics M_hat(q) a + n_hat(q, dq) at the commanded
acceleration a = ddq_d + K_P q_err + K_D dq_err.
`nominal` is the bare law on a deliberately crude model, `gp` adds the GP
posterior mean of the mismatch, and `robust_gp` also adds the sliding term w,
sized by the confidence bound rho, with a boundary layer.  `true` is the bare
law on the exact model (`TrueModelNominal`).  The law is a pure function;
per-tick state lives in the simulation loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import gpr

# variant -> (add the GP mean, add the robust term w)
TERMS = {"true": (False, False), "nominal": (False, False),
         "gp": (True, False), "robust_gp": (True, True)}
VARIANTS = tuple(TERMS)

LYAPUNOV_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GainSpec:
    """Scalar PD gains, expanded to K_P = kp*I and K_D = kd*I."""

    kp: float = 50.0
    kd: float = 2.0 * np.sqrt(50.0)

    def __post_init__(self):
        if not (self.kp > 0 and self.kd > 0):
            raise ValueError("kp and kd must be positive")


@dataclass(frozen=True)
class ControllerSpec:
    """One row of the controller table: the variant, what its terms need, and the
    law's values: the weight Q of V = xi^T Q xi (`lyapunov`, from `design_lyapunov`),
    boundary layer `epsilon` and confidence multiplier `beta`."""

    variant: str
    gains: GainSpec
    lyapunov: np.ndarray | None = None
    epsilon: float = 0.5
    gp: gpr.GpModel | None = None
    beta: float = 3.0

    def __post_init__(self):
        if self.variant not in TERMS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not 0.0 <= self.epsilon < np.inf:  # NaN fails it too
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta!r}")
        if self.lyapunov is not None:
            Q = np.asarray(self.lyapunov, dtype=float)
            object.__setattr__(self, "lyapunov", Q)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ValueError("Q must be square")
            if not np.allclose(Q, Q.T, atol=1e-10):
                raise ValueError("Q must be symmetric")
            if np.linalg.eigvalsh(Q).min() <= 0:
                raise ValueError("Q must be positive definite")
        add_mean, add_w = TERMS[self.variant]
        if add_mean and self.gp is None:
            raise ValueError(f"variant {self.variant!r} needs a trained GP")
        if add_w and self.lyapunov is None:
            raise ValueError("robust_gp needs the Lyapunov weight Q")


def error_matrix(gains: GainSpec, n_joints: int) -> np.ndarray:
    """The closed-loop error-dynamics matrix H = [[0, I], [-K_P, -K_D]]."""
    eye = np.eye(n_joints)
    return np.block([[np.zeros_like(eye), eye], [-gains.kp * eye, -gains.kd * eye]])


def design_lyapunov(gains: GainSpec, n_joints: int) -> np.ndarray:
    """Q solving H^T Q + Q H = -I for the closed-loop error dynamics.

    H = [[0, I], [-K_P, -K_D]] is Hurwitz for positive gains, so Q is unique,
    symmetric and positive definite.
    """
    if n_joints < 1:
        raise ValueError("n_joints must be >= 1")
    H = error_matrix(gains, n_joints)
    P = np.eye(2 * n_joints)
    Q = scipy.linalg.solve_continuous_lyapunov(H.T, -P)
    Q = 0.5 * (Q + Q.T)
    residual = np.linalg.norm(H.T @ Q + Q @ H + P)
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise ArithmeticError(f"Lyapunov solve residual {residual:.3e} too large")
    return Q


def gp_query_acceleration(ddq_d, q_err, dq_err, gains: GainSpec) -> np.ndarray:
    """Commanded acceleration a = ddq_d + K_P q_err + K_D dq_err.

    The law feeds it through the nominal inverse dynamics and uses it as the
    acceleration slot of the GP query, since the realized acceleration
    depends on the torque still being computed.
    """
    return (np.asarray(ddq_d, dtype=float)
            + gains.kp * np.asarray(q_err, dtype=float)
            + gains.kd * np.asarray(dq_err, dtype=float))


def control(spec: ControllerSpec, nominal, q: np.ndarray, dq: np.ndarray,
            desired) -> np.ndarray:
    """tau = nominal.torque(q, dq, a) [+ GP mean] [+ w], with the terms `spec` turns on.

    w = rho * z / ||z|| outside the boundary layer ||z|| >= epsilon and
    rho * z / epsilon inside it, with z = M_hat(q)^{-1} D^T Q xi.
    """
    add_mean, add_w = TERMS[spec.variant]
    qd, dqd, ddqd = desired
    q_err = np.asarray(qd, dtype=float) - q
    dq_err = np.asarray(dqd, dtype=float) - dq
    a = gp_query_acceleration(ddqd, q_err, dq_err, spec.gains)
    tau = nominal.torque(q, dq, a)
    if not add_mean:
        return tau

    mean, variance = gpr.predict(spec.gp, np.concatenate([q, dq, a]))
    tau = tau + mean
    if not add_w:
        return tau

    rho, _ = gpr.rho_from_mean_var(mean, variance, spec.beta)
    if not np.isfinite(rho):
        raise FloatingPointError("rho bound is non-finite")
    n = len(q_err)
    xi = np.concatenate([q_err, dq_err])
    z = nominal.apply_inverse(q, spec.lyapunov[n:, :] @ xi)
    z_norm = float(np.linalg.norm(z))
    if z_norm >= spec.epsilon and z_norm > 0.0:
        w = rho * z / z_norm
    elif spec.epsilon > 0.0:
        w = rho * z / spec.epsilon
    else:
        w = np.zeros(n)
    return tau + w
