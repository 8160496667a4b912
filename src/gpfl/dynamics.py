"""Rigid-body dynamics of a planar two-link revolute arm.

The arm moves in a vertical plane.  Joint angles are measured from the
positive x axis: q[0] is the absolute angle of link 1 and q[1] is the angle
of link 2 relative to link 1.  Gravity acts along -y, so q = [-pi/2, 0] is
the arm hanging straight down and q = [0, 0] is fully horizontal.

The equations of motion are

    M(q) ddq + C(q, dq) dq + g(q) = tau

with C built from the Christoffel symbols of M, which makes dM/dt - 2C
skew-symmetric.  All functions here are pure; `simulate` advances the
continuous dynamics with fixed-step RK4 under zero-order-hold torque.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

_cos, _sin = math.cos, math.sin  # bound once: `_accel` runs 40 times per control tick


class NotPositiveDefiniteError(ArithmeticError):
    """An inertia-style matrix is not positive definite; a run that hits it aborts."""


class SimulationAborted(RuntimeError):
    """A control run produced a non-finite torque or state, or a singular M(q).

    Carries the zero-based index of the control tick at which the run died.
    """

    def __init__(self, tick: int, reason: str):
        super().__init__(f"simulation aborted at tick {tick}: {reason}")
        self.tick = tick
        self.reason = reason


@dataclass(frozen=True)
class ManipulatorModel:
    """Physical parameters of the two-link arm.

    masses, lengths, com_offsets and inertias are per-link; com_offsets are
    measured from the proximal joint along the link, inertias are about the
    link's center of mass.  gravity is the gravitational acceleration (m/s^2).
    The model is also the exact nominal model, the one the `true` controller
    runs on: `torque` is its inverse dynamics and `apply_inverse` solves M(q).
    """

    masses: tuple[float, float] = (3.0, 3.0)
    lengths: tuple[float, float] = (1.0, 1.0)
    com_offsets: tuple[float, float] = (0.5, 0.5)
    inertias: tuple[float, float] = (0.25, 0.25)
    gravity: float = 9.81

    def __post_init__(self):
        for name in ("masses", "lengths", "com_offsets", "inertias"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "gravity", float(self.gravity))
        n = len(self.masses)
        if not (len(self.lengths) == len(self.com_offsets) == len(self.inertias) == n):
            raise ValueError("per-link parameter lists must have equal length")
        if n != 2:
            raise ValueError("closed-form dynamics are implemented for 2 joints")
        # chained comparisons reject NaN and +-inf together
        if not all(0.0 < v < math.inf for v in self.masses + self.lengths + self.com_offsets):
            raise ValueError("masses, lengths and COM offsets must be positive and finite")
        if not all(0.0 <= v < math.inf for v in self.inertias):
            raise ValueError("rotational inertias must be nonnegative and finite")
        if not math.isfinite(self.gravity):
            raise ValueError("gravity must be finite")

    @property
    def n_joints(self) -> int:
        return len(self.masses)

    @cached_property
    def _coeffs(self) -> tuple[float, ...]:
        # Constant pieces of M, C and g; only cos/sin of q2 vary at runtime.
        m1, m2 = self.masses
        l1, _ = self.lengths
        r1, r2 = self.com_offsets
        i1, i2 = self.inertias
        a = m1 * r1 * r1 + i1 + m2 * (l1 * l1 + r2 * r2) + i2  # M11 constant
        b = m2 * l1 * r2                                        # cos/sin coupling
        c = m2 * r2 * r2 + i2                                   # M22 and M12 constant
        g1 = (m1 * r1 + m2 * l1) * self.gravity
        g2 = m2 * r2 * self.gravity
        return a, b, c, g1, g2

    def torque(self, q, dq, ddq) -> np.ndarray:
        return inverse_dynamics(self, q, dq, ddq)

    def apply_inverse(self, q, v) -> np.ndarray:
        return np.linalg.solve(inertia(self, q), np.asarray(v, dtype=float))


@dataclass(frozen=True)
class ScaledIdentityNominal:
    """Deliberately crude nominal model: M_hat = scale * I, n_hat = 0.

    A nominal model maps one state: `torque(q, dq, ddq)` is its inverse
    dynamics M_hat(q) ddq + n_hat(q, dq) and `apply_inverse(q, v)` is
    M_hat(q)^{-1} v.  `ManipulatorModel` is the exact one.
    """

    n_joints: int = 2
    scale: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError("nominal inertia scale must be positive and finite")

    def torque(self, q, dq, ddq) -> np.ndarray:
        return self.scale * np.asarray(ddq, dtype=float)

    def apply_inverse(self, q, v) -> np.ndarray:
        return np.asarray(v, dtype=float) / self.scale


def inertia(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite inertia matrix M(q)."""
    q = np.asarray(q, dtype=float)
    _check_dim(model, q)
    a, b, c, _, _ = model._coeffs
    c2 = math.cos(q[1])
    m11 = a + 2.0 * b * c2
    m12 = c + b * c2
    return np.array([[m11, m12], [m12, c]])


def coriolis(model: ManipulatorModel, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Coriolis/centrifugal matrix C(q, dq) in Christoffel form."""
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    _check_dim(model, q)
    _check_dim(model, dq)
    _, b, _, _, _ = model._coeffs
    h = b * math.sin(q[1])
    return np.array([[-h * dq[1], -h * (dq[0] + dq[1])],
                     [h * dq[0], 0.0]])


def gravity(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Gravity torque g(q), the gradient of the potential energy."""
    q = np.asarray(q, dtype=float)
    _check_dim(model, q)
    _, _, _, g1, g2 = model._coeffs
    c12 = math.cos(q[0] + q[1])
    return np.array([g1 * math.cos(q[0]) + g2 * c12, g2 * c12])


def inverse_dynamics(model: ManipulatorModel, q, dq, ddq) -> np.ndarray:
    """Torque realizing the motion (q, dq, ddq): M ddq + C dq + g.

    Computed on Python floats from the same closed-form terms as `_accel`;
    `inertia`, `coriolis` and `gravity` are the matrix forms of those terms.
    """
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    ddq = np.asarray(ddq, dtype=float)
    _check_dim(model, q)
    _check_dim(model, dq)
    _check_dim(model, ddq)
    q1, q2 = q.tolist()
    dq1, dq2 = dq.tolist()
    ddq1, ddq2 = ddq.tolist()
    a, b, c, g1c, g2c = model._coeffs
    c2 = math.cos(q2)
    h = b * math.sin(q2)
    m11 = a + 2.0 * b * c2
    m12 = c + b * c2
    g12 = g2c * math.cos(q1 + q2)
    # C(q, dq) dq = [-h (2 dq1 dq2 + dq2^2), h dq1^2]
    return np.array([m11 * ddq1 + m12 * ddq2 - h * (2.0 * dq1 * dq2 + dq2 * dq2)
                     + g1c * math.cos(q1) + g12,
                     m12 * ddq1 + c * ddq2 + h * dq1 * dq1 + g12])


def forward_dynamics(model: ManipulatorModel, q, dq, tau) -> np.ndarray:
    """Joint accelerations from applied torque: M(q) ddq = r solved in closed form,
    after M(q) is checked positive definite."""
    return np.array(_accel(model, *_finite_floats(model, q, "q"),
                           *_finite_floats(model, dq, "dq"),
                           *_finite_floats(model, tau, "torque")))


def total_energy(model: ManipulatorModel, q, dq) -> float:
    """Kinetic 0.5 dq^T M(q) dq plus the potential g1 sin q1 + g2 sin(q1 + q2),
    zero with both COMs at y = 0, whose gradient `gravity` returns."""
    dq = np.asarray(dq, dtype=float)
    _, _, _, g1, g2 = model._coeffs
    return 0.5 * dq @ inertia(model, q) @ dq + g1 * math.sin(q[0]) + g2 * math.sin(q[0] + q[1])


def tick_count(duration: float, rate: float) -> int:
    """Number of control ticks, round(duration * rate); an empty grid is an error."""
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be positive")
    ticks = duration * rate
    if not math.isfinite(ticks):
        raise ValueError(f"duration * rate = {duration!r} * {rate!r} is not finite")
    n = round(ticks)
    if n < 1:
        raise ValueError(f"duration * rate = {duration!r} * {rate!r} rounds to "
                         f"{n} control ticks; need at least 1")
    return n


def tick_times(duration: float, rate: float) -> np.ndarray:
    """Control-tick start times t_k = k / rate, k = 0 .. tick_count(duration, rate) - 1."""
    return np.arange(tick_count(duration, rate)) / rate


def _check_dim(model: ManipulatorModel, v: np.ndarray) -> None:
    if v.shape != (model.n_joints,):
        raise ValueError(f"expected vector of length {model.n_joints}, got shape {v.shape}")


def _finite_floats(model: ManipulatorModel, v, name: str) -> list[float]:
    """v's entries as Python floats, after its shape and their finiteness are checked."""
    v = np.asarray(v, dtype=float)
    _check_dim(model, v)
    values = v.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} entries must be finite")
    return values


def _accel(model: ManipulatorModel, q1: float, q2: float, dq1: float, dq2: float,
           tau1: float, tau2: float) -> tuple[float, float]:
    # The single dynamics kernel, on Python floats: simulate's RK4 calls it
    # four times per substep and forward_dynamics wraps it for arrays.
    a, b, c, g1c, g2c = model._coeffs
    c2 = _cos(q2)
    h = b * _sin(q2)

    m11 = a + 2.0 * b * c2
    m12 = c + b * c2
    g12 = g2c * _cos(q1 + q2)
    r1 = tau1 + h * dq2 * (2.0 * dq1 + dq2) - g1c * _cos(q1) - g12
    r2 = tau2 - h * dq1 * dq1 - g12

    # M(q) = [[m11, m12], [m12, c]] solved by its closed-form inverse.  A
    # symmetric 2x2 matrix is positive definite iff its leading minors m11
    # and det are positive; a NaN passes both tests and is left to
    # simulate's finiteness check.
    det = m11 * c - m12 * m12
    if m11 <= 0.0 or det <= 0.0:
        raise NotPositiveDefiniteError("inertia matrix is not positive definite")
    return (c * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det


@dataclass
class RunTrace:
    """Per-tick record of a simulated control run.

    `times[k]` is the start of tick k; `q`, `dq` are the state at that instant
    and `tau` the torque held over [times[k], times[k] + 1/rate).
    `final_q`, `final_dq` are the state after the last tick's integration.
    """

    times: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    tau: np.ndarray
    final_q: np.ndarray
    final_dq: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.times)


def simulate(model: ManipulatorModel,
             controller: Callable[[int, float, np.ndarray, np.ndarray], np.ndarray],
             q0, dq0,
             duration: float,
             control_rate: float,
             integrator_substeps: int = 10) -> RunTrace:
    """Run a zero-order-hold control loop over fixed-step RK4 dynamics.

    The controller is invoked once per tick at `control_rate` Hz as
    `controller(k, t, q, dq)`, where q and dq are rows k of the trace arrays
    (written before the call and never again), and its torque is held
    constant while the continuous dynamics are advanced with
    `integrator_substeps` RK4 steps per tick.  Raises SimulationAborted with
    the offending tick index if the controller raises an ArithmeticError or
    returns a non-finite torque, or if the state leaves the finite range or
    reaches a singular inertia matrix.
    """
    times = tick_times(duration, control_rate)
    if integrator_substeps < 1:
        raise ValueError("integrator_substeps must be >= 1")
    # the state lives in four floats; the arrays only record it per tick
    q1, q2 = _finite_floats(model, q0, "q")
    dq1, dq2 = _finite_floats(model, dq0, "dq")

    n = model.n_joints
    n_ticks = len(times)
    h = (1.0 / control_rate) / integrator_substeps

    qs = np.empty((n_ticks, n))
    dqs = np.empty((n_ticks, n))
    taus = np.empty((n_ticks, n))
    isfinite = math.isfinite

    for k in range(n_ticks):
        qs[k] = q1, q2
        dqs[k] = dq1, dq2
        try:
            tau = np.asarray(controller(k, times[k], qs[k], dqs[k]), dtype=float)
        except ArithmeticError as exc:
            raise SimulationAborted(k, f"controller raised {type(exc).__name__}: {exc}") from exc
        if tau.shape != (n,):
            raise SimulationAborted(k, f"controller returned a torque of shape {tau.shape}")
        tau1, tau2 = tau.tolist()
        if not (isfinite(tau1) and isfinite(tau2)):
            raise SimulationAborted(k, "controller returned a non-finite torque")
        taus[k] = tau1, tau2
        try:
            for _ in range(integrator_substeps):
                q1, q2, dq1, dq2 = _rk4_step(model, q1, q2, dq1, dq2, tau1, tau2, h)
        except (ValueError, ArithmeticError) as exc:
            # trig/arithmetic on an overflowed state, or a singular M(q)
            raise SimulationAborted(k, f"integration raised {type(exc).__name__}: {exc}") from None
        if not (isfinite(q1) and isfinite(q2) and isfinite(dq1) and isfinite(dq2)):
            raise SimulationAborted(k, "state became non-finite")

    return RunTrace(times, qs, dqs, taus, np.array([q1, q2]), np.array([dq1, dq2]))


def _rk4_step(model, q1, q2, dq1, dq2, tau1, tau2, h):
    # Same operation order as the textbook vector form, one component at a
    # time: k1q = dq, k2q = dq + h/2 k1v, ..., x += h/6 (k1 + 2 k2 + 2 k3 + k4).
    hh = 0.5 * h
    k1v1, k1v2 = _accel(model, q1, q2, dq1, dq2, tau1, tau2)
    k2q1 = dq1 + hh * k1v1
    k2q2 = dq2 + hh * k1v2
    k2v1, k2v2 = _accel(model, q1 + hh * dq1, q2 + hh * dq2, k2q1, k2q2, tau1, tau2)
    k3q1 = dq1 + hh * k2v1
    k3q2 = dq2 + hh * k2v2
    k3v1, k3v2 = _accel(model, q1 + hh * k2q1, q2 + hh * k2q2, k3q1, k3q2, tau1, tau2)
    k4q1 = dq1 + h * k3v1
    k4q2 = dq2 + h * k3v2
    k4v1, k4v2 = _accel(model, q1 + h * k3q1, q2 + h * k3q2, k4q1, k4q2, tau1, tau2)
    h6 = h / 6.0
    return (q1 + h6 * (dq1 + 2.0 * k2q1 + 2.0 * k3q1 + k4q1),
            q2 + h6 * (dq2 + 2.0 * k2q2 + 2.0 * k3q2 + k4q2),
            dq1 + h6 * (k1v1 + 2.0 * k2v1 + 2.0 * k3v1 + k4v1),
            dq2 + h6 * (k1v2 + 2.0 * k2v2 + 2.0 * k3v2 + k4v2))
