"""Random-sinusoid reference trajectories with analytic derivatives.

Each joint's reference is a sum of N_s sinusoids of common amplitude
2*pi/N_s, with angular frequencies drawn i.i.d. uniform from a configured
band.  Frequencies are sampled joint-major from numpy's PCG64 generator so a
seed fully determines the trajectory on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import ManipulatorModel, tick_times
from .gpr import GpDataset, mismatch_targets

GRID_BLOCK = 1024  # ticks per `sample_reference` block


@dataclass(frozen=True)
class SinusoidSpec:
    """Frequencies (rad/s, shape n_joints x N_s), amplitude (rad) and seed."""

    frequencies: np.ndarray
    amplitude: float
    seed: int

    def __post_init__(self):
        freqs = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "frequencies", freqs)
        if freqs.shape[1] < 1:
            raise ValueError("need at least one sinusoid per joint")

    @property
    def n_joints(self) -> int:
        return self.frequencies.shape[0]

    @cached_property
    def squared_frequencies(self) -> np.ndarray:
        return self.frequencies * self.frequencies

    @cached_property
    def scales(self) -> np.ndarray:
        # (3, 1) factors of the position, velocity and acceleration sums
        return np.array([[self.amplitude], [self.amplitude], [-self.amplitude]])


@dataclass
class ReferenceTrajectory:
    """Reference samples (q_d, dq_d, ddq_d) on a uniform time grid."""

    times: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    ddq: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def sample_spec(seed: int, n_joints: int = 2, n_sinusoids: int = 5,
                omega_min: float = 0.1 * np.pi,
                omega_max: float = 0.3 * np.pi) -> SinusoidSpec:
    """Draw a reference spec; each joint gets its own independent frequencies."""
    if n_sinusoids < 1:
        raise ValueError("n_sinusoids must be >= 1")
    if not omega_min < omega_max:
        raise ValueError("omega_min must be strictly below omega_max")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(omega_min, omega_max, size=(n_joints, n_sinusoids))
    return SinusoidSpec(frequencies=freqs, amplitude=2.0 * np.pi / n_sinusoids, seed=seed)


def evaluate(spec: SinusoidSpec, t):
    """Reference position, velocity and acceleration at time t.

    A scalar t gives one value per joint; t of shape (n, 1, 1) gives (n, J)
    arrays, one row per time.  The three sums' terms, sin, w cos and w^2 sin
    of the phases, share one buffer that is summed once; the results are its
    rows, handed out as a tuple because a tick unpacks a tuple faster than
    an array.
    """
    w = spec.frequencies
    wt = w * t
    terms = np.empty((3,) + wt.shape)
    np.sin(wt, out=terms[0])
    np.multiply(w, np.cos(wt, out=terms[1]), out=terms[1])
    np.multiply(spec.squared_frequencies, terms[0], out=terms[2])
    sums = np.add.reduce(terms, axis=-1)
    sums *= spec.scales if sums.ndim == 2 else spec.scales[:, None]
    return sums[0], sums[1], sums[2]


def sample_reference(spec: SinusoidSpec, duration: float, rate: float) -> ReferenceTrajectory:
    """Evaluate the reference on the control-tick grid `tick_times(duration, rate)`,
    `GRID_BLOCK` ticks at a time, so its temporaries do not grow with the grid."""
    times = tick_times(duration, rate)
    q, dq, ddq = np.empty((3, len(times), spec.n_joints))
    for start in range(0, len(times), GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        q[block], dq[block], ddq[block] = evaluate(spec, times[block, None, None])
    return ReferenceTrajectory(times=times, q=q, dq=dq, ddq=ddq)


def build_training_set(model: ManipulatorModel, nominal, spec: SinusoidSpec,
                       duration: float, control_rate: float, downsample: int,
                       noise_std: float = 0.0) -> GpDataset:
    """Mismatch-torque dataset from open-loop evaluation of the reference.

    The reference is sampled at the control rate, every `downsample`-th
    sample is kept, and the target at each kept reference state is the
    mismatch between the model's torque there and the nominal model's
    prediction (`gpr.mismatch_targets`), optionally corrupted by
    i.i.d. Gaussian noise of standard deviation `noise_std`, drawn from the
    spec's seed.
    """
    if downsample < 1:
        raise ValueError("downsample must be >= 1")
    ref = sample_reference(spec, duration, control_rate)
    q, dq, ddq = ref.q[::downsample], ref.dq[::downsample], ref.ddq[::downsample]
    inputs = np.concatenate([q, dq, ddq], axis=1)
    targets = mismatch_targets(model, nominal, q, dq, ddq)
    if noise_std > 0.0:
        rng = np.random.default_rng(spec.seed)
        targets = targets + rng.normal(0.0, noise_std, size=targets.shape)
    return GpDataset(inputs=inputs, targets=targets, noise_std=noise_std)
