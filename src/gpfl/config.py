"""Flat experiment configuration with a key=value text round-trip.

One dataclass holds every knob of the tracking experiment.  The file format
is one `key = value` pair per line (comments start with #); floats are
written with 17 significant digits so parse -> serialize -> parse is exact.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .control import VARIANTS, ControllerSpec, GainSpec
from .dynamics import ManipulatorModel, ScaledIdentityNominal, tick_count
from .textio import FLOAT, read_pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """Every parameter of the tracking experiment, flat for easy (de)serialization."""

    # robot (two uniform 3 kg, 1 m rods by default)
    m1: float = ManipulatorModel.masses[0]
    m2: float = ManipulatorModel.masses[1]
    l1: float = ManipulatorModel.lengths[0]
    l2: float = ManipulatorModel.lengths[1]
    r1: float = ManipulatorModel.com_offsets[0]
    r2: float = ManipulatorModel.com_offsets[1]
    i1: float = ManipulatorModel.inertias[0]
    i2: float = ManipulatorModel.inertias[1]
    gravity: float = ManipulatorModel.gravity
    # nominal model
    nominal_scale: float = ScaledIdentityNominal.scale
    # gains and robust term
    kp: float = GainSpec.kp
    kd: float = GainSpec.kd
    epsilon: float = ControllerSpec.epsilon
    beta: float = ControllerSpec.beta
    # GP training
    noise_std: float = 0.0
    gp_n_starts: int = 4
    gp_max_iter: int = 60
    gp_fit_seed: int = 0
    # reference trajectories
    n_sinusoids: int = 5
    omega_min: float = 0.1 * np.pi
    omega_max: float = 0.3 * np.pi
    duration: float = 50.0
    control_rate: float = 100.0
    # training trajectory
    training_seed: int = 1000
    downsample: int = 50
    # evaluation protocol
    eval_seeds: tuple = tuple(range(10))
    controllers: tuple = VARIANTS
    integrator_substeps: int = 10
    initial_offset_q: float = 0.0
    initial_offset_dq: float = 0.0
    out_dir: str = "results"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # NaN slips through every range check below (all comparisons are
            # false), so it is rejected here together with +-inf
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            # int() would truncate 2.5 to 2; operator.index takes only integers, numpy's too
            try:
                if f.type == "int":
                    object.__setattr__(self, f.name, operator.index(value))
                elif f.name == "eval_seeds":
                    object.__setattr__(self, f.name, tuple(map(operator.index, value)))
            except TypeError:
                raise ValueError(f"{f.name} takes integers only, got {value!r}") from None
        object.__setattr__(self, "controllers", tuple(str(c) for c in self.controllers))
        unknown = [c for c in self.controllers if c not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown controllers {unknown}; valid: {VARIANTS}")
        # a repeat would rerun a trajectory, overwrite its trace and count it twice
        for name, values in (("eval_seeds", self.eval_seeds),
                             ("controllers", self.controllers)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values}")
        # numpy's seeding rejects a negative seed only when a run starts
        if min(self.training_seed, self.gp_fit_seed, *self.eval_seeds) < 0:
            raise ValueError("training, GP-fit and evaluation seeds must be nonnegative")
        if self.training_seed in self.eval_seeds:
            raise ValueError("training seed must be disjoint from evaluation seeds")
        # positive, and at least one tick: an empty grid would fail only once
        # a run or the training set is built
        tick_count(self.duration, self.control_rate)
        for name in ("integrator_substeps", "gp_n_starts", "gp_max_iter", "downsample",
                     "n_sinusoids"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.omega_min < self.omega_max:
            raise ValueError("omega_min must be strictly below omega_max")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        # the factories and the law's spec run their own checks; run them now, not mid-run
        self.make_nominal(self.make_model())
        ControllerSpec("nominal", self.make_gains(), epsilon=self.epsilon, beta=self.beta)

    def make_model(self) -> ManipulatorModel:
        return ManipulatorModel(masses=(self.m1, self.m2),
                                lengths=(self.l1, self.l2),
                                com_offsets=(self.r1, self.r2),
                                inertias=(self.i1, self.i2),
                                gravity=self.gravity)

    def make_nominal(self, model: ManipulatorModel):
        return ScaledIdentityNominal(n_joints=model.n_joints, scale=self.nominal_scale)

    def make_gains(self) -> GainSpec:
        return GainSpec(kp=self.kp, kd=self.kd)


def _format_value(value) -> str:
    if isinstance(value, float):
        return FLOAT % value
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def save_config(config: ExperimentConfig, path) -> None:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in dataclasses.fields(config)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_value(name: str, field_type, raw: str):
    # np.float64 defaults (e.g. kd, omega bounds) must still parse as float
    if issubclass(field_type, float):
        return float(raw)
    if issubclass(field_type, int):
        return int(raw)
    if issubclass(field_type, tuple):
        items = [v.strip() for v in raw.split(",") if v.strip()]
        if name == "eval_seeds":
            return tuple(int(v) for v in items)
        return tuple(items)
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse a key=value config file; unknown or repeated keys are an error."""
    type_map = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for key, (lineno, raw) in read_pairs(path).items():
        if key not in type_map:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(key, type_map[key], raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from None
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
