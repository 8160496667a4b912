import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfl.dynamics import ManipulatorModel, ScaledIdentityNominal, simulate
from gpfl.gpr import mismatch_target, save_dataset_csv
from gpfl.trajectory import (SinusoidSpec, build_training_set, evaluate,
                             sample_reference, sample_spec)
from oracles import TwoLinkOracle

OMEGA_MIN = 0.1 * np.pi
OMEGA_MAX = 0.3 * np.pi


class TestSampleSpec:
    def test_deterministic_given_seed(self):
        a = sample_spec(42)
        b = sample_spec(42)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        assert a.amplitude == b.amplitude

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample_spec(1).frequencies,
                                  sample_spec(2).frequencies)

    def test_frequencies_within_bounds(self):
        spec = sample_spec(0, n_joints=2, n_sinusoids=5)
        assert spec.frequencies.shape == (2, 5)
        assert (spec.frequencies >= OMEGA_MIN).all()
        assert (spec.frequencies <= OMEGA_MAX).all()

    def test_frequency_distribution(self):
        spec = sample_spec(123, n_joints=2, n_sinusoids=5000)
        freqs = spec.frequencies.ravel()
        mean = freqs.mean()
        expected = 0.5 * (OMEGA_MIN + OMEGA_MAX)
        se = (OMEGA_MAX - OMEGA_MIN) / np.sqrt(12.0 * freqs.size)
        assert freqs.min() >= OMEGA_MIN
        assert freqs.max() <= OMEGA_MAX
        assert abs(mean - expected) < 3.0 * se

    def test_amplitude_scale(self):
        assert sample_spec(0, n_sinusoids=5).amplitude == pytest.approx(2.0 * np.pi / 5.0)

    def test_joints_get_independent_frequencies(self):
        spec = sample_spec(9, n_joints=2, n_sinusoids=5)
        assert not np.array_equal(spec.frequencies[0], spec.frequencies[1])

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            sample_spec(0, omega_min=1.0, omega_max=1.0)
        with pytest.raises(ValueError):
            sample_spec(0, n_sinusoids=0)


class TestEvaluate:
    def test_at_time_zero(self):
        spec = sample_spec(3)
        q, dq, ddq = evaluate(spec, 0.0)
        np.testing.assert_allclose(q, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(ddq, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(dq, spec.amplitude * spec.frequencies.sum(axis=1))

    def test_single_sinusoid_hand_value(self):
        w = np.pi / 4.0
        spec = SinusoidSpec(frequencies=[[w]], amplitude=2.0 * np.pi, seed=0)
        q, dq, ddq = evaluate(spec, 2.0)
        assert q[0] == pytest.approx(2.0 * np.pi * np.sin(np.pi / 2.0), abs=1e-12)
        assert dq[0] == pytest.approx(0.0, abs=1e-12)
        assert ddq[0] == pytest.approx(-2.0 * np.pi * w * w, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        spec = sample_spec(11)
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(100):
            t = float(rng.uniform(0.0, 50.0))
            qm, dqm, _ = evaluate(spec, t - h)
            qp, dqp, _ = evaluate(spec, t + h)
            q, dq, ddq = evaluate(spec, t)
            np.testing.assert_allclose((qp - qm) / (2 * h), dq, atol=1e-6)
            np.testing.assert_allclose((dqp - dqm) / (2 * h), ddq, atol=1e-6)

    def test_position_bounded_by_two_pi(self):
        spec = sample_spec(5)
        times = np.linspace(0.0, 120.0, 4000)
        for t in times:
            q, _, _ = evaluate(spec, t)
            assert np.abs(q).max() <= 2.0 * np.pi + 1e-12


class TestSampleReference:
    def test_grid_matches_pointwise_evaluation(self):
        # the tick evaluates the reference at its scalar time and the robust
        # record reads the grid's rows, so the two must be the same floats
        spec = sample_spec(17)
        ref = sample_reference(spec, 20.0, 400.0)
        assert len(ref) == 8000
        np.testing.assert_allclose(ref.times, np.arange(8000) / 400.0)
        pointwise = np.array([evaluate(spec, t) for t in ref.times])
        grid = np.stack([ref.q, ref.dq, ref.ddq], axis=1)
        assert (pointwise.view(np.uint64) == grid.view(np.uint64)).all()

    def test_grid_peak_memory_is_two_phase_arrays(self):
        spec = sample_spec(5)
        sample_reference(spec, 50.0, 400.0)
        tracemalloc.start()
        try:
            ref = sample_reference(spec, 50.0, 400.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        phase_bytes = spec.frequencies.size * len(ref) * np.dtype(float).itemsize
        assert len(ref) == 20000
        assert peak < 3 * phase_bytes, peak / phase_bytes

    @settings(max_examples=60, deadline=None)
    @given(duration=st.floats(0.05, 5.0), rate=st.floats(20.0, 500.0))
    def test_simulate_ticks_on_the_reference_grid(self, duration, rate):
        # RMSE compares trace row k with reference row k, so the two grids
        # must be the same floats, not merely close
        ref = sample_reference(sample_spec(3), duration, rate)
        trace = simulate(ManipulatorModel(), lambda k, t, q, dq: np.zeros(2),
                         np.array([-np.pi / 2.0, 0.0]), np.zeros(2),
                         duration, rate, integrator_substeps=1)
        np.testing.assert_array_equal(trace.times, ref.times)

    def test_rejects_bad_arguments(self):
        spec = sample_spec(0)
        with pytest.raises(ValueError):
            sample_reference(spec, 0.0, 100.0)
        with pytest.raises(ValueError):
            sample_reference(spec, 1.0, -5.0)


class TestBuildTrainingSet:
    model = ManipulatorModel()
    nominal = ScaledIdentityNominal()

    def test_default_protocol_yields_100_samples(self):
        spec = sample_spec(1000)
        ds = build_training_set(self.model, self.nominal, spec,
                                duration=50.0, control_rate=100.0, downsample=50)
        assert ds.n_samples == 100
        assert ds.input_dim == 6
        assert ds.n_outputs == 2

    def test_true_nominal_gives_zero_targets(self):
        spec = sample_spec(4)
        ds = build_training_set(self.model, self.model, spec,
                                duration=5.0, control_rate=100.0, downsample=10)
        np.testing.assert_allclose(ds.targets, np.zeros_like(ds.targets), atol=1e-10)

    def test_targets_match_per_sample_oracle(self):
        spec = sample_spec(21)
        ds = build_training_set(self.model, self.nominal, spec,
                                duration=1.0, control_rate=100.0, downsample=1)
        assert ds.n_samples == 100
        oracle = TwoLinkOracle(self.model.masses, self.model.lengths,
                               self.model.com_offsets, self.model.inertias,
                               self.model.gravity)
        for row in range(0, 100, 17):
            q, dq, ddq = (ds.inputs[row, :2], ds.inputs[row, 2:4],
                          ds.inputs[row, 4:6])
            tau = oracle.inverse_dynamics(q, dq, ddq)
            expected = mismatch_target(self.nominal, q, dq, ddq, tau)
            np.testing.assert_allclose(ds.targets[row], expected, atol=1e-9)

    def test_noise_is_reproducible(self):
        spec = sample_spec(6)
        kw = dict(duration=2.0, control_rate=100.0, downsample=10, noise_std=0.5)
        a = build_training_set(self.model, self.nominal, spec, **kw)
        b = build_training_set(self.model, self.nominal, spec, **kw)
        np.testing.assert_array_equal(a.targets, b.targets)
        clean = build_training_set(self.model, self.nominal, spec,
                                   duration=2.0, control_rate=100.0, downsample=10)
        assert not np.array_equal(a.targets, clean.targets)

    def test_rejects_bad_downsample(self):
        with pytest.raises(ValueError):
            build_training_set(self.model, self.nominal, sample_spec(0),
                               duration=1.0, control_rate=100.0, downsample=0)

    def test_dataset_csv_bytes_reproducible(self, tmp_path):
        spec = sample_spec(33)
        paths = []
        for name in ("a.csv", "b.csv"):
            ds = build_training_set(self.model, self.nominal, spec,
                                    duration=2.0, control_rate=100.0, downsample=20)
            path = tmp_path / name
            save_dataset_csv(ds, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
