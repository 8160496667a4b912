import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfl import dynamics
from gpfl.dynamics import (ManipulatorModel, ScaledIdentityNominal,
                           SimulationAborted, coriolis, forward_dynamics,
                           gravity, inertia, inverse_dynamics, simulate,
                           tick_times, total_energy)
from oracles import (TwoLinkOracle, finite_difference_inertia_rate,
                     rk4_step_vector)

UNIT_RODS = ManipulatorModel(masses=(1.0, 1.0), lengths=(1.0, 1.0),
                             com_offsets=(0.5, 0.5),
                             inertias=(1.0 / 12.0, 1.0 / 12.0))

ASYMMETRIC = ManipulatorModel(masses=(1.5, 0.8), lengths=(0.9, 0.7),
                              com_offsets=(0.45, 0.3), inertias=(0.02, 0.01))

angles = st.floats(-10.0, 10.0)
rates = st.floats(-5.0, 5.0)
accelerations = st.floats(-50.0, 50.0)


def _state_pairs(rng, n):
    for _ in range(n):
        yield (rng.uniform(-np.pi, np.pi, size=2),
               rng.uniform(-3.0, 3.0, size=2))


class TestClosedForms:
    def test_inertia_at_zero(self):
        M = inertia(UNIT_RODS, np.zeros(2))
        expected = np.array([[8.0 / 3.0, 5.0 / 6.0], [5.0 / 6.0, 1.0 / 3.0]])
        np.testing.assert_allclose(M, expected, atol=1e-10)

    def test_gravity_at_zero(self):
        g = gravity(UNIT_RODS, np.zeros(2))
        np.testing.assert_allclose(g, [19.62, 4.905], atol=1e-10)

    def test_gravity_hanging_down(self):
        g = gravity(UNIT_RODS, np.array([-np.pi / 2.0, 0.0]))
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)

    def test_coriolis_torque_frozen_value(self):
        q = np.array([0.3, -1.1])
        dq = np.array([0.7, -0.4])
        value = coriolis(UNIT_RODS, q, dq) @ dq
        np.testing.assert_allclose(
            value, [-0.17824147201228704, -0.21834580321505165], atol=1e-12)

    def test_potential_energy_upright(self):
        # at rest the total energy is the potential one
        assert total_energy(UNIT_RODS, np.zeros(2), np.zeros(2)) == pytest.approx(0.0)
        up = total_energy(UNIT_RODS, np.array([np.pi / 2.0, 0.0]), np.zeros(2))
        assert up == pytest.approx(19.62, abs=1e-10)

    def test_inertia_periodic_in_q(self):
        q = np.array([0.7, -0.4])
        np.testing.assert_allclose(inertia(UNIT_RODS, q),
                                   inertia(UNIT_RODS, q + 2.0 * np.pi),
                                   atol=1e-12)


@pytest.mark.parametrize("model", [UNIT_RODS, ASYMMETRIC,
                                   ManipulatorModel()], ids=["unit", "asym", "default"])
class TestAgainstSymbolicOracle:
    def test_inertia_coriolis_gravity(self, model):
        oracle = TwoLinkOracle(model.masses, model.lengths, model.com_offsets,
                               model.inertias, model.gravity)
        rng = np.random.default_rng(7)
        for q, dq in _state_pairs(rng, 50):
            np.testing.assert_allclose(inertia(model, q), oracle.inertia(q),
                                       atol=1e-10)
            np.testing.assert_allclose(gravity(model, q), oracle.gravity(q),
                                       atol=1e-10)
            np.testing.assert_allclose(coriolis(model, q, dq) @ dq,
                                       oracle.coriolis_torque(q, dq), atol=1e-10)

    def test_inverse_dynamics(self, model):
        oracle = TwoLinkOracle(model.masses, model.lengths, model.com_offsets,
                               model.inertias, model.gravity)
        rng = np.random.default_rng(8)
        for q, dq in _state_pairs(rng, 20):
            ddq = rng.uniform(-5.0, 5.0, size=2)
            np.testing.assert_allclose(inverse_dynamics(model, q, dq, ddq),
                                       oracle.inverse_dynamics(q, dq, ddq),
                                       atol=1e-9)


class TestStructuralProperties:
    @settings(max_examples=50, deadline=None)
    @given(q1=angles, q2=angles)
    def test_inertia_symmetric_positive_definite(self, q1, q2):
        M = inertia(UNIT_RODS, np.array([q1, q2]))
        np.testing.assert_allclose(M, M.T, atol=1e-14)
        assert np.linalg.eigvalsh(M).min() > 0.0

    @settings(max_examples=50, deadline=None)
    @given(q1=angles, q2=angles, dq1=rates, dq2=rates)
    def test_skew_symmetry(self, q1, q2, dq1, dq2):
        q = np.array([q1, q2])
        dq = np.array([dq1, dq2])
        m_dot = finite_difference_inertia_rate(
            lambda qq: inertia(UNIT_RODS, qq), q, dq)
        S = m_dot - 2.0 * coriolis(UNIT_RODS, q, dq)
        assert np.abs(S + S.T).max() < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(q1=angles, q2=angles, dq1=rates, dq2=rates)
    def test_kinetic_energy_nonnegative(self, q1, q2, dq1, dq2):
        # total = kinetic + potential, and at rest it is the potential alone;
        # rounding is monotone, so kinetic >= 0 shows as total >= total at rest
        q = np.array([q1, q2])
        assert (total_energy(UNIT_RODS, q, np.array([dq1, dq2]))
                >= total_energy(UNIT_RODS, q, np.zeros(2)))

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from([UNIT_RODS, ASYMMETRIC, ManipulatorModel()]),
           q=st.tuples(angles, angles), dq=st.tuples(rates, rates),
           ddq=st.tuples(accelerations, accelerations))
    def test_inverse_dynamics_equals_matrix_forms(self, model, q, dq, ddq):
        # the float kernel does not call inertia/coriolis/gravity, so tie it
        # to them; the bound is relative to the terms' magnitudes, because
        # the terms can cancel to a torque near zero
        q, dq, ddq = np.array(q), np.array(dq), np.array(ddq)
        M, C, g = inertia(model, q), coriolis(model, q, dq), gravity(model, q)
        want = M @ ddq + C @ dq + g
        scale = np.abs(M) @ np.abs(ddq) + np.abs(C) @ np.abs(dq) + np.abs(g)
        got = inverse_dynamics(model, q, dq, ddq)
        assert got.shape == (2,)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_forward_inverse_consistency(self):
        rng = np.random.default_rng(3)
        for q, dq in _state_pairs(rng, 30):
            ddq = rng.uniform(-8.0, 8.0, size=2)
            tau = inverse_dynamics(ASYMMETRIC, q, dq, ddq)
            back = forward_dynamics(ASYMMETRIC, q, dq, tau)
            np.testing.assert_allclose(back, ddq, atol=1e-9)

    def test_forward_dynamics_algebraic_identity(self):
        rng = np.random.default_rng(4)
        for q, dq in _state_pairs(rng, 30):
            tau = rng.uniform(-30.0, 30.0, size=2)
            ddq = forward_dynamics(UNIT_RODS, q, dq, tau)
            residual = (inertia(UNIT_RODS, q) @ ddq
                        + coriolis(UNIT_RODS, q, dq) @ dq
                        + gravity(UNIT_RODS, q) - tau)
            np.testing.assert_allclose(residual, np.zeros(2), atol=1e-10)


class TestNominalModels:
    def test_scaled_identity(self):
        nominal = ScaledIdentityNominal(n_joints=2, scale=0.5)
        q = np.array([0.2, -0.4])
        np.testing.assert_array_equal(nominal.torque(q, q, np.array([1.0, -2.0])),
                                      [0.5, -1.0])
        np.testing.assert_allclose(nominal.apply_inverse(q, np.array([1.0, -2.0])),
                                   [2.0, -4.0])

    def test_scaled_identity_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ScaledIdentityNominal(n_joints=2, scale=0.0)

    def test_true_model_nominal_matches_dynamics(self):
        nominal = UNIT_RODS
        rng = np.random.default_rng(5)
        for q, dq in _state_pairs(rng, 10):
            ddq = rng.uniform(-5, 5, size=2)
            np.testing.assert_array_equal(nominal.torque(q, dq, ddq),
                                          inverse_dynamics(UNIT_RODS, q, dq, ddq))
            v = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(inertia(UNIT_RODS, q) @ nominal.apply_inverse(q, v),
                                       v, atol=1e-12)


class TestRk4Kernel:
    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from([UNIT_RODS, ASYMMETRIC, ManipulatorModel()]),
           q=st.tuples(angles, angles), dq=st.tuples(rates, rates),
           tau=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
           h=st.floats(1e-6, 0.1))
    def test_scalar_step_equals_vector_step_exactly(self, model, q, dq, tau, h):
        def accel(qv, dqv, tauv):
            return forward_dynamics(model, qv, dqv, tauv)

        q_ref, dq_ref = rk4_step_vector(accel, np.array(q), np.array(dq),
                                        np.array(tau), h)
        got = dynamics._rk4_step(model, *q, *dq, *tau, h)
        assert got == (*q_ref.tolist(), *dq_ref.tolist())


class TestTickGrid:
    @pytest.mark.parametrize("duration, rate, match", [
        (0.004, 100.0, "rounds to 0 control ticks"),
        (1.0, 0.4, "rounds to 0 control ticks"),
        (50.0, 1e308, "is not finite")])
    def test_empty_or_overflowing_grid_rejected(self, duration, rate, match):
        with pytest.raises(ValueError, match=match):
            tick_times(duration, rate)


class TestModelValidation:
    def test_rejects_wrong_joint_count(self):
        with pytest.raises(ValueError):
            ManipulatorModel(masses=(1.0,), lengths=(1.0,), com_offsets=(0.5,),
                             inertias=(0.1,))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ManipulatorModel(masses=(0.0, 1.0))

    @pytest.mark.parametrize("make, match", [
        (lambda: ManipulatorModel(masses=(np.nan, 3.0)), "positive and finite"),
        (lambda: ManipulatorModel(masses=(3.0, np.nan)), "positive and finite"),
        (lambda: ManipulatorModel(lengths=(1.0, np.inf)), "positive and finite"),
        (lambda: ManipulatorModel(com_offsets=(np.inf, 0.5)), "positive and finite"),
        (lambda: ManipulatorModel(inertias=(np.inf, 0.25)), "nonnegative and finite"),
        (lambda: ManipulatorModel(inertias=(0.25, np.nan)), "nonnegative and finite"),
        (lambda: ManipulatorModel(gravity=np.nan), "gravity must be finite"),
        (lambda: ManipulatorModel(gravity=-np.inf), "gravity must be finite"),
        (lambda: ScaledIdentityNominal(scale=np.nan), "positive and finite"),
        (lambda: ScaledIdentityNominal(scale=np.inf), "positive and finite"),
    ], ids=["m1-nan", "m2-nan", "l2-inf", "r1-inf", "i1-inf", "i2-nan", "g-nan",
            "g-minus-inf", "scale-nan", "scale-inf"])
    def test_non_finite_parameter_rejected(self, make, match):
        # an infinite inertia used to freeze its joint without an error
        with pytest.raises(ValueError, match=match):
            make()

    def test_state_requires_finite_entries(self):
        for q0, dq0 in ((np.array([np.nan, 0.0]), np.zeros(2)),
                        (np.zeros(2), np.array([0.0, np.inf]))):
            calls = []
            with pytest.raises(ValueError, match="must be finite"):
                simulate(UNIT_RODS, lambda k, t, q, dq: calls.append(k),
                         q0, dq0, 1.0, 100.0)
            assert calls == []
            with pytest.raises(ValueError, match="must be finite"):
                forward_dynamics(UNIT_RODS, q0, dq0, np.zeros(2))

    def test_state_requires_matching_shapes(self):
        for q0, dq0 in ((np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(2)),
                        (np.zeros((2, 1)), np.zeros(2))):
            calls = []
            with pytest.raises(ValueError, match="expected vector of length 2"):
                simulate(UNIT_RODS, lambda k, t, q, dq: calls.append(k),
                         q0, dq0, 1.0, 100.0)
            assert calls == []


def _zero_torque(k, t, q, dq):
    return np.zeros(2)


class TestSimulate:
    def test_equilibrium_stays_at_rest(self):
        # hanging straight down with zero velocity is a fixed point
        q0 = np.array([-np.pi / 2.0, 0.0])
        trace = simulate(UNIT_RODS, _zero_torque, q0, np.zeros(2), 1.0, 100.0)
        np.testing.assert_allclose(trace.final_q, q0, atol=1e-9)
        np.testing.assert_allclose(trace.final_dq, np.zeros(2), atol=1e-9)

    def test_tick_grid(self):
        trace = simulate(UNIT_RODS, _zero_torque, np.array([-np.pi / 2.0, 0.0]),
                         np.zeros(2), 2.0, 50.0)
        assert trace.n_ticks == 100
        np.testing.assert_allclose(trace.times, np.arange(100) / 50.0)
        assert trace.q.shape == trace.dq.shape == trace.tau.shape == (100, 2)

    def test_controller_sees_tick_index_time_and_recorded_state(self):
        calls = []

        def controller(k, t, q, dq):
            # copies: what the controller saw at call time, not the rows now
            calls.append((k, t, q.copy(), dq.copy()))
            return np.array([0.5 * np.sin(3.0 * t), -0.2])

        trace = simulate(UNIT_RODS, controller, np.array([0.4, 0.9]),
                         np.array([1.0, -0.5]), 1.0, 50.0, integrator_substeps=3)
        assert len(calls) == trace.n_ticks == 50
        for k, (k_seen, t, q, dq) in enumerate(calls):
            assert k_seen == k
            assert t == trace.times[k]
            assert (q == trace.q[k]).all() and (dq == trace.dq[k]).all()

    def test_gravity_compensation_holds_pose(self):
        q0 = np.array([0.3, 0.5])
        hold = gravity(UNIT_RODS, q0)
        trace = simulate(UNIT_RODS, lambda k, t, q, dq: hold, q0, np.zeros(2),
                         0.5, 100.0)
        # the pose is a (possibly unstable) equilibrium under constant g(q0)
        np.testing.assert_allclose(trace.final_q, q0, atol=1e-6)

    def test_torque_free_energy_conservation(self):
        q0, dq0 = np.array([0.4, 0.9]), np.array([1.0, -0.5])
        e0 = total_energy(UNIT_RODS, q0, dq0)
        trace = simulate(UNIT_RODS, _zero_torque, q0, dq0, 10.0, 100.0)
        e1 = total_energy(UNIT_RODS, trace.final_q, trace.final_dq)
        assert abs(e1 - e0) / abs(e0) < 1e-6

    def test_substep_self_convergence(self):
        q0, dq0 = np.array([0.4, 0.9]), np.array([1.0, -0.5])
        t10 = simulate(UNIT_RODS, _zero_torque, q0, dq0, 2.0, 100.0,
                       integrator_substeps=10)
        t20 = simulate(UNIT_RODS, _zero_torque, q0, dq0, 2.0, 100.0,
                       integrator_substeps=20)
        assert np.abs(t10.final_q - t20.final_q).max() < 1e-6
        assert np.abs(t10.final_dq - t20.final_dq).max() < 1e-6

    def test_abort_reports_tick_for_nonfinite_torque(self):
        def controller(k, t, q, dq):
            return np.array([np.nan, 0.0]) if t >= 0.07 else np.zeros(2)

        with pytest.raises(SimulationAborted) as exc:
            simulate(UNIT_RODS, controller, np.array([-np.pi / 2.0, 0.0]),
                     np.zeros(2), 1.0, 100.0)
        assert exc.value.tick == 7

    def test_controller_arithmetic_error_aborts_at_its_tick(self):
        def controller(k, t, q, dq):
            if t >= 0.03:
                raise FloatingPointError("posterior variance below the clamp")
            return np.zeros(2)

        with pytest.raises(SimulationAborted) as exc:
            simulate(UNIT_RODS, controller, np.array([-np.pi / 2.0, 0.0]),
                     np.zeros(2), 1.0, 100.0)
        assert exc.value.tick == 3
        assert "FloatingPointError" in exc.value.reason

    def test_singular_inertia_aborts_the_run(self):
        # a massless link 1 and point-mass links: folded back (q2 = pi), the
        # factorization of M(q) fails
        model = ManipulatorModel(masses=(1e-30, 3.0), inertias=(0.0, 0.0))
        with pytest.raises(SimulationAborted) as exc:
            simulate(model, _zero_torque, np.array([0.0, np.pi]), np.zeros(2), 1.0, 100.0)
        assert exc.value.tick == 0
        assert exc.value.reason == ("integration raised NotPositiveDefiniteError: "
                                    "inertia matrix is not positive definite")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_on_divergent_state(self):
        with pytest.raises(SimulationAborted):
            simulate(UNIT_RODS, lambda k, t, q, dq: np.array([1e250, -1e250]),
                     np.zeros(2), np.zeros(2), 1.0, 100.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(UNIT_RODS, _zero_torque, np.zeros(2), np.zeros(2), -1.0, 100.0)
        with pytest.raises(ValueError):
            simulate(UNIT_RODS, _zero_torque, np.zeros(2), np.zeros(2), 1.0, 100.0,
                     integrator_substeps=0)
