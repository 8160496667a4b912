import numpy as np
import pytest

from gpfl.control import (ControllerSpec, GainSpec, control, design_lyapunov,
                          error_matrix, gp_query_acceleration)
from gpfl.dynamics import (ManipulatorModel, ScaledIdentityNominal,
                           TrueModelNominal, forward_dynamics, gravity,
                           inverse_dynamics, simulate)
from gpfl.gpr import GpDataset, SeKernelParams, model_from_params, predict
from gpfl.harness import robust_record

MODEL = ManipulatorModel()
GAINS = GainSpec()
NOMINAL = ScaledIdentityNominal()
EXACT = TrueModelNominal(MODEL)
LYAPUNOV = design_lyapunov(GAINS, n_joints=2)


def _law(variant, gp=None, epsilon=0.5):
    return ControllerSpec(variant, GAINS, lyapunov=LYAPUNOV, epsilon=epsilon,
                          gp=gp, beta=3.0)


def _tau(variant, q, dq, desired, gp=None, nominal=NOMINAL):
    return control(_law(variant, gp), nominal, q, dq, desired)


def _record_row(law, q, dq, desired):
    """`robust_record` of the one tick (q, dq, desired), as a dict of its row."""
    record = robust_record(law, MODEL, NOMINAL, q[None], dq[None],
                           [np.asarray(d, dtype=float)[None] for d in desired])
    return {key: arr[0] for key, arr in record.items()}


def _fit_gp_on_noise():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.0, 1.0, size=(15, 6))
    ds = GpDataset(inputs=X, targets=rng.normal(size=(15, 2)), noise_std=0.2)
    params = SeKernelParams(lam=1.5, lengthscales=np.full(6, 1.2))
    return model_from_params(ds, [params, params])


def _zero_target_gp(lam=2.0, noise_std=0.1):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(12, 6))
    ds = GpDataset(inputs=X, targets=np.zeros((12, 2)), noise_std=noise_std)
    params = SeKernelParams(lam=lam, lengthscales=np.ones(6))
    return model_from_params(ds, [params, params])


class TestDesignLyapunov:
    def test_scalar_unit_gain_hand_solution(self):
        Q = design_lyapunov(GainSpec(kp=1.0, kd=1.0), n_joints=1)
        np.testing.assert_allclose(Q, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_residual_is_tiny(self):
        Q = design_lyapunov(GAINS, n_joints=2)
        H = error_matrix(GAINS, 2)
        residual = H.T @ Q + Q @ H + np.eye(4)
        assert np.abs(residual).max() < 1e-12

    def test_q_symmetric_positive_definite(self):
        Q = design_lyapunov(GAINS, n_joints=2)
        np.testing.assert_allclose(Q, Q.T, atol=1e-14)
        assert np.linalg.eigvalsh(Q).min() > 0

    def test_per_joint_closed_form(self):
        kp, kd = GAINS.kp, GAINS.kd
        q12 = 1.0 / (2.0 * kp)
        q22 = (1.0 + 2.0 * q12) / (2.0 * kd)
        q11 = kd * q12 + kp * q22
        Q = design_lyapunov(GAINS, n_joints=2)
        for j in range(2):
            assert Q[j, j] == pytest.approx(q11, rel=1e-12)
            assert Q[j, 2 + j] == pytest.approx(q12, rel=1e-12)
            assert Q[2 + j, 2 + j] == pytest.approx(q22, rel=1e-12)
        assert Q[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert Q[0, 3] == pytest.approx(0.0, abs=1e-12)
        assert Q[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_error_matrix_structure(self):
        H = error_matrix(GainSpec(kp=4.0, kd=3.0), 2)
        expected = np.block([[np.zeros((2, 2)), np.eye(2)],
                             [-4.0 * np.eye(2), -3.0 * np.eye(2)]])
        np.testing.assert_array_equal(H, expected)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            design_lyapunov(GAINS, n_joints=0)
        with pytest.raises(ValueError):
            GainSpec(kp=-1.0)
        with pytest.raises(ValueError):
            GainSpec(kd=0.0)


class TestGpQueryAcceleration:
    def test_hand_value(self):
        gains = GainSpec(kp=10.0, kd=4.0)
        a = gp_query_acceleration([1.0, -2.0], [0.1, 0.2], [0.5, -0.5], gains)
        np.testing.assert_allclose(a, [1.0 + 1.0 + 2.0, -2.0 + 2.0 - 2.0])

    def test_zero_error_returns_desired(self):
        a = gp_query_acceleration([0.7, -0.3], np.zeros(2), np.zeros(2), GAINS)
        np.testing.assert_array_equal(a, [0.7, -0.3])


class TestControlTrue:
    def test_static_zero_error_is_gravity_compensation(self):
        q = np.array([0.4, -0.9])
        dq = np.zeros(2)
        tau = _tau("true", q, dq, (q, np.zeros(2), np.zeros(2)), nominal=EXACT)
        np.testing.assert_allclose(tau, gravity(MODEL, q), atol=1e-12)

    def test_achieves_commanded_acceleration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q, dq = rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2)
            qd = rng.uniform(-2, 2, 2)
            dqd = rng.uniform(-1, 1, 2)
            ddqd = rng.uniform(-3, 3, 2)
            aux = (ddqd + GAINS.kp * (qd - q) + GAINS.kd * (dqd - dq))
            tau = _tau("true", q, dq, (qd, dqd, ddqd), nominal=EXACT)
            ddq = forward_dynamics(MODEL, q, dq, tau)
            np.testing.assert_allclose(ddq, aux, atol=1e-9)

    def test_regulation_error_decays(self):
        qd = np.array([0.5, -0.3])
        desired = (qd, np.zeros(2), np.zeros(2))

        def controller(k, t, q, dq):
            return _tau("true", q, dq, desired, nominal=EXACT)

        trace = simulate(MODEL, controller, qd + np.array([0.3, -0.2]),
                         np.zeros(2), duration=2.0, control_rate=100.0)
        norms = [np.linalg.norm(np.concatenate([qd - trace.q[k],
                                                -trace.dq[k]]))
                 for k in (0, 50, 100)]
        assert norms[0] > norms[1] > norms[2]
        final = np.linalg.norm(np.concatenate([qd - trace.final_q, trace.final_dq]))
        assert final < 1e-3


class TestControlNominal:
    def test_true_nominal_matches_control_true(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q, dq = rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2)
            desired = (rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2),
                       rng.uniform(-3, 3, 2))
            tau = control(_law("nominal"), EXACT, q, dq, desired)
            a = gp_query_acceleration(desired[2], desired[0] - q, desired[1] - dq, GAINS)
            np.testing.assert_array_equal(tau, inverse_dynamics(MODEL, q, dq, a))

    def test_variant_does_not_switch_on_gp(self):
        # every run is handed the trained GP; only the variant turns terms on
        gp = _fit_gp_on_noise()
        q, dq = np.array([0.2, -0.1]), np.array([0.3, 0.1])
        desired = (np.array([0.25, 0.0]), np.zeros(2), np.array([0.5, -0.5]))
        for variant in ("true", "nominal"):
            with_gp = control(_law(variant, gp), NOMINAL, q, dq, desired)
            np.testing.assert_array_equal(with_gp, _tau(variant, q, dq, desired))

    def test_scaled_identity_zero_error_gives_zero_torque(self):
        q = np.array([1.0, -1.0])
        dq = np.zeros(2)
        tau = _tau("nominal", q, dq, (q, np.zeros(2), np.zeros(2)))
        np.testing.assert_array_equal(tau, np.zeros(2))

    def test_scaled_identity_formula(self):
        q, dq = np.array([0.2, 0.1]), np.array([-0.3, 0.4])
        qd, dqd, ddqd = np.array([0.5, 0.0]), np.array([0.1, 0.2]), np.array([1.0, -1.0])
        aux = ddqd + GAINS.kp * (qd - q) + GAINS.kd * (dqd - dq)
        tau = _tau("nominal", q, dq, (qd, dqd, ddqd))
        np.testing.assert_allclose(tau, 0.5 * aux, atol=1e-12)


class TestControlGp:
    def test_zero_target_gp_equals_nominal(self):
        gp = _zero_target_gp()
        q, dq = np.array([0.3, -0.2]), np.array([0.1, 0.0])
        desired = (np.zeros(2), np.zeros(2), np.zeros(2))
        tau_gp = _tau("gp", q, dq, desired, gp)
        tau_nom = _tau("nominal", q, dq, desired)
        np.testing.assert_allclose(tau_gp, tau_nom, atol=1e-14)

    def test_far_query_falls_back_to_nominal(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 1.0, size=(10, 6))
        ds = GpDataset(inputs=X, targets=rng.normal(size=(10, 2)), noise_std=0.1)
        params = SeKernelParams(lam=1.0, lengthscales=np.ones(6))
        gp = model_from_params(ds, [params, params])
        q, dq = np.array([40.0, 40.0]), np.array([40.0, 40.0])
        desired = (q.copy(), dq.copy(), np.full(2, 40.0))
        tau_gp = _tau("gp", q, dq, desired, gp)
        tau_nom = _tau("nominal", q, dq, desired)
        np.testing.assert_allclose(tau_gp, tau_nom, atol=1e-10)

    def test_decomposes_as_nominal_plus_mean(self):
        gp = _fit_gp_on_noise()
        q, dq = np.array([0.2, -0.1]), np.array([0.3, 0.1])
        desired = (np.array([0.25, 0.0]), np.zeros(2), np.array([0.5, -0.5]))
        a = gp_query_acceleration(desired[2], desired[0] - q,
                                  desired[1] - dq, GAINS)
        mean, _ = predict(gp, np.concatenate([q, dq, a]))
        tau_gp = _tau("gp", q, dq, desired, gp)
        tau_nom = _tau("nominal", q, dq, desired)
        np.testing.assert_array_equal(tau_gp, tau_nom + mean)


class TestControlRobustGp:
    lyapunov = LYAPUNOV

    def _call(self, gp, q, dq, desired, epsilon=0.5):
        """Torque, the robust term w alone, and the tick's record row."""
        law = _law("robust_gp", gp, epsilon)
        tau = control(law, NOMINAL, q, dq, desired)
        w = tau - _tau("gp", q, dq, desired, gp)
        return tau, w, _record_row(law, q, dq, desired)

    def test_zero_error_adds_nothing(self):
        gp = _zero_target_gp()
        q = np.array([0.3, 0.3])
        dq = np.zeros(2)
        desired = (q.copy(), np.zeros(2), np.array([1.0, -2.0]))
        tau, _, row = self._call(gp, q, dq, desired)
        np.testing.assert_allclose(tau, _tau("gp", q, dq, desired, gp), atol=1e-14)
        assert row["z_norm"] == 0.0
        assert row["V"] == 0.0
        assert row["rho"] > 0.0

    def test_continuous_across_boundary_layer(self):
        gp = _zero_target_gp()
        epsilon = 0.5
        direction = np.array([1.0, 0.0, 0.0, 0.0])
        z_gain = np.linalg.norm(2.0 * self.lyapunov[2:, :] @ direction)
        c_star = epsilon / z_gain
        ws = []
        for scale in (1.0 - 1e-6, 1.0 + 1e-6):
            offset = c_star * scale * direction
            q, dq = np.zeros(2), np.zeros(2)
            desired = (offset[:2], offset[2:], np.zeros(2))
            _, w, row = self._call(gp, q, dq, desired, epsilon=epsilon)
            assert (row["z_norm"] < epsilon) == (scale < 1.0)
            ws.append(w)
        assert np.abs(ws[0] - ws[1]).max() < 1e-4

    def test_outside_layer_hand_computation(self):
        gp = _zero_target_gp(lam=2.0)
        q, dq = np.full(2, 30.0), np.zeros(2)
        qd = q + np.array([8.0, -4.0])
        dqd = np.array([6.0, 2.0])
        desired = (qd, dqd, np.zeros(2))
        tau, _, row = self._call(gp, q, dq, desired)

        xi = np.concatenate([qd - q, dqd - dq])
        z = 2.0 * (self.lyapunov[2:, :] @ xi)
        z_norm = np.linalg.norm(z)
        assert z_norm >= 0.5
        rho = 3.0 * np.sqrt(2.0) * np.sqrt(2.0)
        assert row["rho"] == pytest.approx(rho, abs=1e-9)
        a = gp_query_acceleration(np.zeros(2), xi[:2], xi[2:], GAINS)
        expected = 0.5 * a + rho * z / z_norm
        np.testing.assert_allclose(tau, expected, atol=1e-8)
        assert row["z_norm"] == pytest.approx(z_norm, rel=1e-12)
        assert row["V"] == pytest.approx(xi @ self.lyapunov @ xi, rel=1e-12)

    def test_inside_layer_scales_linearly(self):
        gp = _zero_target_gp()
        epsilon = 0.5
        direction = np.array([1.0, 0.0, 0.0, 0.0])
        z_gain = np.linalg.norm(2.0 * self.lyapunov[2:, :] @ direction)
        ws = []
        for frac in (0.2, 0.4):
            offset = frac * epsilon / z_gain * direction
            q, dq = np.zeros(2), np.zeros(2)
            desired = (offset[:2], offset[2:], np.zeros(2))
            _, w, row = self._call(gp, q, dq, desired, epsilon=epsilon)
            assert row["z_norm"] == pytest.approx(frac * epsilon, rel=1e-9)
            ws.append(w)
        np.testing.assert_allclose(ws[1], 2.0 * ws[0], atol=1e-9)

    def test_rho_zero_reduces_to_gp_controller(self, monkeypatch):
        gp = _zero_target_gp()
        monkeypatch.setattr("gpfl.gpr.rho_from_mean_var",
                            lambda mean, var, beta: (np.zeros(np.shape(mean)[:-1]),
                                                     np.zeros(np.shape(mean))))
        q, dq = np.array([0.1, -0.4]), np.array([0.2, 0.0])
        desired = (np.array([0.6, 0.1]), np.array([0.0, 0.3]), np.array([1.0, 1.0]))
        tau, _, row = self._call(gp, q, dq, desired)
        np.testing.assert_array_equal(tau, _tau("gp", q, dq, desired, gp))
        assert row["rho"] == 0.0

    def test_w_norm_bounded_by_rho(self):
        gp = _zero_target_gp(lam=2.0)
        rng = np.random.default_rng(17)
        cap = 3.0 * np.sqrt(2.0) * np.sqrt(2.0)
        for _ in range(20):
            q, dq = rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2)
            desired = (rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2),
                       rng.uniform(-2, 2, 2))
            _, w, row = self._call(gp, q, dq, desired)
            assert np.linalg.norm(w) <= row["rho"] + 1e-9
            assert row["rho"] <= cap + 1e-9

    def test_non_finite_rho_raises(self, monkeypatch):
        gp = _zero_target_gp()
        monkeypatch.setattr("gpfl.gpr.rho_from_mean_var",
                            lambda mean, var, beta: (np.nan, np.full(2, np.nan)))
        q, dq = np.zeros(2), np.zeros(2)
        desired = (np.ones(2), np.zeros(2), np.zeros(2))
        with pytest.raises(FloatingPointError):
            self._call(gp, q, dq, desired)

    def test_epsilon_zero_pure_sliding(self):
        gp = _zero_target_gp(lam=2.0)
        q, dq = np.zeros(2), np.zeros(2)
        desired = (np.array([0.01, 0.0]), np.zeros(2), np.zeros(2))
        _, w, row = self._call(gp, q, dq, desired, epsilon=0.0)
        assert np.linalg.norm(w) == pytest.approx(row["rho"], rel=1e-12)

    def test_epsilon_zero_at_origin_gives_zero_w(self):
        gp = _zero_target_gp()
        q = np.array([0.2, -0.2])
        dq = np.zeros(2)
        desired = (q.copy(), np.zeros(2), np.zeros(2))
        tau, _, _ = self._call(gp, q, dq, desired, epsilon=0.0)
        np.testing.assert_array_equal(tau, _tau("gp", q, dq, desired, gp))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            _law("robust_gp", _zero_target_gp(), epsilon=-0.1)

    def test_pure_function(self):
        gp = _zero_target_gp()
        q, dq = np.array([0.4, -0.1]), np.array([0.0, 0.2])
        desired = (np.array([0.5, 0.0]), np.zeros(2), np.array([0.3, 0.3]))
        tau1, _, row1 = self._call(gp, q, dq, desired)
        tau2, _, row2 = self._call(gp, q, dq, desired)
        np.testing.assert_array_equal(tau1, tau2)
        assert row1["rho"] == row2["rho"]
        assert row1["V"] == row2["V"]


class TestControllerSpec:
    def test_round_trip_fields(self):
        gp = _zero_target_gp()
        lyap = design_lyapunov(GAINS, 2)
        spec = ControllerSpec(variant="robust_gp", gains=GAINS, lyapunov=lyap,
                              epsilon=0.5, gp=gp, beta=2.0)
        assert spec.variant == "robust_gp"
        assert spec.lyapunov is lyap
        assert spec.beta == 2.0

    def test_lyapunov_weight_validation(self):
        for Q, rule in ((np.eye(3)[:2], "square"),
                        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
                        (-np.eye(2), "positive definite")):
            with pytest.raises(ValueError, match=rule):
                ControllerSpec("robust_gp", GAINS, lyapunov=Q, gp=_zero_target_gp())

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ControllerSpec(variant="pid", gains=GAINS)

    def test_gp_variants_require_model(self):
        with pytest.raises(ValueError):
            ControllerSpec(variant="gp", gains=GAINS)
        with pytest.raises(ValueError):
            ControllerSpec(variant="robust_gp", gains=GAINS, gp=_zero_target_gp())

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            ControllerSpec(variant="true", gains=GAINS, epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon(self, epsilon):
        # a NaN epsilon fails both `||z|| >= epsilon` and `epsilon > 0`, so
        # w = 0 on every tick and robust_gp would silently be gp
        with pytest.raises(ValueError, match="epsilon"):
            ControllerSpec(variant="robust_gp", gains=GAINS, lyapunov=LYAPUNOV,
                           gp=_zero_target_gp(), epsilon=epsilon)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
    def test_beta_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta"):
            ControllerSpec(variant="robust_gp", gains=GAINS, lyapunov=LYAPUNOV,
                           gp=_zero_target_gp(), beta=beta)

    def test_beta_scales_the_half_width(self):
        gp = _zero_target_gp(lam=2.0)
        q, dq = np.zeros(2), np.zeros(2)
        desired = (np.array([0.3, -0.2]), np.zeros(2), np.zeros(2))
        rhos = []
        for beta in (1.0, 4.0):
            law = ControllerSpec("robust_gp", GAINS, LYAPUNOV, gp=gp, beta=beta)
            rhos.append(_record_row(law, q, dq, desired)["rho"])
        # zero-target GP: the mean is ~0, so rho is beta * ||sigma||
        assert rhos[1] == pytest.approx(4.0 * rhos[0], rel=1e-9)
