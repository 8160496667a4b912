import dataclasses
import itertools
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpfl import gpr
from gpfl.config import ExperimentConfig
from gpfl.dynamics import ManipulatorModel, ScaledIdentityNominal, inverse_dynamics
from gpfl.gpr import (BASE_JITTER_FACTOR, MAX_JITTER_FACTOR, GpDataset, GpModel,
                      IllConditionedDatasetError, SeKernelParams, beta_from_lemma,
                      default_init_params, fit, kernel_matrix, load_dataset_csv,
                      load_model_txt, max_information_gain, mismatch_target,
                      mismatch_targets, model_from_params, predict, predict_rows, rho_from_mean_var,
                      save_dataset_csv, save_model_txt, se_kernel, stable_cholesky)
from gpfl.harness import train_gp
from oracles import (TwoLinkOracle, fit_reference, gp_posterior_dense,
                     info_gain_exhaustive, lml_and_grad_reference, lml_grad_reference,
                     predict_reference)


def _lml(ds, params, output_index=0):
    """The LML `fit` maximizes (jitter included), from the reference implementation."""
    theta = np.concatenate([[np.log(params.lam)], np.log(params.lengthscales)])
    lml, _ = lml_and_grad_reference(gpr._pairwise_sq_diffs(ds.inputs),
                                    ds.targets[:, output_index], ds.noise_std ** 2, theta)
    return lml


def _random_dataset(rng, n=20, dim=3, n_outputs=2, noise_std=0.3):
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    Y = np.column_stack([np.sin(X @ rng.normal(size=dim)) for _ in range(n_outputs)])
    return GpDataset(inputs=X, targets=Y, noise_std=noise_std)


class TestKernel:
    def test_hand_value(self):
        params = SeKernelParams(lam=2.0, lengthscales=[1.0, 1.0])
        assert se_kernel([1.0, 0.0], [0.0, 0.0], params) == pytest.approx(2.0 * np.exp(-1.0))

    def test_self_similarity_is_lam(self):
        params = SeKernelParams(lam=3.7, lengthscales=[0.5, 2.0, 1.0])
        x = np.array([0.3, -1.2, 4.0])
        assert se_kernel(x, x, params) == pytest.approx(3.7)

    def test_monotone_decay_with_distance(self):
        params = SeKernelParams(lam=1.0, lengthscales=[1.0])
        vals = [se_kernel([0.0], [d], params) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ard_lengthscales_weight_dimensions(self):
        params = SeKernelParams(lam=1.0, lengthscales=[0.1, 10.0])
        near = se_kernel([0.0, 0.0], [0.0, 1.0], params)
        far = se_kernel([0.0, 0.0], [1.0, 0.0], params)
        assert near > far

    def test_kernel_matrix_consistent(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 4))
        params = SeKernelParams(lam=1.3, lengthscales=rng.uniform(0.5, 2.0, 4))
        K = kernel_matrix(X, params)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(se_kernel(X[i], X[j], params), rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SeKernelParams(lam=0.0, lengthscales=[1.0])
        with pytest.raises(ValueError):
            SeKernelParams(lam=1.0, lengthscales=[1.0, -1.0])
        with pytest.raises(ValueError, match="non-empty"):
            SeKernelParams(lam=1.0, lengthscales=[])
        params = SeKernelParams(lam=1.0, lengthscales=[1.0, 1.0])
        with pytest.raises(ValueError):
            se_kernel([0.0], [0.0, 0.0], params)


def _recording(mp, owner, name, arg_index):
    """Patch owner.name to record (positional argument arg_index, result) per call."""
    seen = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args[arg_index], result))
        return result
    mp.setattr(owner, name, wrapper)
    return seen


class TestOneKernelFormula:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30),
           dim=st.integers(1, 6))
    def test_model_factors_the_lml_kernel_matrix(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim, n_outputs=1,
                             noise_std=float(rng.uniform(0.0, 0.5)))
        theta = np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(-1.0, 1.0, dim)])
        # the parameters as fit turns its best theta into SeKernelParams
        params = SeKernelParams(lam=float(np.exp(theta[0])), lengthscales=np.exp(theta[1:]))
        with pytest.MonkeyPatch.context() as mp:
            seen = _recording(mp, gpr, "stable_cholesky", 0)
            gpr._lml_and_grad(gpr._pairwise_sq_diffs(ds.inputs), ds.targets[:, 0],
                              ds.noise_std ** 2, theta, gpr._lml_workspace(n))
            model_from_params(ds, [params])
        (K_lml, (_, jitter_lml)), (K_model, (_, jitter_model)) = seen
        np.testing.assert_array_equal(K_model, K_lml)
        assert jitter_model == jitter_lml

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 120),
           dim=st.integers(1, 6))
    def test_predict_cross_kernel_at_training_input_is_row_of_k(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim)
        params = [SeKernelParams(lam=float(rng.uniform(0.3, 3.0)),
                                 lengthscales=rng.uniform(0.3, 3.0, dim))
                  for _ in range(ds.n_outputs)]
        with pytest.MonkeyPatch.context() as mp:
            seen_K = _recording(mp, gpr, "stable_cholesky", 0)
            model = model_from_params(ds, params)
            seen_kstar = _recording(mp, gpr, "_trtrs", 1)
            i = int(rng.integers(n))
            predict(model, ds.inputs[i])
        assert len(seen_kstar) == len(seen_K) == ds.n_outputs
        for out, ((k_star, _), (K, _)) in enumerate(zip(seen_kstar, seen_K)):
            np.testing.assert_array_equal(k_star, K[i])
            np.testing.assert_array_equal(k_star, kernel_matrix(ds.inputs, params[out])[i])


class TestMismatchTarget:
    def test_scaled_identity_hand_value(self):
        nominal = ScaledIdentityNominal()
        tau = np.array([3.0, -1.0])
        ddq = np.array([2.0, 4.0])
        got = mismatch_target(nominal, np.zeros(2), np.zeros(2), ddq, tau)
        np.testing.assert_allclose(got, tau - 0.5 * ddq)

    def test_against_symbolic_oracle(self):
        model = ManipulatorModel()
        nominal = ScaledIdentityNominal()
        oracle = TwoLinkOracle(model.masses, model.lengths, model.com_offsets,
                               model.inertias, model.gravity)
        rng = np.random.default_rng(7)
        for _ in range(10):
            q, dq, ddq = rng.uniform(-2.0, 2.0, size=(3, 2))
            tau = oracle.inverse_dynamics(q, dq, ddq)
            expected = ((oracle.inertia(q) - 0.5 * np.eye(2)) @ ddq
                        + oracle.coriolis_torque(q, dq) + oracle.gravity(q))
            got = mismatch_target(nominal, q, dq, ddq, tau)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_true_nominal_gives_zero(self):
        model = ManipulatorModel()
        nominal = model
        oracle = TwoLinkOracle(model.masses, model.lengths, model.com_offsets,
                               model.inertias, model.gravity)
        q, dq, ddq = np.array([0.4, -0.8]), np.array([1.0, 0.3]), np.array([-2.0, 1.5])
        tau = oracle.inverse_dynamics(q, dq, ddq)
        np.testing.assert_allclose(
            mismatch_target(nominal, q, dq, ddq, tau), np.zeros(2), atol=1e-9)

    @pytest.mark.parametrize("nominal", [ScaledIdentityNominal(), ManipulatorModel()],
                             ids=["scaled_identity", "exact"])
    def test_over_states_equals_per_state_target(self, nominal):
        model = ManipulatorModel()
        q, dq, ddq = np.random.default_rng(11).uniform(-2.0, 2.0, size=(3, 7, 2))
        expected = [mismatch_target(nominal, *s, inverse_dynamics(model, *s))
                    for s in zip(q, dq, ddq)]
        got = mismatch_targets(model, nominal, q, dq, ddq)
        assert got.shape == (7, 2)
        np.testing.assert_array_equal(got, expected)


class TestPosterior:
    def test_two_point_explicit_inverse(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[1.0, -2.0], [0.5, 3.0]])
        ds = GpDataset(inputs=X, targets=Y, noise_std=0.3)
        params = SeKernelParams(lam=1.5, lengthscales=[0.9])
        model = model_from_params(ds, [params, params])
        K = kernel_matrix(X, params)
        A = K + (0.09 + model.jitters[0]) * np.eye(2)
        x_star = np.array([0.4])
        k_star = np.array([se_kernel(x_star, X[0], params),
                           se_kernel(x_star, X[1], params)])
        mean, var = predict(model, x_star)
        A_inv = np.linalg.inv(A)
        for i in range(2):
            np.testing.assert_allclose(mean[i], k_star @ A_inv @ Y[:, i], atol=1e-12)
            np.testing.assert_allclose(var[i], 1.5 - k_star @ A_inv @ k_star, atol=1e-12)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            ds = _random_dataset(rng, n=25, dim=4, n_outputs=2,
                                 noise_std=float(rng.uniform(0.05, 0.5)))
            params = [SeKernelParams(lam=float(rng.uniform(0.5, 3.0)),
                                     lengthscales=rng.uniform(0.5, 2.5, 4))
                      for _ in range(2)]
            model = model_from_params(ds, params)
            x_star = rng.uniform(-2.0, 2.0, 4)
            mean, var = predict(model, x_star)
            for i in range(2):
                m_ref, v_ref = gp_posterior_dense(
                    ds.inputs, ds.targets[:, i], x_star, params[i].lam,
                    params[i].lengthscales, ds.noise_std ** 2,
                    jitter=model.jitters[i])
                np.testing.assert_allclose(mean[i], m_ref, atol=1e-8)
                np.testing.assert_allclose(var[i], v_ref, atol=1e-8)

    def test_zero_targets_give_zero_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        ds = GpDataset(inputs=X, targets=np.zeros((10, 2)), noise_std=0.1)
        params = SeKernelParams(lam=1.0, lengthscales=[1.0, 1.0])
        model = model_from_params(ds, [params, params])
        mean, var = predict(model, rng.normal(size=2))
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-14)
        assert (var > 0).all()

    def test_interpolates_with_tiny_noise(self):
        rng = np.random.default_rng(3)
        X = np.linspace(-2.0, 2.0, 7)[:, None]
        Y = np.sin(X)
        ds = GpDataset(inputs=X, targets=Y, noise_std=1e-8)
        params = SeKernelParams(lam=1.0, lengthscales=[1.0])
        model = model_from_params(ds, [params])
        for k in range(7):
            mean, var = predict(model, X[k])
            assert mean[0] == pytest.approx(Y[k, 0], abs=1e-4)
            assert var[0] < 1e-4

    def test_far_query_recovers_prior(self):
        rng = np.random.default_rng(5)
        ds = _random_dataset(rng, n=15, dim=3, noise_std=0.2)
        params = SeKernelParams(lam=2.4, lengthscales=[1.0, 1.0, 1.0])
        model = model_from_params(ds, [params, params])
        mean, var = predict(model, np.full(3, 100.0))
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-10)
        np.testing.assert_allclose(var, np.full(2, 2.4), atol=1e-10)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(8)
        ds = _random_dataset(rng, n=30, dim=3, noise_std=0.15)
        model = fit(ds, default_init_params(ds), n_starts=1, max_iter=20)
        for _ in range(20):
            _, var = predict(model, rng.uniform(-3.0, 3.0, 3))
            for i, p in enumerate(model.params):
                assert 0.0 <= var[i] <= p.lam + 1e-9

    def test_adding_data_reduces_variance(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-2.0, 2.0, size=(12, 2))
        Y = rng.normal(size=(12, 1))
        params = SeKernelParams(lam=1.0, lengthscales=[1.0, 1.0])
        small = model_from_params(GpDataset(X[:8], Y[:8], noise_std=0.1), [params])
        big = model_from_params(GpDataset(X, Y, noise_std=0.1), [params])
        for _ in range(10):
            x_star = rng.uniform(-2.0, 2.0, 2)
            _, v_small = predict(small, x_star)
            _, v_big = predict(big, x_star)
            assert v_big[0] <= v_small[0] + 1e-9

    def test_query_dimension_checked(self):
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng, n=5, dim=3)
        params = SeKernelParams(lam=1.0, lengthscales=np.ones(3))
        model = model_from_params(ds, [params, params])
        with pytest.raises(ValueError):
            predict(model, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises_floating_point_error(self, bad):
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng, n=5, dim=3)
        params = SeKernelParams(lam=1.0, lengthscales=np.ones(3))
        model = model_from_params(ds, [params, params])
        with pytest.raises(FloatingPointError):
            predict(model, np.array([0.0, bad, 0.0]))

    def test_variance_clamp_boundaries(self):
        ds = GpDataset(inputs=np.zeros((1, 1)), targets=np.zeros((1, 1)))
        params = (SeKernelParams(lam=1.0, lengthscales=[1.0]),)

        def doctored(chol_value):
            return GpModel(dataset=ds, params=params, alphas=(np.zeros(1),),
                           chols=(np.array([[chol_value]]),), jitters=(0.0,))

        _, var = predict(doctored(1.0 / np.sqrt(1.0 + 5e-10)), np.zeros(1))
        assert var[0] == 0.0
        with pytest.raises(FloatingPointError):
            predict(doctored(0.1), np.zeros(1))


def _outcome(predict_fn, model, x):
    """(means, variances) as tuples, or the exception type predict_fn raised."""
    try:
        mean, var = predict_fn(model, x)
    except FloatingPointError as exc:
        return type(exc)
    return tuple(mean), tuple(var)


class TestPredictMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 300),
           dim=st.integers(1, 6), n_outputs=st.integers(1, 2),
           noise_std=st.floats(0.0, 0.5))
    def test_bitwise_equal_to_solve_triangular(self, seed, n, dim, n_outputs, noise_std):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim, n_outputs=n_outputs,
                             noise_std=noise_std)
        params = [SeKernelParams(lam=float(rng.uniform(0.3, 3.0)),
                                 lengthscales=rng.uniform(0.3, 3.0, dim))
                  for _ in range(n_outputs)]
        model = model_from_params(ds, params)
        x_train = ds.inputs[int(rng.integers(n))]
        step = rng.normal(size=dim)
        queries = (x_train,
                   x_train + 1e-6 * step / np.linalg.norm(step),
                   rng.uniform(-2.0, 2.0, dim) + 50.0)
        for x in queries:
            assert _outcome(predict, model, x) == _outcome(predict_reference, model, x)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 300),
           dim=st.integers(1, 6), n_outputs=st.integers(1, 2))
    def test_bitwise_equal_to_se_and_trtrs(self, seed, n, dim, n_outputs):
        # predict's kernel runs on the weights GpModel caches; it must give
        # the bits of `_se` on the lengthscales, then one `_trtrs` per output
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim, n_outputs=n_outputs, noise_std=0.05)
        params = [SeKernelParams(lam=float(rng.uniform(0.3, 3.0)),
                                 lengthscales=rng.uniform(0.3, 3.0, dim))
                  for _ in range(n_outputs)]
        model = model_from_params(ds, params)
        for x in rng.uniform(-2.0, 2.0, (5, dim)):
            sq_diffs = (ds.inputs - x) ** 2
            expected = np.empty((2, n_outputs))
            for i, p in enumerate(params):
                k_star = gpr._se(sq_diffs, p.lam, p.lengthscales)
                w, _ = gpr._trtrs(model.chols[i], k_star, lower=1)
                expected[:, i] = float(k_star @ model.alphas[i]), max(p.lam - float(w @ w), 0.0)
            got = np.array(predict(model, x))
            assert (got.view(np.uint64) == expected.view(np.uint64)).all()


class TestPredictRows:
    # the robust record's tolerance for the GP mean and variance
    RTOL, ATOL = 1e-6, 1e-8

    @pytest.mark.parametrize("n_rows", [1, gpr.ROW_BLOCK - 1, gpr.ROW_BLOCK + 1,
                                        2 * gpr.ROW_BLOCK + 3])
    @pytest.mark.parametrize("n", [30, 250])
    def test_agrees_with_predict_row_by_row(self, n_rows, n):
        rng = np.random.default_rng(n_rows + n)
        ds = _random_dataset(rng, n=n, dim=6, n_outputs=2, noise_std=0.05)
        params = [SeKernelParams(lam=float(rng.uniform(0.3, 3.0)),
                                 lengthscales=rng.uniform(0.5, 3.0, 6)) for _ in range(2)]
        model = model_from_params(ds, params)
        # training inputs (variance near 0), points near them, and far points
        X = np.concatenate([ds.inputs, ds.inputs + rng.normal(0.0, 0.3, ds.inputs.shape),
                            rng.uniform(-4.0, 4.0, (n_rows, 6))])
        X = X[rng.permutation(len(X))[:n_rows]]
        means, variances = predict_rows(model, X)
        assert means.shape == variances.shape == (n_rows, 2)
        for x, mean, var in zip(X, means, variances):
            mean_ref, var_ref = predict(model, x)
            np.testing.assert_allclose(mean, mean_ref, rtol=self.RTOL, atol=self.ATOL)
            np.testing.assert_allclose(var, var_ref, rtol=self.RTOL, atol=self.ATOL)

    @pytest.mark.parametrize("bad_row", [0, gpr.ROW_BLOCK - 1, gpr.ROW_BLOCK + 2])
    def test_variance_below_the_clamp_in_any_row_raises(self, bad_row):
        ds = GpDataset(inputs=np.zeros((1, 1)), targets=np.zeros((1, 1)))
        params = (SeKernelParams(lam=1.0, lengthscales=[1.0]),)

        def doctored(chol_value):
            return GpModel(dataset=ds, params=params, alphas=(np.zeros(1),),
                           chols=(np.array([[chol_value]]),), jitters=(0.0,))

        X = np.full((gpr.ROW_BLOCK + 3, 1), 50.0)
        X[bad_row] = 0.0
        _, var = predict_rows(doctored(1.0 / np.sqrt(1.0 + 5e-10)), X)
        assert var[bad_row, 0] == 0.0
        with pytest.raises(FloatingPointError):
            predict_rows(doctored(0.1), X)


def _with_entry(L, index, value):
    L = L.copy()
    L[index] = value
    return L


class TestGpModelValidation:
    @staticmethod
    def _model():
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng, n=4, dim=2, n_outputs=1)
        return model_from_params(ds, [SeKernelParams(lam=1.0, lengthscales=np.ones(2))])

    @pytest.mark.parametrize("edit, message", [
        (lambda L: _with_entry(L, (2, 1), np.nan), "not finite"),
        (lambda L: L[:, :3], "has shape"),
        (lambda L: _with_entry(L, (1, 1), 0.0), "non-positive diagonal"),
        (lambda L: _with_entry(L, (1, 1), -L[1, 1]), "non-positive diagonal"),
    ], ids=["nan_entry", "non_square", "zero_diagonal", "negative_diagonal"])
    def test_bad_factor_rejected(self, edit, message):
        model = self._model()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, chols=(edit(model.chols[0]),))

    def test_wrong_weight_length_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="weights 0 have shape"):
            dataclasses.replace(model, alphas=(model.alphas[0][:3],))
        with pytest.raises(ValueError, match="one factor and one weight vector"):
            dataclasses.replace(model, alphas=())

    def test_c_ordered_factor_stored_fortran_ordered(self):
        model = self._model()
        copy = dataclasses.replace(model, chols=(np.ascontiguousarray(model.chols[0]),))
        assert copy.chols[0].flags.f_contiguous
        x = np.full(model.input_dim, 0.3)
        assert _outcome(predict, copy, x) == _outcome(predict, model, x)


def _lml_problem(seed, n, dim, noise_std):
    """Inputs, one output, its noise variance and a theta around the data scale."""
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng, n=n, dim=dim, n_outputs=1, noise_std=noise_std)
    theta = np.concatenate([[rng.uniform(-1.0, 2.0)], rng.uniform(-1.0, 1.0, dim)])
    return ds.inputs, ds.targets[:, 0], noise_std ** 2, theta


LML_PROBLEMS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 60),
                    dim=st.integers(1, 6), noise_std=st.floats(0.05, 0.5))


class TestLmlGradient:
    @settings(max_examples=60, deadline=None)
    @given(**LML_PROBLEMS)
    def test_matches_dense_reference(self, seed, n, dim, noise_std):
        X, y, noise_var, theta = _lml_problem(seed, n, dim, noise_std)
        _, grad = gpr._lml_and_grad(gpr._pairwise_sq_diffs(X), y, noise_var, theta,
                                    gpr._lml_workspace(n))
        lam = np.exp(theta[0])
        # noise_var >= 0.0025 keeps K_y well conditioned: the jitter ladder
        # never leaves its first rung
        ref = lml_grad_reference(X, y, lam, np.exp(theta[1:]), noise_var,
                                 BASE_JITTER_FACTOR * lam)
        np.testing.assert_allclose(grad, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @settings(max_examples=30, deadline=None)
    @given(**LML_PROBLEMS)
    def test_matches_central_differences_of_the_lml(self, seed, n, dim, noise_std):
        X, y, noise_var, theta = _lml_problem(seed, n, dim, noise_std)
        sq_diffs = gpr._pairwise_sq_diffs(X)
        work = gpr._lml_workspace(n)
        _, grad = gpr._lml_and_grad(sq_diffs, y, noise_var, theta, work)
        h = 1e-5
        numeric = np.empty_like(grad)
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = h
            lml_up, _ = gpr._lml_and_grad(sq_diffs, y, noise_var, theta + step, work)
            lml_down, _ = gpr._lml_and_grad(sq_diffs, y, noise_var, theta - step, work)
            numeric[k] = (lml_up - lml_down) / (2.0 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-5 * np.abs(grad).max())


def _near_indefinite_sq_diffs(rng, n, eps=3e-8):
    """Crafted (n, n, 1) "squared differences" (some negative, so no inputs
    have them) whose SE kernel at lengthscale l is lam * M**(1/l^2)
    elementwise, M = J - eps v v^T with v a unit vector orthogonal to ones.

    K_y's smallest eigenvalue is about -eps * lam / l^2, so with no noise
    l = 1 climbs the jitter ladder to 1e-7 * lam, l = 0.01 exhausts it and
    l = 100 stays on its first rung.
    """
    v = rng.normal(size=n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    return -np.log(1.0 - eps * np.outer(v, v))[:, :, None]


LADDER_LOG_LENGTHSCALES = {"climb": 0.0, "ill": np.log(0.01), "first": np.log(100.0)}


class TestLmlWorkspace:
    """`fit` evaluates every theta on one workspace; reuse must change nothing."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 60), dim=st.integers(1, 6),
           noise_std=st.floats(0.0, 0.5), n_thetas=st.integers(1, 6))
    def test_theta_sequence_equals_fresh_arrays(self, seed, n, dim, noise_std, n_thetas):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim, n_outputs=1, noise_std=noise_std)
        sq_diffs = gpr._pairwise_sq_diffs(ds.inputs)
        y = ds.targets[:, 0]
        work = gpr._lml_workspace(n)
        for _ in range(n_thetas):
            theta = np.concatenate([[rng.uniform(-3.0, 3.0)], rng.uniform(-1.5, 2.5, dim)])
            lml, grad = gpr._lml_and_grad(sq_diffs, y, noise_std ** 2, theta, work)
            ref_lml, ref_grad = lml_and_grad_reference(sq_diffs, y, noise_std ** 2, theta)
            assert lml == ref_lml
            np.testing.assert_array_equal(grad, ref_grad)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 30),
           kinds=st.lists(st.sampled_from(sorted(LADDER_LOG_LENGTHSCALES)), max_size=6))
    def test_jitter_ladder_and_failures_leave_no_trace(self, seed, n, kinds):
        rng = np.random.default_rng(seed)
        sq_diffs = _near_indefinite_sq_diffs(rng, n)
        y = rng.normal(size=n)
        work = gpr._lml_workspace(n)
        # a failure is always followed by a successful call on the same workspace
        for kind in ["ill", *kinds, "climb"]:
            theta = np.array([rng.uniform(-3.0, 3.0), LADDER_LOG_LENGTHSCALES[kind]])
            lam = np.exp(theta[0])
            if kind == "ill":
                with pytest.raises(IllConditionedDatasetError):
                    gpr._lml_and_grad(sq_diffs, y, 0.0, theta, work)
                with pytest.raises(np.linalg.LinAlgError):
                    lml_and_grad_reference(sq_diffs, y, 0.0, theta)
                continue
            _, jitter = stable_cholesky(gpr._se(sq_diffs, lam, np.exp(theta[1:])), lam, 0.0)
            assert (jitter > BASE_JITTER_FACTOR * lam) == (kind == "climb")
            lml, grad = gpr._lml_and_grad(sq_diffs, y, 0.0, theta, work)
            ref_lml, ref_grad = lml_and_grad_reference(sq_diffs, y, 0.0, theta)
            assert lml == ref_lml
            np.testing.assert_array_equal(grad, ref_grad)

    def test_fit_factors_equal_a_fresh_model_and_share_no_memory(self):
        rng = np.random.default_rng(11)
        ds = _random_dataset(rng, n=40, dim=3, n_outputs=3, noise_std=0.2)
        model = fit(ds, default_init_params(ds), n_starts=2, max_iter=30)
        fresh = model_from_params(ds, model.params)
        for L, L_ref, alpha, alpha_ref in zip(model.chols, fresh.chols,
                                              model.alphas, fresh.alphas):
            np.testing.assert_array_equal(L, L_ref)
            np.testing.assert_array_equal(alpha, alpha_ref)
        assert model.jitters == fresh.jitters
        for L_a, L_b in itertools.combinations(model.chols, 2):
            assert not np.shares_memory(L_a, L_b)

    def test_warm_call_allocates_less_than_one_kernel_matrix(self):
        n = 200
        ds = _random_dataset(np.random.default_rng(12), n=n, dim=6, n_outputs=1)
        sq_diffs = gpr._pairwise_sq_diffs(ds.inputs)
        theta = np.concatenate([[0.0], np.zeros(6)])
        work = gpr._lml_workspace(n)
        args = (sq_diffs, ds.targets[:, 0], ds.noise_std ** 2, theta, work)
        gpr._lml_and_grad(*args)
        tracemalloc.start()
        try:
            gpr._lml_and_grad(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(float).itemsize, peak


class TestFit:
    def test_fit_never_below_init(self):
        rng = np.random.default_rng(2)
        ds = _random_dataset(rng, n=25, dim=3, noise_std=0.2)
        init = default_init_params(ds)
        model = fit(ds, init, n_starts=2, max_iter=40)
        for i in range(ds.n_outputs):
            lml_init = _lml(ds, init, output_index=i)
            lml_fit = _lml(ds, model.params[i], output_index=i)
            assert lml_fit >= lml_init - 1e-9

    def test_prior_draw_recovery(self):
        rng = np.random.default_rng(6)
        true = SeKernelParams(lam=1.5, lengthscales=[0.8, 1.2])
        X = rng.uniform(-2.0, 2.0, size=(40, 2))
        K = kernel_matrix(X, true) + 1e-10 * np.eye(40)
        y = np.linalg.cholesky(K) @ rng.normal(size=40)
        ds = GpDataset(inputs=X, targets=y[:, None] + 0.1 * rng.normal(size=(40, 1)),
                       noise_std=0.1)
        model = fit(ds, true, n_starts=2, max_iter=60)
        lml_true = _lml(ds, true)
        lml_fit = _lml(ds, model.params[0])
        assert lml_fit >= lml_true - 1e-6

    def test_fit_respects_bounds(self):
        rng = np.random.default_rng(4)
        ds = _random_dataset(rng, n=15, dim=2, noise_std=0.3)
        model = fit(ds, default_init_params(ds), n_starts=2, max_iter=30)
        for p in model.params:
            assert 1e-8 <= p.lam <= 1e10
            assert ((p.lengthscales >= 1e-3) & (p.lengthscales <= 1e4)).all()

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        ds = _random_dataset(rng, n=5, dim=2)
        init = default_init_params(ds)
        with pytest.raises(ValueError):
            fit(ds, init, n_starts=0)
        one = GpDataset(inputs=np.zeros((1, 2)), targets=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            fit(one, SeKernelParams(lam=1.0, lengthscales=[1.0, 1.0]))
        with pytest.raises(ValueError):
            fit(ds, SeKernelParams(lam=1.0, lengthscales=[1.0]))

    def test_default_init_is_sane(self):
        rng = np.random.default_rng(9)
        ds = _random_dataset(rng, n=20, dim=3)
        init = default_init_params(ds)
        assert init.lam > 0
        assert init.lengthscales.shape == (3,)
        assert (init.lengthscales > 0).all()


class TestFitEvaluatesEachThetaOnce:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 40), dim=st.integers(1, 4),
           n_outputs=st.integers(1, 2), n_starts=st.integers(1, 3),
           noise_std=st.floats(0.0, 0.5))
    def test_equals_the_unmemoized_multi_start_loop(self, seed, n, dim, n_outputs, n_starts,
                                                    noise_std):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, n=n, dim=dim, n_outputs=n_outputs, noise_std=noise_std)
        init = default_init_params(ds)
        model = fit(ds, init, n_starts=n_starts, max_iter=30, seed=seed)
        # at fit's one BLAS thread: the thread count moves LAPACK's rounding,
        # already at n = 5
        with gpr._one_blas_thread():
            params, chols, alphas, jitters = fit_reference(
                ds.inputs, ds.targets, noise_std, init.lam, init.lengthscales,
                n_starts=n_starts, max_iter=30, seed=seed)
        for p, (lam, ls) in zip(model.params, params, strict=True):
            assert p.lam == lam
            np.testing.assert_array_equal(p.lengthscales, ls)
        for L, L_ref, alpha, alpha_ref in zip(model.chols, chols, model.alphas, alphas,
                                              strict=True):
            np.testing.assert_array_equal(L, L_ref)
            np.testing.assert_array_equal(alpha, alpha_ref)
        assert model.jitters == tuple(jitters)

    def test_no_output_evaluates_a_theta_twice(self, monkeypatch):
        ds = _random_dataset(np.random.default_rng(13), n=30, dim=3, n_outputs=2,
                             noise_std=0.2)
        seen = []
        lml_and_grad = gpr._lml_and_grad

        def recording(sq_diffs, y, noise_var, theta, work):
            seen.append((y.tobytes(), theta.tobytes()))
            return lml_and_grad(sq_diffs, y, noise_var, theta, work)
        monkeypatch.setattr(gpr, "_lml_and_grad", recording)
        fit(ds, default_init_params(ds), n_starts=3, max_iter=40)
        assert len({y for y, _ in seen}) == ds.n_outputs
        assert len(set(seen)) == len(seen) > 0

    @settings(max_examples=60, deadline=None)
    @given(X=st.integers(1, 12).flatmap(lambda n: st.integers(1, 5).flatmap(
        lambda d: arrays(np.float64, (n, d), elements=st.floats(-1e150, 1e150)))))
    def test_pairwise_sq_diffs_equal_the_broadcast_square(self, X):
        expected = (X[:, None] - X[None]) ** 2
        got = gpr._pairwise_sq_diffs(X)
        assert got.shape == expected.shape
        assert (got.view(np.uint64) == expected.view(np.uint64)).all()

    def test_peak_memory_below_two_and_a_half_pairwise_arrays(self):
        n, dim = 120, 6
        ds = _random_dataset(np.random.default_rng(14), n=n, dim=dim, n_outputs=2)
        init = default_init_params(ds)
        fit(ds, init, n_starts=1, max_iter=3)
        tracemalloc.start()
        try:
            fit(ds, init, n_starts=1, max_iter=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairwise_bytes = n * n * dim * np.dtype(float).itemsize
        assert peak < 2.5 * pairwise_bytes, peak / pairwise_bytes


class TestStoppingRule:
    def test_starts_stop_at_the_lml_resolution(self, monkeypatch):
        # the default config's training set (n = 100): with scipy's default
        # ftol most starts end ABNORMAL, their line search lost in the LML's
        # rounding noise; at LML_RTOL each start converges, and the fit's LML
        # stays within that resolution of the default-ftol fit's
        results = []
        minimize = scipy.optimize.minimize

        def recording(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        config = ExperimentConfig()
        model, ds, _ = train_gp(config)
        monkeypatch.undo()
        assert ds.n_samples == 100
        assert len(results) == config.gp_n_starts * ds.n_outputs
        assert [r.status for r in results] == [0] * len(results)
        init = default_init_params(ds)
        reference, _, _, _ = fit_reference(
            ds.inputs, ds.targets, ds.noise_std, init.lam, init.lengthscales,
            n_starts=config.gp_n_starts, max_iter=config.gp_max_iter, seed=config.gp_fit_seed,
            ftol=None)
        for i, (p, (lam, ls)) in enumerate(zip(model.params, reference, strict=True)):
            lml = _lml(ds, p, i)
            lml_default = _lml(ds, SeKernelParams(lam=lam, lengthscales=ls), i)
            assert abs(lml - lml_default) <= gpr.LML_RTOL * abs(lml_default), (lml, lml_default)


class TestPotri:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60))
    def test_lower_triangle_equals_the_f2py_potri(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        L = scipy.linalg.cholesky(A @ A.T + n * np.eye(n), lower=True)
        expected, info = scipy.linalg.lapack.dpotri(L, lower=1)
        assert info == 0
        got = gpr._potri(np.asfortranarray(L))
        assert (np.tril(got).view(np.uint64) == np.tril(expected).view(np.uint64)).all()

    def test_zero_on_the_diagonal_raises_naming_info(self):
        L = np.asfortranarray(np.tril(np.ones((4, 4))))
        L[2, 2] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError, match="info 3"):
            gpr._potri(L)

    def test_rejects_what_lapack_cannot_write_in_place(self):
        read_only = np.eye(3, order="F")
        read_only.flags.writeable = False
        # C order (LAPACK would read the transpose), float32, not square, read-only
        for L in (np.eye(3), np.eye(3, dtype=np.float32, order="F"),
                  np.eye(3, order="F")[:, :2], read_only):
            with pytest.raises(ValueError, match="Fortran-ordered float64"):
                gpr._potri(L)


def _blas_thread_counts(controls):
    return [get() for get, _ in controls]


class TestParallelFit:
    def test_plain_loop_where_nothing_is_pinned_gives_the_same_bits(self, monkeypatch):
        if not gpr._openblas_thread_controls():
            pytest.skip("no OpenBLAS found in this process: fit always takes the plain loop")
        ds = _random_dataset(np.random.default_rng(15), n=40, dim=3, n_outputs=2)
        init = default_init_params(ds)
        threads = {}  # which threads evaluated each output's LML, by its targets
        lml_and_grad = gpr._lml_and_grad

        def recording(sq_diffs, y, noise_var, theta, work):
            threads.setdefault(y.tobytes(), set()).add(threading.get_ident())
            return lml_and_grad(sq_diffs, y, noise_var, theta, work)
        monkeypatch.setattr(gpr, "_lml_and_grad", recording)
        threaded = fit(ds, init, n_starts=2, max_iter=30)
        main = threading.get_ident()
        assert len(threads) == ds.n_outputs
        assert all(len(ids) == 1 and main not in ids for ids in threads.values())
        threads.clear()
        # pinned here, at the BLAS thread count fit's own pin would have set
        with gpr._one_blas_thread():
            monkeypatch.setattr(gpr, "_openblas_thread_controls", list)
            looped = fit(ds, init, n_starts=2, max_iter=30)
        assert all(ids == {main} for ids in threads.values())
        for p, q in zip(threaded.params, looped.params, strict=True):
            assert p.lam == q.lam
            np.testing.assert_array_equal(p.lengthscales, q.lengthscales)
        for a, b in itertools.chain(zip(threaded.chols, looped.chols, strict=True),
                                    zip(threaded.alphas, looped.alphas, strict=True)):
            np.testing.assert_array_equal(a, b)
        assert threaded.jitters == looped.jitters

    def test_each_blas_thread_count_is_restored(self, monkeypatch):
        controls = gpr._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS found in this process")
        ds = _random_dataset(np.random.default_rng(16), n=20, dim=2, n_outputs=2)
        init = default_init_params(ds)
        before = _blas_thread_counts(controls)
        try:
            for _, set_threads in controls:
                set_threads(2)
            expected = _blas_thread_counts(controls)
            during = []
            lml_and_grad = gpr._lml_and_grad

            def recording(*args):
                during.append(_blas_thread_counts(controls))
                return lml_and_grad(*args)
            monkeypatch.setattr(gpr, "_lml_and_grad", recording)
            fit(ds, init, n_starts=1, max_iter=5)
            assert during and all(counts == [1] * len(controls) for counts in during)
            assert _blas_thread_counts(controls) == expected

            class Boom(Exception):
                pass

            def failing(*args):
                raise Boom
            monkeypatch.setattr(gpr, "_lml_and_grad", failing)
            with pytest.raises(Boom):
                fit(ds, init, n_starts=1, max_iter=5)
            assert _blas_thread_counts(controls) == expected
        finally:
            for (_, set_threads), count in zip(controls, before):
                set_threads(count)


class TestStableCholesky:
    def test_clean_matrix_uses_base_jitter(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 2))
        params = SeKernelParams(lam=2.0, lengthscales=[1.0, 1.0])
        K = kernel_matrix(X, params)
        L, jitter = stable_cholesky(K, params.lam, 0.25)
        assert jitter == pytest.approx(BASE_JITTER_FACTOR * 2.0)
        np.testing.assert_allclose(L @ L.T, K + (0.25 + jitter) * np.eye(8),
                                   atol=1e-10)

    def test_escalates_on_near_indefinite_matrix(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        K = Q @ np.diag([1.0, 0.5, -1e-8]) @ Q.T
        K = 0.5 * (K + K.T)
        L, jitter = stable_cholesky(K, 1.0, 0.0)
        assert jitter > BASE_JITTER_FACTOR
        assert jitter <= MAX_JITTER_FACTOR * (1.0 + 1e-9)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(3), atol=1e-10)

    def test_raises_when_ladder_exhausted(self):
        with pytest.raises(IllConditionedDatasetError):
            stable_cholesky(-np.eye(3), 1.0, 0.0)

    def test_unscanned_factor_equals_the_scanned_one(self, monkeypatch):
        # K is finite by construction, so skipping cholesky's finiteness scan
        # changes no bit of the factor
        rng = np.random.default_rng(3)
        params = SeKernelParams(lam=1.7, lengthscales=[0.9, 1.3, 1.1])
        K = kernel_matrix(rng.normal(size=(40, 3)), params)
        cholesky = scipy.linalg.cholesky
        check_finite = []

        def recording(*args, **kwargs):
            check_finite.append(kwargs.get("check_finite", True))
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", recording)
        L, jitter = stable_cholesky(K, params.lam, 0.01)
        assert check_finite == [False]
        K_y = K.copy(order="F")
        K_y.flat[::41] += 0.01 + jitter
        np.testing.assert_array_equal(L, cholesky(K_y, lower=True, check_finite=True))

    def test_ladder_stops_when_base_jitter_underflows(self, monkeypatch):
        # 1e-10 * 1e-320 rounds to 0, so no rung adds anything to the
        # singular K_y of two identical noiseless inputs
        cholesky = scipy.linalg.cholesky
        attempts = []

        def counting_cholesky(*args, **kwargs):
            attempts.append(1)
            if len(attempts) > 50:
                pytest.fail("jitter ladder still climbing after 50 attempts")
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        dataset = GpDataset(inputs=np.zeros((2, 1)), targets=np.zeros((2, 1)),
                            noise_std=0.0)
        with pytest.raises(IllConditionedDatasetError):
            model_from_params(dataset, [SeKernelParams(lam=1e-320, lengthscales=[1.0])])
        assert len(attempts) == 7


class TestRho:
    def test_hand_example(self):
        mean = np.array([0.5, -1.1])
        variance = np.array([(1.1 / 3.0) ** 2, (1.2 / 3.0) ** 2])
        rho, components = rho_from_mean_var(mean, variance, 3.0)
        np.testing.assert_allclose(components, [1.6, 2.3], atol=1e-12)
        assert rho == pytest.approx(np.hypot(1.6, 2.3), abs=1e-12)

    def test_zero_mean_reduces_to_beta_sigma(self):
        variance = np.full(2, 0.49)
        rho, _ = rho_from_mean_var(np.zeros(2), variance, 3.0)
        assert rho == pytest.approx(3.0 * 0.7 * np.sqrt(2.0), abs=1e-12)

    def test_zero_variance_reduces_to_mean_norm(self):
        mean = np.array([3.0, -4.0])
        rho, _ = rho_from_mean_var(mean, np.zeros(2), 3.0)
        assert rho == pytest.approx(5.0, abs=1e-12)

    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rho_dominates_mean_norm(self, mean, variance):
        n = min(len(mean), len(variance))
        mean = np.array(mean[:n])
        variance = np.array(variance[:n])
        rho, _ = rho_from_mean_var(mean, variance, 3.0)
        assert rho >= np.linalg.norm(mean) - 1e-12

    def test_monotone_in_variance(self):
        mean = np.array([1.0, -0.5])
        rho_small, _ = rho_from_mean_var(mean, np.full(2, 0.1), 2.0)
        rho_big, _ = rho_from_mean_var(mean, np.full(2, 0.4), 2.0)
        assert rho_big > rho_small

    @given(arrays(np.float64, st.integers(1, 4), elements=st.floats(-1e6, 1e6)),
           arrays(np.float64, 4, elements=st.floats(0.0, 1e6)),
           st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_scalar_beta_matches_the_per_output_form(self, mean, variance, beta):
        # a scalar beta gives the bits a vector np.full(n, beta) gave, so the
        # robust traces did not move when the vector form went
        variance = variance[:mean.size]
        rho, components = rho_from_mean_var(mean, variance, beta)
        expected = np.abs(mean) + np.full(mean.size, beta) * np.sqrt(variance)
        np.testing.assert_array_equal(components, expected)
        assert rho == float(np.sqrt(np.sum(expected ** 2)))


    @given(arrays(np.float64, (5, 2), elements=st.floats(-1e6, 1e6)),
           arrays(np.float64, (5, 2), elements=st.floats(0.0, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_rows_give_each_rows_bits(self, means, variances):
        rhos, components = rho_from_mean_var(means, variances, 3.0)
        for k in range(len(means)):
            rho, row = rho_from_mean_var(means[k], variances[k], 3.0)
            assert rhos[k] == rho
            np.testing.assert_array_equal(components[k], row)


class TestBetaFromLemma:
    def test_zero_gamma_leaves_rkhs_term(self):
        assert beta_from_lemma(1.0, 0.0, 5, 0.5) == pytest.approx(2.0)

    def test_log_cube_term(self):
        delta = 2.0 / np.e
        assert beta_from_lemma(0.0, 1.0, 1, delta) == pytest.approx(300.0)

    def test_additive_term_linear_in_gamma(self):
        b0 = beta_from_lemma(0.0, 1.0, 10, 0.1)
        b2 = beta_from_lemma(0.0, 2.0, 10, 0.1)
        assert b2 == pytest.approx(2.0 * b0)

    def test_vector_norm_bounds(self):
        got = beta_from_lemma(np.array([1.0, 2.0]), 0.0, 3, 0.1)
        np.testing.assert_allclose(got, [2.0, 8.0])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            beta_from_lemma(1.0, 1.0, 1, 0.0)
        with pytest.raises(ValueError):
            beta_from_lemma(1.0, 1.0, 1, 1.5)
        with pytest.raises(ValueError):
            beta_from_lemma(1.0, -1.0, 1, 0.1)
        with pytest.raises(ValueError):
            beta_from_lemma(-1.0, 1.0, 1, 0.1)


class TestInformationGain:
    def test_single_candidate_closed_form(self):
        params = SeKernelParams(lam=2.0, lengthscales=[1.0])
        got = max_information_gain(np.array([[0.3]]), params, 0.5, budget=1)
        assert got == pytest.approx(0.5 * np.log(1.0 + 2.0 / 0.25), abs=1e-12)

    def test_duplicate_adds_less_than_distinct(self):
        params = SeKernelParams(lam=1.0, lengthscales=[1.0])
        dup = max_information_gain(np.array([[0.0], [0.0]]), params, 0.3, budget=2)
        distinct = max_information_gain(np.array([[0.0], [2.0]]), params, 0.3, budget=2)
        assert distinct > dup

    def test_greedy_near_exhaustive_optimum(self):
        rng = np.random.default_rng(20)
        for trial in range(50):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(3, 9))
            params = SeKernelParams(lam=float(rng.uniform(0.5, 2.0)),
                                    lengthscales=rng.uniform(0.5, 2.0, dim))
            noise_bound = float(rng.uniform(0.2, 1.0))
            candidates = rng.uniform(-2.0, 2.0, size=(n, dim))
            greedy = max_information_gain(candidates, params, noise_bound, budget=3)
            best = info_gain_exhaustive(
                candidates, lambda a, b: se_kernel(a, b, params),
                noise_bound ** 2, budget=3)
            assert greedy <= best + 1e-9
            assert greedy >= (1.0 - 1.0 / np.e) * best - 1e-9

    def test_budget_larger_than_pool(self):
        params = SeKernelParams(lam=1.0, lengthscales=[1.0])
        candidates = np.array([[0.0], [1.0]])
        full = max_information_gain(candidates, params, 0.5, budget=10)
        exact = info_gain_exhaustive(
            candidates, lambda a, b: se_kernel(a, b, params), 0.25, budget=2)
        assert full == pytest.approx(exact, abs=1e-10)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(21)
        params = SeKernelParams(lam=1.0, lengthscales=np.ones(2))
        candidates = rng.uniform(-2.0, 2.0, size=(10, 2))
        gains = [max_information_gain(candidates, params, 0.4, budget=b)
                 for b in (1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))

    def test_rejects_bad_arguments(self):
        params = SeKernelParams(lam=1.0, lengthscales=[1.0])
        with pytest.raises(ValueError):
            max_information_gain(np.array([[0.0]]), params, 0.5, budget=0)
        with pytest.raises(ValueError):
            max_information_gain(np.array([[0.0]]), params, 0.0, budget=1)
        with pytest.raises(ValueError):
            max_information_gain([], params, 0.5, budget=1)


class TestSerialization:
    def test_dataset_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(12, 6))
        Y = rng.normal(size=(12, 2))
        ds = GpDataset(inputs=X, targets=Y, noise_std=0.37)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.inputs, ds.inputs)
        np.testing.assert_array_equal(loaded.targets, ds.targets)
        assert loaded.noise_std == 0.37

    def test_dataset_csv_header_layout(self, tmp_path):
        ds = GpDataset(inputs=np.zeros((2, 6)), targets=np.zeros((2, 2)),
                       noise_std=0.1)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# noise_std=0.10000000000000001"
        assert lines[1] == "q1,q2,dq1,dq2,ddq1,ddq2,e1,e2"

    def test_dataset_csv_rejects_inputs_not_in_joint_triples(self, tmp_path):
        ds = GpDataset(inputs=np.zeros((2, 4)), targets=np.zeros((2, 1)))
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match="input_dim 4 is not a multiple of 3"):
            save_dataset_csv(ds, path)
        assert not path.exists()

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4), n_joints=st.integers(1, 3), n_outputs=st.integers(1, 3),
           noise_std=st.floats(0.0, 1e3), data=st.data())
    def test_every_written_dataset_loads_back_equal(self, tmp_path_factory, n, n_joints,
                                                     n_outputs, noise_std, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        ds = GpDataset(inputs=data.draw(arrays(float, (n, 3 * n_joints), elements=finite)),
                       targets=data.draw(arrays(float, (n, n_outputs), elements=finite)),
                       noise_std=noise_std)
        path = tmp_path_factory.mktemp("round_trip") / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()
        assert loaded.targets.tobytes() == ds.targets.tobytes()
        assert loaded.noise_std == ds.noise_std

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# noise_std=0\nq1,e1\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_load_rejects_unknown_column(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("q1,extra,e1\n0.1,0.2,0.3\n")
        with pytest.raises(ValueError, match="extra"):
            load_dataset_csv(path)

    def test_load_targets_are_e_digits_only(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("q1,dq1,ddq1,e1,e2\n0.1,0.2,0.3,0.4,0.5\n")
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.inputs, [[0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(loaded.targets, [[0.4, 0.5]])

    @pytest.mark.parametrize("text, message", [
        ("q1,dq1,ddq1,e1\n0.1,0.2,0.3,abc\n", ":2: e1 is not a number: 'abc'"),
        ("# noise_std=x\nq1,e1\n0.1,0.2\n", ":1: noise_std is not a number: 'x'"),
        ("q1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n0.3\n", ":3: 1 values for 4 columns"),
        ("q1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4,0.5\n", ":2: 5 values for 4 columns"),
        ("# noise_std=nan\nq1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n", "noise_std must be nonnegative"),
        # input columns must come in save_dataset_csv's order, which the GP's inputs keep
        ("dq1,q1,ddq1,e1\n0.1,0.2,0.3,0.4\n",
         ":1: columns dq1,q1,ddq1,e1 are not in the order q1,dq1,ddq1,e1"),
        ("q1,q1,dq1,dq2,ddq1,ddq2,e1\n0.1,0.2,0.3,0.4,0.5,0.6,0.7\n",
         ":1: columns q1,q1,dq1,dq2,ddq1,ddq2,e1 are not in the order q1,q2,dq1,dq2,ddq1,ddq2,e1"),
        ("e1,q1,dq1,ddq1\n0.1,0.2,0.3,0.4\n",
         ":1: columns e1,q1,dq1,ddq1 are not in the order q1,dq1,ddq1,e1"),
        ("# noise_std=0\nq2,q1,dq1,dq2,ddq1,ddq2,e1\n0.1,0.2,0.3,0.4,0.5,0.6,0.7\n",
         ":2: columns q2,q1,dq1,dq2,ddq1,ddq2,e1 are not in the order q1,q2,dq1,dq2,ddq1,ddq2,e1"),
        # only the layout save_dataset_csv writes: at least one joint's q/dq/ddq triple
        # and one output
        ("e1\n0.1\n", ":1: columns e1 are not in the order q1,dq1,ddq1,e1"),
        ("q1,e1\n0.1,0.2\n", ":1: columns q1,e1 are not in the order q1,dq1,ddq1,e1"),
        ("q1,q2,dq1,ddq1,e1\n0.1,0.2,0.3,0.4,0.5\n",
         ":1: columns q1,q2,dq1,ddq1,e1 are not in the order q1,dq1,ddq1,e1"),
        ("q1,dq1,ddq1\n0.1,0.2,0.3\n",
         ":1: columns q1,dq1,ddq1 are not in the order q1,dq1,ddq1,e1"),
        # one noise level, said before the header
        ("# noise_std=0.1\n# noise_std=0.5\nq1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n",
         ":2: duplicate key 'noise_std'"),
        ("q1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n# noise_std=0.7\n0.5,0.6,0.7,0.8\n",
         ":3: noise_std must come before the header"),
        ("# noise_std=0.1\nq1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n# noise_std=0.7\n",
         ":4: noise_std must come before the header"),
        # and no other comment line: a mistyped key would load as noise 0
        ("q1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n# noise=0.7\n0.5,0.6,0.7,0.8\n",
         ":3: comment line '# noise=0.7'"),
        ("# fitted\n# noise_std=0.1\nq1,dq1,ddq1,e1\n0.1,0.2,0.3,0.4\n",
         ":1: comment line '# fitted'"),
        ("# noise_std=0.1\nq1,dq1,ddq1,e1\n#\n0.1,0.2,0.3,0.4\n", ":3: comment line '#'"),
    ])
    def test_load_names_the_bad_line(self, tmp_path, text, message):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_dataset_csv(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("key", ["n_outputs", "input_dim", "n_samples", "noise_std",
                                     "output2.lambda", "output1.lengthscale3",
                                     "output2.jitter"])
    def test_model_txt_missing_key_names_it(self, tmp_path, key):
        ds = _random_dataset(np.random.default_rng(32), n=5, dim=3)
        params = SeKernelParams(lam=1.0, lengthscales=[0.5, 1.0, 2.0])
        path = tmp_path / "gp_model.txt"
        save_model_txt(model_from_params(ds, [params, params]), path)
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if not line.startswith(f"{key}=")))
        with pytest.raises(ValueError, match=key):
            load_model_txt(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "n_outputs=1\n", ":15: duplicate key 'n_outputs'"),
        (lambda text: text.replace("input_dim=3", "input_dim=3.0"),
         ":3: input_dim is not a number: '3.0'"),
        (lambda text: text.replace("output1.lambda=1", "output1.lambda=one"),
         ":5: output1.lambda is not a number: 'one'"),
        (lambda text: text + "stray\n", ":15: expected key=value"),
        # blank and comment lines are skipped but still counted
        (lambda text: "# fitted\n\n" + text + "stray\n", ":17: expected key=value"),
        (lambda text: "# fitted\n\n" + text + "n_outputs=1\n", ":17: duplicate key 'n_outputs'"),
        (lambda text: text + "bogus=3\n", ":15: unknown key 'bogus'"),
        (lambda text: text.replace("input_dim=3", "input_dim=1"),
         ":7: unknown key 'output1.lengthscale2'"),
        (lambda text: text.replace("n_outputs=2", "n_outputs=1"),
         ":10: unknown key 'output2.lambda'"),
        (lambda text: text.replace("input_dim=3", "input_dim=0"), ":3: input_dim must be >= 1"),
        (lambda text: text.replace("n_outputs=2", "n_outputs=0"), ":1: n_outputs must be >= 1"),
        (lambda text: text.replace("n_samples=5", "n_samples=-5"),
         ":2: n_samples must be >= 1, got -5"),
        (lambda text: text.replace("n_samples=5", "n_samples=5.0"),
         ":2: n_samples is not a number: '5.0'"),
        (lambda text: re.sub("noise_std=.*", "noise_std=abc", text),
         ":4: noise_std is not a number: 'abc'"),
        (lambda text: re.sub("noise_std=.*", "noise_std=-0.1", text),
         ":4: noise_std must be finite and >= 0, got -0.1"),
        (lambda text: re.sub("noise_std=.*", "noise_std=inf", text),
         ":4: noise_std must be finite and >= 0, got inf"),
        (lambda text: text.replace("output1.jitter=1e-10", "output1.jitter=xyz"),
         ":9: output1.jitter is not a number: 'xyz'"),
        (lambda text: text.replace("output2.jitter=1e-10", "output2.jitter=nan"),
         ":14: output2.jitter must be finite and >= 0, got nan"),
        (lambda text: text.replace("output1.lambda=1", "output1.lambda=-1"),
         ":5: output1.lambda must be finite and > 0, got -1"),
        (lambda text: text.replace("output1.lambda=1", "output1.lambda=0"),
         ":5: output1.lambda must be finite and > 0, got 0"),
        (lambda text: text.replace("output2.lambda=1", "output2.lambda=nan"),
         ":10: output2.lambda must be finite and > 0, got nan"),
        (lambda text: text.replace("output1.lengthscale2=1", "output1.lengthscale2=inf"),
         ":7: output1.lengthscale2 must be finite and > 0, got inf"),
        (lambda text: text.replace("output2.lengthscale3=2", "output2.lengthscale3=0"),
         ":13: output2.lengthscale3 must be finite and > 0, got 0"),
        (lambda text: text.replace("output2.lengthscale1=0.5", "output2.lengthscale1=nan"),
         ":11: output2.lengthscale1 must be finite and > 0, got nan"),
    ])
    def test_model_txt_names_the_bad_line(self, tmp_path, edit, message):
        ds = _random_dataset(np.random.default_rng(32), n=5, dim=3)
        params = SeKernelParams(lam=1.0, lengthscales=[0.5, 1.0, 2.0])
        path = tmp_path / "gp_model.txt"
        save_model_txt(model_from_params(ds, [params, params]), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError) as exc:
            load_model_txt(path)
        assert message in str(exc.value)

    def test_model_txt_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = _random_dataset(rng, n=10, dim=3, noise_std=0.2)
        params = [SeKernelParams(lam=1.7, lengthscales=[0.5, 1.0, 2.0]),
                  SeKernelParams(lam=0.3, lengthscales=[2.0, 0.7, 1.1])]
        model = model_from_params(ds, params)
        path = tmp_path / "gp_model.txt"
        save_model_txt(model, path, dataset_ref="gp_dataset.csv")
        loaded_params, meta = load_model_txt(path)
        assert meta["dataset"] == "gp_dataset.csv"
        assert int(meta["n_samples"]) == 10
        assert float(meta["noise_std"]) == 0.2
        rebuilt = model_from_params(ds, loaded_params)
        for _ in range(5):
            x = rng.normal(size=3)
            m0, v0 = predict(model, x)
            m1, v1 = predict(rebuilt, x)
            np.testing.assert_allclose(m1, m0, atol=1e-12)
            np.testing.assert_allclose(v1, v0, atol=1e-12)


class TestDatasetValidation:
    def test_arrays_are_stored_c_contiguous(self):
        # column slices of a Fortran-ordered table; the fitted bits depend on the
        # memory order the kernel sums in
        data = np.asfortranarray(np.arange(28.0).reshape(4, 7))
        ds = GpDataset(inputs=data[:, :6], targets=data[:, 6:])
        assert ds.inputs.flags.c_contiguous and ds.targets.flags.c_contiguous
        np.testing.assert_array_equal(ds.inputs, data[:, :6])

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            GpDataset(inputs=np.zeros((3, 6)), targets=np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 6))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            GpDataset(inputs=bad, targets=np.zeros((2, 2)))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            GpDataset(inputs=np.zeros((2, 6)), targets=np.zeros((2, 2)),
                      noise_std=-0.1)

    @pytest.mark.parametrize("noise_std", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise_std):
        with pytest.raises(ValueError):
            GpDataset(inputs=np.zeros((2, 6)), targets=np.zeros((2, 2)),
                      noise_std=noise_std)
