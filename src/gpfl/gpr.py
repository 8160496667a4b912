"""Exact Gaussian process regression with a squared-exponential ARD kernel.

Learns the N-output model-mismatch torque as N independent GPs over the
3N-dimensional location (q, dq, ddq).  Hyperparameters are fitted by
multi-start maximization of the log marginal likelihood over log-parameters
with analytic gradients.  The robust controller consumes the rho bound; a
greedy information-gain estimate and the lemma-style beta are here for the
library's callers, and nothing in the package calls them.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack

from .textio import FLOAT, read_pairs, write_table

BASE_JITTER_FACTOR = 1e-10
MAX_JITTER_FACTOR = 1e-4
_JITTER_RUNGS = 7  # BASE_JITTER_FACTOR * 10**k for k = 0 .. 6 reaches MAX_JITTER_FACTOR
VARIANCE_CLAMP = -1e-9
ROW_BLOCK = 32  # query rows per `predict_rows` block: its (32, n, d) differences stay small
# L-BFGS-B's `ftol`: a start stops once an iteration lowers -LML by at most this
# fraction, ~4x the LML's rounding noise at the optimum of the default training
# sets (n = 100, 250: 8e-9 to 2.8e-8 relative, std along a line).  scipy's
# default, 2.2e-9, only sends the line search into that noise until it fails.
LML_RTOL = 1e-7

_LOG_LAM_BOUNDS = (np.log(1e-8), np.log(1e10))
_LOG_LEN_BOUNDS = (np.log(1e-3), np.log(1e4))

_trtrs, _potrs = scipy.linalg.get_lapack_funcs(("trtrs", "potrs"), dtype=np.float64)


def _capsule_function(capsule, restype, *argtypes):
    """The C function a SciPy Cython API capsule holds, callable through ctypes."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    return ctypes.CFUNCTYPE(restype, *argtypes)(address)


_INT_P = ctypes.POINTER(ctypes.c_int)
# LAPACK dpotri(uplo, n, a, lda, info) from scipy.linalg.cython_lapack.  A
# CFUNCTYPE call releases the GIL, where the f2py `potri` holds it throughout,
# so `fit`'s per-output workers overlap their potri calls.
_dpotri = _capsule_function(cython_lapack.__pyx_capi__["dpotri"], None,
                            ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P)


class IllConditionedDatasetError(RuntimeError):
    """Kernel matrix stayed non positive definite through the jitter ladder."""


@dataclass(frozen=True)
class SeKernelParams:
    """Signal variance lam and per-dimension ARD lengthscales; `weights`,
    -1/lengthscale^2, is what `_se` multiplies the squared differences by."""

    lam: float
    lengthscales: np.ndarray
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = float(self.lam)
        ls = np.asarray(self.lengthscales, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lengthscales", ls)
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError("lam must be positive and finite")
        if ls.ndim != 1 or ls.size == 0 or not (np.isfinite(ls).all() and (ls > 0).all()):
            raise ValueError("lengthscales must be a non-empty vector of positive finite scalars")
        object.__setattr__(self, "weights", -1.0 / ls ** 2)


@dataclass
class GpDataset:
    """Training inputs (n x 3N), mismatch targets (n x N) and noise level; both
    arrays are stored C-contiguous, so equal values give equal fitted bits."""

    inputs: np.ndarray
    targets: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.ascontiguousarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.ascontiguousarray(self.targets, dtype=float))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have one row per sample")
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset must be finite")
        self.noise_std = float(self.noise_std)
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be nonnegative and finite")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class GpModel:
    """Per-output kernel params with cached Cholesky factors and weights.

    Immutable after fit; predict only reads from it.  The factors and weights
    are validated once here, so predict need not rescan them per query: each
    factor is a finite, Fortran-ordered (n, n) array with a positive
    diagonal, each weight vector a finite (n,) array.
    """

    dataset: GpDataset
    params: tuple
    alphas: tuple
    chols: tuple
    jitters: tuple

    def __post_init__(self):
        n = self.dataset.n_samples
        if not len(self.alphas) == len(self.chols) == len(self.params):
            raise ValueError("need one factor and one weight vector per output")
        chols = tuple(np.asfortranarray(L, dtype=float) for L in self.chols)
        alphas = tuple(np.asarray(a, dtype=float) for a in self.alphas)
        for i, (L, alpha) in enumerate(zip(chols, alphas)):
            if L.shape != (n, n):
                raise ValueError(f"factor {i} has shape {L.shape}, expected {(n, n)}")
            if not np.isfinite(L).all():
                raise ValueError(f"factor {i} is not finite")
            if not (np.diagonal(L) > 0.0).all():
                raise ValueError(f"factor {i} has a non-positive diagonal entry")
            if alpha.shape != (n,):
                raise ValueError(f"weights {i} have shape {alpha.shape}, expected {(n,)}")
            if not np.isfinite(alpha).all():
                raise ValueError(f"weights {i} are not finite")
        object.__setattr__(self, "chols", chols)
        object.__setattr__(self, "alphas", alphas)

    @property
    def n_outputs(self) -> int:
        return len(self.params)

    @property
    def n_samples(self) -> int:
        return self.dataset.n_samples

    @property
    def input_dim(self) -> int:
        return self.dataset.input_dim


def _pairwise_sq_diffs(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Squared differences of X's rows and Y's (default X's) per dimension, in place."""
    d = X[:, None, :] - (X if Y is None else Y)[None, :, :]
    return np.square(d, out=d)


def _se(sq_diffs: np.ndarray, params: SeKernelParams, out=None) -> np.ndarray:
    """The one SE-ARD kernel formula, over per-dimension squared differences:
    exp and the lam product run in place on the matmul's result (`out` or a
    new array).  Negating the weights instead of the product is exact."""
    k = np.matmul(sq_diffs, params.weights, out=out)
    return np.multiply(params.lam, np.exp(k, out=k), out=k)


def se_kernel(x, y, params: SeKernelParams) -> float:
    """k(x, y) = lam * exp(-sum_d (x_d - y_d)^2 / l_d^2)."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.shape != params.lengthscales.shape:
        raise ValueError("kernel arguments must match the lengthscale dimension")
    return float(_se((xv - yv) ** 2, params, out=np.empty(())))


def kernel_matrix(X: np.ndarray, params: SeKernelParams) -> np.ndarray:
    return _se(_pairwise_sq_diffs(np.asarray(X, dtype=float)), params)


def mismatch_target(nominal, q, dq, ddq, tau) -> np.ndarray:
    """Mismatch torque e = tau - (M_hat(q) ddq + n_hat(q, dq))."""
    return np.asarray(tau, dtype=float) - nominal.torque(q, dq, ddq)


def mismatch_targets(exact, nominal, q, dq, ddq) -> np.ndarray:
    """`mismatch_target` with tau = exact.torque at each state row of the (T, n)
    arrays q, dq, ddq; both models see one state at a time."""
    return np.fromiter((mismatch_target(nominal, *s, exact.torque(*s)) for s in zip(q, dq, ddq)),
                       np.dtype((float, q.shape[1])), len(q))


def stable_cholesky(K: np.ndarray, lam: float, noise_var: float, out=None):
    """Lower Cholesky of K + (noise_var + jitter) I.

    Jitter starts at 1e-10*lam and escalates tenfold on failure, capped at
    1e-4*lam so silent degradation is impossible: at most seven attempts,
    also when 1e-10*lam underflows to 0.  Each attempt copies K into `out`,
    a Fortran-ordered (n, n) buffer (a new one if None), and factors it in
    place, so the returned factor is `out`.  K_y is not scanned: the dataset
    and kernel parameters are checked finite where they are made.
    """
    n = K.shape[0]
    K_y = np.empty((n, n), order="F") if out is None else out
    jitter = BASE_JITTER_FACTOR * lam
    for _ in range(_JITTER_RUNGS):
        K_y[...] = K
        K_y.flat[::n + 1] += noise_var + jitter
        try:
            L = scipy.linalg.cholesky(K_y, lower=True, overwrite_a=True,
                                      check_finite=False)
            return L, jitter
        except scipy.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedDatasetError(
        f"kernel matrix not positive definite even with jitter {MAX_JITTER_FACTOR:g}*lam")


def _cho_solve(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cho_solve's potrs without its finiteness scans: L is `stable_cholesky`'s factor."""
    alpha, info = _potrs(L, y, lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"potrs failed with info {info}")
    return alpha


def _potri(L: np.ndarray) -> np.ndarray:
    """K_y^{-1} over the lower triangle of its Cholesky factor L, in place
    (LAPACK dpotri without the GIL); the upper triangle is left as it was."""
    n = L.shape[0]
    if not (L.dtype == np.float64 and L.shape == (n, n) and L.flags.f_contiguous
            and L.flags.writeable):
        raise ValueError("potri needs a writable Fortran-ordered float64 (n, n) factor")
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    _dpotri(b"L", size, L.ctypes.data, size, info)
    if info.value != 0:
        raise scipy.linalg.LinAlgError(f"potri failed with info {info.value}")
    return L


def _lml_workspace(n: int):
    """The three (n, n) arrays one `_lml_and_grad` call writes into: K, the
    Fortran-ordered factor (then K_y^{-1}), and W o K."""
    return np.empty((n, n)), np.empty((n, n), order="F"), np.empty((n, n))


def _lml_and_grad(sq_diffs: np.ndarray, y: np.ndarray, noise_var: float,
                  theta: np.ndarray, work):
    """Log marginal likelihood and gradient w.r.t. log(lam), log(lengthscales).

    The gradient is GPML eq. 5.9, 0.5 tr(W dK_y/dtheta) with
    W = alpha alpha^T - K_y^{-1}.  With WK = W o K, dK/dlog(lam) = K gives
    0.5 sum(WK), and dK/dlog(l_d) = 2 K o D_d / l_d^2 (D_d the squared
    differences along d) gives sum(WK o D_d) / l_d^2, all d in one product.
    The diagonal jitter scales with lam, so d(jitter)/d(log lam) = jitter is
    included to keep the gradient exact for the objective as implemented.
    `work` is an `_lml_workspace(n)`; every (n, n) result is written into
    it, so a caller that evaluates many thetas allocates it once.
    """
    n, _, dim = sq_diffs.shape
    K_buf, L_buf, WK_buf = work
    params = SeKernelParams(np.exp(theta[0]), np.exp(theta[1:]))
    K = _se(sq_diffs, params, out=K_buf)
    L, jitter = stable_cholesky(K, params.lam, noise_var, out=L_buf)
    alpha = _cho_solve(L, y)
    lml = (-0.5 * float(y @ alpha)
           - float(np.log(np.diag(L)).sum())
           - 0.5 * n * np.log(2.0 * np.pi))
    # potri writes K_y^{-1} over L's lower triangle and leaves the upper one
    # as in L, all zeros, so one transposed sum mirrors it (doubling the
    # diagonal, which is then put back)
    inv = _potri(L)
    a_inv = np.add(inv, inv.T, out=WK_buf)
    np.fill_diagonal(a_inv, np.diagonal(inv))
    # K_y^{-1} is mirrored, so its buffer takes alpha alpha^T, written through
    # the C-ordered view inv.T: a_i a_j == a_j a_i exactly, and the writes
    # are contiguous.  einsum, not np.outer: the broadcast multiply behind
    # np.outer allocates a 128 KB iterator buffer on every call
    WK = np.subtract(np.einsum("i,j->ij", alpha, alpha, out=inv.T), a_inv, out=WK_buf)
    trace_w = float(np.trace(WK))
    WK *= K
    grad = np.empty_like(theta)
    grad[0] = 0.5 * (WK.sum() + jitter * trace_w)
    grad[1:] = WK.reshape(-1) @ sq_diffs.reshape(n * n, dim) / params.lengthscales ** 2
    return lml, grad


def default_init_params(dataset: GpDataset) -> SeKernelParams:
    """Data-scaled initialization: lam from target spread, lengthscales from input spread."""
    lam = max(float(np.var(dataset.targets)), 1e-2)
    span = np.std(dataset.inputs, axis=0)
    ls = np.where(span > 1e-6, span, 1.0)
    return SeKernelParams(lam=lam, lengthscales=ls)


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process, found through /proc/self/maps; [] where there is none or no map."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = dict.fromkeys(f[5].strip() for f in fields
                          if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower())
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since the map was read
            continue
        # scipy-openblas wheels prefix the names with scipy_ (and numpy's ILP64
        # build suffixes them with 64_); a plain OpenBLAS has neither
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS in the process on one thread inside the block, each
    restored to its own count after it; yields whether any was found."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(1)
        yield bool(controls)
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def fit(dataset: GpDataset, init: SeKernelParams, n_starts: int = 4,
        max_iter: int = 60, seed: int = 0) -> GpModel:
    """Fit per-output hyperparameters by multi-start L-BFGS on the LML.

    Each start stops at the LML's resolution, `LML_RTOL`.  The initialization
    is always evaluated and kept as the fallback, so the returned parameters
    never have a lower LML than `init`.  Each distinct theta is evaluated
    once per output, on that output's own workspace, and the one
    pairwise-difference array also serves the final factorization.

    Every OpenBLAS in the process runs on one thread until `fit` returns, so
    the result does not depend on the BLAS thread count, and the outputs are
    fitted side by side, one worker thread each (their `potri` calls release
    the GIL).  Where no OpenBLAS can be pinned, the outputs are fitted one
    after another on the calling thread.
    scipy.optimize is imported here, so runs that never fit do not load it.
    """
    import concurrent.futures

    import scipy.optimize

    if dataset.n_samples < 2:
        raise ValueError("need at least two samples to fit")
    if init.lengthscales.shape != (dataset.input_dim,):
        raise ValueError("init lengthscales must match the input dimension")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    sq_diffs = _pairwise_sq_diffs(dataset.inputs)
    noise_var = dataset.noise_std ** 2
    rng = np.random.default_rng(seed)
    theta0 = np.concatenate([[np.log(init.lam)], np.log(init.lengthscales)])
    lo = np.array([_LOG_LAM_BOUNDS[0]] + [_LOG_LEN_BOUNDS[0]] * dataset.input_dim)
    hi = np.array([_LOG_LAM_BOUNDS[1]] + [_LOG_LEN_BOUNDS[1]] * dataset.input_dim)
    theta0 = np.clip(theta0, lo, hi)
    bounds = list(zip(lo, hi))
    # drawn up front, output by output, so the order of the draws does not
    # depend on which worker runs first
    starts = [[theta0] + [np.clip(theta0 + rng.normal(0.0, 1.0, size=theta0.size), lo, hi)
                          for _ in range(n_starts - 1)]
              for _ in range(dataset.n_outputs)]

    def fit_output(i):
        y = dataset.targets[:, i]
        work = _lml_workspace(dataset.n_samples)
        # L-BFGS-B asks again for thetas it evaluated (x, a trial step, x), and
        # start 0 begins at theta0.  The LML is deterministic in theta, so an
        # exact repeat is answered from here, with a copy of the gradient.
        seen = {}

        def objective(theta):
            key = theta.tobytes()
            if key not in seen:
                try:
                    lml, grad = _lml_and_grad(sq_diffs, y, noise_var, theta, work)
                    seen[key] = -lml, -grad
                except IllConditionedDatasetError:
                    seen[key] = 1e25, np.zeros_like(theta)
            value, grad = seen[key]
            return value, grad.copy()

        best_theta = theta0
        best_val = objective(theta0)[0]
        for start in starts[i]:
            res = scipy.optimize.minimize(objective, start, jac=True,
                                          method="L-BFGS-B", bounds=bounds,
                                          options={"maxiter": max_iter, "ftol": LML_RTOL})
            if np.isfinite(res.fun) and res.fun < best_val:
                best_val = res.fun
                best_theta = res.x
        return SeKernelParams(lam=float(np.exp(best_theta[0])),
                              lengthscales=np.exp(best_theta[1:]))

    with _one_blas_thread() as pinned:
        if pinned:
            with concurrent.futures.ThreadPoolExecutor(dataset.n_outputs) as pool:
                params_out = list(pool.map(fit_output, range(dataset.n_outputs)))
        else:
            params_out = [fit_output(i) for i in range(dataset.n_outputs)]
        return _factorize(dataset, params_out, sq_diffs)


def model_from_params(dataset: GpDataset, params_per_output) -> GpModel:
    """Build the cached factorizations for fixed hyperparameters."""
    return _factorize(dataset, params_per_output, _pairwise_sq_diffs(dataset.inputs))


def _factorize(dataset: GpDataset, params_per_output, sq_diffs: np.ndarray) -> GpModel:
    """`model_from_params` on the dataset's `_pairwise_sq_diffs`, passed in."""
    params = tuple(params_per_output)
    if len(params) != dataset.n_outputs:
        raise ValueError("need one SeKernelParams per output")
    alphas, chols, jitters = [], [], []
    for i, p in enumerate(params):
        if p.lengthscales.shape != (dataset.input_dim,):
            raise ValueError("lengthscales must match the input dimension")
        L, jitter = stable_cholesky(_se(sq_diffs, p), p.lam, dataset.noise_std ** 2)
        alphas.append(_cho_solve(L, dataset.targets[:, i]))
        chols.append(L)
        jitters.append(jitter)
    return GpModel(dataset=dataset, params=params, alphas=tuple(alphas),
                   chols=tuple(chols), jitters=tuple(jitters))


def predict(model: GpModel, x):
    """Posterior mean and variance per output at a single query location.

    Costs one triangular solve per output on the cached factor (GPML
    Alg. 2.1).  A non-finite query raises FloatingPointError, so a run that
    produces one aborts like any other arithmetic failure.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (model.input_dim,):
        raise ValueError("query dimension does not match the training inputs")
    if not all(map(math.isfinite, v.tolist())):
        raise FloatingPointError("GP query is not finite")
    sq_diffs = model.dataset.inputs - v
    np.square(sq_diffs, out=sq_diffs)
    means = np.empty(model.n_outputs)
    variances = np.empty(model.n_outputs)
    for i, p in enumerate(model.params):
        k_star = _se(sq_diffs, p)
        means[i] = float(k_star @ model.alphas[i])
        # what solve_triangular runs for a Fortran-ordered factor, minus its
        # per-call finiteness scan of L (GpModel checked L once)
        w, info = _trtrs(model.chols[i], k_star, lower=1)
        if info != 0:
            raise scipy.linalg.LinAlgError(f"trtrs failed with info {info}")
        var = p.lam - float(w @ w)
        if var < VARIANCE_CLAMP:
            raise FloatingPointError(
                f"posterior variance {var:.3e} below clamp threshold; "
                "kernel matrix likely ill-conditioned")
        variances[i] = max(var, 0.0)
    return means, variances


def predict_rows(model: GpModel, X):
    """`predict` at each row of X (T, d), as (T, N) means and variances: per
    output and block of `ROW_BLOCK` rows, one cross-kernel and one triangular
    solve with a right-hand side per row (GPML Alg. 2.1), under `predict`'s
    clamp rule.  Equal to `predict` row by row up to rounding."""
    X = np.asarray(X, dtype=float)
    means, variances = np.empty((2, len(X), model.n_outputs))
    for start in range(0, len(X), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        sq_diffs = _pairwise_sq_diffs(X[rows], model.dataset.inputs)
        for i, p in enumerate(model.params):
            k_star = _se(sq_diffs, p)
            means[rows, i] = k_star @ model.alphas[i]
            # info is 0: GpModel checked that the factor's diagonal is positive
            w, _ = _trtrs(model.chols[i], k_star.T, lower=1)
            var = p.lam - np.einsum("ij,ij->j", w, w)
            if (var < VARIANCE_CLAMP).any():
                raise FloatingPointError(f"posterior variance {var.min():.3e} below clamp")
            variances[rows, i] = np.maximum(var, 0.0)
    return means, variances


def rho_from_mean_var(mean: np.ndarray, variance: np.ndarray, beta: float):
    """rho_i = max{|mu_i - h_i|, |mu_i + h_i|} = |mu_i| + h_i; rho = sqrt(sum rho_i^2).

    h_i = beta sigma_i is the half-width of the GP bound |mu_i - e_i| <= beta
    sigma_i.  For h_i >= 0 the two forms are bit-equal under IEEE
    round-to-nearest: rounding is symmetric, so for mu_i < 0 the computed
    mu_i - h_i is exactly -(|mu_i| + h_i), and for mu_i >= 0 the computed
    mu_i + h_i is |mu_i| + h_i and, rounding being monotone, no smaller than
    |mu_i - h_i|.  (T, N) rows give T rhos, each bit-equal to its row's own.
    """
    components = np.abs(np.asarray(mean, dtype=float)) + beta * np.sqrt(variance)
    return np.sqrt(np.sum(components ** 2, axis=-1)), components


def max_information_gain(candidates, params: SeKernelParams,
                         noise_bound: float, budget: int) -> float:
    """Greedy lower bound on max_S 0.5 log det(I + K_S / noise_bound^2).

    Iteratively adds the candidate with the largest posterior variance given
    the points selected so far; the greedy value is within (1 - 1/e) of the
    exhaustive optimum by submodularity.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if noise_bound <= 0:
        raise ValueError("noise_bound must be positive")
    X = np.atleast_2d(np.asarray(candidates, dtype=float))
    if X.size == 0:
        raise ValueError("candidate pool must be non-empty")
    K = kernel_matrix(X, params)
    s2 = noise_bound ** 2
    selected: list[int] = []
    remaining = list(range(X.shape[0]))
    for _ in range(min(budget, X.shape[0])):
        rem = np.array(remaining)
        if selected:
            sel = np.array(selected)
            kss = K[np.ix_(sel, sel)] + s2 * np.eye(len(sel))
            ksr = K[np.ix_(sel, rem)]
            post = K[rem, rem] - np.einsum("ij,ij->j", ksr, np.linalg.solve(kss, ksr))
        else:
            post = K[rem, rem].copy()
        selected.append(remaining.pop(int(np.argmax(post))))
    sel = np.array(selected)
    _, logdet = np.linalg.slogdet(np.eye(len(sel)) + K[np.ix_(sel, sel)] / s2)
    return 0.5 * float(logdet)


def beta_from_lemma(rkhs_norm_bound, gamma: float, n: int, delta: float):
    """beta_i = 2 ||e_i||_k^2 + 300 gamma ln^3((n + 1) / delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = np.asarray(rkhs_norm_bound, dtype=float)
    if (b < 0).any():
        raise ValueError("RKHS norm bounds must be nonnegative")
    beta = 2.0 * b ** 2 + 300.0 * gamma * np.log((n + 1) / delta) ** 3
    return float(beta) if beta.ndim == 0 else beta


def dataset_header(n_joints: int, n_outputs: int) -> list:
    """The dataset CSV's columns: q<j>, dq<j>, ddq<j> for each joint, then e<i>."""
    return ([f"{kind}{j}" for kind in ("q", "dq", "ddq") for j in range(1, n_joints + 1)]
            + [f"e{i}" for i in range(1, n_outputs + 1)])


def save_dataset_csv(dataset: GpDataset, path) -> None:
    """CSV export: noise level comment, `dataset_header` columns, one row per sample.

    An input count that is not a multiple of 3 is a ValueError.
    """
    if dataset.input_dim % 3:
        raise ValueError(f"input_dim {dataset.input_dim} is not a multiple of 3: the CSV "
                         "names the inputs q<j>, dq<j>, ddq<j> for each joint j")
    write_table(path, dataset_header(dataset.input_dim // 3, dataset.n_outputs),
                [dataset.inputs, dataset.targets],
                preamble=f"# noise_std={FLOAT % dataset.noise_std}\n")


def _number(path, lineno: int, name: str, raw: str, kind=float):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {name} is not a number: {raw.strip()!r}") from None


def load_dataset_csv(path) -> GpDataset:
    """Inverse of save_dataset_csv: at most one `# noise_std=` line, then the
    `dataset_header` of at least one joint and one output, then the rows.
    Any other `#` line is an error naming its line."""
    noise_std = header = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                if key.strip() != "noise_std":
                    raise ValueError(f"{path}:{lineno}: comment line {line!r}; the only "
                                     "one read is '# noise_std=<value>' before the header")
                if header is not None:
                    raise ValueError(f"{path}:{lineno}: noise_std must come before the header")
                if noise_std is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate key 'noise_std'")
                noise_std = _number(path, lineno, "noise_std", value)
                continue
            if header is None:
                header = [name.strip() for name in line.split(",")]
                # the column order is the GP's input order
                n_outputs = sum(name.startswith("e") for name in header)
                n_joints = (len(header) - n_outputs) // 3
                expected = dataset_header(max(n_joints, 1), max(n_outputs, 1))
                if header != expected:
                    raise ValueError(f"{path}:{lineno}: columns {','.join(header)} "
                                     f"are not in the order {','.join(expected)}")
                continue
            values = line.split(",")
            if len(values) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(values)} values "
                                 f"for {len(header)} columns")
            rows.append([_number(path, lineno, name, v) for name, v in zip(header, values)])
    if header is None or not rows:
        raise ValueError(f"no data rows in {path}")
    data = np.array(rows)
    return GpDataset(inputs=data[:, :3 * n_joints], targets=data[:, 3 * n_joints:],
                     noise_std=0.0 if noise_std is None else noise_std)


def model_keys(n_outputs: int, input_dim: int) -> dict:
    """`gp_model.txt`'s keys in written order, each with its value's rule
    (kind, lower bound, strict); `dataset`, which is optional, has none."""
    keys = {"dataset": None, "n_outputs": (int, 1, False), "n_samples": (int, 1, False),
            "input_dim": (int, 1, False), "noise_std": (float, 0, False)}
    for i in range(1, n_outputs + 1):
        keys[f"output{i}.lambda"] = (float, 0, True)
        keys.update({f"output{i}.lengthscale{d}": (float, 0, True)
                     for d in range(1, input_dim + 1)})
        keys[f"output{i}.jitter"] = (float, 0, False)
    return keys


def save_model_txt(model: GpModel, path, dataset_ref: str = "") -> None:
    """Flat key-value export of the fitted hyperparameters: `model_keys` in
    order, the `dataset` line only for a non-empty `dataset_ref`."""
    values = [dataset_ref, model.n_outputs, model.n_samples, model.input_dim,
              model.dataset.noise_std]
    for p, jitter in zip(model.params, model.jitters):
        values += [p.lam, *p.lengthscales, jitter]
    keys = model_keys(model.n_outputs, model.input_dim).items()
    lines = [f"{key}={FLOAT % value if rule and rule[0] is float else value}"
             for (key, rule), value in zip(keys, values) if key != "dataset" or value]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model_txt(path):
    """Parse a key-value export; returns (params_per_output, metadata dict).

    The keys are `model_keys` of the file's n_outputs and input_dim, all but
    `dataset` required; a missing key names the file, and any other key or a
    value its rule rejects (a count below 1, a negative or non-finite noise
    level or jitter, a lambda or lengthscale not finite and > 0) its line.
    """
    pairs = read_pairs(path)

    def need(key, kind, minimum, strict):
        if key not in pairs:
            raise ValueError(f"{path}: missing key {key!r}")
        lineno, raw = pairs[key]
        value = _number(path, lineno, key, raw, kind)
        if not ((minimum < value if strict else minimum <= value) and value < np.inf):
            rule = f"{'>' if strict else '>='} {minimum}"
            if kind is float:
                rule = f"finite and {rule}"
            raise ValueError(f"{path}:{lineno}: {key} must be {rule}, got {raw}")
        return value

    head = model_keys(0, 0)  # the keys of every file
    n_outputs, input_dim = (need(key, *head[key]) for key in ("n_outputs", "input_dim"))
    # a count above the file's number of keys leaves a key missing; capped
    # there, the table stays the size of the file
    keys = model_keys(min(n_outputs, len(pairs)), min(input_dim, len(pairs)))
    for key, (lineno, _) in pairs.items():
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    values = [need(key, *rule) for key, rule in keys.items() if rule is not None]
    params = [SeKernelParams(lam=row[0], lengthscales=row[1:-1])  # lambda, lengthscales, jitter
              for row in np.reshape(values[len(head) - 1:], (n_outputs, -1))]
    return params, {key: raw for key, (_, raw) in pairs.items()}
