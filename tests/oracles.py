"""Independent reference computations used to check the implementation.

Everything in here is derived from first principles (symbolic Euler-Lagrange
equations, dense matrix inversion, exhaustive enumeration) and deliberately
shares no code with the package under test, except `tick_record_reference`,
which replays the robust record one tick at a time through the package's
scalar pieces, and `fit_reference`, which stops L-BFGS-B at the package's
`gpr.LML_RTOL`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import scipy.linalg
import sympy as sp

from gpfl.gpr import LML_RTOL


@lru_cache(maxsize=None)
def _two_link_lambdified():
    """Derive the planar two-link EOM symbolically and lambdify the pieces.

    Angles are absolute for joint 1 and relative for joint 2, both measured
    from the +x axis, with gravity along -y.  Returns numeric callables for
    M(q; params), g(q; params) and the velocity-product torque C(q, qd) qd.
    """
    q1, q2, dq1, dq2 = sp.symbols("q1 q2 dq1 dq2", real=True)
    m1, m2, l1, l2, r1, r2, I1, I2, grav = sp.symbols(
        "m1 m2 l1 l2 r1 r2 I1 I2 grav", positive=True
    )

    # Center-of-mass kinematics.
    th1, th2 = q1, q1 + q2
    p1 = sp.Matrix([r1 * sp.cos(th1), r1 * sp.sin(th1)])
    p2 = sp.Matrix([l1 * sp.cos(th1) + r2 * sp.cos(th2),
                    l1 * sp.sin(th1) + r2 * sp.sin(th2)])

    qv = sp.Matrix([q1, q2])
    dqv = sp.Matrix([dq1, dq2])
    v1 = p1.jacobian(qv) * dqv
    v2 = p2.jacobian(qv) * dqv

    T = (m1 * v1.dot(v1) + m2 * v2.dot(v2)
         + I1 * dq1**2 + I2 * (dq1 + dq2)**2) / 2
    U = grav * (m1 * p1[1] + m2 * p2[1])

    # Inertia matrix from the kinetic-energy Hessian, gravity from dU/dq.
    M = sp.hessian(T, (dq1, dq2))
    gvec = sp.Matrix([U]).jacobian(qv).T

    # Euler-Lagrange with ddq = 0 leaves the velocity-product torque + gravity.
    L = T - U
    dL_ddq = sp.Matrix([L.diff(dq1), L.diff(dq2)])
    # d/dt of dL/ddq along trajectories with ddq = 0: only q varies.
    ddt = dL_ddq.jacobian(qv) * dqv
    coriolis_torque = sp.simplify(ddt - sp.Matrix([L.diff(q1), L.diff(q2)]) - gvec)

    params = (m1, m2, l1, l2, r1, r2, I1, I2, grav)
    f_M = sp.lambdify((q1, q2) + params, M, "numpy")
    f_g = sp.lambdify((q1, q2) + params, gvec, "numpy")
    f_c = sp.lambdify((q1, q2, dq1, dq2) + params, coriolis_torque, "numpy")
    return f_M, f_g, f_c


class TwoLinkOracle:
    """Numeric two-link arm reference built on the symbolic derivation."""

    def __init__(self, masses=(1.0, 1.0), lengths=(1.0, 1.0),
                 com_offsets=(0.5, 0.5), inertias=(1.0 / 12.0, 1.0 / 12.0),
                 gravity=9.81):
        self._p = (masses[0], masses[1], lengths[0], lengths[1],
                   com_offsets[0], com_offsets[1], inertias[0], inertias[1],
                   gravity)
        self._f_M, self._f_g, self._f_c = _two_link_lambdified()

    def inertia(self, q):
        return np.array(self._f_M(q[0], q[1], *self._p), dtype=float)

    def gravity(self, q):
        return np.array(self._f_g(q[0], q[1], *self._p), dtype=float).ravel()

    def coriolis_torque(self, q, dq):
        """C(q, dq) @ dq, without committing to a particular C factorization."""
        out = np.array(self._f_c(q[0], q[1], dq[0], dq[1], *self._p), dtype=float)
        return out.ravel()

    def inverse_dynamics(self, q, dq, ddq):
        return (self.inertia(q) @ np.asarray(ddq)
                + self.coriolis_torque(q, dq) + self.gravity(q))


def gp_posterior_dense(X, y, x_star, lam, lengthscales, noise_var, jitter=0.0):
    """Single-output GP posterior by brute-force dense inversion.

    Kernel: lam * exp(-sum_d (x_d - y_d)^2 / ell_d^2).  `noise_var` and the
    optional `jitter` are added to the diagonal before inverting.
    """
    X = np.asarray(X, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    ell2 = np.asarray(lengthscales, dtype=float) ** 2

    def k(a, b):
        return lam * np.exp(-np.sum((a - b) ** 2 / ell2))

    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = k(X[i], X[j])
    A = K + (noise_var + jitter) * np.eye(n)
    A_inv = np.linalg.inv(A)
    ks = np.array([k(x_star, X[i]) for i in range(n)])
    mean = ks @ A_inv @ y
    var = lam - ks @ A_inv @ ks
    return mean, var


def lml_grad_reference(X, y, lam, lengthscales, noise_var, jitter):
    """Gradient of the GP log marginal likelihood by dense inversion.

    Returns d/d log(lam) followed by d/d log(ell_d) for each input dimension,
    0.5 tr((alpha alpha^T - A^-1) dA/dtheta) with A = K + (noise_var +
    jitter) I (GPML eq. 5.9).  The jitter is taken as proportional to lam,
    so dA/d log(lam) = K + jitter I.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    ell = np.asarray(lengthscales, dtype=float)
    n, dim = X.shape
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = lam * np.exp(-np.sum((X[i] - X[j]) ** 2 / ell ** 2))
    A_inv = np.linalg.inv(K + (noise_var + jitter) * np.eye(n))
    alpha = A_inv @ y
    W = np.outer(alpha, alpha) - A_inv
    grad = np.empty(dim + 1)
    grad[0] = 0.5 * np.trace(W @ (K + jitter * np.eye(n)))
    for d in range(dim):
        dK = K * 2.0 * (X[:, d, None] - X[None, :, d]) ** 2 / ell[d] ** 2
        grad[1 + d] = 0.5 * np.trace(W @ dK)
    return grad


def lml_and_grad_reference(sq_diffs, y, noise_var, theta):
    """`gpr._lml_and_grad` operation for operation, on fresh arrays.

    Same kernel formula, jitter ladder (1e-10*lam, tenfold up to 1e-4*lam),
    Cholesky, `potri` inverse and products, each result in a newly allocated
    array, so an implementation that writes into reused buffers must agree
    bit for bit.  Raises `LinAlgError` when the ladder is exhausted.
    """
    n, _, dim = sq_diffs.shape
    lam = np.exp(theta[0])
    ls = np.exp(theta[1:])
    K = lam * np.exp(-(sq_diffs @ (1.0 / ls ** 2)))
    jitter = 1e-10 * lam
    while True:
        if jitter > 1e-4 * lam * (1.0 + 1e-9):
            raise np.linalg.LinAlgError("jitter ladder exhausted")
        K_y = K.copy(order="F")
        K_y.flat[::n + 1] += noise_var + jitter
        try:
            L = scipy.linalg.cholesky(K_y, lower=True, overwrite_a=True)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
    alpha = scipy.linalg.cho_solve((L, True), y)
    lml = (-0.5 * float(y @ alpha)
           - float(np.log(np.diag(L)).sum())
           - 0.5 * n * np.log(2.0 * np.pi))
    inv, info = scipy.linalg.lapack.dpotri(L, lower=1)
    assert info == 0
    a_inv = inv + inv.T
    np.fill_diagonal(a_inv, np.diagonal(inv))
    WK = np.outer(alpha, alpha)
    WK -= a_inv
    trace_w = float(np.trace(WK))
    WK *= K
    grad = np.empty_like(theta)
    grad[0] = 0.5 * (WK.sum() + jitter * trace_w)
    grad[1:] = WK.reshape(-1) @ sq_diffs.reshape(n * n, dim) / ls ** 2
    return lml, grad


def fit_reference(X, Y, noise_std, init_lam, init_lengthscales, n_starts, max_iter, seed,
                  ftol=LML_RTOL):
    """`gpr.fit` as a plain multi-start loop that evaluates every theta the
    optimizer asks for, however often, each on fresh arrays.

    Same bounds, starts (theta0, then theta0 plus standard normal draws from
    `default_rng(seed)`, clipped), L-BFGS-B call (`ftol`, by default
    `gpr.LML_RTOL`; None leaves scipy's default) and choice of the best
    start; the pairwise squared differences are `(X_i - X_j) ** 2`.  Returns
    the fitted (lam, lengthscales) per output and the factor, weights and
    jitter of K_y at them, which a memoized fit must match bit for bit.
    """
    import scipy.optimize

    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, dim = X.shape
    sq_diffs = (X[:, None, :] - X[None, :, :]) ** 2
    noise_var = noise_std ** 2
    rng = np.random.default_rng(seed)
    lo = np.array([np.log(1e-8)] + [np.log(1e-3)] * dim)
    hi = np.array([np.log(1e10)] + [np.log(1e4)] * dim)
    theta0 = np.clip(np.concatenate([[np.log(init_lam)], np.log(init_lengthscales)]), lo, hi)
    params, chols, alphas, jitters = [], [], [], []
    for i in range(Y.shape[1]):
        y = Y[:, i]

        def objective(theta):
            try:
                lml, grad = lml_and_grad_reference(sq_diffs, y, noise_var, theta)
            except np.linalg.LinAlgError:
                return 1e25, np.zeros_like(theta)
            return -lml, -grad

        best_theta = theta0
        best_val = objective(theta0)[0]
        starts = [theta0] + [np.clip(theta0 + rng.normal(0.0, 1.0, size=theta0.size), lo, hi)
                             for _ in range(n_starts - 1)]
        options = {"maxiter": max_iter} if ftol is None else {"maxiter": max_iter, "ftol": ftol}
        for start in starts:
            res = scipy.optimize.minimize(objective, start, jac=True, method="L-BFGS-B",
                                          bounds=list(zip(lo, hi)), options=options)
            if np.isfinite(res.fun) and res.fun < best_val:
                best_val = res.fun
                best_theta = res.x
        lam = float(np.exp(best_theta[0]))
        ls = np.exp(best_theta[1:])
        K = lam * np.exp(-(sq_diffs @ (1.0 / ls ** 2)))
        jitter = 1e-10 * lam
        while True:
            K_y = K.copy(order="F")
            K_y.flat[::n + 1] += noise_var + jitter
            try:
                L = scipy.linalg.cholesky(K_y, lower=True)
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        params.append((lam, ls))
        chols.append(L)
        alphas.append(scipy.linalg.cho_solve((L, True), y))
        jitters.append(jitter)
    return params, chols, alphas, jitters


def predict_reference(model, x):
    """GP posterior mean and variance per output at one query, solved with
    `scipy.linalg.solve_triangular` and its default input checks.

    Reads only the model's data (training inputs, kernel parameters, weights
    and Cholesky factors) and repeats the kernel formula operation for
    operation, so a faster solve on the same factor must agree bit for bit.
    """
    v = np.asarray(x, dtype=float)
    sq_diffs = (model.dataset.inputs - v) ** 2
    means = np.empty(len(model.params))
    variances = np.empty(len(model.params))
    for i, p in enumerate(model.params):
        k_star = p.lam * np.exp(-(sq_diffs @ (1.0 / p.lengthscales ** 2)))
        means[i] = float(k_star @ model.alphas[i])
        w = scipy.linalg.solve_triangular(model.chols[i], k_star, lower=True)
        var = p.lam - float(w @ w)
        if var < -1e-9:
            raise FloatingPointError(f"posterior variance {var:.3e} below clamp")
        variances[i] = max(var, 0.0)
    return means, variances


def info_gain_exhaustive(candidates, kernel_fn, noise_var, budget):
    """Max of 0.5 * logdet(I + K_S / noise_var) over all subsets of size budget."""
    m = len(candidates)
    best = -np.inf
    for subset in itertools.combinations(range(m), min(budget, m)):
        K = np.array([[kernel_fn(candidates[i], candidates[j]) for j in subset]
                      for i in subset])
        sign, logdet = np.linalg.slogdet(np.eye(len(subset)) + K / noise_var)
        assert sign > 0
        best = max(best, 0.5 * logdet)
    return best


def rk4_step_vector(accel, q, dq, tau, h):
    """One classical RK4 step of (q, dq) written on numpy vectors.

    `accel(q, dq, tau)` returns the joint accelerations as an array.  The
    operation order is the textbook one (k2 = dq + h/2 k1, ...,
    x + h/6 (k1 + 2 k2 + 2 k3 + k4)), so a per-component implementation that
    keeps it must agree bit for bit.
    """
    k1q = dq
    k1v = accel(q, dq, tau)
    k2q = dq + 0.5 * h * k1v
    k2v = accel(q + 0.5 * h * k1q, k2q, tau)
    k3q = dq + 0.5 * h * k2v
    k3v = accel(q + 0.5 * h * k2q, k3q, tau)
    k4q = dq + h * k3v
    k4v = accel(q + h * k3q, k4q, tau)
    q_next = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    dq_next = dq + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return q_next, dq_next


def finite_difference_inertia_rate(inertia_fn, q, dq, h=1e-6):
    """Central-difference estimate of dM/dt = sum_k dM/dq_k * dq_k."""
    n = len(q)
    Mdot = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        Mdot += (inertia_fn(q + e) - inertia_fn(q - e)) / (2 * h) * dq[k]
    return Mdot


def table_reference(path, names, columns, preamble=""):
    """The per-value table writer: a header row, then each value as `.17g`."""
    data = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(preamble + ",".join(names) + "\n")
        for row in data:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def tick_record_reference(law, model, nominal, spec, trace):
    """The robust record as the control loop computed it, one tick at a time.

    At each tick's time and state: the reference by scalar
    `trajectory.evaluate`, the commanded acceleration a, the posterior by
    `gpr.predict` at (q, dq, a), rho, V = xi^T Q xi and ||z|| by the law's
    per-tick formulas, and the true mismatch by `inverse_dynamics` at a.
    Returns the columns keyed like `harness.robust_record`'s.
    """
    from gpfl import gpr
    from gpfl.dynamics import inverse_dynamics
    from gpfl.trajectory import evaluate

    Q = law.lyapunov
    n = trace.q.shape[1]
    rows = []
    for t, q, dq in zip(trace.times, trace.q, trace.dq):
        qd, dqd, ddqd = evaluate(spec, t)
        q_err, dq_err = qd - q, dqd - dq
        a = ddqd + law.gains.kp * q_err + law.gains.kd * dq_err
        mean, variance = gpr.predict(law.gp, np.concatenate([q, dq, a]))
        rho = float(np.sqrt(np.sum((np.abs(mean) + law.beta * np.sqrt(variance)) ** 2)))
        xi = np.concatenate([q_err, dq_err])
        z = nominal.apply_inverse(q, Q[n:, :] @ xi)
        etrue = inverse_dynamics(model, q, dq, a) - nominal.torque(q, dq, a)
        rows.append((rho, mean, variance, etrue, float(xi @ Q @ xi),
                     float(np.linalg.norm(z))))
    names = ("rho", "ehat", "evar", "etrue", "V", "z_norm")
    return {name: np.array(column) for name, column in zip(names, zip(*rows))}
