"""Synthetic instance generators.

Every generator is a pure function of (config, seed): identical inputs
reproduce the instance bitwise.  Matrix-valued variables are flattened
row-major so all solvers work on plain vectors, and Jacobian products are
computed matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalyst import FiniteSumProblem, LogisticLoss, SquaredLoss
from .oracles import (
    BoxIndicator,
    CompositeProblem,
    L1Mean,
    L1Norm,
    L2Norm,
    SmoothMap,
    SmoothPlusProx,
    Zero,
)
from .pgsg import StochasticProblem
from .rng import RandomStream


@dataclass
class SyntheticInstance:
    problem: object
    arrays: dict = field(default_factory=dict)
    ground_truth: Optional[np.ndarray] = None
    optimum_value: Optional[float] = None
    stochastic: Optional[StochasticProblem] = None


def make_phase_retrieval(d: int, m: int, outlier_frac: float = 0.0,
                         seed: int = 0) -> SyntheticInstance:
    """Robust real phase retrieval: (1/m) sum |<a_i, x>^2 - b_i^2|.

    Measurements come from a planted unit-norm signal; a fraction of the
    b_i are grossly corrupted by folded-Gaussian noise.
    """
    if not (0.0 <= outlier_frac < 1.0):
        raise ValueError("outlier_frac must lie in [0, 1)")
    rng = RandomStream(seed, stream_id=1)
    A = rng.normal((m, d))
    xbar = rng.normal(d)
    xbar /= np.linalg.norm(xbar)
    b = np.abs(A @ xbar)
    n_out = int(round(outlier_frac * m))
    if n_out > 0:
        idx = rng.choice(m, size=n_out, replace=False)
        b[idx] = np.abs(rng.normal(n_out))
    b2 = b * b

    # the model error (1/m)||A(y - x)||^2 <= (beta/2)||y - x||^2, with
    # equality along A's top right singular vector
    beta = 2.0 * float(np.linalg.norm(A, 2)) ** 2 / m

    At = A.T

    def linearize(x):
        # 2.0 * w * (A @ v) multiplies 2.0 * w first, so hoisting it keeps
        # the products bit for bit
        w = A @ x
        w2 = 2.0 * w
        return (w * w - b2,
                lambda v: w2 * (A @ v),
                lambda u: 2.0 * (At @ (u * w)))

    c = SmoothMap(
        eval=lambda x: (A @ x) ** 2 - b2,
        jvp=lambda x, v: 2.0 * (A @ x) * (A @ v),
        vjp=lambda x, u: 2.0 * (A.T @ (u * (A @ x))),
        beta=beta,
        dim_in=d,
        linearize=linearize,
    )
    problem = CompositeProblem(Zero(), L1Mean(m), c)

    row_sq = np.sum(A * A, axis=1)
    rho_stoch = float(2.0 * np.max(row_sq))

    # phi_i'(t) = 2 t sign(t^2 - b_i^2).  PGSG calls this once per inner
    # step, so it avoids NumPy scalars: Python-float data, and a sign by
    # comparisons.  That sign is np.sign's except at NaN, where t is NaN
    # and the result is NaN either way.
    b2_list = b2.tolist()

    def stoch_subgrad(t, i):
        r = t * t - b2_list[i]
        s = 1.0 if r > 0.0 else -1.0 if r < 0.0 else 0.0
        return 2.0 * t * s

    stochastic = StochasticProblem(
        stoch_value=lambda x, i: abs(float(A[i] @ x) ** 2 - b2[i]),
        stoch_subgrad=stoch_subgrad,
        A=A,
        rho=rho_stoch,
        full_problem=problem,
    )

    return SyntheticInstance(
        problem=problem,
        arrays={"A": A, "b": b},
        ground_truth=xbar,
        optimum_value=0.0 if n_out == 0 else None,
        stochastic=stochastic,
    )


def make_robust_pca(mrows: int, ncols: int, r: int, sparsity: float = 0.0,
                    seed: int = 0) -> SyntheticInstance:
    """Robust PCA factorization: min_{U,V} ||U V^T - M||_1 with a planted
    low-rank matrix plus sparse +/-1 corruptions.  The decision variable
    is the row-major concatenation (U, V)."""
    if r > min(mrows, ncols):
        raise ValueError("target rank exceeds matrix dimensions")
    rng = RandomStream(seed, stream_id=2)
    Ubar = rng.normal((mrows, r))
    Vbar = rng.normal((ncols, r))
    S = np.zeros((mrows, ncols))
    n_sparse = int(round(sparsity * mrows * ncols))
    if n_sparse > 0:
        flat = rng.choice(mrows * ncols, size=n_sparse, replace=False)
        S.flat[flat] = rng.sign(n_sparse)
    M = Ubar @ Vbar.T + S

    nu, nv = mrows * r, ncols * r

    def split(z):
        return z[:nu].reshape(mrows, r), z[nu:].reshape(ncols, r)

    def c_eval(z):
        U, V = split(z)
        return (U @ V.T - M).ravel()

    def c_jvp(z, dz):
        U, V = split(z)
        dU, dV = split(dz)
        return (dU @ V.T + U @ dV.T).ravel()

    def c_vjp(z, w):
        U, V = split(z)
        W = w.reshape(mrows, ncols)
        return np.concatenate([(W @ V).ravel(), (W.T @ U).ravel()])

    # second-order model error in the outer sum's l1 pairing:
    # sum_ij |dU_i . dV_j| <= sqrt(m n) / 2 * ||(dU, dV)||^2
    c = SmoothMap(eval=c_eval, jvp=c_jvp, vjp=c_vjp,
                  beta=float(np.sqrt(mrows * ncols)),
                  dim_in=nu + nv)
    problem = CompositeProblem(Zero(), L1Norm(1.0), c)
    truth = np.concatenate([Ubar.ravel(), Vbar.ravel()])
    return SyntheticInstance(
        problem=problem,
        arrays={"M": M, "Ubar": Ubar, "Vbar": Vbar, "S": S},
        ground_truth=truth,
        optimum_value=0.0 if n_sparse == 0 else None,
    )


def make_z2_sync(d: int, edge_prob: float = 1.0, flip_prob: float = 0.0,
                 seed: int = 0) -> SyntheticInstance:
    """Censored Z2 synchronization: min_theta ||P_E(theta theta^T - M)||_1
    over an Erdos-Renyi edge set with adversarial sign flips."""
    if not (0.0 < edge_prob <= 1.0):
        raise ValueError("edge_prob must lie in (0, 1]")
    if not (0.0 <= flip_prob < 1.0):
        raise ValueError("flip_prob must lie in [0, 1)")
    rng = RandomStream(seed, stream_id=3)
    theta_bar = rng.sign(d)
    iu, ju = np.triu_indices(d, k=1)
    keep = rng.uniform(size=iu.size) < edge_prob
    ei, ej = iu[keep], ju[keep]
    obs = theta_bar[ei] * theta_bar[ej]
    flips = rng.uniform(size=ei.size) < flip_prob
    obs = np.where(flips, -obs, obs)

    def c_eval(t):
        return t[ei] * t[ej] - obs

    def c_jvp(t, v):
        return v[ei] * t[ej] + t[ei] * v[ej]

    def c_vjp(t, u):
        out = np.zeros_like(t)
        np.add.at(out, ei, u * t[ej])
        np.add.at(out, ej, u * t[ei])
        return out

    # second-order model error: sum_e |w_i w_j| <= (max_degree / 2) ||w||^2,
    # so the max vertex degree is a valid curvature constant for the
    # l1-pairing used by the outer sum of absolute values
    deg = np.bincount(np.concatenate([ei, ej]), minlength=d)
    c = SmoothMap(eval=c_eval, jvp=c_jvp, vjp=c_vjp,
                  beta=float(max(deg.max(), 1)),
                  dim_in=d)
    problem = CompositeProblem(Zero(), L1Norm(1.0), c)
    return SyntheticInstance(
        problem=problem,
        arrays={"edges_i": ei, "edges_j": ej, "obs": obs,
                "theta_bar": theta_bar.astype(float),
                "flips": flips.astype(np.int64)},
        ground_truth=theta_bar.astype(float),
        optimum_value=0.0 if not flips.any() else None,
    )


def make_box_nls(d: int, m: int, seed: int = 0) -> SyntheticInstance:
    """Box-constrained nonlinear least squares min ||c(x)||_2 over
    l <= x <= u, with c a random quadratic map vanishing at a planted
    interior root."""
    rng = RandomStream(seed, stream_id=4)
    Q = rng.normal((m, d, d))
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1))) / np.sqrt(d)
    q = rng.normal((m, d))
    root = rng.normal(d)
    r0 = -(0.5 * np.einsum("i,kij,j->k", root, Q, root) + q @ root)
    lower = root - 0.5 - rng.uniform(0.0, 1.0, size=d)
    upper = root + 0.5 + rng.uniform(0.0, 1.0, size=d)

    def c_eval(x):
        return 0.5 * np.einsum("i,kij,j->k", x, Q, x) + q @ x + r0

    def c_jvp(x, v):
        return np.einsum("kij,j,i->k", Q, x, v) + q @ v

    def c_vjp(x, u):
        return np.einsum("k,kij,j->i", u, Q, x) + u @ q

    beta = float(np.sqrt(sum(np.linalg.norm(Qk, 2) ** 2 for Qk in Q)))
    c = SmoothMap(eval=c_eval, jvp=c_jvp, vjp=c_vjp, beta=beta, dim_in=d)
    problem = CompositeProblem(BoxIndicator(lower, upper), L2Norm(), c)
    return SyntheticInstance(
        problem=problem,
        arrays={"Q": Q, "q": q, "r0": r0, "lower": lower, "upper": upper},
        ground_truth=root,
        optimum_value=0.0,
    )


def make_lasso(d: int, m: int, lam: float = 0.1, seed: int = 0) -> SyntheticInstance:
    """LASSO (1/2)||A x - b||^2 + lam ||x||_1 as a ``SmoothPlusProx``: the
    additive composite, convex, so rho = 0, with gradient A^T (A x - b)
    and smoothness beta = ||A||_2^2, computed exactly: a power-iteration
    estimate falls short, and a step 1/beta above 1/||A||_2^2 breaks the
    majorization the prox-linear and FISTA steps rely on."""
    rng = RandomStream(seed, stream_id=5)
    A = rng.normal((m, d))
    x_sparse = np.zeros(d)
    support = rng.choice(d, size=max(d // 10, 1), replace=False)
    x_sparse[support] = rng.normal(support.size)
    b = A @ x_sparse + 0.01 * rng.normal(m)

    def smooth_value(x):
        r = A @ x - b
        return 0.5 * float(r @ r)

    problem = SmoothPlusProx(smooth_value, lambda x: A.T @ (A @ x - b),
                             beta=float(np.linalg.norm(A, 2)) ** 2,
                             g=L1Norm(lam), dim=d)
    return SyntheticInstance(
        problem=problem,
        arrays={"A": A, "b": b},
        ground_truth=x_sparse,
    )


def make_ridge(d: int, m: int, cond: float = 1e4, seed: int = 0) -> SyntheticInstance:
    """Ridge regression as a finite sum: f_i = (1/2)(<a_i,x> - b_i)^2 +
    (mu/2)||x||^2 with mu set so the component condition number beta/mu
    equals ``cond``.  Carries the exact optimum for evaluation.

    Feature columns are scaled geometrically over four decades so the data
    Gram matrix is effectively singular and the regularizer alone sets the
    strong convexity; with isotropic features and m >> d the data term
    would dominate mu and the instance would be well conditioned no matter
    how small mu is."""
    if not cond > 1.0:
        raise ValueError("cond must be > 1")
    rng = RandomStream(seed, stream_id=6)
    A = rng.normal((m, d)) * np.logspace(0.0, -4.0, d)
    xstar = rng.normal(d)
    b = A @ xstar + 0.1 * rng.normal(m)
    mu = float(np.max(np.sum(A * A, axis=1))) / (cond - 1.0)
    problem = FiniteSumProblem(A, SquaredLoss(b), mu)
    opt = np.linalg.solve(A.T @ A / m + mu * np.eye(d), A.T @ b / m)
    return SyntheticInstance(
        problem=problem,
        arrays={"A": A, "b": b},
        ground_truth=opt,
        optimum_value=problem._full_smooth_value(opt),
    )


def make_erm_logistic(d: int, m: int, mu: float = 1e-2, seed: int = 0) -> SyntheticInstance:
    """l2-regularized logistic regression ERM: f_i = log(1 + exp(-b_i
    <a_i, x>)) + (mu/2)||x||^2, so the finite sum is mu-strongly convex."""
    rng = RandomStream(seed, stream_id=8)
    A = rng.normal((m, d))
    w = rng.normal(d)
    margins = A @ w + 0.5 * rng.normal(m)
    b = np.where(margins >= 0.0, 1.0, -1.0)
    problem = FiniteSumProblem(A, LogisticLoss(b), mu)
    objective = problem._full_smooth_value

    # high-accuracy optimum by damped Newton (smooth, mu-strongly convex)
    w_opt = np.zeros(d)
    for _ in range(100):
        grad = problem._full_grad(w_opt)
        if np.linalg.norm(grad) <= 1e-13 * (1.0 + np.linalg.norm(w_opt)):
            break
        s = -b * problem.loss.deriv(A @ w_opt)  # sigmoid(-b A w), since b = +-1
        H = (A * (s * (1.0 - s))[:, None]).T @ A / m + mu * np.eye(d)
        step = np.linalg.solve(H, grad)
        damp, val = 1.0, objective(w_opt)
        while objective(w_opt - damp * step) > val and damp > 1e-8:
            damp *= 0.5
        w_opt = w_opt - damp * step

    return SyntheticInstance(
        problem=problem,
        arrays={"A": A, "b": b},
        ground_truth=w_opt,
        optimum_value=objective(w_opt),
    )


GENERATORS = {
    "phase_retrieval": make_phase_retrieval,
    "robust_pca": make_robust_pca,
    "z2_sync": make_z2_sync,
    "box_nls": make_box_nls,
    "lasso": make_lasso,
    "ridge": make_ridge,
    "erm_logistic": make_erm_logistic,
}

