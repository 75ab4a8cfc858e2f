"""Catalyst acceleration for smooth, strongly convex finite sums.

The outer loop approximately solves kappa-regularized proximal
subproblems with any linearly convergent inner method (gradient descent
and SVRG are shipped) and extrapolates with Nesterov-style momentum:

    q = mu / (mu + kappa),  alpha_0 = sqrt(q),  y_0 = x_0
    x_t  ~ argmin F(x) + (kappa/2) ||x - y_{t-1}||^2
    alpha_t^2 = (1 - alpha_t) alpha_{t-1}^2 + q alpha_t
    beta_t = alpha_{t-1} (1 - alpha_{t-1}) / (alpha_{t-1}^2 + alpha_t)
    y_t = x_t + beta_t (x_t - x_{t-1})

Each inner solve starts at the solution it predicts (Lin, Mairal &
Harchaoui, arXiv 1712.05654, with the curvature estimated): the first at
x_0, subproblem t+1 at

    z = x_t + kappa / (kappa + lambda) (y_t - y_{t-1}),

which is its solution exactly when F is a quadratic of curvature
lambda.  lambda starts at mu and, after each step with
s = x_t - x_{t-1} != 0, is the Barzilai-Borwein secant

    lambda = max(mu, <grad f(x_t) - grad f(x_{t-1}), s> / ||s||^2),

from gradients the loop already has.  Each inner solve then runs a fixed
budget with no stopping test, criterion (C3) of the same paper; the outer
stop, a bound from the full gradient at x_t, certifies the result.

Complexity is counted in individual component-gradient evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded
from .report import SolverReport, calls_since
from .rng import RandomStream


class SquaredLoss:
    """phi_i(t) = (t - b_i)^2 / 2.  A loss gives phi' over a vector
    (``deriv``), phi_i'(t) for one draw (``deriv_i``), the mean of phi_i
    over a vector (``mean_value``) and a bound on phi_i'' (``curvature``)."""

    curvature = 1.0

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self._b = self.b.tolist()

    def deriv(self, t):
        return t - self.b

    def deriv_i(self, i, t):
        return t - self._b[i]

    def mean_value(self, t):
        r = t - self.b
        return 0.5 * float(r @ r) / r.size


class LogisticLoss:
    """phi_i(t) = log(1 + exp(-b_i t)) for labels b_i = +-1."""

    curvature = 0.25

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self._b = self.b.tolist()

    def deriv(self, t):
        z = -self.b * t
        return -self.b * (1.0 / (1.0 + np.exp(-z)))

    def deriv_i(self, i, t):
        b = self._b[i]
        z = -b * t
        e = math.exp(-abs(z))  # the sigmoid split by sign: math.exp raises on overflow
        return -b * (1.0 if z >= 0.0 else e) / (1.0 + e)

    def mean_value(self, t):
        return float(np.mean(np.logaddexp(0.0, -self.b * t)))


class FiniteSumProblem:
    """f(x) = (1/m) sum_i phi_i(a_i^T x) + (mu/2)||x||^2 over the rows a_i
    of A, phi from ``loss``: each component's gradient phi_i'(a_i^T x) a_i
    + mu x is beta_i-Lipschitz, beta_i = curvature * max ||a_i||^2 + mu.
    ``counters`` holds component gradients (``grad_i``) and values
    (``value_i``, m per value pass).  The benchmark's tracer wraps
    ``_grad_i`` (phi_i'(t), one per SVRG draw), ``_all_grads`` (one per
    anchor), ``_full_grad``, ``_full_smooth_value`` and unused ``_value_i``."""

    _value_i = None

    def __init__(self, A, loss, mu):
        self.A = np.asarray(A, dtype=float)
        self.m, self.dim = self.A.shape
        self.loss = loss
        self.mu = float(mu)
        self.beta_i = (loss.curvature * float(np.max(np.sum(self.A * self.A, axis=1)))
                       + self.mu)
        self._rows = list(self.A)  # row views, built once for SVRG's draws
        self._grad_i = loss.deriv_i
        self.counters = {"grad_i": 0, "value_i": 0}

    @property
    def grad_evals(self) -> int:
        """Component gradients over the instance's life (read-only)."""
        return self.counters["grad_i"]

    def _all_grads(self, x):
        return self.loss.deriv(self.A @ x)

    def _full_grad(self, x):
        return self.A.T @ self.loss.deriv(self.A @ x) / self.m + self.mu * x

    def _full_smooth_value(self, x):
        return self.loss.mean_value(self.A @ x) + 0.5 * self.mu * float(x @ x)

    def full_gradient(self, x):
        self.counters["grad_i"] += self.m
        return self._full_grad(x)

    def value(self, x):
        self.counters["value_i"] += self.m
        return self._full_smooth_value(x)


@dataclass
class Subproblem:
    """F(x) + (kappa/2) ||x - center||^2."""

    problem: FiniteSumProblem
    kappa: float
    center: np.ndarray

    @property
    def mu(self):
        return self.problem.mu + self.kappa

    @property
    def beta(self):
        return self.problem.beta_i + self.kappa

    def full_gradient(self, x):
        return self.problem.full_gradient(x) + self.kappa * (x - self.center)


def momentum_update(alpha_prev: float, q: float) -> tuple[float, float]:
    """Closed-form root in (0, 1] of alpha^2 = (1-alpha) alpha_prev^2 + q alpha,
    plus the extrapolation weight beta_t."""
    if not (0.0 < alpha_prev <= 1.0):
        raise ValueError("alpha_prev must lie in (0, 1]")
    if not (0.0 < q <= 1.0):
        raise ValueError("q must lie in (0, 1]")
    a2 = alpha_prev * alpha_prev
    b = a2 - q
    alpha_t = 0.5 * (-b + math.sqrt(b * b + 4.0 * a2))
    assert 0.0 < alpha_t <= 1.0 + 1e-12, "momentum root left (0, 1]"
    alpha_t = min(alpha_t, 1.0)
    beta_t = alpha_prev * (1.0 - alpha_prev) / (a2 + alpha_t)
    return alpha_t, beta_t


# ---------------------------------------------------------------------------
# Inner methods.  Each runs on a Subproblem until a point's certified gap
# meets the target accuracy or the budget is spent, and returns there
# (x, bound, grad): the point, its gap, and the subproblem gradient at x
# (so callers can derive the outer gradient for free); the caller judges
# the bound.  Component gradients are counted in the problem's
# ``counters``.  The certificate uses the strong convexity bound
# value(x) - value* <= ||gradient||^2 / (2 mu).
# ---------------------------------------------------------------------------

def _certified_bound(mu, grad):
    return float(grad @ grad) / (2.0 * mu)


def gd_run(sub: Subproblem, warm_start, target_accuracy, budget, rng=None, trace=None):
    """Gradient descent with step 1/beta on the subproblem.  Returns at
    the first gradient that meets the target or spends ``budget``."""
    x = np.asarray(warm_start, dtype=float).copy()
    step = 1.0 / sub.beta
    counters = sub.problem.counters
    calls0 = counters["grad_i"]
    while True:
        grad = sub.full_gradient(x)
        bound = _certified_bound(sub.mu, grad)
        if trace is not None:
            trace.append((counters["grad_i"], sub.problem.value(x)))
        if bound <= target_accuracy or counters["grad_i"] - calls0 >= budget:
            return x, bound, grad
        x = x - step * grad


def svrg_run(sub: Subproblem, warm_start, target_accuracy, budget,
             rng: Optional[RandomStream] = None, trace=None):
    """Standard SVRG epochs: full-gradient anchor plus m stochastic
    corrections per epoch, step eta = 1/(10 beta) on the subproblem.

    An anchor x~ keeps m scalars s~ = phi'(A x~) and the full gradient
    g = A^T s~ / m + mu x~ for m component gradients; a draw costs one.
    The certified bound is evaluated at each anchor, where it is free; the
    run returns at the first anchor that meets the target or spends
    ``budget``.  The textbook draw x <- x - eta (grad f_i(x) - grad f_i(x~)
    + g + kappa (x - center)) is x <- rho x - eta s a_i + (1 - rho) xbar,
    with s = phi_i'(a_i^T x) - s~_i, rho = 1 - eta (kappa + mu) and
    xbar = (mu x~ - g + kappa center) / (mu + kappa).  The epoch holds
    x = sigma u + xbar, so with p = A xbar a draw of i is

        t = sigma (a_i . u) + p_i,   sigma <- rho sigma,
        u <- u - (eta (phi_i'(t) - s~_i) / sigma) a_i,

    and sigma is folded into u below 1e-100, before rho^m can underflow.
    It rounds unlike the textbook step, in the last digits only.
    """
    if rng is None:
        rng = RandomStream(0, stream_id=31)
    prob = sub.problem
    A, m, mu = prob.A, prob.m, prob.mu
    kappa, center = sub.kappa, sub.center
    eta = 1.0 / (10.0 * sub.beta)
    rho = 1.0 - eta * (kappa + mu)
    rows = prob._rows
    grad_i = prob._grad_i
    counters = prob.counters
    calls0 = counters["grad_i"]
    x = np.array(warm_start, dtype=float)
    while True:
        s_anchor = prob._all_grads(x)
        counters["grad_i"] += m
        g = A.T @ s_anchor / m + mu * x
        full = g + kappa * (x - center)
        bound = _certified_bound(sub.mu, full)
        if trace is not None:
            trace.append((counters["grad_i"], prob.value(x)))
        if bound <= target_accuracy or counters["grad_i"] - calls0 >= budget:
            return x, bound, full
        xbar = (mu * x - g + kappa * center) / (mu + kappa)
        p = (A @ xbar).tolist()
        s_anchor = s_anchor.tolist()
        u = x - xbar
        sigma = 1.0
        idx = rng.integers(0, m, size=m).tolist()
        k = -1
        try:
            for k, i in enumerate(idx):
                a = rows[i]
                s = grad_i(i, sigma * float(a.dot(u)) + p[i]) - s_anchor[i]
                sigma *= rho
                if sigma < 1e-100:
                    u *= sigma
                    sigma = 1.0
                u -= (eta * s / sigma) * a
        finally:
            counters["grad_i"] += k + 1  # one fresh gradient per draw begun
        x = sigma * u + xbar


@dataclass
class InnerMethod:
    """A linearly convergent solver of the smooth subproblem and its
    name; ``run`` has the signature of :func:`gd_run`."""

    name: str
    run: Callable


def inner_method(name: str) -> InnerMethod:
    table = {
        "gd": InnerMethod("gd", gd_run),
        "svrg": InnerMethod("svrg", svrg_run),
    }
    if name not in table:
        raise ValueError("unknown inner method %r" % name)
    return table[name]


def choose_kappa(problem: FiniteSumProblem, inner_name: str) -> float:
    """Closed-form kappa for each shipped inner method.

    kappa should minimize the acceleration ratio
    sqrt(mu + kappa) / (tau sqrt(mu)), with tau the inner method's rate
    on the subproblem: (mu + kappa) / (beta + kappa) for gd and, for svrg,
    1 / (m + (beta + kappa) / (mu + kappa)), the reciprocal of its
    epoch-complexity heuristic.  For gd that is kappa = beta - 2 mu
    (floored near 0).  For svrg it is (beta - mu) / (m + 1), which makes
    the subproblem condition number about m: that is the ratio's
    minimizing value of mu + kappa, so kappa sits mu above the minimizer
    and the ratio exceeds its minimum by about (mu / kappa)^2 / 8,
    relative.  It is 0 when m >= beta/mu, since acceleration cannot help
    there.
    """
    mu, beta, m = problem.mu, problem.beta_i, problem.m
    if inner_name == "gd":
        return max(beta - 2.0 * mu, 0.0) + 1e-12 * beta
    if inner_name == "svrg":
        if m >= beta / mu:
            return 0.0
        return max((beta - mu) / (m + 1.0), 0.0)
    raise ValueError("unknown inner method %r" % inner_name)


def catalyst_run(
    problem: FiniteSumProblem,
    inner: InnerMethod,
    kappa: float,
    x0,
    outer_iters: int = 1000,
    eps: float = 1e-10,
    rng: Optional[RandomStream] = None,
    inner_budget: int = 10_000_000,
) -> SolverReport:
    """Accelerated outer loop; counts total component-gradient evaluations.

    Each subproblem starts at its predicted solution (the module
    docstring gives the rule) with target 0 and a budget of two passes,
    2 m component gradients: one gd step (a gradient at its start and its
    result), or one svrg epoch (anchor pass, m draws, next anchor pass).

    kappa = 0 degenerates to one call of the inner method on the original
    problem (q = 1 leaves no extrapolation to do), to ``eps`` within
    ``inner_budget``, which bounds only this path; a bound left above
    ``eps`` raises BudgetExceeded.

    Evaluations are counted from the start of this run, so runs on a
    shared instance report the same history.  ``oracle_calls`` reports
    component gradients as ``grad_i`` and component values, m per pass of
    ``problem.value`` (the objective recorded each outer step), as
    ``value_i``; the evaluation history counts gradients only.
    """
    if rng is None:
        rng = RandomStream(0, stream_id=17)
    start = dict(problem.counters)
    x = np.asarray(x0, dtype=float).copy()
    report = SolverReport()

    if kappa == 0.0:
        trace = []
        sub = Subproblem(problem, 0.0, x.copy())
        sol, bound, _ = inner.run(sub, x, eps, inner_budget, rng=rng, trace=trace)
        if not bound <= eps:
            raise BudgetExceeded("%s inner budget exhausted" % inner.name,
                                 best_point=sol, achieved=bound)
        for t, (evals, val) in enumerate(trace):
            report.record(t, val, np.nan, evals - start["grad_i"])
        report.solution = sol
        report.oracle_calls = calls_since(problem.counters, start)
        return report

    mu = problem.mu
    q = mu / (mu + kappa)
    alpha = math.sqrt(q)
    y = x.copy()
    x_prev = x.copy()
    start_point = x
    lam = mu

    g_prev = problem.full_gradient(x)
    for t in range(1, outer_iters + 1):
        sub = Subproblem(problem, kappa, y)
        x_new, _, sub_grad = inner.run(sub, start_point, 0.0, 2 * problem.m, rng=rng)
        # outer gradient from the subproblem gradient, no extra evals
        grad = sub_grad - kappa * (x_new - sub.center)

        s = x_new - x_prev
        ss = float(s @ s)
        if ss > 0.0:
            lam = max(mu, float((grad - g_prev) @ s) / ss)
        g_prev = grad
        alpha_new, beta_t = momentum_update(alpha, q)
        y = x_new + beta_t * s
        start_point = x_new + (kappa / (kappa + lam)) * (y - sub.center)
        x_prev = x_new
        alpha = alpha_new

        report.record(t, problem.value(x_new),
                      float(np.linalg.norm(grad)),
                      calls_since(problem.counters, start)["grad_i"])
        if _certified_bound(mu, grad) <= eps:
            break

    report.solution = x_prev
    report.oracle_calls = calls_since(problem.counters, start)
    return report
