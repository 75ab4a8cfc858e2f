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


class FiniteSumProblem:
    """f(x) = (1/m) sum_i f_i(x), smooth and mu-strongly convex, each f_i
    with beta_i-Lipschitz gradient.  ``counters`` holds component
    gradients (``grad_i``) and values (``value_i``, m per value pass)."""

    def __init__(self, m, grad_i, value_i, mu, beta_i,
                 full_grad=None, full_smooth_value=None, dim=None,
                 all_grads=None):
        self.m = int(m)
        self._grad_i = grad_i
        self._value_i = value_i
        self.mu = float(mu)
        self.beta_i = float(beta_i)
        self._full_grad = full_grad
        self._full_smooth_value = full_smooth_value
        self.dim = dim
        self._all_grads = all_grads  # optional vectorized (m, d) gradient table
        self.counters = {"grad_i": 0, "value_i": 0}

    @property
    def grad_evals(self) -> int:
        """Component gradients over the instance's life (read-only)."""
        return self.counters["grad_i"]

    def component_gradient(self, i, x):
        self.counters["grad_i"] += 1
        return self._grad_i(i, x)

    def full_gradient(self, x):
        self.counters["grad_i"] += self.m
        if self._full_grad is not None:
            return self._full_grad(x)
        g = np.zeros_like(np.asarray(x, dtype=float))
        for i in range(self.m):
            g += self._grad_i(i, x)
        return g / self.m

    def component_gradients_table(self, x):
        """All component gradients at x as an (m, d) array; costs one
        full pass (m evaluations)."""
        self.counters["grad_i"] += self.m
        if self._all_grads is not None:
            return np.asarray(self._all_grads(x), dtype=float)
        return np.stack([self._grad_i(i, x) for i in range(self.m)])

    def value(self, x):
        self.counters["value_i"] += self.m
        if self._full_smooth_value is not None:
            return float(self._full_smooth_value(x))
        return float(np.mean([self._value_i(i, x) for i in range(self.m)]))


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
    corrections per epoch, step 1/(10 beta) on the subproblem.

    Anchor component gradients are cached during the anchor pass, so each
    stochastic draw costs exactly one fresh gradient evaluation and the
    total count is m * (full passes) + (stochastic draws).  The certified
    bound is evaluated at each anchor, where the full gradient is free; it
    returns at the first anchor that meets the target or spends ``budget``.

    The step x - eta (g_i(x) - G_i + mean + kappa (x - center)) is taken as
    (1 - eta kappa) x - eta g_i(x) + S_i, S_i = eta (G_i - mean + kappa
    center) tabled once per epoch; it rounds unlike the unfolded step.
    """
    if rng is None:
        rng = RandomStream(0, stream_id=31)
    x = np.array(warm_start, dtype=float)  # owned buffer, updated in place
    prob = sub.problem
    m = prob.m
    kappa, center = sub.kappa, sub.center
    eta = 1.0 / (10.0 * sub.beta)
    shrink = 1.0 - eta * kappa
    grad_i = prob._grad_i
    counters = prob.counters
    calls0 = counters["grad_i"]
    while True:
        anchor = x.copy()
        anchor_grads = prob.component_gradients_table(anchor)  # m evals
        mean_anchor = anchor_grads.mean(axis=0)
        full = mean_anchor + kappa * (anchor - center)
        bound = _certified_bound(sub.mu, full)
        if trace is not None:
            trace.append((counters["grad_i"], prob.value(anchor)))
        if bound <= target_accuracy or counters["grad_i"] - calls0 >= budget:
            return anchor, bound, full
        rows = list(eta * (anchor_grads + (kappa * center - mean_anchor)))
        idx = rng.integers(0, m, size=m).tolist()
        k = -1
        try:
            for k, i in enumerate(idx):
                step = grad_i(i, x) * eta
                x *= shrink
                x -= step
                x += rows[i]
        finally:
            counters["grad_i"] += k + 1  # one fresh gradient per draw begun


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
    result), or one svrg epoch (anchor table, m draws, next anchor table).

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
