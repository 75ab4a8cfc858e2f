"""Catalyst acceleration for regularized finite-sum minimization.

The outer loop approximately solves kappa-regularized proximal
subproblems with any linearly convergent inner method (gradient descent,
proximal gradient, or SVRG are shipped) and extrapolates with
Nesterov-style momentum:

    q = mu / (mu + kappa),  alpha_0 = sqrt(q),  y_0 = x_0
    x_t  ~ argmin F(x) + (kappa/2) ||x - y_{t-1}||^2
    alpha_t^2 = (1 - alpha_t) alpha_{t-1}^2 + q alpha_t
    beta_t = alpha_{t-1} (1 - alpha_{t-1}) / (alpha_{t-1}^2 + alpha_t)
    y_t = x_t + beta_t (x_t - x_{t-1})

Complexity is counted in individual component-gradient evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded
from .oracles import Zero
from .report import SolverReport
from .rng import RandomStream


class FiniteSumProblem:
    """f(x) = (1/m) sum_i f_i(x) + g(x), mu-strongly convex smooth part,
    each f_i with beta_i-Lipschitz gradient."""

    def __init__(self, m, grad_i, value_i, g, mu, beta_i,
                 full_grad=None, full_smooth_value=None, dim=None,
                 all_grads=None):
        self.m = int(m)
        self._grad_i = grad_i
        self._value_i = value_i
        self.g = g if g is not None else Zero()
        self.mu = float(mu)
        self.beta_i = float(beta_i)
        self._full_grad = full_grad
        self._full_smooth_value = full_smooth_value
        self.dim = dim
        self._all_grads = all_grads  # optional vectorized (m, d) gradient table
        self.grad_evals = 0

    def component_gradient(self, i, x):
        self.grad_evals += 1
        return self._grad_i(i, x)

    def full_gradient(self, x):
        self.grad_evals += self.m
        if self._full_grad is not None:
            return self._full_grad(x)
        g = np.zeros_like(np.asarray(x, dtype=float))
        for i in range(self.m):
            g += self._grad_i(i, x)
        return g / self.m

    def component_gradients_table(self, x):
        """All component gradients at x as an (m, d) array; costs one
        full pass (m evaluations)."""
        self.grad_evals += self.m
        if self._all_grads is not None:
            return np.asarray(self._all_grads(x), dtype=float)
        return np.stack([self._grad_i(i, x) for i in range(self.m)])

    def smooth_value(self, x):
        if self._full_smooth_value is not None:
            return float(self._full_smooth_value(x))
        return float(np.mean([self._value_i(i, x) for i in range(self.m)]))

    def value(self, x):
        return self.smooth_value(x) + self.g.value(x)


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

    def smooth_value(self, x):
        d = x - self.center
        return self.problem.smooth_value(x) + 0.5 * self.kappa * float(d @ d)

    def value(self, x):
        return self.smooth_value(x) + self.problem.g.value(x)


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
# Inner methods.  Each solves a Subproblem in function value to a
# certified accuracy and returns (x, bound, calls, grad): the solution,
# its certified gap, the component gradients spent, and the subproblem
# gradient at x (so callers can derive the outer gradient for free).
# The certificate uses the strong convexity bound
# value(x) - value* <= ||gradient mapping||^2 / (2 mu).
# ---------------------------------------------------------------------------

def _certified_bound(sub: Subproblem, x, grad):
    g = sub.problem.g
    if isinstance(g, Zero):
        return float(grad @ grad) / (2.0 * sub.mu)
    # prox-gradient mapping bound (safe constant 2 for the composite case)
    L = sub.beta
    x_plus = g.prox(1.0 / L, x - grad / L)
    gm = L * (x - x_plus)
    return 2.0 * float(gm @ gm) / (2.0 * sub.mu)


def gd_run(sub: Subproblem, warm_start, target_accuracy, budget, rng=None, trace=None):
    """Full-gradient descent with step 1/beta on the subproblem."""
    x = np.asarray(warm_start, dtype=float).copy()
    step = 1.0 / sub.beta
    calls0 = sub.problem.grad_evals
    bound = np.inf
    while True:
        grad = sub.full_gradient(x)
        bound = _certified_bound(sub, x, grad)
        if trace is not None:
            trace.append((sub.problem.grad_evals, sub.problem.value(x)))
        if bound <= target_accuracy:
            break
        if sub.problem.grad_evals - calls0 >= budget:
            raise BudgetExceeded("gd inner budget exhausted",
                                 best_point=x, achieved=bound)
        x = x - step * grad
    return x, bound, sub.problem.grad_evals - calls0, grad


def prox_gd_run(sub: Subproblem, warm_start, target_accuracy, budget, rng=None, trace=None):
    """Proximal gradient with step 1/beta on the subproblem."""
    x = np.asarray(warm_start, dtype=float).copy()
    g = sub.problem.g
    step = 1.0 / sub.beta
    calls0 = sub.problem.grad_evals
    while True:
        grad = sub.full_gradient(x)
        bound = _certified_bound(sub, x, grad)
        if trace is not None:
            trace.append((sub.problem.grad_evals, sub.problem.value(x)))
        if bound <= target_accuracy:
            break
        if sub.problem.grad_evals - calls0 >= budget:
            raise BudgetExceeded("prox_gd inner budget exhausted",
                                 best_point=x, achieved=bound)
        x = g.prox(step, x - step * grad)
    return x, bound, sub.problem.grad_evals - calls0, grad


def svrg_run(sub: Subproblem, warm_start, target_accuracy, budget,
             rng: Optional[RandomStream] = None, trace=None):
    """Standard SVRG epochs: full-gradient anchor plus m stochastic
    corrections per epoch, step 1/(10 beta) on the subproblem.

    Anchor component gradients are cached during the anchor pass, so each
    stochastic draw costs exactly one fresh gradient evaluation and the
    total count is m * (full passes) + (stochastic draws).  The certified
    bound is evaluated at each anchor, where the full gradient is free.

    The step x - eta (g_i(x) - G_i + mean + kappa (x - center)) is taken as
    (1 - eta kappa) x - eta g_i(x) + S_i, S_i = eta (G_i - mean + kappa
    center) tabled once per epoch; it rounds unlike the unfolded step.
    """
    if rng is None:
        rng = RandomStream(0, stream_id=31)
    x = np.array(warm_start, dtype=float)  # owned buffer, updated in place
    prob = sub.problem
    m = prob.m
    g = prob.g
    kappa, center = sub.kappa, sub.center
    eta = 1.0 / (10.0 * sub.beta)
    shrink = 1.0 - eta * kappa
    use_prox = not isinstance(g, Zero)
    grad_i = prob._grad_i
    calls0 = prob.grad_evals
    while True:
        anchor = x.copy()
        anchor_grads = prob.component_gradients_table(anchor)  # m evals
        mean_anchor = anchor_grads.mean(axis=0)
        full = mean_anchor + kappa * (anchor - center)
        bound = _certified_bound(sub, anchor, full)
        if trace is not None:
            trace.append((prob.grad_evals, prob.value(anchor)))
        if bound <= target_accuracy:
            return anchor, bound, prob.grad_evals - calls0, full
        if prob.grad_evals - calls0 >= budget:
            raise BudgetExceeded("svrg inner budget exhausted",
                                 best_point=anchor, achieved=bound)
        rows = list(eta * (anchor_grads + (kappa * center - mean_anchor)))
        idx = rng.integers(0, m, size=m).tolist()
        k = -1
        try:
            for k, i in enumerate(idx):
                step = grad_i(i, x) * eta
                x *= shrink
                x -= step
                x += rows[i]
                if use_prox:
                    x[...] = g.prox(eta, x)
        finally:
            prob.grad_evals += k + 1  # one fresh gradient per draw begun


@dataclass
class InnerMethod:
    """A linearly convergent subproblem solver plus its rate model tau(kappa)."""

    name: str
    run: Callable
    tau_model: Callable[[FiniteSumProblem, float], float]


def _tau_gd(problem: FiniteSumProblem, kappa: float) -> float:
    return (problem.mu + kappa) / (problem.beta_i + kappa)


def _tau_svrg(problem: FiniteSumProblem, kappa: float) -> float:
    # reciprocal of the (m + condition-number) epoch-complexity heuristic
    return 1.0 / (problem.m + (problem.beta_i + kappa) / (problem.mu + kappa))


def inner_method(name: str) -> InnerMethod:
    table = {
        "gd": InnerMethod("gd", gd_run, _tau_gd),
        "prox_gd": InnerMethod("prox_gd", prox_gd_run, _tau_gd),
        "svrg": InnerMethod("svrg", svrg_run, _tau_svrg),
    }
    if name not in table:
        raise ValueError("unknown inner method %r" % name)
    return table[name]


def acceleration_ratio(problem: FiniteSumProblem, kappa: float, inner_name: str) -> float:
    """sqrt(mu + kappa) / (tau(kappa) sqrt(mu)), the quantity the outer
    parameter kappa should minimize."""
    tau = inner_method(inner_name).tau_model(problem, kappa)
    return math.sqrt(problem.mu + kappa) / (tau * math.sqrt(problem.mu))


def choose_kappa(problem: FiniteSumProblem, inner_name: str) -> float:
    """Closed-form minimizer of the acceleration ratio for each shipped
    tau model.

    For gd/prox_gd the minimizer is kappa = beta - 2 mu (floored near 0);
    for svrg, kappa is picked so the subproblem condition number is about
    m, and 0 when m >= beta/mu since acceleration cannot help there.
    """
    mu, beta, m = problem.mu, problem.beta_i, problem.m
    if inner_name in ("gd", "prox_gd"):
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
    warm_start_at: str = "y",
) -> SolverReport:
    """Accelerated outer loop; counts total component-gradient evaluations.

    Subproblem target accuracies follow the geometric schedule
    eps_t = C (1 - 0.9 sqrt(q))^t with C an initial optimality-gap
    estimate from the strong convexity bound at x0.  Subproblems warm
    start at the prox center y by default (it is the point the subproblem
    is anchored at, and measurably closer to its optimum than x_prev);
    ``warm_start_at="x_prev"`` switches to the previous outer solution.

    kappa = 0 degenerates to a single call of the inner method on the
    original problem (q = 1 leaves no extrapolation to do).

    Evaluations are counted from the start of this run, so runs on a
    shared instance report the same history; ``problem.grad_evals`` keeps
    the instance's running total.
    """
    if rng is None:
        rng = RandomStream(0, stream_id=17)
    evals0 = problem.grad_evals
    x = np.asarray(x0, dtype=float).copy()
    report = SolverReport(seed=rng.seed)

    if kappa == 0.0:
        trace = []
        sub = Subproblem(problem, 0.0, x.copy())
        sol, bound, calls, _ = inner.run(sub, x, eps, inner_budget, rng=rng, trace=trace)
        for t, (evals, val) in enumerate(trace):
            report.record(t, None, val, np.nan, evals - evals0)
        report.solution = sol
        report.oracle_calls = {"grad_i": problem.grad_evals - evals0}
        report.validate()
        return report

    mu = problem.mu
    q = mu / (mu + kappa)
    alpha = math.sqrt(q)
    y = x.copy()
    x_prev = x.copy()

    g0 = problem.full_gradient(x)
    # schedule scale: the valid bound ||grad||^2/(2 mu) is often hundreds
    # of times above the true gap, which would waste log-many outer
    # iterations; the geometric mean of the mu- and beta-based bounds is a
    # schedule heuristic only, so misestimating it is convergence-safe
    gap_estimate = max(
        float(g0 @ g0) / (2.0 * math.sqrt(mu * problem.beta_i)), 1e-16
    )
    decay = 1.0 - 0.9 * math.sqrt(q)

    for t in range(1, outer_iters + 1):
        target = gap_estimate * decay**t
        sub = Subproblem(problem, kappa, y)
        warm = x_prev if warm_start_at == "x_prev" else y
        center = y
        x_new, sub_bound, _, sub_grad = inner.run(sub, warm, target, inner_budget, rng=rng)
        alpha_new, beta_t = momentum_update(alpha, q)
        y = x_new + beta_t * (x_new - x_prev)
        x_prev = x_new
        alpha = alpha_new

        # outer gradient from the subproblem gradient, no extra evals
        grad = sub_grad - kappa * (x_new - center)
        outer_bound = _certified_bound(Subproblem(problem, 0.0, x_new), x_new, grad)
        report.record(t, x_new, problem.value(x_new),
                      float(np.linalg.norm(grad)), problem.grad_evals - evals0)
        if outer_bound <= eps:
            break

    report.solution = x_prev
    report.oracle_calls = {"grad_i": problem.grad_evals - evals0}
    report.validate()
    return report
