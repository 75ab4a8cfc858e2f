"""Prox-linear method for composite problems F = g + h(c(x)).

Each step minimizes the local convex model

    g(x) + h(c(y) + J(y)(x - y)) + (beta/2) ||x - x_t||^2

to a certified primal-dual gap.  The subproblem is solved by the
accelerated primal-dual method with linesearch of Malitsky & Pock,
"A first-order primal-dual algorithm with linesearch" (arXiv 1608.08883),
which only touches the Jacobian K through jvp/vjp products and picks its
own step sizes.  With G = g + (beta/2)||. - x_t||^2 (beta-strongly
convex), r = sigma/tau and theta = r = 1 at the start, one iteration is

    x+     = prox_{tau G}(x - tau K^T u)
    r+     = r (1 + beta tau),   tau+ = tau sqrt(r/r+) (1 + theta)^(1/4)
    repeat theta+ = tau+/tau,  sigma = r+ tau+,
           u+ = proj_{dom h*}(u + sigma (K x+ + e + theta+ (K x+ - K x)))
    until  r+ tau+^2 ||K^T u+ - K^T u||^2 <= 0.99^2 ||u+ - u||^2,
           shrinking tau+ by 0.7 on each failed trial,

where e = c(x_t) - K x_t.  No estimate of ||K|| is needed.

For an additive composite s + g (a ``SmoothPlusProx``, i.e. h the
identity) the model is s linearized plus g, and the step collapses to
the closed-form proximal-gradient step.

The scaled step beta * (x_{t+1} - x_t) is reported as the stationarity
surrogate; its norm is comparable (within fixed constant factors) to the
gradient norm of the Moreau envelope of F with parameter 1/(2 beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, OracleFailure
from .oracles import CompositeProblem, SmoothPlusProx, euclidean_norm
from .report import SolverReport, calls_since

# Gap asked of the first subproblem under the tolerance schedule.  The
# inexact prox-linear analysis (Drusvyatskiy & Paquette, arXiv 1605.00125)
# only needs each model gap to shrink with the step length, so the first
# step, taken far from a solution, need not be solved tightly.
_FIRST_INNER_TOL = 1e-6

# Lowest gap the tolerance schedule asks for (unless inner_tol is lower).
# Below it the computed gap of a model with O(1) data is rounding noise:
# noiseless phase retrieval at its solution certifies 2e-16 to 1.1e-15,
# so a smaller request only ends on PDHG's stall exit.
_GAP_FLOOR = 16 * np.finfo(float).eps


def _stop_gap(stat_tol, beta):
    """Gap a stop at surrogate norm stat_tol needs: a gap delta leaves the
    scaled step off by about sqrt(2 beta delta), an order of magnitude
    below stat_tol at this delta, and never below _GAP_FLOOR."""
    return max(_GAP_FLOOR, 5e-3 * stat_tol**2 / beta)

# PDHG linesearch: a trial step is accepted when r tau^2 ||K^T du||^2 <=
# delta^2 ||du||^2 with delta = 0.99, and otherwise shrunk by 0.7.
_DELTA_SQ = 0.99 * 0.99
_BACKTRACK = 0.7

# PDHG iterations between duality-gap checks.
_CHECK_EVERY = 25


@dataclass
class SurrogateGradient:
    """Norm of the scaled prox-linear step beta * (x_next - x_t), the
    model gap the step certified, and F(x_t) from the model's c(x_t)."""

    norm: float
    gap: float
    value: float | None = None


def _solve_model_subproblem(
    problem: CompositeProblem,
    x_t: np.ndarray,
    beta: float,
    gap_tol: float,
    max_iters: int = 200_000,
    warm_dual: np.ndarray | None = None,
):
    """Accelerated primal-dual linesearch (Malitsky & Pock, arXiv
    1608.08883) for min_x g(x) + h(Kx + e) + (beta/2)||x - x_t||^2.

    K is the Jacobian of c at x_t and e = c(x_t) - K x_t, read by one
    ``c.linearize(x_t)``.  Returns (x, dual, gap, F(x_t)).  The dual
    feasible set is dom h*, reached through h.dual_project, so the dual
    objective never involves h* explicitly.
    The update rules are in the module docstring.  The first tau is
    1/sqrt(||K^T K v||) >= 1/||K|| for the normalized ones vector v,
    which the linesearch then corrects.

    Each iteration is the textbook update of tests/test_proxlinear.py,
    operation for operation.  K x and K^T u are cached, so the gap checked
    every ``_CHECK_EVERY`` iterations costs no products, and ``max_iters``
    counts iterations, not linesearch trials.  Jacobian products are
    tallied locally and added to ``problem.counters`` once, on whichever
    exit the solve takes.
    """
    g, h, c = problem.g, problem.h, problem.c
    x_t = np.asarray(x_t, dtype=float)
    jvps = vjps = 0

    def duality_gap(xv, Kxe, uv, q):  # Kxe = K xv + e and q = K^T uv
        xhat = g.prox(1.0 / beta, x_t - q / beta)
        primal = g.value(xv) + h.value(Kxe) + 0.5 * beta * float((xv - x_t) @ (xv - x_t))
        dual = (float(uv @ e) + g.value(xhat) + float(q @ xhat)
                + 0.5 * beta * float((xhat - x_t) @ (xhat - x_t)))
        return primal - dual

    try:
        c0, K, Kt = c.linearize(x_t)
        if not np.all(np.isfinite(c0)):  # else every gap is NaN
            raise OracleFailure("model subproblem: c(x_t) is not finite")
        value = g.value(x_t) + h.value(c0)
        Kx = K(x_t)
        e = c0 - Kx
        x = x_t.copy()
        u = h.dual_project(np.zeros(c0.size)) if warm_dual is None else warm_dual.copy()
        Ktu = Kt(u)
        # first step from one product pair: ||K^T K v|| <= ||K||^2
        ones = np.full(x_t.size, 1.0 / math.sqrt(x_t.size))
        tau = 1.0 / max(math.sqrt(euclidean_norm(Kt(K(ones)))), 1e-12)
        jvps, vjps = 2, 2

        theta = r = 1.0
        best_x, best_gap = x.copy(), np.inf
        stagnant = 0
        last_improve = 0
        x_prev_check = x.copy()
        for k in range(1, max_iters + 1):
            scale = 1.0 / (1.0 + tau * beta)
            x_new = g.prox(tau * scale, (x - tau * Ktu + tau * beta * x_t) * scale)
            Kx_new = K(x_new)
            jvps += 1
            Kxe = Kx_new + e
            dKx = Kx_new - Kx

            # theta_new = tau_new / tau, never divided: an infinite product gives tau = 0
            r_new = r * (1.0 + beta * tau)
            theta_new = math.sqrt(r / r_new) * (1.0 + theta) ** 0.25
            while True:
                tau_new = tau * theta_new
                sigma = r_new * tau_new
                # w = u + sigma * (Kxe + theta_new * dKx), built in place
                # (faster than the plain form); it is fresh on each trial,
                # so dual_project may return it
                w = dKx * theta_new
                w += Kxe
                w *= sigma
                w += u
                u_new = h.dual_project(w)
                Ktu_new = Kt(u_new)
                vjps += 1
                dq = Ktu_new - Ktu
                du = u_new - u
                # a NaN product is accepted, so the gap checks end the solve
                if not r_new * tau_new * tau_new * float(dq @ dq) > _DELTA_SQ * float(du @ du):
                    break
                theta_new *= _BACKTRACK
            x, Kx, u, Ktu = x_new, Kx_new, u_new, Ktu_new
            tau, theta, r = tau_new, theta_new, r_new

            if k % _CHECK_EVERY == 0 or k == max_iters:
                gap = duality_gap(x, Kxe, u, Ktu)
                if gap < 0.75 * best_gap:
                    last_improve = k
                if gap < best_gap:
                    best_gap = gap
                    best_x = x.copy()
                if gap <= gap_tol:
                    return x, u, float(max(gap, 0.0)), value
                # stop if the iterate has hit machine precision, or the
                # computable gap has stalled at its numerical floor
                if np.linalg.norm(x - x_prev_check) <= 1e-15 * (1.0 + np.linalg.norm(x)):
                    stagnant += 1
                    if stagnant >= 3:
                        return best_x, u, float(max(best_gap, 0.0)), value
                else:
                    stagnant = 0
                if k - last_improve >= 10_000:
                    return best_x, u, float(max(best_gap, 0.0)), value
                x_prev_check = x.copy()

        raise BudgetExceeded(
            "model subproblem: gap %.3e > tol %.3e after %d iterations"
            % (best_gap, gap_tol, max_iters),
            best_point=best_x,
            achieved=best_gap,
        )
    finally:
        problem.counters["c_eval"] += 1
        problem.counters["c_jvp"] += jvps
        problem.counters["c_vjp"] += vjps


def proxlinear_step(
    problem: CompositeProblem | SmoothPlusProx,
    x_t,
    beta: float,
    inner_tol: float,
    warm_dual: np.ndarray | None = None,
):
    """One prox-linear step; returns (x_next, SurrogateGradient, dual).

    On a ``SmoothPlusProx`` the model is solved exactly by one
    proximal-gradient step, so the gap is 0 and there is no dual or value.
    A step whose norm is not finite raises OracleFailure."""
    x_t = np.asarray(x_t, dtype=float)
    if isinstance(problem, SmoothPlusProx):
        problem.counters["grad"] += 1
        grad = problem.smooth_grad(x_t)
        problem.counters["g_prox"] += 1
        x_next = problem.g.prox(1.0 / beta, x_t - grad / beta)
        gap, dual, value = 0.0, None, None
    else:
        x_next, dual, gap, value = _solve_model_subproblem(
            problem, x_t, beta, gap_tol=inner_tol, warm_dual=warm_dual
        )
    norm = euclidean_norm(beta * (x_next - x_t))
    if not norm < math.inf:  # else a run on NaN data returns NaN rows
        raise OracleFailure("prox-linear step: step norm %r is not finite" % norm)
    surr = SurrogateGradient(norm=norm, gap=gap, value=value)
    return x_next, surr, dual


def proxlinear_run(
    problem: CompositeProblem | SmoothPlusProx,
    x0,
    beta: float | None = None,
    outer_iters: int = 200,
    stat_tol: float = 1e-9,
    inner_tol: float | None = None,
) -> SolverReport:
    """Run the prox-linear method until the surrogate norm drops below
    stat_tol on a step whose achieved subproblem gap is <= inner_tol, or
    the outer budget is exhausted.

    The subproblem gap tolerance follows the last step length
    s = ||x_{t+1} - x_t||: the first subproblem is solved to
    ``max(inner_tol, 1e-6)`` and each later one to
    ``max(floor, min(previous tolerance, 0.05 * beta * s**4))``, so early
    steps far from a solution are solved loosely and the tolerance never
    loosens.  Tying the gap to s**4 keeps the inexact step within O(s**2)
    of the exact one, which preserves local quadratic convergence on sharp
    problems.  The floor, ``min(inner_tol, max(16 * machine epsilon,
    5e-3 * stat_tol**2 / beta))``, keeps the request above the rounding
    noise of the computed gap and asks no more than the stop needs: a gap
    delta leaves the scaled step off by about sqrt(2 beta delta).

    ``inner_tol`` is the gap the stopping step must certify: a loosely
    solved step cannot stop the run, however small its surrogate norm.
    A composite step records F(x_t) from its model's c(x_t), so it
    evaluates c once.  Oracle calls are counted from the start of this run.
    """
    x = np.asarray(x0, dtype=float).copy()
    if beta is None:
        beta = problem.L * problem.beta
    if inner_tol is None:
        inner_tol = stat_tol / 100.0

    report = SolverReport()
    start = dict(problem.counters)
    base = sum(start.values())

    dual = None
    gap_tol = max(inner_tol, _FIRST_INNER_TOL)
    gap_floor = min(inner_tol, _stop_gap(stat_tol, beta))
    for t in range(outer_iters):
        x_next, surr, dual = proxlinear_step(
            problem, x, beta, inner_tol=gap_tol, warm_dual=dual
        )
        evals = sum(problem.counters.values()) - base
        value = problem.value(x) if surr.value is None else surr.value
        report.record(t, value, surr.norm, evals)
        x = x_next
        if surr.norm <= stat_tol and surr.gap <= inner_tol:
            break
        s = surr.norm / beta
        gap_tol = max(gap_floor, min(gap_tol, 0.05 * beta * s**4))

    report.solution = x
    report.oracle_calls = calls_since(problem.counters, start)
    return report


@dataclass
class RateEstimate:
    kind: str  # "quadratic" | "linear" | "undetermined"
    rate: float | None = None
    r_squared: float | None = None


def estimate_local_rate(stationarity_history) -> RateEstimate:
    """Classify the tail of a residual history.

    Declares quadratic when successive log-residual ratios exceed 1.8
    over the final three (digit doubling), otherwise fits a geometric
    model and reports its rate when the fit explains the data
    (R^2 >= 0.9); undetermined when neither applies.  Trailing zeros are
    truncated before fitting.
    """
    r = [float(v) for v in stationarity_history]
    while r and r[-1] <= 0.0:
        r.pop()
    if len(r) < 4 or any(v <= 0.0 for v in r):
        return RateEstimate("undetermined")

    # drop the trailing machine-noise plateau, if the history hit one
    floor = min(r)
    if floor < 1e-12 * max(r):
        last = max(i for i, v in enumerate(r) if v > 1e3 * floor)
        r = r[: last + 1]
    if len(r) < 4:
        return RateEstimate("undetermined")

    logs = np.log10(np.asarray(r))

    # quadratic test: ratios of consecutive logs, the final three of
    # them, defined only where the residual has dropped below 1
    ratios = []
    for a, b in zip(logs[:-1], logs[1:]):
        if a < -1e-12:
            ratios.append(b / a)
    if len(ratios) >= 3 and all(q > 1.8 for q in ratios[-3:]):
        return RateEstimate("quadratic")

    # geometric fit log r_k = a + k log(rate)
    k = np.arange(len(logs), dtype=float)
    A = np.vstack([np.ones_like(k), k]).T
    coef, _, _, _ = np.linalg.lstsq(A, logs, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 >= 0.9:
        return RateEstimate("linear", rate=float(10.0 ** coef[1]), r_squared=r2)
    return RateEstimate("undetermined", r_squared=r2)
