"""Prox-linear method for composite problems F = g + h(c(x)).

Each step minimizes the local convex model

    g(x) + h(c(y) + J(y)(x - y)) + (beta/2) ||x - x_t||^2

to a certified primal-dual gap.  The subproblem is solved by an
accelerated Chambolle-Pock primal-dual iteration that only touches the
Jacobian through jvp/vjp products; when h is the identity (additive
composite) the step collapses to the closed-form proximal-gradient step.

The scaled step beta * (x_{t+1} - x_t) is reported as the stationarity
surrogate; its norm is comparable (within fixed constant factors) to the
gradient norm of the Moreau envelope of F with parameter 1/(2 beta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import operator_norm
from .errors import BudgetExceeded
from .oracles import CompositeProblem
from .report import SolverReport

# Gap asked of the first subproblem under the adaptive schedule.  The
# inexact prox-linear analysis (Drusvyatskiy & Paquette, arXiv 1605.00125)
# only needs each model gap to shrink with the step length, so the first
# step, taken far from a solution, need not be solved tightly.
_FIRST_INNER_TOL = 1e-6

# Lowest gap the adaptive schedule asks for (unless inner_tol is lower).
# Below it the computed gap of a model with O(1) data is rounding noise:
# noiseless phase retrieval at its solution certifies 2e-16 to 1.1e-15,
# so a smaller request only ends on PDHG's stall exit.
_GAP_FLOOR = 16 * np.finfo(float).eps

# Twenty power-iteration steps fell up to 8.5% short of ||K|| on robust
# PCA Jacobians at random points (10 instances, 300 points); 1.2 leaves a
# margin over that.
_NORM_SAFETY = 1.2


@dataclass
class SurrogateGradient:
    """Scaled prox-linear step beta * (x_next - x_t)."""

    g_vec: np.ndarray
    norm: float
    beta_used: float
    gap: float


def model_value(problem: CompositeProblem, y, x) -> float:
    """Value of the local convex model anchored at y, evaluated at x."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    c0 = problem.c_eval(y)
    lin = c0 + problem.c_jvp(y, x - y)
    return problem.g.value(x) + problem.h.value(lin)


def _pdhg_step(K, Kt, dim: int) -> float:
    """Common initial primal and dual step tau = sigma of the PDHG solver.

    Power iteration approaches ||K|| from below, so its estimate is
    inflated by ``_NORM_SAFETY`` to keep Chambolle & Pock's step condition
    tau * sigma * ||K||^2 <= 1.
    """
    knorm = operator_norm(K, Kt, dim, iters=20)
    return 1.0 / max(_NORM_SAFETY * knorm, 1e-12)


def _solve_model_subproblem(
    problem: CompositeProblem,
    x_t: np.ndarray,
    beta: float,
    gap_tol: float,
    max_iters: int = 200_000,
    warm_dual: np.ndarray | None = None,
    check_every: int = 25,
):
    """Accelerated PDHG for min_x g(x) + h(Kx + e) + (beta/2)||x - x_t||^2.

    K is the Jacobian of c at x_t and e = c(x_t) - K x_t.  Returns
    (x, dual, gap).  The dual feasible set is dom h*, reached through
    h.dual_project, so the dual objective never involves h* explicitly.

    Each iteration is the textbook accelerated Chambolle-Pock update bit
    for bit (tests/test_proxlinear.py keeps that loop as the reference):
    every floating-point operation keeps its operands, and an in-place
    update only swaps the operands of a commutative one.  The loop writes
    into its own buffers only, never into an array an oracle returned
    (c's products, g.prox, h.dual_project) or will return.  Its Jacobian
    products are tallied locally and added to ``problem.counters`` once,
    on whichever exit the solve takes.
    """
    g, h, c = problem.g, problem.h, problem.c
    x_t = np.asarray(x_t, dtype=float)
    jvps = vjps = k = 0

    def fwd(v):  # counted product, for everything outside the main loop
        nonlocal jvps
        jvps += 1
        return K(v)

    def adj(u):
        nonlocal vjps
        vjps += 1
        return Kt(u)

    def primal_value(xv):
        return (
            g.value(xv)
            + h.value(fwd(xv) + e)
            + 0.5 * beta * float((xv - x_t) @ (xv - x_t))
        )

    def dual_value(uv):
        q = adj(uv)
        xhat = g.prox(1.0 / beta, x_t - q / beta)
        return (
            float(uv @ e)
            + g.value(xhat)
            + float(q @ xhat)
            + 0.5 * beta * float((xhat - x_t) @ (xhat - x_t))
        )

    try:
        if c.linearize is not None:
            c0, K, Kt = c.linearize(x_t)
        else:
            c0 = c.eval(x_t)
            K = functools.partial(c.jvp, x_t)
            Kt = functools.partial(c.vjp, x_t)
        e = c0 - fwd(x_t)

        x = x_t.copy()
        xbar = x.copy()
        v = np.empty_like(x)
        if warm_dual is None:
            u = h.dual_project(np.zeros(c0.size))
        else:
            u = warm_dual.copy()

        tau = sigma = _pdhg_step(fwd, adj, x_t.size)
        gamma = beta  # strong convexity carried by the quadratic penalty

        best_x, best_gap = x.copy(), np.inf
        stagnant = 0
        last_improve = 0
        x_prev_check = x.copy()
        for k in range(1, max_iters + 1):
            # u = dual_project(u + sigma * (K xbar + e)); w is fresh, as
            # dual_project may return its argument
            w = np.add(K(xbar), e)
            w *= sigma
            w += u
            u = h.dual_project(w)
            # v = x - tau * K^T u
            np.multiply(Kt(u), tau, out=v)
            np.subtract(x, v, out=v)
            # x_new = prox(tau * scale, (v + tau * beta * x_t) * scale); z
            # is fresh, as g.prox may return its argument
            scale = 1.0 / (1.0 + tau * beta)
            z = np.multiply(x_t, tau * beta)
            z += v
            z *= scale
            x_new = g.prox(tau * scale, z)
            theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
            tau *= theta
            sigma /= theta
            # xbar = x_new + theta * (x_new - x)
            np.subtract(x_new, x, out=xbar)
            xbar *= theta
            xbar += x_new
            x = x_new

            if k % check_every == 0 or k == max_iters:
                gap = primal_value(x) - dual_value(u)
                if gap < 0.75 * best_gap:
                    last_improve = k
                if gap < best_gap:
                    best_gap = gap
                    best_x = x.copy()
                if gap <= gap_tol:
                    return x, u, float(max(gap, 0.0))
                # stop if the iterate has hit machine precision, or the
                # computable gap has stalled at its numerical floor
                if np.linalg.norm(x - x_prev_check) <= 1e-15 * (1.0 + np.linalg.norm(x)):
                    stagnant += 1
                    if stagnant >= 3:
                        return best_x, u, float(max(best_gap, 0.0))
                else:
                    stagnant = 0
                if k - last_improve >= 10_000:
                    return best_x, u, float(max(best_gap, 0.0))
                x_prev_check = x.copy()

        raise BudgetExceeded(
            "model subproblem: gap %.3e > tol %.3e after %d iterations"
            % (best_gap, gap_tol, max_iters),
            best_point=best_x,
            achieved=best_gap,
        )
    finally:
        # the main loop makes one product of each kind per iteration
        problem.counters["c_eval"] += 1
        problem.counters["c_jvp"] += jvps + k
        problem.counters["c_vjp"] += vjps + k


def proxlinear_step(
    problem: CompositeProblem,
    x_t,
    beta: float,
    inner_tol: float,
    budget: int = 200_000,
    warm_dual: np.ndarray | None = None,
):
    """One prox-linear step; returns (x_next, SurrogateGradient, dual)."""
    x_t = np.asarray(x_t, dtype=float)
    if getattr(problem.h, "is_identity", False):
        # additive composite: exact proximal-gradient step
        u = np.ones(problem.c.dim_out)
        grad = problem.c_vjp(x_t, u)
        x_next = problem.g_prox(1.0 / beta, x_t - grad / beta)
        gap = 0.0
        dual = u
    else:
        x_next, dual, gap = _solve_model_subproblem(
            problem, x_t, beta, gap_tol=inner_tol, max_iters=budget, warm_dual=warm_dual
        )
    step = beta * (x_next - x_t)
    surr = SurrogateGradient(
        g_vec=step, norm=float(np.linalg.norm(step)), beta_used=beta, gap=gap
    )
    return x_next, surr, dual


def proxlinear_run(
    problem: CompositeProblem,
    x0,
    beta: float | None = None,
    outer_iters: int = 200,
    stat_tol: float = 1e-9,
    inner_tol: float | None = None,
    inner_budget: int = 200_000,
    adaptive_inner: bool = True,
    seed: int = 0,
) -> SolverReport:
    """Run the prox-linear method until the surrogate norm drops below
    stat_tol on a step whose achieved subproblem gap is <= inner_tol, or
    the outer budget is exhausted.

    With ``adaptive_inner`` the subproblem gap tolerance follows the last
    step length s = ||x_{t+1} - x_t||: the first subproblem is solved to
    ``max(inner_tol, 1e-6)`` and each later one to
    ``max(floor, min(previous tolerance, 0.05 * beta * s**4))``, so early
    steps far from a solution are solved loosely and the tolerance never
    loosens.  Tying the gap to s**4 keeps the inexact step within O(s**2)
    of the exact one, which preserves local quadratic convergence on sharp
    problems.  The floor, ``min(inner_tol, 16 * machine epsilon)``, keeps
    the request above the rounding noise of the computed gap.

    ``inner_tol`` is the gap the stopping step must certify: a loosely
    solved step cannot stop the run, however small its surrogate norm.
    Without ``adaptive_inner`` every subproblem is solved to ``inner_tol``.
    """
    x = np.asarray(x0, dtype=float).copy()
    if beta is None:
        beta = problem.L * problem.beta
    if inner_tol is None:
        inner_tol = stat_tol / 100.0

    report = SolverReport(seed=seed)

    dual = None
    gap_tol = max(inner_tol, _FIRST_INNER_TOL) if adaptive_inner else inner_tol
    gap_floor = min(inner_tol, _GAP_FLOOR)
    for t in range(outer_iters):
        x_next, surr, dual = proxlinear_step(
            problem, x, beta, inner_tol=gap_tol, budget=inner_budget, warm_dual=dual
        )
        evals = sum(problem.counters.values())
        report.record(t, x, problem.value(x), surr.norm, evals, keep_iterate=True)
        x = x_next
        if surr.norm <= stat_tol and surr.gap <= inner_tol:
            break
        if adaptive_inner:
            s = surr.norm / beta
            gap_tol = max(gap_floor, min(gap_tol, 0.05 * beta * s**4))

    report.solution = x
    report.oracle_calls = dict(problem.counters)
    report.validate()
    return report


@dataclass
class RateEstimate:
    kind: str  # "quadratic" | "linear" | "undetermined"
    rate: float | None = None
    r_squared: float | None = None


def estimate_local_rate(stationarity_history, window: int = 3) -> RateEstimate:
    """Classify the tail of a residual history.

    Declares quadratic when successive log-residual ratios exceed 1.8
    over the final window (digit doubling), otherwise fits a geometric
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

    # quadratic test: ratios of consecutive logs on the final window,
    # defined only where the residual has dropped below 1
    ratios = []
    for a, b in zip(logs[:-1], logs[1:]):
        if a < -1e-12:
            ratios.append(b / a)
    if len(ratios) >= window and all(q > 1.8 for q in ratios[-window:]):
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
