"""Certified proximal maps, Moreau envelope values and gradients, and the
generic proximal point iteration.

``prox_map`` dispatches on the structure of the function bundle:

* a closed-form ``prox`` method is used verbatim (certificate 0);
* a ``SmoothPlusProx`` bundle s + g, the additive composite, is solved
  by an accelerated proximal gradient iteration on its own gradient,
  linearly convergent because every prox subproblem is strongly convex;
* general composites g + h(c(x)) are solved by ``proxlinear_run`` on the
  quadratically shifted problem, which stops only on a certified gap.

The certificate reported with each prox point is the norm of the
subproblem's proximal-gradient mapping (for composites, the prox-linear
surrogate), a computable stand-in for distance to the subproblem optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonconvexSubproblem, OracleFailure
from .oracles import CompositeProblem, ShiftedQuadraticProx, SmoothPlusProx, euclidean_norm
from .proxlinear import _stop_gap, proxlinear_run
from .report import SolverReport, calls_since


# Inner tolerance of a proximal-point step relative to the previous step's
# envelope-gradient norm (see proximal_point_run).
_INNER_REL = 0.01

# Step budgets of one prox map: FISTA steps on a smooth-plus-prox bundle,
# prox-linear steps on a general composite.
_FISTA_STEPS = 200_000
_COMPOSITE_STEPS = 2000


@dataclass
class MoreauPoint:
    """Certified output of a proximal-map computation; ``prox_value`` is
    f(prox_point), the value the envelope value is built from."""

    prox_point: np.ndarray
    envelope_value: float
    envelope_gradient: np.ndarray
    certificate: float
    prox_value: float


def _fista_prox(f: SmoothPlusProx, nu, z, inner_tol, budget, start=None):
    """Strongly convex FISTA on the prox subproblem of f = s + g at z:
    min s(x) + ||x - z||^2/(2 nu) + g(x), modulus 1/nu - rho, smoothness
    beta + 1/nu, begun at ``start`` (the center z if None).

    Returns (x, residual) where residual is the prox-gradient mapping norm.
    Each step is the textbook update of tests/test_moreau.py, operation
    for operation.  Gradients and prox steps go on ``f.counters``, one of
    each per step begun.  A residual that is not finite raises
    OracleFailure at once: no later step can repair it.
    """
    lips = f.beta + 1.0 / nu
    sq = math.sqrt((1.0 / nu - f.rho) / lips)
    momentum = (1.0 - sq) / (1.0 + sq)
    step = 1.0 / lips
    grad, prox = f.smooth_grad, f.g.prox
    x = y = z if start is None else start
    residual = np.inf
    k = 0
    try:
        for k in range(1, budget + 1):
            x_new = prox(step, y - (grad(y) + (y - z) / nu) / lips)
            residual = lips * euclidean_norm(x_new - y)
            if residual <= inner_tol:
                return x_new, residual
            if not residual < math.inf:
                raise OracleFailure(
                    "prox subproblem: residual %r at FISTA step %d" % (residual, k))
            y = x_new + (x_new - x) * momentum
            x = x_new
    finally:
        f.counters["grad"] += k
        f.counters["g_prox"] += k
    raise BudgetExceeded(
        "prox subproblem: residual %.3e > tol %.3e after %d iterations"
        % (residual, inner_tol, budget),
        best_point=x,
        achieved=float(residual),
    )


def prox_map(f, nu: float, z, inner_tol: float = 1e-10, *, _start=None) -> MoreauPoint:
    """Compute prox_{nu f}(z) together with the envelope value/gradient.

    Requires nu < 1/rho(f) so the subproblem is strongly convex.  An
    iterative solve (FISTA or prox-linear) stops once its certificate is
    at most ``inner_tol``; ``proximal_point_run`` passes a tolerance that
    shrinks with the outer progress, down to its own ``inner_tol``, and
    ``_start``, the point FISTA begins at, predicted from the iteration's
    last two steps (the other branches ignore it).
    """
    z = np.asarray(z, dtype=float)
    rho = float(getattr(f, "rho", 0.0))
    if nu <= 0:
        raise ValueError("nu must be positive")
    if rho > 0 and nu >= 1.0 / rho:
        raise NonconvexSubproblem(
            "nu=%g >= 1/rho=%g: prox subproblem may be nonconvex" % (nu, 1.0 / rho)
        )
    if inner_tol <= 0:
        raise ValueError("inner_tol must be positive")

    # the two iterative branches go first: they are the iteration's hot
    # path, where a failed hasattr would raise and catch once per map
    if isinstance(f, SmoothPlusProx):
        p, cert = _fista_prox(f, nu, z, inner_tol, _FISTA_STEPS, _start)
    elif isinstance(f, CompositeProblem):
        p, cert = _prox_composite(f, nu, z, inner_tol, _COMPOSITE_STEPS)
    elif hasattr(f, "prox"):
        p = np.asarray(f.prox(nu, z), dtype=float)
        cert = 0.0
    else:
        raise TypeError(
            "cannot compute prox of %r: need a closed-form prox, a "
            "smooth-plus-prox bundle, or a composite problem" % type(f)
        )

    value = float(f.value(p))
    return MoreauPoint(
        prox_point=p,
        envelope_value=value + float((p - z) @ (p - z)) / (2.0 * nu),
        envelope_gradient=(z - p) / nu,
        certificate=float(cert),
        prox_value=value,
    )


def _prox_composite(f: CompositeProblem, nu, z, inner_tol, budget):
    """Prox-linear run from z on g + ||. - z||^2/(2 nu) + h(c(x)).  The
    stopping step's gap keeps the surrogate's measurement error
    sqrt(2 gap beta) an order of magnitude below inner_tol."""
    shifted = CompositeProblem(ShiftedQuadraticProx(f.g, nu, z), f.h, f.c)
    shifted.counters = f.counters  # the shifted problem's oracle calls are f's
    beta = max(f.L * f.beta, 1e-12)
    rep = proxlinear_run(
        shifted, z, beta=beta, outer_iters=budget, stat_tol=inner_tol,
        inner_tol=_stop_gap(inner_tol, beta),
    )
    residual = rep.stationarity_history[-1]
    if len(rep.stationarity_history) == budget:
        raise BudgetExceeded(
            "composite prox: residual %.3e > tol %.3e after %d prox-linear steps"
            % (residual, inner_tol, budget),
            best_point=rep.solution,
            achieved=residual,
        )
    return rep.solution, residual


def proximal_point_run(
    f,
    nu: float,
    x0,
    max_iters: int = 100,
    step_tol: float = 0.0,
    inner_tol: float = 1e-10,
) -> SolverReport:
    """Fixed-point iteration on the proximal map with step-size stopping.

    The stationarity of x_t is ||(x_t - x_{t+1}) / nu||, the Moreau
    envelope gradient norm at x_t.  Each prox map is solved only as
    accurately as the outer progress needs: step t asks for the inner
    tolerance ``max(inner_tol, 0.01 * stat_{t-1})``, step 0 for
    ``inner_tol``, so ``inner_tol`` is the floor of the schedule.  The run
    stops on a step with stationarity below ``step_tol`` whose prox map
    certified ``max(inner_tol, 0.01 * step_tol)`` or better.
    Prox map t + 1 begins its FISTA where the iteration is heading, at
    x_{t+1} + q_t (x_{t+1} - x_t) with q_t = min(1, stat_t / stat_{t-1}):
    late iterates move nearly along a line by steps that shrink
    geometrically, and q_t is the last ratio of step lengths.  The first
    extrapolated map takes q = 1, the last step repeated, and q = 0 (the
    center) when stat_{t-1} = 0; prox map 0 begins at its center.
    Calls are counted on ``f.counters`` from the start of this run, or one
    per iteration for a bundle without counters (a closed-form prox).
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolverReport()
    counters = getattr(f, "counters", None)
    start = dict(counters) if counters else None
    base = sum(start.values()) if counters else 0
    value = f.value(x)
    stop_tol = max(inner_tol, _INNER_REL * step_tol)
    tol = inner_tol
    x_start = stat_prev = None
    for t in range(max_iters):
        mp = prox_map(f, nu, x, inner_tol=tol, _start=x_start)
        stat = euclidean_norm(mp.envelope_gradient)
        evals = sum(counters.values()) - base if counters else t + 1
        report.record(t, value, stat, evals)
        x_prev, x, value = x, mp.prox_point, mp.prox_value
        if stat < step_tol and mp.certificate <= stop_tol:
            break
        tol = max(inner_tol, _INNER_REL * stat)
        if stat_prev is None:
            q = 1.0
        else:
            q = min(1.0, stat / stat_prev) if stat_prev > 0 else 0.0
        x_start = x + q * (x - x_prev)
        stat_prev = stat
    report.solution = x
    report.oracle_calls = calls_since(counters, start) if counters else {}
    return report
