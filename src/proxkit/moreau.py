"""Certified proximal maps, Moreau envelope values and gradients, and the
generic proximal point iteration.

``prox_map`` dispatches on the structure of the function bundle:

* a closed-form ``prox`` method is used verbatim (certificate 0);
* smooth-plus-prox bundles (and additive composites, where the outer
  function is the identity) are solved by an accelerated proximal
  gradient iteration, linearly convergent because every prox subproblem
  is strongly convex;
* general composites g + h(c(x)) are solved by running the prox-linear
  method on the quadratically shifted problem.

The certificate reported with each prox point is the norm of the
subproblem's proximal-gradient mapping (for composites, the prox-linear
surrogate), a computable stand-in for distance to the subproblem optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonconvexSubproblem
from .oracles import CompositeProblem, ShiftedQuadraticProx, SmoothPlusProx, Zero
from .report import SolverReport


@dataclass
class MoreauPoint:
    """Certified output of a proximal-map computation."""

    prox_point: np.ndarray
    envelope_value: float
    envelope_gradient: np.ndarray
    nu: float
    certificate: float


def _fista_prox(smooth_grad, lips, mu, g, z0, inner_tol, budget):
    """Strongly convex FISTA: min s(x) + g(x), modulus mu, smoothness lips.

    Returns (x, residual) where residual is the prox-gradient mapping norm.
    """
    x = np.asarray(z0, dtype=float).copy()
    y = x.copy()
    sq = np.sqrt(mu / lips)
    momentum = (1.0 - sq) / (1.0 + sq)
    residual = np.inf
    for k in range(budget):
        grad = smooth_grad(y)
        x_new = g.prox(1.0 / lips, y - grad / lips)
        residual = lips * np.linalg.norm(x_new - y)
        if residual <= inner_tol:
            return x_new, float(residual)
        y = x_new + momentum * (x_new - x)
        x = x_new
    raise BudgetExceeded(
        "prox subproblem: residual %.3e > tol %.3e after %d iterations"
        % (residual, inner_tol, budget),
        best_point=x,
        achieved=float(residual),
    )


def _smooth_plus_prox_view(f):
    """Normalize additive composites to a SmoothPlusProx bundle."""
    if isinstance(f, SmoothPlusProx):
        return f
    if isinstance(f, CompositeProblem) and getattr(f.h, "is_identity", False):
        one = np.ones(f.c.dim_out)
        return SmoothPlusProx(
            smooth_value=lambda x: float(np.sum(f.c_eval(x))),
            smooth_grad=lambda x: f.c_vjp(x, one),
            lips=f.beta,
            g=f.g,
            rho=0.0,
        )
    return None


def prox_map(f, nu: float, z, inner_tol: float = 1e-10, budget: int = 2000) -> MoreauPoint:
    """Compute prox_{nu f}(z) together with the envelope value/gradient.

    Requires nu < 1/rho(f) so the subproblem is strongly convex.
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

    if hasattr(f, "prox") and not isinstance(f, CompositeProblem):
        p = np.asarray(f.prox(nu, z), dtype=float)
        cert = 0.0
    else:
        view = _smooth_plus_prox_view(f)
        if view is not None:
            lips = view.lips + 1.0 / nu
            mu = 1.0 / nu - view.rho
            grad = lambda x: view.grad(x) + (x - z) / nu
            p, cert = _fista_prox(grad, lips, mu, view.g, z, inner_tol, budget * 100)
        elif isinstance(f, CompositeProblem):
            p, cert = _prox_composite(f, nu, z, inner_tol, budget)
        else:
            raise TypeError(
                "cannot compute prox of %r: need a closed-form prox, a "
                "smooth-plus-prox bundle, or a composite problem" % type(f)
            )

    fval = f.value(p) if callable(getattr(f, "value", None)) else f(p)
    env_val = float(fval) + float((p - z) @ (p - z)) / (2.0 * nu)
    env_grad = (z - p) / nu
    return MoreauPoint(
        prox_point=p,
        envelope_value=env_val,
        envelope_gradient=env_grad,
        nu=float(nu),
        certificate=float(cert),
    )


def _prox_composite(f: CompositeProblem, nu, z, inner_tol, budget):
    """Prox of a general composite via prox-linear on the shifted problem."""
    from .proxlinear import proxlinear_step

    shifted = CompositeProblem(ShiftedQuadraticProx(f.g, nu, z), f.h, f.c)
    shifted.counters = f.counters  # the shifted problem's oracle calls are f's
    beta = max(f.L * f.beta, 1e-12)
    x = z.copy()
    dual = None
    # gap such that the surrogate measurement error sqrt(2 gap beta)
    # stays an order of magnitude below the target residual
    gap_floor = max(1e-16, 5e-3 * inner_tol**2 / beta)
    gap_tol = max(gap_floor, 1e-8)
    best = (x, np.inf)
    for _ in range(budget):
        x_next, surr, dual = proxlinear_step(
            shifted, x, beta, inner_tol=gap_tol, warm_dual=dual
        )
        x = x_next
        if surr.norm < best[1]:
            best = (x, surr.norm)
        if surr.norm <= inner_tol and gap_tol <= max(gap_floor, 5e-3 * surr.norm**2 / beta):
            return x, surr.norm
        gap_tol = max(gap_floor, min(gap_tol, 5e-3 * surr.norm**2 / beta))
    raise BudgetExceeded(
        "composite prox: residual %.3e > tol %.3e after %d prox-linear steps"
        % (best[1], inner_tol, budget),
        best_point=best[0],
        achieved=best[1],
    )


def proximal_point_run(
    f,
    nu: float,
    x0,
    max_iters: int = 100,
    step_tol: float = 0.0,
    inner_tol: float = 1e-10,
    seed: int = 0,
    iterate_stride: int = 1,
) -> SolverReport:
    """Fixed-point iteration on the proximal map with step-size stopping.

    Stops when ||(x_t - x_{t+1}) / nu|| < step_tol, which for proximal
    point iterates coincides with the Moreau envelope gradient norm at x_t.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolverReport(seed=seed)
    counters = getattr(f, "counters", None)
    for t in range(max_iters):
        mp = prox_map(f, nu, x, inner_tol=inner_tol)
        stat = float(np.linalg.norm(mp.envelope_gradient))
        evals = sum(counters.values()) if counters else t + 1
        report.record(t, x, f.value(x), stat, evals,
                      keep_iterate=(t % iterate_stride == 0))
        x = mp.prox_point
        if stat < step_tol:
            break
    report.solution = x
    report.oracle_calls = dict(counters) if counters else {}
    report.validate()
    return report
