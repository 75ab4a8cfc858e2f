"""Sample-based checks of the claims the problem generators make: that a
composite is weakly convex with its stated modulus, and that a smooth
map's vjp is the adjoint of its jvp.  Also a closed-form prox function,
SquaredL2, used as a reference case."""

from dataclasses import dataclass

import numpy as np

from proxkit import BoxIndicator, L1Mean, L1Norm, L2Norm, RandomStream, SmoothMap, Zero
from proxkit.oracles import euclidean_norm


@dataclass
class WeakConvexityReport:
    violations: int
    worst_gap: float
    trials: int


class SquaredL2:
    """f(x) = (weight/2) ||x||^2."""

    rho = 0.0

    def __init__(self, weight: float = 1.0):
        self.weight = float(weight)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.weight * float(x @ x)

    def prox(self, nu, z):
        return np.asarray(z, dtype=float) / (1.0 + nu * self.weight)


def composite_subgrad(prob, x):
    """A subgradient of g + h(c(x)) by the chain rule, c'(x)^T u with u in
    the subdifferential of h at c(x).  g contributes 0, a subgradient of
    Zero everywhere and of BoxIndicator inside the box."""
    assert isinstance(prob.g, (Zero, BoxIndicator)), prob.g
    r = prob.c.eval(x)
    if isinstance(prob.h, L1Mean):
        u = np.sign(r) / prob.h.m
    elif isinstance(prob.h, L1Norm):
        u = prob.h.weight * np.sign(r)
    else:
        assert isinstance(prob.h, L2Norm), prob.h
        nr = euclidean_norm(r)
        u = np.zeros_like(r) if nr == 0.0 else r / nr
    return prob.c.vjp(x, u)


def check_weak_convexity(
    f,
    rho: float,
    sampler: RandomStream,
    trials: int = 1000,
    dim: int = 1,
    scale: float = 1.0,
) -> WeakConvexityReport:
    """Sample-based audit that f + (rho/2)||.||^2 behaves convex.

    Runs two families of probes per trial: a midpoint convexity test on
    the regularized function and the subgradient inequality with modulus
    rho.  Points are drawn at log-uniform scales (including near-antipodal
    pairs) so that downward kinks near the origin are not missed.
    Violations are counted beyond tolerance 1e-8 * (1 + |f|).  ``f``
    needs only ``value`` and ``subgrad``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    violations = 0
    worst_gap = 0.0

    def reg(x):
        return f.value(x) + 0.5 * rho * float(x @ x)

    for k in range(trials):
        s = scale * 10.0 ** sampler.uniform(-3.0, 1.0)
        x = s * sampler.normal(dim)
        if k % 3 == 0:
            y = -x + 0.01 * s * sampler.normal(dim)  # antipodal probe
        else:
            y = s * sampler.normal(dim)

        # midpoint test on the regularized function; probes where the
        # (possibly extended-valued) function is infinite are skipped
        mid = 0.5 * (x + y)
        fx, fy, fm = reg(x), reg(y), reg(mid)
        if np.isfinite(fx) and np.isfinite(fy) and np.isfinite(fm):
            tol = 1e-8 * (1.0 + abs(fx) + abs(fy))
            gap = fm - 0.5 * (fx + fy)
            if gap > tol:
                violations += 1
            worst_gap = max(worst_gap, gap)

        # subgradient inequality with modulus rho
        v = np.asarray(f.subgrad(x), dtype=float)
        lhs = f.value(y)
        rhs = f.value(x) + float(v @ (y - x)) - 0.5 * rho * float((y - x) @ (y - x))
        if np.isfinite(lhs) and np.isfinite(rhs):
            tol = 1e-8 * (1.0 + abs(lhs) + abs(rhs))
            gap = rhs - lhs
            if gap > tol:
                violations += 1
            worst_gap = max(worst_gap, gap)

    return WeakConvexityReport(violations=violations, worst_gap=worst_gap, trials=trials)


def check_adjoint_consistency(
    c: SmoothMap, sampler: RandomStream, trials: int = 20
) -> float:
    """Max relative mismatch of <u, jvp(x,v)> vs <vjp(x,u), v>."""
    worst = 0.0
    for _ in range(trials):
        x = sampler.normal(c.dim_in)
        v = sampler.normal(c.dim_in)
        u = sampler.normal(c.eval(x).size)
        a = float(u @ c.jvp(x, v))
        b = float(c.vjp(x, u) @ v)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst
