"""Numerical cross-check utilities: finite differences, weak-convexity
audits, adjoint-consistency checks, and matrix-free operator norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProbeFailure
from .oracles import SmoothMap, SubgradientOracle, euclidean_norm
from .rng import RandomStream


def default_fd_step(x) -> float:
    """h = 1e-5 * (1 + ||x||_inf), balancing truncation and rounding."""
    x = np.asarray(x, dtype=float)
    xinf = float(np.max(np.abs(x))) if x.size else 0.0
    return 1e-5 * (1.0 + xinf)


def finite_difference_gradient(f, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Parameters
    ----------
    f : callable
        Maps a vector to a finite real value on the probe ball.
    x : array
        Point of evaluation.
    h : float, optional
        Step size; defaults to ``1e-5 * (1 + ||x||_inf)``.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = default_fd_step(x)
    if h <= 0:
        raise ValueError("step size must be positive")
    g = np.empty_like(x)
    e = np.zeros_like(x)
    for i in range(x.size):
        e[i] = h
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ProbeFailure("non-finite function value at probe %d" % i)
        g[i] = (fp - fm) / (2.0 * h)
        e[i] = 0.0
    return g


@dataclass
class WeakConvexityReport:
    violations: int
    worst_gap: float
    trials: int


def check_weak_convexity(
    f: SubgradientOracle,
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
    Violations are counted beyond tolerance 1e-8 * (1 + |f|).
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
        u = sampler.normal(c.dim_out)
        a = float(u @ c.jvp(x, v))
        b = float(c.vjp(x, u) @ v)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def operator_norm(apply_fwd, apply_adj, dim: int, iters: int = 20, seed: int = 0) -> float:
    """Power iteration estimate of the spectral norm of a linear map
    given matrix-free forward and adjoint products."""
    rng = RandomStream(seed, stream_id=7777)
    v = rng.normal(dim)
    v /= euclidean_norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = apply_adj(apply_fwd(v))
        nw = euclidean_norm(w)
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(nw)
        v = w / nw
    return sigma
