"""Numerical utilities: finite-difference gradients and matrix-free
operator norms."""

from __future__ import annotations

import math

import numpy as np

from .errors import ProbeFailure
from .oracles import euclidean_norm
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


def operator_norm(apply_fwd, apply_adj, dim: int, iters: int = 20) -> float:
    """Power iteration estimate of the spectral norm of a linear map
    given matrix-free forward and adjoint products."""
    rng = RandomStream(0, stream_id=7777)
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
