"""Oracle bundles: prox-friendly regularizers, Lipschitz outer functions,
smooth maps with Jacobian products, and the composite problems built from
them.

Vectors are plain 1-D float64 numpy arrays. Matrix-valued variables
(robust PCA factors and the like) are stored flattened row-major, so every
solver only ever sees a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


def euclidean_norm(x) -> float:
    """||x||_2 of a float array, by np.linalg.norm's own arithmetic for
    real input (flatten, then the square root of the dot product) without
    its call overhead.  The flatten matters: BLAS sums a strided vector's
    dot product in another order than a contiguous one."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _clip(u, b):
    """np.clip(u, -b, b) bit for bit, NaN and signed zeros included.  On a
    tie (0.0 against -0.0) np.maximum and np.minimum return their first
    argument and clip returns the bound, so the bound goes first."""
    return np.minimum(b, np.maximum(-b, u))


# ---------------------------------------------------------------------------
# Prox-friendly regularizers (the "g" slot).  Each exposes value(x) and
# prox(nu, z) with value(p) + ||p - z||^2 / (2 nu) <= value(z).
# ---------------------------------------------------------------------------

class Zero:
    """g = 0."""

    rho = 0.0

    def value(self, x):
        return 0.0

    def prox(self, nu, z):
        return np.asarray(z, dtype=float).copy()


class L1Norm:
    """g(x) = weight * sum_i |x_i|.  Prox is the soft threshold.

    Also usable as an outer function h: it is Lipschitz with ``lip`` equal
    to ``weight`` in the l1/l-inf pairing, and its conjugate is the
    indicator of the box [-weight, weight]^m.
    """

    rho = 0.0

    def __init__(self, weight: float = 1.0):
        self.weight = float(weight)
        self.lip = float(weight)

    def value(self, x):
        return self.weight * float(np.abs(x).sum())

    def prox(self, nu, z):
        # the soft threshold sign(z) max(|z| - t, 0) in three NumPy calls;
        # a thresholded entry is +0.0 where that form gives sign(z) 0.0
        z = np.asarray(z, dtype=float)
        return z - _clip(z, nu * self.weight)

    def dual_project(self, u):
        return _clip(u, self.weight)


class L1Mean:
    """h(r) = (1/m) sum_i |r_i|, the robust (l1) averaged loss.

    1-Lipschitz in the l1/l-inf pairing; conjugate is the indicator of
    the box [-1/m, 1/m]^m.
    """

    rho = 0.0
    lip = 1.0

    def __init__(self, m: int):
        self.m = int(m)

    def value(self, r):
        return float(np.mean(np.abs(r)))

    def prox(self, nu, z):
        t = nu / self.m
        z = np.asarray(z, dtype=float)
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    def dual_project(self, u):
        return _clip(u, 1.0 / self.m)


class L2Norm:
    """h(r) = ||r||_2, 1-Lipschitz; conjugate is the unit-ball indicator."""

    rho = 0.0
    lip = 1.0

    def value(self, r):
        return euclidean_norm(np.asarray(r, dtype=float))

    def prox(self, nu, z):
        z = np.asarray(z, dtype=float)
        nz = euclidean_norm(z)
        if nz <= nu:
            return np.zeros_like(z)
        return (1.0 - nu / nz) * z

    def dual_project(self, u):
        u = np.asarray(u, dtype=float)
        nu_ = euclidean_norm(u)
        if nu_ <= 1.0:
            return u.copy()
        return u / nu_


class BoxIndicator:
    """g = indicator of the box [lower, upper]; prox is the clamp."""

    rho = 0.0

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ValueError("box has lower > upper")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= self.lower - 1e-12) and np.all(x <= self.upper + 1e-12):
            return 0.0
        return np.inf

    def prox(self, nu, z):
        return np.clip(np.asarray(z, dtype=float), self.lower, self.upper)


class ShiftedQuadraticProx:
    """g'(x) = g(x) + ||x - z||^2 / (2 nu), itself prox-friendly.

    Used by the Moreau module: the prox subproblem of a composite F simply
    swaps g for this wrapper.
    """

    def __init__(self, g, nu: float, z):
        self.g = g
        self.nu = float(nu)
        self.z = np.asarray(z, dtype=float)
        self.rho = 0.0

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.z
        return self.g.value(x) + float(d @ d) / (2.0 * self.nu)

    def prox(self, nu, v):
        # argmin_x g(x) + ||x-z||^2/(2 nu_self) + ||x-v||^2/(2 nu)
        nu_s = self.nu
        t = nu * nu_s / (nu + nu_s)
        w = (nu * self.z + nu_s * np.asarray(v, dtype=float)) / (nu + nu_s)
        return self.g.prox(t, w)


# ---------------------------------------------------------------------------
# Smooth maps and problem bundles
# ---------------------------------------------------------------------------

@dataclass
class SmoothMap:
    """C^1-smooth map c: R^d -> R^m with beta-Lipschitz gradient,
    accessed only through evaluations and Jacobian-vector products.

    ``linearize(x)``, the one way a solver reads c, returns (c(x), K, K^T)
    at x.  A map's own may precompute anchor-dependent work for repeated
    products and must agree with eval/jvp/vjp exactly.  The default is
    x -> (eval(x), partial(jvp, x), partial(vjp, x)) over the callables
    given at construction, not ``self.eval`` at call time, so a wrapper
    put on both ``eval`` and ``linearize`` counts each call once.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    jvp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    beta: float
    dim_in: int
    linearize: Optional[Callable] = None

    def __post_init__(self):
        if self.linearize is None:
            c, jvp, vjp = self.eval, self.jvp, self.vjp
            self.linearize = lambda x: (c(x), partial(jvp, x), partial(vjp, x))


class CompositeProblem:
    """F(x) = g(x) + h(c(x)) with g prox-friendly convex, h convex
    Lipschitz, c smooth.  Weakly convex with modulus at most L * beta."""

    def __init__(self, g, h, c: SmoothMap):
        self.g = g
        self.h = h
        self.c = c
        self.L = float(h.lip)
        self.beta = float(c.beta)
        self.counters = {"c_eval": 0, "c_jvp": 0, "c_vjp": 0}

    @property
    def rho(self) -> float:
        return self.L * self.beta

    @property
    def dim(self) -> int:
        return self.c.dim_in

    def value(self, x) -> float:
        return self.g.value(x) + self.h.value(self.c_eval(x))

    def c_eval(self, x):
        self.counters["c_eval"] += 1
        return self.c.eval(np.asarray(x, dtype=float))


class SmoothPlusProx:
    """F(x) = s(x) + g(x) with s smooth (beta-Lipschitz gradient,
    rho-weakly convex) and g prox-friendly: the additive composite, i.e.
    g + h(c(x)) with h the identity, which is 1-Lipschitz (``L = 1``).
    ``value`` counts itself; a solver that calls ``smooth_grad`` or
    ``g.prox`` adds those calls to ``counters``."""

    L = 1.0

    def __init__(self, smooth_value, smooth_grad, beta: float, g, rho: float = 0.0,
                 dim: int | None = None):
        self.smooth_value = smooth_value
        self.smooth_grad = smooth_grad
        self.beta = float(beta)
        self.g = g
        self.rho = float(rho)
        self.dim = dim
        self.counters = {"value": 0, "grad": 0, "g_prox": 0}

    def value(self, x) -> float:
        self.counters["value"] += 1
        return float(self.smooth_value(x)) + self.g.value(x)
