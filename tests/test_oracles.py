"""Prox oracles: each prox is checked against an independent brute-force
minimization of its defining objective."""

import numpy as np
import pytest

from checks import SquaredL2
from proxkit import (
    BoxIndicator,
    CompositeProblem,
    L1Mean,
    L1Norm,
    L2Norm,
    RandomStream,
    SmoothMap,
    Zero,
)
from proxkit.oracles import ShiftedQuadraticProx, euclidean_norm


def brute_force_prox(value, nu, z, lo=-5.0, hi=5.0, n=50_001):
    """1-D grid search for argmin value(x) + (x - z)^2 / (2 nu)."""
    xs = np.linspace(lo, hi, n)
    obj = np.array([value(np.array([x])) for x in xs]) + (xs - z) ** 2 / (2 * nu)
    return xs[np.argmin(obj)]


class TestProxAgainstGrid:
    # [DERIVED] each prox equals a dense grid search on its objective

    @pytest.mark.parametrize("z", [-1.7, -0.05, 0.0, 0.3, 2.4])
    def test_l1(self, z):
        g = L1Norm(weight=0.7)
        p = g.prox(0.5, np.array([z]))[0]
        ref = brute_force_prox(g.value, 0.5, z)
        assert abs(p - ref) < 1e-4

    @pytest.mark.parametrize("weight", [0.7, 0.0])
    @pytest.mark.parametrize("n", [1, 13, 160])
    def test_l1_is_the_soft_threshold(self, weight, n):
        # equal to sign(z) max(|z| - t, 0) up to the sign of a zero: random
        # entries, exact ties |z| = t and their neighbours, infinities, NaN
        g, nu = L1Norm(weight), 0.5
        t = nu * weight
        special = [t, -t, np.nextafter(t, 2.0), np.nextafter(-t, -2.0),
                   np.nextafter(t, -2.0), 0.0, -0.0, np.inf, -np.inf, np.nan]
        rng = RandomStream(22)
        for _ in range(20):
            z = np.concatenate([special, rng.normal(n)])
            z = z[rng.integers(0, z.size, size=n)]
            ref = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
            assert np.array_equal(g.prox(nu, z), ref, equal_nan=True)

    @pytest.mark.parametrize("z", [-2.0, 0.4, 1.9])
    def test_squared_l2(self, z):
        g = SquaredL2(weight=2.0)
        p = g.prox(0.3, np.array([z]))[0]
        ref = brute_force_prox(g.value, 0.3, z)
        assert abs(p - ref) < 1e-4

    @pytest.mark.parametrize("z", [-0.9, 0.0, 1.2])
    def test_box(self, z):
        g = BoxIndicator(lower=[-0.5], upper=[0.5])
        p = g.prox(1.0, np.array([z]))[0]
        assert abs(p - np.clip(z, -0.5, 0.5)) < 1e-12

    @pytest.mark.parametrize("z", [-1.1, 0.2, 3.0])
    def test_shifted_quadratic(self, z):
        # prox of g(x) + (x - c)^2 / (2 nu_s) checked against the grid
        inner = L1Norm(weight=0.4)
        c = 0.8
        gshift = ShiftedQuadraticProx(inner, 0.6, np.array([c]))
        p = gshift.prox(0.9, np.array([z]))[0]
        ref = brute_force_prox(gshift.value, 0.9, z)
        assert abs(p - ref) < 1e-4


class TestProxInequality:
    # value(prox) + ||prox - z||^2/(2 nu) <= value(z) for all prox oracles
    @pytest.mark.parametrize("g", [Zero(), L1Norm(0.5), L1Mean(4), L2Norm(),
                                   SquaredL2(1.3)])
    def test_descent(self, g):
        rng = RandomStream(21)
        for _ in range(50):
            z = 3.0 * rng.normal(4)
            nu = float(10.0 ** rng.uniform(-2, 1))
            p = g.prox(nu, z)
            lhs = g.value(p) + float((p - z) @ (p - z)) / (2 * nu)
            assert lhs <= g.value(z) + 1e-10


class TestDualProjections:
    def test_l1mean_box(self):
        h = L1Mean(5)
        u = np.array([-3.0, 0.1, 0.5])
        assert np.allclose(h.dual_project(u), np.clip(u, -0.2, 0.2))

    @pytest.mark.parametrize("h,b", [(L1Norm(0.7), 0.7), (L1Mean(7), 1.0 / 7),
                                     (L1Norm(0.0), 0.0)])
    @pytest.mark.parametrize("n", [1, 13, 160])
    def test_box_projection_is_np_clip_bit_for_bit(self, h, b, n):
        # NaN of either sign, signed zeros, infinities, the bounds and
        # their neighbours; sizes below and above the SIMD widths
        special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, b, -b,
                   np.nextafter(b, 2.0), np.nextafter(-b, -2.0), 5e-324]
        rng = RandomStream(23)
        for _ in range(20):
            u = np.concatenate([special, rng.normal(n)])
            u = u[rng.integers(0, u.size, size=n)]
            got, ref = h.dual_project(u), np.clip(u, -b, b)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_euclidean_norm_is_linalg_norm(self):
        rng = RandomStream(24)
        for n in (1, 7, 160):
            M = 10.0 ** rng.uniform(-3, 3) * rng.normal((n, 3))
            for x in (M[:, 0].copy(), M[:, 1], M.ravel()[:n]):  # strided too
                assert euclidean_norm(x) == np.linalg.norm(x)

    def test_l2_ball(self):
        h = L2Norm()
        u = np.array([3.0, 4.0])
        assert np.allclose(h.dual_project(u), [0.6, 0.8])
        small = np.array([0.1, -0.2])
        assert np.array_equal(h.dual_project(small), small)

    def test_fenchel_young_on_boundary(self):
        # [DERIVED] h(r) = max_{u in dom h*} <u, r> for support functions
        h = L1Mean(3)
        rng = RandomStream(22)
        for _ in range(20):
            r = rng.normal(3)
            u = h.dual_project(1e6 * np.sign(r))  # maximizing dual point
            assert abs(float(u @ r) - h.value(r)) < 1e-12


class TestCompositeProblem:
    def _problem(self):
        A = RandomStream(23).normal((6, 3))
        c = SmoothMap(
            eval=lambda x: A @ x, jvp=lambda x, v: A @ v,
            vjp=lambda x, u: A.T @ u, beta=0.0, dim_in=3,
        )
        return CompositeProblem(L1Norm(0.2), L1Mean(6), c), A

    def test_value_assembles(self):
        prob, A = self._problem()
        x = np.array([1.0, -1.0, 0.5])
        expect = 0.2 * np.sum(np.abs(x)) + np.mean(np.abs(A @ x))
        assert abs(prob.value(x) - expect) < 1e-12

    def test_rho_is_l_times_beta(self):
        prob, _ = self._problem()
        assert prob.rho == prob.L * prob.beta == 0.0

    def test_counters_track_calls(self):
        prob, _ = self._problem()
        x = np.zeros(3)
        prob.value(x)
        prob.c_eval(x)
        assert prob.counters["c_eval"] == 2
