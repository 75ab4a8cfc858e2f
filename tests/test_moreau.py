"""Moreau envelope, certified prox maps, and the proximal point loop."""

import numpy as np
import pytest

from proxkit import (
    CompositeProblem,
    L1Norm,
    NonconvexSubproblem,
    RandomStream,
    SmoothMap,
    SmoothPlusProx,
    SquaredL2,
    Zero,
    prox_map,
    proximal_point_run,
)
from proxkit.core import finite_difference_gradient


def abs_composite():
    """f(x) = |x^2 - 1| as a composite: h = |.| (L1Norm), c(x) = x^2 - 1."""
    c = SmoothMap(
        eval=lambda x: x * x - 1.0,
        jvp=lambda x, v: 2.0 * x * v,
        vjp=lambda x, u: 2.0 * x * u,
        beta=2.0, dim_in=1, dim_out=1,
    )
    return CompositeProblem(Zero(), L1Norm(1.0), c)


class TestClosedFormProx:
    def test_l1_prox_map(self):
        # [DERIVED] prox_{nu |.|}(z) = soft-threshold, envelope = Huber
        mp = prox_map(L1Norm(1.0), 0.5, np.array([2.0]))
        assert np.allclose(mp.prox_point, [1.5])
        assert abs(mp.envelope_value - (1.5 + 0.25 / 1.0)) < 1e-12
        assert np.allclose(mp.envelope_gradient, [1.0])
        assert mp.certificate == 0.0

    def test_quadratic_prox_map(self):
        # [DERIVED] for f = 0.5||x||^2: prox = z/(1+nu), grad f_nu = z/(1+nu)
        z = np.array([3.0, -1.0])
        mp = prox_map(SquaredL2(1.0), 0.25, z)
        assert np.allclose(mp.prox_point, z / 1.25)
        assert np.allclose(mp.envelope_gradient, z / 1.25)

    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            prox_map(L1Norm(1.0), -0.1, np.array([1.0]))


class TestSmoothPlusProx:
    def _bundle(self):
        A = RandomStream(31).normal((8, 4))
        b = RandomStream(32).normal(8)
        return SmoothPlusProx(
            smooth_value=lambda x: 0.5 * float((A @ x - b) @ (A @ x - b)),
            smooth_grad=lambda x: A.T @ (A @ x - b),
            beta=float(np.linalg.svd(A, compute_uv=False)[0] ** 2),
            g=L1Norm(0.3),
        ), A, b

    def test_prox_solves_optimality_conditions(self):
        f, A, b = self._bundle()
        z = RandomStream(33).normal(4)
        nu = 0.7
        mp = prox_map(f, nu, z, inner_tol=1e-12)
        p = mp.prox_point
        # [ORACLE] subdifferential optimality: the smooth part's gradient
        # plus (p - z)/nu must lie in -0.3 * sign-subdifferential at p
        r = A.T @ (A @ p - b) + (p - z) / nu
        for i in range(4):
            if abs(p[i]) > 1e-10:
                assert abs(r[i] + 0.3 * np.sign(p[i])) < 1e-8
            else:
                assert abs(r[i]) <= 0.3 + 1e-8

    def test_envelope_gradient_identity_fd(self):
        # [DERIVED] Eq.-style identity: grad f_nu(z) = (z - prox)/nu equals
        # the finite-difference gradient of the envelope value
        f, _, _ = self._bundle()
        nu = 0.4
        z0 = RandomStream(34).normal(4)

        def env(z):
            return prox_map(f, nu, z, inner_tol=1e-11).envelope_value

        mp = prox_map(f, nu, z0, inner_tol=1e-11)
        fd = finite_difference_gradient(env, z0)
        err = np.linalg.norm(mp.envelope_gradient - fd)
        assert err <= 1e-4 * (1.0 + np.linalg.norm(fd))


class TestCompositeProx:
    def test_requires_nu_below_inverse_rho(self):
        f = abs_composite()  # rho = L * beta = 2
        with pytest.raises(NonconvexSubproblem):
            prox_map(f, 0.6, np.array([0.2]))

    @pytest.mark.parametrize("z", [-2.0, -0.4, 0.3, 1.7])
    def test_matches_grid_search(self, z):
        # [DERIVED] prox of |x^2-1| via dense grid on the 1-D objective
        f = abs_composite()
        nu = 0.2
        mp = prox_map(f, nu, np.array([z]), inner_tol=1e-9)
        xs = np.linspace(-3, 3, 600_001)
        obj = np.abs(xs**2 - 1.0) + (xs - z) ** 2 / (2 * nu)
        ref = xs[np.argmin(obj)]
        assert abs(mp.prox_point[0] - ref) < 1e-5

    def test_identity_composite_dispatch(self):
        # the additive composite (h the identity) is a SmoothPlusProx: it
        # goes down the FISTA path, on its own gradient, and matches the
        # closed form for a pure quadratic smooth part
        f = SmoothPlusProx(
            smooth_value=lambda x: 0.5 * float(x @ x),
            smooth_grad=lambda x: x,
            beta=1.0, g=Zero(), dim=3,
        )
        z = np.array([1.0, -2.0, 0.5])
        mp = prox_map(f, 0.5, z, inner_tol=1e-12)
        assert np.allclose(mp.prox_point, z / 1.5, atol=1e-9)
        assert f.counters["grad"] > 0


class TestProximalPoint:
    def test_geometric_halving_on_quadratic(self):
        # [DERIVED] for f = 0.5||x||^2 and nu = 1: x_{t+1} = x_t / 2
        rep = proximal_point_run(SquaredL2(1.0), 1.0, np.array([8.0]), max_iters=4)
        assert [it[0] for it in rep.iterates] == [8.0, 4.0, 2.0, 1.0]

    def test_step_tol_stops_early(self):
        rep = proximal_point_run(
            SquaredL2(1.0), 1.0, np.array([8.0]), max_iters=50, step_tol=1e-3
        )
        assert len(rep.iteration_index) < 50
        assert rep.stationarity_history[-1] < 2e-3

    def test_nonsmooth_reaches_kink(self):
        rep = proximal_point_run(L1Norm(1.0), 0.5, np.array([1.6]), max_iters=10)
        assert abs(rep.solution[0]) < 1e-12
