"""Synthetic problem zoo: generator purity and structural invariants."""

from types import SimpleNamespace

import numpy as np
import pytest

from checks import check_adjoint_consistency, check_weak_convexity, composite_subgrad
from proxkit import (
    CompositeProblem,
    FiniteSumProblem,
    GENERATORS,
    LogisticLoss,
    RandomStream,
    SmoothPlusProx,
    make_box_nls,
    make_erm_logistic,
    make_lasso,
    make_phase_retrieval,
    make_ridge,
    make_robust_pca,
    make_z2_sync,
)
from proxkit.core import finite_difference_gradient

SMALL = {
    "phase_retrieval": dict(d=5, m=30, outlier_frac=0.1),
    "robust_pca": dict(mrows=6, ncols=5, r=2, sparsity=0.1),
    "z2_sync": dict(d=8, edge_prob=0.8, flip_prob=0.1),
    "box_nls": dict(d=4, m=6),
    "lasso": dict(d=6, m=12, lam=0.1),
    "ridge": dict(d=5, m=20, cond=100.0),
    "erm_logistic": dict(d=5, m=30, mu=1e-2),
}


class TestGeneratorPurity:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_bitwise_deterministic(self, name):
        a = GENERATORS[name](seed=7, **SMALL[name])
        b = GENERATORS[name](seed=7, **SMALL[name])
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key]), key

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_seed_changes_instance(self, name):
        a = GENERATORS[name](seed=7, **SMALL[name])
        b = GENERATORS[name](seed=8, **SMALL[name])
        assert any(
            not np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays
        )


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "name", ["phase_retrieval", "robust_pca", "z2_sync", "box_nls"]
    )
    def test_adjoint_consistency(self, name):
        inst = GENERATORS[name](seed=3, **SMALL[name])
        assert isinstance(inst.problem, CompositeProblem)
        worst = check_adjoint_consistency(inst.problem.c, RandomStream(100))
        assert worst < 1e-10

    def test_lasso_gradient_matches_finite_differences(self):
        inst = make_lasso(seed=3, **SMALL["lasso"])
        prob = inst.problem
        assert isinstance(prob, SmoothPlusProx) and prob.rho == 0.0
        for x in RandomStream(100).normal((5, prob.dim)):
            fd = finite_difference_gradient(prob.smooth_value, x)
            g = prob.smooth_grad(x)
            assert np.linalg.norm(g - fd) <= 1e-7 * (1.0 + np.linalg.norm(fd))

    @pytest.mark.parametrize(
        "name", ["phase_retrieval", "z2_sync", "robust_pca", "box_nls"]
    )
    def test_weak_convexity_with_generic_modulus(self, name):
        inst = GENERATORS[name](seed=3, **SMALL[name])
        prob = inst.problem
        f = SimpleNamespace(value=prob.value,
                            subgrad=lambda x: composite_subgrad(prob, x))
        rep = check_weak_convexity(
            f, prob.rho, RandomStream(101), trials=200, dim=prob.dim
        )
        assert rep.violations == 0

    def test_phase_retrieval_truth_is_global_min(self):
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.0, seed=4)
        assert inst.optimum_value == 0.0
        assert abs(inst.problem.value(inst.ground_truth)) < 1e-12

    def test_phase_retrieval_linearize_agrees_with_jvp(self):
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=5)
        c = inst.problem.c
        x, v, u = (RandomStream(102).normal(5) for _ in range(3))
        c0, K, Kt = c.linearize(x)
        assert np.allclose(c0, c.eval(x))
        # the products are the same arithmetic, so they agree bit for bit
        assert np.array_equal(K(v), c.jvp(x, v))
        assert np.array_equal(Kt(np.ones(30)), c.vjp(x, np.ones(30)))

    @pytest.mark.parametrize("seed", range(10))
    def test_phase_retrieval_beta_bounds_the_model_error(self, seed):
        # [DERIVED] F(y) - model_x(y) <= (1/m)||A(y - x)||^2, which is
        # (L beta/2)||y - x||^2 when y - x lies along A's top right
        # singular vector v.  At x = t v with every linearized residual
        # nonnegative the first inequality is an equality too, so an
        # inflated beta fails the second assertion.
        inst = make_phase_retrieval(d=20, m=160, outlier_frac=0.1, seed=seed)
        prob, A, b = inst.problem, inst.arrays["A"], inst.arrays["b"]
        v = np.linalg.svd(A)[2][0]
        t = 2.0 * np.max(b / np.abs(A @ v))
        for x, tight in ((RandomStream(seed, stream_id=110).normal(20), False),
                         (t * v, True)):
            for step in (1e-2, 1.0, 10.0):
                y = x + step * v
                # the model at x: g(y) + h(c(x) + J(x)(y - x))
                lin = prob.c.eval(x) + prob.c.jvp(x, y - x)
                model = prob.g.value(y) + prob.h.value(lin)
                err = prob.value(y) - model
                bound = 0.5 * prob.L * prob.beta * step * step
                slack = 1e-12 * (abs(prob.value(y)) + bound)
                assert err <= bound + slack
                if tight:
                    assert err >= bound - slack

    def test_lasso_beta_bounds_the_gradient_lipschitz_constant(self):
        # a step 1/beta must not exceed 1/||A||_2^2
        for seed in range(32):
            inst = make_lasso(d=50, m=100, seed=seed)
            lip = float(np.linalg.norm(inst.arrays["A"], 2)) ** 2
            assert inst.problem.beta >= lip, seed

    def test_box_nls_has_interior_root(self):
        inst = make_box_nls(d=4, m=6, seed=6)
        x = inst.ground_truth
        assert np.all(x > inst.problem.g.lower) and np.all(x < inst.problem.g.upper)
        assert inst.problem.value(x) < 1e-10

    def test_ridge_optimum_is_stationary(self):
        inst = make_ridge(d=5, m=20, cond=100.0, seed=7)
        g = inst.problem.full_gradient(inst.ground_truth)
        assert np.linalg.norm(g) < 1e-10
        assert inst.problem.beta_i / inst.problem.mu == pytest.approx(100.0)

    def test_ridge_component_gradient_bits(self):
        # the scalar of the textbook gradient (<a_i, x> - b_i) a_i + mu x,
        # bit for bit, as a Python float
        inst = make_ridge(d=50, m=40, cond=1e4, seed=9)
        A, b = inst.arrays["A"], inst.arrays["b"]
        xs = RandomStream(10).normal((20, 50)) * np.logspace(-3.0, 3.0, 20)[:, None]
        for x in xs:
            for i in range(40):
                t = float(A[i] @ x)
                got = inst.problem._grad_i(i, t)
                assert type(got) is float
                assert got == t - b[i]

    def test_logistic_optimum_is_stationary(self):
        inst = make_erm_logistic(d=5, m=30, mu=1e-2, seed=8)
        g = inst.problem.full_gradient(inst.ground_truth)
        assert np.linalg.norm(g) < 1e-10

    def test_finite_sum_mean_consistency(self):
        # full gradient equals the mean of component gradients
        inst = make_erm_logistic(d=5, m=30, mu=1e-2, seed=9)
        prob = inst.problem
        x = RandomStream(103).normal(5)
        t = prob.A @ x
        scalars = np.array([prob._grad_i(i, float(t[i])) for i in range(prob.m)])
        mean = np.mean(scalars[:, None] * prob.A, axis=0) + prob.mu * x
        assert np.allclose(prob.full_gradient(x), mean)
        assert np.allclose(prob._all_grads(x), scalars)

    def test_logistic_draw_derivative_is_finite_at_large_margins(self):
        # the per-draw derivative splits the sigmoid by sign, since
        # math.exp raises OverflowError where np.exp returns inf
        loss = LogisticLoss(np.array([1.0, -1.0]))
        for t in (800.0, -800.0):
            with np.errstate(over="ignore"):
                vec = loss.deriv(np.array([t, t]))
            for i in (0, 1):
                got = loss.deriv_i(i, t)
                assert np.isfinite(got) and got == vec[i]

    def test_z2_sync_truth_optimal_without_flips(self):
        inst = make_z2_sync(d=8, edge_prob=1.0, flip_prob=0.0, seed=10)
        assert inst.problem.value(inst.ground_truth) < 1e-12

    def test_robust_pca_truth_optimal_without_sparse_part(self):
        inst = make_robust_pca(mrows=6, ncols=5, r=2, sparsity=0.0, seed=11)
        assert inst.problem.value(inst.ground_truth) < 1e-12

    def test_stochastic_view_matches_full_objective(self):
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=12)
        sp = inst.stochastic
        x = RandomStream(104).normal(5)
        # F(x) = E_i f(x, zeta_i) over the uniform index distribution
        vals = [sp.stoch_value(x, RandomStream(s).integers(0, 30, size=1)[0])
                for s in range(200)]
        full = sp.full_problem.value(x)
        assert abs(np.mean(vals) - full) < 0.2 * abs(full)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_phase_retrieval_subgradient_matches_np_sign_formula(self):
        # [ORACLE] the derivative at t = a_i . x against the textbook
        # 2 t sign(t^2 - b_i^2), bit for bit, including a zero residual, a
        # NaN point and an infinite point; the subgradient is it times a_i
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=12)
        A, b = inst.arrays["A"], inst.arrays["b"]
        b2 = b * b

        def textbook(t, i):
            return 2.0 * t * np.sign(t * t - b2[i])

        points = [RandomStream(105).normal(5) for _ in range(20)]
        points += [np.zeros(5), np.full(5, np.nan), np.full(5, np.inf)]
        # a_i . x = b_i exactly for x = (b_i / A[i, 0]) e_0 on some row
        for i in range(30):
            x = np.zeros(5)
            x[0] = b[i] / A[i, 0]
            if A[i, 0] * x[0] == b[i]:
                points.append(x)
                break
        assert len(points) == 24
        assert inst.stochastic.A is A
        for x in points:
            for i in range(30):
                t = float(A[i] @ x)
                new = inst.stochastic.stoch_subgrad(t, i)
                assert type(new) is float
                ref = textbook(t, i)
                assert np.float64(new).tobytes() == ref.tobytes(), (x, i)
