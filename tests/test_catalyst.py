"""Catalyst outer loop, momentum recurrence, and inner methods."""

import math

import numpy as np
import pytest

from proxkit import (
    BudgetExceeded,
    FiniteSumProblem,
    RandomStream,
    Subproblem,
    Zero,
    catalyst_run,
    choose_kappa,
    gd_run,
    inner_method,
    make_erm_logistic,
    make_ridge,
    momentum_update,
    prox_gd_run,
    svrg_run,
)
from proxkit.oracles import L1Norm


def small_quadratic_sum(m=10, d=4, mu=0.1, seed=51, g=None):
    """f_i(x) = 0.5 (a_i x - b_i)^2 + (mu/2)||x||^2 as a FiniteSumProblem."""
    rng = RandomStream(seed)
    A, b = rng.normal((m, d)), rng.normal(m)
    beta_i = float(np.max(np.sum(A * A, axis=1))) + mu
    return FiniteSumProblem(
        m=m,
        grad_i=lambda i, x: (float(A[i] @ x) - b[i]) * A[i] + mu * x,
        value_i=lambda i, x: 0.5 * (float(A[i] @ x) - b[i]) ** 2
        + 0.5 * mu * float(x @ x),
        g=g if g is not None else Zero(),
        mu=mu, beta_i=beta_i, dim=d,
    ), A, b


class TestMomentum:
    def test_quadratic_satisfied(self):
        rng = RandomStream(52)
        for _ in range(100):
            q = float(rng.uniform(1e-6, 1.0))
            a_prev = float(rng.uniform(1e-6, 1.0))
            a, _ = momentum_update(a_prev, q)
            resid = a * a - ((1.0 - a) * a_prev * a_prev + q * a)
            assert abs(resid) < 1e-12

    def test_fixed_point_sqrt_q(self):
        for q in (1e-6, 1e-3, 0.25, 0.9):
            a, _ = momentum_update(math.sqrt(q), q)
            assert abs(a - math.sqrt(q)) < 1e-14

    def test_convergence_to_sqrt_q(self):
        rng = RandomStream(53)
        for _ in range(20):
            q = float(rng.uniform(1e-4, 0.99))
            a = float(rng.uniform(1e-3, 1.0))
            for _ in range(200):
                a, _ = momentum_update(a, q)
            assert abs(a - math.sqrt(q)) < 1e-10

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            momentum_update(0.0, 0.5)
        with pytest.raises(ValueError):
            momentum_update(0.5, 1.5)


class TestChooseKappa:
    def test_gd_closed_form(self):
        prob, _, _ = small_quadratic_sum(mu=0.1)
        k = choose_kappa(prob, "gd")
        assert abs(k - (prob.beta_i - 2 * prob.mu)) < 1e-10 * prob.beta_i

    def test_svrg_regimes(self):
        # [DERIVED] kappa = 0 iff m >= beta/mu (acceleration cannot help)
        big_m, _, _ = small_quadratic_sum(m=50, mu=10.0)  # m >= beta/mu
        assert choose_kappa(big_m, "svrg") == 0.0
        small_m, _, _ = small_quadratic_sum(m=10, mu=1e-4)  # m << beta/mu
        k = choose_kappa(small_m, "svrg")
        assert k > 0
        assert abs(k - (small_m.beta_i - small_m.mu) / 11.0) < 1e-12

    def test_unknown_method(self):
        prob, _, _ = small_quadratic_sum()
        with pytest.raises(ValueError):
            choose_kappa(prob, "sdca")


class TestInnerMethods:
    def test_gd_solves_subproblem(self):
        prob, A, b = small_quadratic_sum()
        center = RandomStream(54).normal(4)
        sub = Subproblem(prob, 1.0, center)
        x, bound, calls, grad = gd_run(sub, center, 1e-14, budget=10**6)
        # [DERIVED] closed form for the quadratic subproblem
        H = A.T @ A / prob.m + (prob.mu + 1.0) * np.eye(4)
        ref = np.linalg.solve(H, A.T @ b / prob.m + 1.0 * center)
        assert np.linalg.norm(x - ref) < 1e-6
        assert np.allclose(grad, sub.full_gradient(x))

    def test_gd_budget_raises(self):
        prob, _, _ = small_quadratic_sum()
        sub = Subproblem(prob, 1.0, np.zeros(4))
        with pytest.raises(BudgetExceeded):
            gd_run(sub, np.zeros(4), 1e-16, budget=prob.m * 2)

    def test_prox_gd_hits_l1_optimality(self):
        prob, A, b = small_quadratic_sum(g=L1Norm(0.3))
        sub = Subproblem(prob, 0.5, np.zeros(4))
        x, bound, _, _ = prox_gd_run(sub, np.zeros(4), 1e-16, budget=10**6)
        r = A.T @ (A @ x - b) / prob.m + (prob.mu + 0.5) * x
        for i in range(4):
            if abs(x[i]) > 1e-9:
                assert abs(r[i] + 0.3 * np.sign(x[i])) < 1e-6
            else:
                assert abs(r[i]) <= 0.3 + 1e-6

    def test_svrg_eval_accounting(self):
        # total gradients = m * (anchor passes) + (stochastic draws)
        prob, A, b = small_quadratic_sum(m=20, mu=1.0)
        sub = Subproblem(prob, 0.0, np.zeros(4))
        before = prob.grad_evals
        x, bound, calls, _ = svrg_run(sub, np.zeros(4), 1e-12, budget=10**6,
                                      rng=RandomStream(55, stream_id=31))
        assert prob.grad_evals - before == calls
        # every epoch is one anchor pass (m) plus m draws, except the last
        # anchor which stops before drawing
        assert calls % prob.m == 0
        assert (calls // prob.m) % 2 == 1

    def test_svrg_converges(self):
        prob, A, b = small_quadratic_sum(m=20, mu=1.0)
        sub = Subproblem(prob, 0.0, np.zeros(4))
        x, bound, _, _ = svrg_run(sub, np.zeros(4), 1e-14, budget=10**7,
                                  rng=RandomStream(56, stream_id=31))
        H = A.T @ A / prob.m + prob.mu * np.eye(4)
        ref = np.linalg.solve(H, A.T @ b / prob.m)
        assert np.linalg.norm(x - ref) < 1e-5


class TestCatalystRun:
    def test_kappa_zero_is_passthrough(self):
        inst = make_ridge(d=10, m=40, cond=100.0, seed=1)
        prob = inst.problem
        x0 = np.zeros(10)
        rep = catalyst_run(prob, inner_method("gd"), 0.0, x0, eps=1e-9)
        # matches a direct inner run on the unregularized problem
        inst2 = make_ridge(d=10, m=40, cond=100.0, seed=1)
        sub = Subproblem(inst2.problem, 0.0, x0)
        x_ref, _, calls, _ = gd_run(sub, x0, 1e-9, budget=10**8)
        assert np.array_equal(rep.solution, x_ref)
        assert rep.evals_history[-1] == calls

    @pytest.mark.parametrize("arm", ["gd", "svrg"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_back_to_back_runs_report_equal_counts(self, arm, accelerated):
        # evaluations count from each run's start; the instance keeps the
        # running total
        prob = make_ridge(d=10, m=40, cond=1000.0, seed=5).problem
        kappa = choose_kappa(prob, arm) if accelerated else 0.0
        reps = [catalyst_run(prob, inner_method(arm), kappa, np.zeros(10),
                             outer_iters=2000, eps=1e-9,
                             rng=RandomStream(59, stream_id=17))
                for _ in range(2)]
        assert reps[0].evals_history == reps[1].evals_history
        assert reps[0].oracle_calls == reps[1].oracle_calls
        assert prob.grad_evals == 2 * reps[0].oracle_calls["grad_i"]
        assert reps[0].evals_history[-1] <= reps[0].oracle_calls["grad_i"]

    def test_outer_loop_reaches_optimum(self):
        inst = make_ridge(d=10, m=40, cond=1000.0, seed=2)
        prob = inst.problem
        rep = catalyst_run(prob, inner_method("gd"), choose_kappa(prob, "gd"),
                           np.zeros(10), outer_iters=2000, eps=1e-12)
        assert prob.value(rep.solution) - inst.optimum_value < 1e-8

    def test_accelerates_ill_conditioned_ridge(self):
        inst = make_ridge(d=20, m=100, cond=1e4, seed=3)
        prob = inst.problem
        x0 = RandomStream(57).normal(20)
        rep_cat = catalyst_run(prob, inner_method("gd"), choose_kappa(prob, "gd"),
                               x0, outer_iters=5000, eps=1e-8)
        cat_evals = rep_cat.evals_history[-1]
        inst2 = make_ridge(d=20, m=100, cond=1e4, seed=3)
        rep_gd = catalyst_run(inst2.problem, inner_method("gd"), 0.0, x0,
                              eps=1e-8, inner_budget=10**9)
        gd_evals = rep_gd.evals_history[-1]
        assert cat_evals < gd_evals

    def test_catalyst_svrg_on_logistic(self):
        inst = make_erm_logistic(d=10, m=50, mu=1e-3, seed=4)
        prob = inst.problem
        rep = catalyst_run(prob, inner_method("svrg"),
                           choose_kappa(prob, "svrg"), np.zeros(10),
                           outer_iters=3000, eps=1e-10,
                           rng=RandomStream(58, stream_id=17))
        assert prob.value(rep.solution) - inst.optimum_value < 1e-7
