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


def _textbook_svrg(sub, warm_start, target_accuracy, budget, rng=None, trace=None):
    """The unfolded SVRG step, kept as the reference for ``svrg_run``:
    v = g_i(x) - G_i + mean + kappa (x - center), x = x - eta v, counted
    one gradient at a time."""
    from proxkit.catalyst import _certified_bound

    if rng is None:
        rng = RandomStream(0, stream_id=31)
    x = np.asarray(warm_start, dtype=float).copy()
    prob = sub.problem
    m = prob.m
    g = prob.g
    kappa, center = sub.kappa, sub.center
    eta = 1.0 / (10.0 * sub.beta)
    use_prox = not isinstance(g, Zero)
    calls0 = prob.grad_evals
    while True:
        anchor = x.copy()
        anchor_grads = prob.component_gradients_table(anchor)  # m evals
        mean_anchor = anchor_grads.mean(axis=0)
        full = mean_anchor + kappa * (anchor - center)
        bound = _certified_bound(sub, anchor, full)
        if trace is not None:
            trace.append((prob.grad_evals, prob.value(anchor)))
        if bound <= target_accuracy:
            return anchor, bound, prob.grad_evals - calls0, full
        if prob.grad_evals - calls0 >= budget:
            raise BudgetExceeded("svrg inner budget exhausted",
                                 best_point=anchor, achieved=bound)
        idx = rng.integers(0, m, size=m)
        for i in idx:
            v = (prob.component_gradient(int(i), x) - anchor_grads[i]
                 + mean_anchor + kappa * (x - center))
            x = x - eta * v
            if use_prox:
                x = g.prox(eta, x)


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


def _run_epochs(run, prob, kappa, center, warm, epochs=1):
    """The anchor ``epochs`` epochs after ``warm``, from fixed draws: the
    budget runs out at the next anchor, which BudgetExceeded carries."""
    sub = Subproblem(prob, kappa, center)
    before = prob.grad_evals
    with pytest.raises(BudgetExceeded) as err:
        run(sub, warm, 0.0, budget=2 * epochs * prob.m,
            rng=RandomStream(60, stream_id=31))
    return err.value.best_point, prob.grad_evals - before


def _ridge(d, m, seed):
    return make_ridge(d=d, m=m, cond=1e3, seed=seed).problem


def _logistic(d, m, seed):
    return make_erm_logistic(d=d, m=m, mu=1e-2, seed=seed).problem


def _lasso_sum(d, m, seed):
    return small_quadratic_sum(m=m, d=d, mu=0.05, seed=seed, g=L1Norm(0.05))[0]


class TestFoldedSvrgEpoch:
    """svrg_run folds the epoch-constant terms into one shift table; it must
    agree with the textbook step to rounding and count the same calls."""

    @pytest.mark.parametrize("make", [_ridge, _logistic, _lasso_sum])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_matches_textbook_loop(self, make, epochs):
        d, m = 8, 30
        rs = RandomStream(61)
        center, warm = rs.normal(d), rs.normal(d)
        results = []
        for run in (svrg_run, _textbook_svrg):
            prob = make(d, m, 62)
            kappa = choose_kappa(prob, "svrg") or 0.5
            results.append(_run_epochs(run, prob, kappa, center, warm, epochs))
        (x_new, calls_new), (x_ref, calls_ref) = results
        assert calls_new == calls_ref == (2 * epochs + 1) * m
        assert not np.array_equal(x_ref, warm)
        assert np.linalg.norm(x_new - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_prox_path_hits_the_kink(self):
        # the L1 arm must actually clip coordinates to zero in the epoch
        prob = _lasso_sum(8, 30, 62)
        x, _ = _run_epochs(svrg_run, prob, 0.5, np.zeros(8), np.zeros(8))
        assert np.any(x == 0.0) and np.any(x != 0.0)

    @pytest.mark.parametrize("fail_at", [0, 7, 29])
    def test_raising_oracle_leaves_exact_count(self, fail_at):
        base, _, _ = small_quadratic_sum(m=30, d=4)
        calls = []

        def grad_i(i, x):
            calls.append(i)
            # the anchor pass makes m calls, then draw fail_at raises
            if len(calls) == base.m + fail_at + 1:
                raise FloatingPointError("draw %d" % fail_at)
            return base._grad_i(i, x)

        prob = FiniteSumProblem(m=base.m, grad_i=grad_i, value_i=base._value_i,
                                g=None, mu=base.mu, beta_i=base.beta_i, dim=4)
        sub = Subproblem(prob, 1.0, np.zeros(4))
        with pytest.raises(FloatingPointError):
            svrg_run(sub, np.ones(4), 0.0, budget=10**6,
                     rng=RandomStream(63, stream_id=31))
        assert prob.grad_evals == len(calls) == prob.m + fail_at + 1

    def test_oracle_returning_its_input(self):
        # f_i(x) = ||x||^2 / 2 with grad_i returning x itself: the update
        # must not write through the returned array before using it
        def problem():
            return FiniteSumProblem(
                m=20, grad_i=lambda i, x: x,
                value_i=lambda i, x: 0.5 * float(x @ x),
                g=None, mu=1.0, beta_i=1.0, dim=5)

        center, warm = RandomStream(64).normal(5), RandomStream(65).normal(5)
        x_new, _ = _run_epochs(svrg_run, problem(), 2.0, center, warm)
        x_ref, _ = _run_epochs(_textbook_svrg, problem(), 2.0, center, warm)
        assert np.linalg.norm(x_new - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert np.linalg.norm(x_ref - warm) > 1e-3

    def test_does_not_write_into_warm_start_or_center(self):
        prob = _ridge(8, 30, 66)
        center, warm = RandomStream(67).normal(8), RandomStream(68).normal(8)
        c0, w0 = center.copy(), warm.copy()
        _run_epochs(svrg_run, prob, 0.5, center, warm)
        assert np.array_equal(center, c0) and np.array_equal(warm, w0)
