"""Catalyst outer loop, momentum recurrence, and inner methods."""

import dataclasses
import math

import numpy as np
import pytest

from proxkit import (
    BudgetExceeded,
    FiniteSumProblem,
    RandomStream,
    SquaredLoss,
    Subproblem,
    catalyst_run,
    choose_kappa,
    default_schedule,
    gd_run,
    inner_method,
    make_erm_logistic,
    make_lasso,
    make_phase_retrieval,
    make_ridge,
    momentum_update,
    pgsg_run,
    proximal_point_run,
    proxlinear_run,
    svrg_run,
)


def _textbook_svrg(sub, warm_start, target_accuracy, budget, rng=None, trace=None):
    """The unfolded SVRG step, kept as the reference for ``svrg_run``:
    v = g_i(x) - G_i + mean + kappa (x - center), x = x - eta v, with the
    component gradients g_i(x) = phi_i'(a_i x) a_i + mu x built as vectors
    and counted one at a time."""
    from proxkit.catalyst import _certified_bound

    if rng is None:
        rng = RandomStream(0, stream_id=31)
    x = np.asarray(warm_start, dtype=float).copy()
    prob = sub.problem
    A, loss, mu, m = prob.A, prob.loss, prob.mu, prob.m
    kappa, center = sub.kappa, sub.center
    eta = 1.0 / (10.0 * sub.beta)
    calls0 = prob.grad_evals
    while True:
        anchor = x.copy()
        anchor_grads = A * loss.deriv(A @ anchor)[:, None] + mu * anchor
        prob.counters["grad_i"] += m
        mean_anchor = anchor_grads.mean(axis=0)
        full = mean_anchor + kappa * (anchor - center)
        bound = _certified_bound(sub.mu, full)
        if trace is not None:
            trace.append((prob.grad_evals, prob.value(anchor)))
        if bound <= target_accuracy or prob.grad_evals - calls0 >= budget:
            return anchor, bound, full
        idx = rng.integers(0, m, size=m)
        for i in idx:
            grad = loss.deriv_i(i, float(A[i] @ x)) * A[i] + mu * x
            prob.counters["grad_i"] += 1
            v = grad - anchor_grads[i] + mean_anchor + kappa * (x - center)
            x = x - eta * v


def small_quadratic_sum(m=10, d=4, mu=0.1, seed=51):
    """f_i(x) = 0.5 (a_i x - b_i)^2 + (mu/2)||x||^2 as a FiniteSumProblem."""
    rng = RandomStream(seed)
    A, b = rng.normal((m, d)), rng.normal(m)
    return FiniteSumProblem(A, SquaredLoss(b), mu), A, b


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


def acceleration_ratio(prob, kappa, name):
    """sqrt(mu + kappa) / (tau sqrt(mu)), the ratio choose_kappa
    minimizes, with the inner method's rate tau on the subproblem."""
    mu, beta = prob.mu, prob.beta_i
    if name == "gd":
        tau = (mu + kappa) / (beta + kappa)
    else:  # reciprocal of svrg's (m + condition number) epoch complexity
        tau = 1.0 / (prob.m + (beta + kappa) / (mu + kappa))
    return math.sqrt(mu + kappa) / (tau * math.sqrt(mu))


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

    @pytest.mark.parametrize("make", [
        lambda: make_ridge(d=50, m=500, cond=1e4, seed=0),
        lambda: make_erm_logistic(d=50, m=200, mu=2e-3, seed=0),  # criterion 6
    ], ids=["ridge", "logistic"])
    def test_against_grid_argmin_of_acceleration_ratio(self, make):
        prob = make().problem

        def grid_argmin(name, lo=1e-8 * prob.beta_i, hi=10 * prob.beta_i):
            # a log grid, narrowed to the best point's neighbours 4 times
            for _ in range(4):
                grid = np.geomspace(lo, hi, 1001)
                vals = [acceleration_ratio(prob, k, name) for k in grid]
                i = int(np.argmin(vals))
                lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
            return grid[i], vals[i]

        k_gd, _ = grid_argmin("gd")
        assert choose_kappa(prob, "gd") == pytest.approx(k_gd, rel=1e-6)
        # svrg's kappa is the minimizing mu + kappa, mu above the argmin
        k_svrg, best = grid_argmin("svrg")
        kappa = choose_kappa(prob, "svrg")
        assert kappa - k_svrg == pytest.approx(prob.mu, rel=1e-3)
        assert acceleration_ratio(prob, kappa, "svrg") <= (1 + 1e-3) * best


class TestInnerMethods:
    def test_gd_solves_subproblem(self):
        prob, A, b = small_quadratic_sum()
        center = RandomStream(54).normal(4)
        sub = Subproblem(prob, 1.0, center)
        x, bound, grad = gd_run(sub, center, 1e-14, budget=10**6)
        # [DERIVED] closed form for the quadratic subproblem
        H = A.T @ A / prob.m + (prob.mu + 1.0) * np.eye(4)
        ref = np.linalg.solve(H, A.T @ b / prob.m + 1.0 * center)
        assert np.linalg.norm(x - ref) < 1e-6
        assert np.allclose(grad, sub.full_gradient(x))

    def test_gd_budget_returns_the_point_it_reached(self):
        # a budget of two passes is one step: a gradient at the start and
        # one at the result, which the inner method returns
        prob, _, _ = small_quadratic_sum()
        sub = Subproblem(prob, 1.0, np.zeros(4))
        x, bound, grad = gd_run(sub, np.zeros(4), 0.0, budget=2 * prob.m)
        assert prob.grad_evals == 2 * prob.m
        step = 1.0 / sub.beta
        assert np.array_equal(x, -step * sub.full_gradient(np.zeros(4)))
        assert np.array_equal(grad, sub.full_gradient(x))
        assert bound == float(grad @ grad) / (2.0 * sub.mu) > 0.0

    def test_gd_budget_raises(self):
        # the kappa = 0 path is where a spent inner budget is a failure:
        # one step, then the bound at its result is above eps
        prob, _, _ = small_quadratic_sum()
        x0 = np.zeros(4)
        with pytest.raises(BudgetExceeded) as err:
            catalyst_run(prob, inner_method("gd"), 0.0, x0, eps=1e-16,
                         inner_budget=2 * prob.m)
        assert str(err.value) == "gd inner budget exhausted"
        grad0 = prob.full_gradient(x0)
        x1 = x0 - (1.0 / prob.beta_i) * grad0
        assert np.array_equal(err.value.best_point, x1)
        grad1 = prob.full_gradient(x1)
        assert err.value.achieved == float(grad1 @ grad1) / (2.0 * prob.mu)

    def test_svrg_budget_raises(self):
        prob, _, _ = small_quadratic_sum(m=20, mu=1.0)
        with pytest.raises(BudgetExceeded, match="^svrg inner budget exhausted$"):
            catalyst_run(prob, inner_method("svrg"), 0.0, np.zeros(4),
                         eps=1e-16, inner_budget=2 * prob.m)

    def test_svrg_eval_accounting(self):
        # total gradients = m * (anchor passes) + (stochastic draws)
        prob, A, b = small_quadratic_sum(m=20, mu=1.0)
        sub = Subproblem(prob, 0.0, np.zeros(4))
        before = prob.grad_evals
        svrg_run(sub, np.zeros(4), 1e-12, budget=10**6,
                 rng=RandomStream(55, stream_id=31))
        calls = prob.grad_evals - before
        # every epoch is one anchor pass (m) plus m draws, except the last
        # anchor which stops before drawing
        assert calls % prob.m == 0
        assert (calls // prob.m) % 2 == 1

    def test_svrg_converges(self):
        prob, A, b = small_quadratic_sum(m=20, mu=1.0)
        sub = Subproblem(prob, 0.0, np.zeros(4))
        x, bound, _ = svrg_run(sub, np.zeros(4), 1e-14, budget=10**7,
                               rng=RandomStream(56, stream_id=31))
        H = A.T @ A / prob.m + prob.mu * np.eye(4)
        ref = np.linalg.solve(H, A.T @ b / prob.m)
        assert np.linalg.norm(x - ref) < 1e-5


class TestCatalystRun:
    @pytest.mark.parametrize("arm, passes", [("gd", 2), ("svrg", 3)])
    def test_each_outer_step_spends_a_fixed_budget(self, arm, passes):
        # after the starting full gradient, every subproblem costs one gd
        # step (two gradients) or one svrg epoch (anchor, draws, anchor)
        prob = make_ridge(d=10, m=40, cond=1000.0, seed=5).problem
        rep = catalyst_run(prob, inner_method(arm), choose_kappa(prob, arm),
                           np.zeros(10), outer_iters=30, eps=0.0)
        m = prob.m
        assert list(rep.evals_history) == [m + passes * m * t for t in range(1, 31)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_catalyst_gd_reaches_the_benchmark_target(self, seed):
        # the catalyst_ridge instances: the run certifies eps and stops
        # before its outer budget, below the benchmark's 1e-6 gap
        inst = make_ridge(d=50, m=500, cond=1e4, seed=seed)
        prob = inst.problem
        rep = catalyst_run(prob, inner_method("gd"), choose_kappa(prob, "gd"),
                           RandomStream(seed, stream_id=90).normal(50),
                           outer_iters=1000, eps=1e-7,
                           rng=RandomStream(seed, stream_id=17))
        assert len(rep.evals_history) < 1000
        assert prob.value(rep.solution) - inst.optimum_value <= 1e-6

    def test_kappa_zero_is_passthrough(self):
        inst = make_ridge(d=10, m=40, cond=100.0, seed=1)
        prob = inst.problem
        x0 = np.zeros(10)
        rep = catalyst_run(prob, inner_method("gd"), 0.0, x0, eps=1e-9)
        # matches a direct inner run on the unregularized problem
        inst2 = make_ridge(d=10, m=40, cond=100.0, seed=1)
        sub = Subproblem(inst2.problem, 0.0, x0)
        x_ref, _, _ = gd_run(sub, x0, 1e-9, budget=10**8)
        assert np.array_equal(rep.solution, x_ref)
        assert rep.evals_history[-1] == inst2.problem.grad_evals

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

    @pytest.mark.parametrize("arm", ["gd", "svrg"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_value_passes_reported_in_components(self, arm, accelerated):
        # every pass of the full smooth value is m component values, from
        # the run's start; the CSV evaluation history counts gradients only
        base = make_ridge(d=10, m=40, cond=1000.0, seed=5)
        passes = []

        class CountingLoss(SquaredLoss):
            def mean_value(self, t):
                passes.append(1)
                return super().mean_value(t)

        prob = FiniteSumProblem(base.arrays["A"], CountingLoss(base.arrays["b"]),
                                base.problem.mu)
        prob.value(np.zeros(10))  # a pass before the run is not the run's
        del passes[:]
        kappa = choose_kappa(prob, arm) if accelerated else 0.0
        rep = catalyst_run(prob, inner_method(arm), kappa, np.zeros(10),
                           outer_iters=2000, eps=1e-9,
                           rng=RandomStream(59, stream_id=17))
        assert len(passes) >= len(rep.evals_history)
        assert rep.oracle_calls["value_i"] == prob.m * len(passes)
        assert rep.evals_history[-1] <= rep.oracle_calls["grad_i"]

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


class _SignedSquares(SquaredLoss):
    """phi_i(t) = w_i (t - b_i)^2 / 2 with w_i = +-1: the average's
    Hessian A^T diag(w) A / m + mu I is indefinite in its data term."""

    def __init__(self, b, w):
        super().__init__(b)
        self.w = w

    def deriv(self, t):
        return self.w * (t - self.b)

    def deriv_i(self, i, t):
        return float(self.w[i]) * (t - self._b[i])

    def mean_value(self, t):
        r = t - self.b
        return 0.5 * float(self.w @ (r * r)) / r.size


def _underclaimed_quadratic_sum(mu, b_scale=1.0):
    """m = 10, d = 4, with four of the ten components concave, so the
    smallest curvature of the average lies below its mu and the secant
    can fall below mu."""
    rng = RandomStream(53)
    A, b = rng.normal((10, 4)), b_scale * rng.normal(10)
    w = np.array([1.0] * 6 + [-1.0] * 4)
    return FiniteSumProblem(A, _SignedSquares(b, w), mu)


class TestWarmStart:
    def test_each_subproblem_starts_at_its_predicted_solution(self):
        # step 1 starts at x0; step t+1 at x_t + kappa/(kappa+lam)(y_t - y_{t-1}),
        # lam the secant of the outer gradients, clamped at mu
        prob = _underclaimed_quadratic_sum(mu=1.0)
        calls = []

        def recording(sub, warm_start, target, budget, rng=None, trace=None):
            out = gd_run(sub, warm_start, target, budget, rng=rng)
            calls.append((np.array(warm_start), sub.center.copy(), out[0], out[2]))
            return out

        kappa = choose_kappa(prob, "gd")
        x0 = RandomStream(69).normal(4)
        catalyst_run(prob, dataclasses.replace(inner_method("gd"), run=recording),
                     kappa, x0, outer_iters=12, eps=0.0)
        assert len(calls) == 12
        assert np.array_equal(calls[0][0], x0)

        mu = prob.mu
        lam, x_prev, g_prev = mu, x0, prob.full_gradient(x0)
        secants = []
        for (_, y_prev, x, sub_grad), (start, y, _, _) in zip(calls, calls[1:]):
            grad = sub_grad - kappa * (x - y_prev)
            s = x - x_prev
            if s @ s > 0.0:
                secants.append(float((grad - g_prev) @ s) / float(s @ s))
                lam = max(mu, secants[-1])
            expected = x + kappa / (kappa + lam) * (y - y_prev)
            assert np.linalg.norm(start - expected) <= 1e-12 * np.linalg.norm(expected)
            x_prev, g_prev = x, grad
        # the run exercises the clamp and the secant; every step moved
        assert min(secants) < mu < max(secants)
        assert len(secants) == len(calls) - 1

    def test_start_at_the_optimum_keeps_lam(self):
        # b = 0 and x0 = 0: every subproblem's solution is exactly 0, no
        # step moves, so there is no secant and lam stays mu; every start
        # is exactly 0
        prob = _underclaimed_quadratic_sum(mu=1.0, b_scale=0.0)
        starts = []

        def recording(sub, warm_start, target, budget, rng=None, trace=None):
            starts.append(np.array(warm_start))
            return gd_run(sub, warm_start, target, budget, rng=rng)

        rep = catalyst_run(prob, dataclasses.replace(inner_method("gd"), run=recording),
                           choose_kappa(prob, "gd"), np.zeros(4),
                           outer_iters=5, eps=-1.0)
        assert len(starts) == 5
        assert all(np.array_equal(x, np.zeros(4)) for x in starts)
        assert np.array_equal(rep.solution, np.zeros(4))

    @pytest.mark.parametrize("arm", ["gd", "svrg"])
    @pytest.mark.parametrize("accelerated", [False, True])
    def test_does_not_write_into_x0(self, arm, accelerated):
        prob = make_ridge(d=10, m=40, cond=1000.0, seed=5).problem
        x0 = RandomStream(70).normal(10)
        x0_copy = x0.copy()
        kappa = choose_kappa(prob, arm) if accelerated else 0.0
        catalyst_run(prob, inner_method(arm), kappa, x0, outer_iters=50, eps=1e-9)
        assert np.array_equal(x0, x0_copy)

    def test_svrg_work_on_ill_conditioned_ridge(self):
        # the catalyst_ridge benchmark's svrg solve reaches the gap after
        # 122,000 gradients
        inst = make_ridge(d=50, m=500, cond=1e4, seed=0)
        prob = inst.problem
        rep = catalyst_run(prob, inner_method("svrg"), choose_kappa(prob, "svrg"),
                           RandomStream(0, stream_id=90).normal(50),
                           outer_iters=1000, eps=1e-7,
                           rng=RandomStream(0, stream_id=17))
        evals = next(ev for obj, ev in zip(rep.objective_history, rep.evals_history)
                     if obj - inst.optimum_value <= 1e-6)
        assert evals <= 200_000


def _lasso_proxlinear():
    prob = make_lasso(d=10, m=25, lam=0.1, seed=3).problem
    return prob, lambda: proxlinear_run(prob, np.ones(10), outer_iters=5)


def _pr_proxlinear():
    prob = make_phase_retrieval(d=8, m=48, outlier_frac=0.1, seed=0).problem
    return prob, lambda: proxlinear_run(prob, np.ones(8), outer_iters=5)


def _lasso_proximal_point():  # FISTA prox maps
    prob = make_lasso(d=10, m=25, lam=0.1, seed=3).problem
    return prob, lambda: proximal_point_run(prob, 1.0 / (2.0 * prob.beta),
                                            np.ones(10), max_iters=5)


def _pr_proximal_point():  # prox-linear prox maps
    prob = make_phase_retrieval(d=8, m=48, outlier_frac=0.1, seed=0).problem
    return prob, lambda: proximal_point_run(prob, 1.0 / (2.0 * prob.rho),
                                            np.ones(8), max_iters=3)


def _pr_pgsg():
    sp = make_phase_retrieval(d=8, m=48, outlier_frac=0.1, seed=0).stochastic
    return sp, lambda: pgsg_run(sp, np.ones(8), outer_iters=2,
                                schedule=default_schedule(sp.rho),
                                rng=RandomStream(64, stream_id=200))


@pytest.mark.parametrize("setup", [_lasso_proxlinear, _pr_proxlinear,
                                   _lasso_proximal_point, _pr_proximal_point,
                                   _pr_pgsg])
def test_back_to_back_runs_of_other_solvers_report_equal_counts(setup):
    # as for catalyst: each run reports the calls it made on the bundle's
    # counters, which keep the instance's running total
    bundle, run = setup()
    reps = [run(), run()]
    assert reps[0].evals_history == reps[1].evals_history
    assert reps[0].oracle_calls == reps[1].oracle_calls
    assert bundle.counters == {k: 2 * n for k, n in reps[0].oracle_calls.items()}
    assert reps[0].evals_history[-1] <= sum(reps[0].oracle_calls.values())


def test_proximal_point_counts_fista_prox_steps():
    # every FISTA step makes one gradient and one g prox, and both are
    # counted, as proxlinear_step counts its prox
    _, run = _lasso_proximal_point()
    calls = run().oracle_calls
    assert calls["g_prox"] == calls["grad"] > 0


def _run_epochs(run, prob, kappa, center, warm, epochs=1):
    """The anchor ``epochs`` epochs after ``warm``, from fixed draws: the
    budget runs out at that anchor, which the run returns."""
    sub = Subproblem(prob, kappa, center)
    before = prob.grad_evals
    x, _, _ = run(sub, warm, 0.0, budget=2 * epochs * prob.m,
                  rng=RandomStream(60, stream_id=31))
    return x, prob.grad_evals - before


def _ridge(d, m, seed):
    return make_ridge(d=d, m=m, cond=1e3, seed=seed).problem


def _logistic(d, m, seed):
    return make_erm_logistic(d=d, m=m, mu=1e-2, seed=seed).problem


class TestFoldedSvrgEpoch:
    """svrg_run folds the epoch-constant terms into the fixed point xbar
    and takes each draw on x = sigma u + xbar; it must agree with the
    textbook step to rounding and count the same calls."""

    @pytest.mark.parametrize("make", [_ridge, _logistic])
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

    @pytest.mark.parametrize("fail_at", [0, 7, 29])
    def test_raising_oracle_leaves_exact_count(self, fail_at):
        calls = []

        class RaisingLoss(SquaredLoss):
            def deriv_i(self, i, t):
                calls.append(i)
                if len(calls) == fail_at + 1:  # the anchor pass makes none
                    raise FloatingPointError("draw %d" % fail_at)
                return super().deriv_i(i, t)

        _, A, b = small_quadratic_sum(m=30, d=4)
        prob = FiniteSumProblem(A, RaisingLoss(b), 0.1)
        sub = Subproblem(prob, 1.0, np.zeros(4))
        with pytest.raises(FloatingPointError):
            svrg_run(sub, np.ones(4), 0.0, budget=10**6,
                     rng=RandomStream(63, stream_id=31))
        assert len(calls) == fail_at + 1
        assert prob.grad_evals == prob.m + fail_at + 1

    def test_scale_folds_before_it_underflows(self):
        # kappa = 1e8 beta makes rho about 0.9, so rho^m underflows within
        # one epoch of m = 8000 draws unless sigma is folded into u
        prob = make_ridge(d=5, m=8000, cond=1e3, seed=69).problem
        kappa = 1e8 * prob.beta_i
        rs = RandomStream(70)
        center, warm = rs.normal(5), rs.normal(5)
        x_new, calls_new = _run_epochs(svrg_run, prob, kappa, center, warm)
        x_ref, calls_ref = _run_epochs(_textbook_svrg, prob, kappa, center, warm)
        assert calls_new == calls_ref == 3 * prob.m
        assert np.all(np.isfinite(x_new))
        assert np.linalg.norm(x_new - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_does_not_write_into_warm_start_or_center(self):
        prob = _ridge(8, 30, 66)
        center, warm = RandomStream(67).normal(8), RandomStream(68).normal(8)
        c0, w0 = center.copy(), warm.copy()
        _run_epochs(svrg_run, prob, 0.5, center, warm)
        assert np.array_equal(center, c0) and np.array_equal(warm, w0)
