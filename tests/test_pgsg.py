"""Proximally guided stochastic subgradient method."""

import math

import numpy as np
import pytest

from proxkit import (
    InvalidModulus,
    OracleFailure,
    RandomStream,
    default_schedule,
    make_phase_retrieval,
    pgsg_run,
)
from proxkit.moreau import prox_map
from proxkit.pgsg import _INNER_OFFSET, PgsgSchedule, StochasticProblem


class TestSchedule:
    def test_inner_count_offset(self):
        # [DERIVED] ceil(648 ln 648) = 4196
        assert _INNER_OFFSET == 4196
        sched = default_schedule(rho=1.0)
        assert sched.inner_counts(0) == 4196
        assert sched.inner_counts(10) == 4206

    def test_step_sizes(self):
        # [DERIVED] alpha_j = 2 / (rho (j + 49))
        sched = default_schedule(rho=2.0)
        assert sched.inner_steps(0) == pytest.approx(2.0 / (2.0 * 49.0))
        assert sched.inner_steps(51) == pytest.approx(2.0 / (2.0 * 100.0))
        steps = [sched.inner_steps(j) for j in range(100)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_rho_must_be_positive(self):
        with pytest.raises(InvalidModulus):
            default_schedule(0.0)


def tiny_quadratic_problem(rho=1.0, dim=3, m=20):
    """Least squares as a linear model: f(x, i) = 0.5 (a_i . x - b_i)^2
    over m fixed rows, with i uniform; F is a convex quadratic."""
    gen = RandomStream(0, stream_id=31)
    A = gen.normal((m, dim))
    b = A @ np.ones(dim) + 0.1 * gen.normal(m)
    b_list = b.tolist()
    return StochasticProblem(
        stoch_value=lambda x, i: 0.5 * float(A[i] @ x - b[i]) ** 2,
        stoch_subgrad=lambda t, i: t - b_list[i],
        A=A, rho=rho, dim=dim,
        presample=lambda rng, n: rng.integers(0, m, size=n),
        full_value=lambda x: 0.5 * float(np.mean((A @ x - b) ** 2)),
    )


class TestPgsgRun:
    def test_inner_loop_matches_reference(self):
        # [ORACLE] one outer step replayed by an independent loop in the
        # textbook form y = y - alpha (g + 2 rho (y - x)), on the same draws
        dim = 3
        prob = tiny_quadratic_problem(dim=dim)
        A = prob.A
        sched = default_schedule(prob.rho)
        x0 = np.array([2.0, -1.0, 0.5])
        rep = pgsg_run(prob, x0, outer_iters=1, schedule=sched,
                       rng=RandomStream(7, stream_id=1))

        rng = RandomStream(7, stream_id=1)
        j0 = sched.inner_counts(0)
        draws = rng.integers(0, len(A), size=j0 - 1)
        y = x0.copy()
        acc = y.copy()
        for j in range(j0 - 1):
            i = draws[j]
            g = prob.stoch_subgrad(float(A[i] @ y), i) * A[i]
            v = g + 2.0 * prob.rho * (y - x0)
            y = y - sched.inner_steps(j) * v
            acc += y
        x1 = acc / j0
        # the run's solution is the (only) iterate x_1
        assert np.allclose(rep.solution, x1, atol=1e-12)

    def test_objective_decreases_on_quadratic(self):
        prob = tiny_quadratic_problem()
        rep = pgsg_run(prob, 5.0 * np.ones(3), outer_iters=20,
                       schedule=default_schedule(prob.rho),
                       rng=RandomStream(8, stream_id=2))
        assert rep.objective_history[-1] < rep.objective_history[0]
        xstar = np.linalg.lstsq(prob.A, prob.A @ np.ones(3), rcond=None)[0]
        assert np.linalg.norm(rep.solution - xstar) < 1.0

    def test_eval_accounting(self):
        prob = tiny_quadratic_problem()
        T = 3
        rep = pgsg_run(prob, np.zeros(3), outer_iters=T,
                       schedule=default_schedule(prob.rho),
                       rng=RandomStream(9, stream_id=3))
        expect = sum(_INNER_OFFSET + t - 1 for t in range(T))
        assert rep.oracle_calls["stoch_subgrad"] == expect

    def test_non_finite_subgradient_raises(self):
        prob = tiny_quadratic_problem()
        prob.stoch_subgrad = lambda t, i: math.nan
        with pytest.raises(OracleFailure):
            pgsg_run(prob, np.zeros(3), outer_iters=1,
                     schedule=default_schedule(prob.rho),
                     rng=RandomStream(10, stream_id=4))

    def test_deterministic_given_stream(self):
        prob = tiny_quadratic_problem()
        runs = [
            pgsg_run(prob, np.ones(3), outer_iters=2,
                     schedule=default_schedule(prob.rho),
                     rng=RandomStream(11, stream_id=5)).solution
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_envelope_stationarity_on_instance(self):
        # phase retrieval carries a deterministic envelope oracle, so the
        # recorded stationarity is a Moreau envelope gradient norm
        inst = make_phase_retrieval(d=4, m=24, outlier_frac=0.1, seed=5)
        sp = inst.stochastic
        rep = pgsg_run(sp, RandomStream(12).normal(4), outer_iters=4,
                       schedule=default_schedule(sp.rho),
                       rng=RandomStream(12, stream_id=6), stat_every=2)
        assert all(np.isfinite(s) and s >= 0 for s in rep.stationarity_history)
        assert rep.iteration_index[0] == 1  # first outer step is recorded

    def test_bit_identical_to_textbook_loop(self):
        # [ORACLE] two outer steps of robust phase retrieval against an
        # independent copy of the scaled offset loop: w_j = P_j u with
        # P_j = c_0 ... c_{j-1}, c = 1 - (2 rho) alpha, a NumPy-scalar
        # derivative s = 2 t sign(t^2 - b_i^2) at t = (A x)_i + P_j (a_i . u),
        # a finiteness test on every v = (2 rho P_j) u + s a_i, the step
        # u = u - ((alpha / P_{j+1}) s) a_i, and after the loop the sum of
        # the offsets -sum_j (alpha_j R_j s_j) a_{i_j} with
        # R_j = (P_{j+1} + ... + P_n) / P_{j+1} summed from the back.  Equal
        # bits, not allclose.  The y-form loop
        # y = y - alpha (s a_i + (2 rho)(y - x)) is the same iterate rounded
        # differently: its centers must agree to 1e-13, some 200 ulps at
        # entries of size about 2.
        inst = make_phase_retrieval(d=10, m=80, outlier_frac=0.1, seed=3)
        sp = inst.stochastic
        sched = default_schedule(sp.rho)
        x0 = RandomStream(3, stream_id=90).normal(10)
        rep = pgsg_run(sp, x0, outer_iters=2, schedule=sched,
                       rng=RandomStream(3, stream_id=200))

        A, b = inst.arrays["A"], inst.arrays["b"]
        b2 = b * b
        rho = sp.rho
        P = [1.0]  # the default schedule keeps P above 1e-8: it never folds
        for j in range(sched.inner_counts(1)):
            P.append(P[j] * (1.0 - (2.0 * rho) * sched.inner_steps(j)))

        def deriv(t, i):
            return 2.0 * t * np.sign(t * t - b2[i])

        def centers(scaled_form):
            rng = RandomStream(3, stream_id=200)
            x = x0.copy()
            visited = [x.copy()]
            for t in range(2):
                j_t = sched.inner_counts(t)
                n = j_t - 1
                draws = rng.integers(0, 80, size=n)
                Ax = A @ x
                u, ss = np.zeros(10), []
                y, acc = x.copy(), x.copy()
                for j in range(n):
                    i, alpha = draws[j], sched.inner_steps(j)
                    a = A[i]
                    if scaled_form:
                        s = deriv(Ax[i] + P[j] * (a @ u), i)
                        v = (2.0 * rho * P[j]) * u + s * a
                    else:
                        v = deriv(a @ y, i) * a + (2.0 * rho) * (y - x)
                    if not np.all(np.isfinite(v)):
                        raise OracleFailure("outer %d, inner %d" % (t, j))
                    if scaled_form:
                        u = u - ((alpha / P[j + 1]) * s) * a
                        ss.append(s)
                    else:
                        y = y - alpha * v
                        acc += y
                if scaled_form:
                    weights, tail = [0.0] * n, 0.0
                    for j in range(n - 1, -1, -1):
                        tail += P[j + 1]
                        weights[j] = sched.inner_steps(j) * (tail / P[j + 1]) * ss[j]
                    x = x + -(np.array(weights) @ A[draws]) / j_t
                else:
                    x = acc / j_t
                visited.append(x.copy())
            return visited, int(rng.integers(1, 3))

        visited, pick = centers(scaled_form=True)
        objectives = [inst.problem.value(x) for x in visited[1:]]
        stats = [float(np.linalg.norm(prox_map(
            inst.problem, 1.0 / (2.0 * rho), x, inner_tol=1e-8).envelope_gradient))
            for x in visited[1:]]

        assert np.array_equal(rep.solution, visited[pick])
        assert np.array_equal(rep.objective_history, objectives)
        assert np.array_equal(rep.stationarity_history, stats)
        textbook, _ = centers(scaled_form=False)
        assert np.max(np.abs(np.array(textbook) - np.array(visited))) <= 1e-13

    def test_rejects_bad_counts_before_any_work(self):
        prob = tiny_quadratic_problem()
        for kwargs, name in (({"outer_iters": 0}, "outer_iters"),
                             ({"outer_iters": 1, "stat_every": 0}, "stat_every")):
            with pytest.raises(ValueError, match=name):
                pgsg_run(prob, np.zeros(3), schedule=default_schedule(prob.rho),
                         rng=RandomStream(15, stream_id=9), **kwargs)
        assert prob.counters["stoch_subgrad"] == 0


def offset_form_solution(prob, sched, x0, outer_iters, rng):
    """The plain offset-form loop, w = (1 - 2 rho alpha) w - (alpha s) a_i
    with the sum of the w, and the iterate pgsg_run would pick."""
    A = prob.A
    x = x0.copy()
    visited = [x.copy()]
    for t in range(outer_iters):
        j_t = sched.inner_counts(t)
        w, wsum = np.zeros_like(x), np.zeros_like(x)
        for j, i in enumerate(prob.presample(rng, j_t - 1)):
            alpha = sched.inner_steps(j)
            s = prob.stoch_subgrad(float(A[i] @ x + A[i] @ w), i)
            w = (1.0 - 2.0 * prob.rho * alpha) * w - (alpha * s) * A[i]
            wsum += w
        x = x + wsum / j_t
        visited.append(x.copy())
    return visited[int(rng.integers(1, outer_iters + 1))]


class TestFoldingSchedules:
    """Custom schedules on which the scale P_j = c_0 ... c_{j-1},
    c_j = 1 - 2 rho alpha_j, reaches 0, underflows or turns negative: the
    run must fold P into its vector and match the plain offset loop."""

    RHO = 8.0  # 2 rho = 16, so alpha = k / 16 gives c = 1 - k exactly

    def check(self, sched, outer_iters=2):
        prob = tiny_quadratic_problem(rho=self.RHO)
        x0 = np.array([2.0, -1.0, 0.5])
        rep = pgsg_run(prob, x0, outer_iters=outer_iters, schedule=sched,
                       rng=RandomStream(16, stream_id=10))
        expect = offset_form_solution(prob, sched, x0, outer_iters,
                                      RandomStream(16, stream_id=10))
        assert np.all(np.isfinite(rep.solution))
        assert np.max(np.abs(rep.solution - expect)) <= 1e-12

    def cs(self, sched, n):
        return [1.0 - 2.0 * self.RHO * sched.inner_steps(j) for j in range(n)]

    def test_alpha_0_of_one_over_two_rho_makes_p_zero(self):
        sched = PgsgSchedule(inner_counts=lambda t: 300 + t,
                             inner_steps=lambda j: 1.0 / (16.0 * (j + 1.0)))
        assert self.cs(sched, 1) == [0.0]
        self.check(sched)

    def test_p_underflows_within_one_outer_step(self):
        # c_j = 0.1 + 1e-5 j: the product falls below 1e-100 every ~100 steps
        sched = PgsgSchedule(inner_counts=lambda t: 400 + t,
                             inner_steps=lambda j: (0.9 - 1e-5 * j) / 16.0)
        assert math.prod(self.cs(sched, 400)) < 1e-300
        self.check(sched)

    def test_negative_c_through_zero(self):
        # c_j = -1/4 + j/64: negative first, exactly 0 at j = 16, then positive
        sched = PgsgSchedule(inner_counts=lambda t: 60 + t,
                             inner_steps=lambda j: (1.25 - j / 64.0) / 16.0)
        cs = self.cs(sched, 61)
        assert cs[0] < 0 and cs[16] == 0.0
        self.check(sched)


def step_indexed_problem(subgrad, dim=3):
    """Draw j of each outer step is row j, so a derivative can misbehave
    at a chosen inner step.  Every row is the all-ones vector, and
    f(x, j) = 0.5 (a_j . x)^2 otherwise."""
    A = np.ones((_INNER_OFFSET, dim))
    return StochasticProblem(
        stoch_value=lambda x, j: 0.5 * float(A[j] @ x) ** 2,
        stoch_subgrad=subgrad,
        A=A, rho=1.0, dim=dim,
        presample=lambda rng, n: np.arange(n),
    )


def tallied(subgrad):
    """``subgrad`` and the list of draws it was called with, so a test
    can count the calls the oracle saw."""
    calls = []

    def counted(t, j):
        calls.append(j)
        return subgrad(t, j)

    return counted, calls


def run_one_step(prob):
    return pgsg_run(prob, np.zeros(prob.dim), outer_iters=1,
                    schedule=default_schedule(prob.rho),
                    rng=RandomStream(13, stream_id=7))


class TestFiniteness:
    """The sum of the offsets w is tested once per outer step; a replay
    names the first non-finite v = (2 rho) w + s a_i as a test on every
    step would."""

    def test_nan_names_its_step(self):
        subgrad, calls = tallied(lambda t, j: math.nan if j == 7 else t)
        prob = step_indexed_problem(subgrad)
        with pytest.raises(OracleFailure, match="outer 0, inner 7$"):
            run_one_step(prob)
        # the full step, then the replay up to its failing call
        assert len(calls) == _INNER_OFFSET - 1 + 8
        assert prob.counters["stoch_subgrad"] == len(calls)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_steps_does_not_raise(self):
        # s = -1.7e308 for five steps, then 0: every v = 2 w + s a_i stays
        # finite and w decays toward 0, but the sum of the w overflows
        prob = step_indexed_problem(lambda t, j: -1.7e308 if j < 5 else 0.0)
        rep = run_one_step(prob)
        # that sum is the new center's, so the center is infinite
        assert np.all(rep.solution == np.inf)
        # the replay that found no bad step made its calls too
        n = _INNER_OFFSET - 1
        calls = rep.oracle_calls["stoch_subgrad"]
        assert calls == prob.counters["stoch_subgrad"] == 2 * n

    def test_exception_after_non_finite_step_is_oracle_failure(self):
        def subgrad(t, j):
            if math.isnan(t):
                raise ValueError("NaN input")
            return math.nan if j == 7 else t

        with pytest.raises(OracleFailure, match="outer 0, inner 7$"):
            run_one_step(step_indexed_problem(subgrad))

    def test_exception_before_any_non_finite_step_is_reraised(self):
        def raising(t, j):
            if j == 7:
                raise ValueError("oracle down")
            return t

        subgrad, calls = tallied(raising)
        prob = step_indexed_problem(subgrad)
        with pytest.raises(ValueError, match="oracle down"):
            run_one_step(prob)
        # the step and its replay each reach the raising call
        assert len(calls) == 2 * 8
        assert prob.counters["stoch_subgrad"] == len(calls)

    def test_non_finite_row_never_drawn_is_not_read(self):
        # the first outer step draws rows 0 .. n - 1 of n + 1, so a NaN in
        # the last row must leave it as it is with that row finite
        solutions = []
        for last in (1.0, math.nan):
            prob = step_indexed_problem(lambda t, j: t)
            prob.A[-1] = last
            solutions.append(run_one_step(prob).solution)
        assert np.array_equal(solutions[0], solutions[1])

    @pytest.mark.parametrize("finite_derivative", [False, True])
    def test_non_finite_row_names_the_first_step_that_draws_it(
            self, finite_derivative):
        # the rows live in the problem: a NaN in row i reaches v at the
        # first inner step that draws i, also through a derivative that
        # stays finite at a NaN t (the derivative of |t| by copysign)
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=4)
        sp = inst.stochastic
        if finite_derivative:
            sp.stoch_subgrad = lambda t, i: math.copysign(1.0, t)
        draws = RandomStream(14, stream_id=8).integers(
            0, 30, size=_INNER_OFFSET - 1).tolist()
        first = {i: draws.index(i) for i in range(30)}
        row = max(first, key=first.get)  # the row drawn last of all
        sp.A[row, 2] = np.nan
        with pytest.raises(OracleFailure, match="outer 0, inner %d$" % first[row]):
            pgsg_run(sp, RandomStream(14).normal(5), outer_iters=2,
                     schedule=default_schedule(sp.rho),
                     rng=RandomStream(14, stream_id=8))
