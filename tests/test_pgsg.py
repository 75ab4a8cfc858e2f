"""Proximally guided stochastic subgradient method."""

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
from proxkit.pgsg import _INNER_OFFSET, StochasticProblem


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


def tiny_quadratic_problem(rho=1.0, dim=3):
    """f(x, zeta) = 0.5||x - zeta||^2 with zeta ~ N(0, I): F has minimum 0."""
    return StochasticProblem(
        stoch_value=lambda x, z: 0.5 * float((x - z) @ (x - z)),
        stoch_subgrad=lambda x, z: x - z,
        rho=rho, dim=dim,
        presample=lambda rng, n: rng.normal((n, dim)),
        full_value=lambda x: 0.5 * float(x @ x) + 0.5 * dim,
    )


class TestPgsgRun:
    def test_inner_loop_matches_reference(self):
        # [ORACLE] one outer step replayed by an independent loop using
        # the same presampled noise
        dim = 3
        prob = tiny_quadratic_problem(dim=dim)
        sched = default_schedule(prob.rho)
        x0 = np.array([2.0, -1.0, 0.5])
        rep = pgsg_run(prob, x0, outer_iters=1, schedule=sched,
                       rng=RandomStream(7, stream_id=1))

        rng = RandomStream(7, stream_id=1)
        j0 = sched.inner_counts(0)
        y = x0.copy()
        acc = y.copy()
        for j in range(j0 - 1):
            z = rng.normal(dim)
            v = (y - z) + 2.0 * prob.rho * (y - x0)
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
        assert np.linalg.norm(rep.solution) < 1.0

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
        prob.stoch_subgrad = lambda x, z: np.full(3, np.nan)
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
        # [ORACLE] two outer steps of robust phase retrieval against the
        # plain loop: NumPy-scalar subgradient, a finiteness test on every
        # v, v = g + (2 rho)(y - x), y = y - alpha v.  Equal bits, not
        # allclose.
        inst = make_phase_retrieval(d=10, m=80, outlier_frac=0.1, seed=3)
        sp = inst.stochastic
        sched = default_schedule(sp.rho)
        x0 = RandomStream(3, stream_id=90).normal(10)
        rep = pgsg_run(sp, x0, outer_iters=2, schedule=sched,
                       rng=RandomStream(3, stream_id=200))

        A, b = inst.arrays["A"], inst.arrays["b"]
        b2 = b * b

        def subgrad(x, i):
            a = A[i]
            t = float(a @ x)
            return (2.0 * t * np.sign(t * t - b2[i])) * a

        rho = sp.rho
        rng = RandomStream(3, stream_id=200)
        x = x0.copy()
        visited, objectives, stats = [x.copy()], [], []
        for t in range(2):
            j_t = sched.inner_counts(t)
            zetas = rng.integers(0, 80, size=j_t - 1)
            y = x.copy()
            acc = y.copy()
            for j in range(j_t - 1):
                v = subgrad(y, zetas[j]) + (2.0 * rho) * (y - x)
                if not np.all(np.isfinite(v)):
                    raise OracleFailure("outer %d, inner %d" % (t, j))
                y = y - sched.inner_steps(j) * v
                acc += y
            x_new = acc / j_t
            objectives.append(inst.problem.value(x_new))
            mp = prox_map(inst.problem, 1.0 / (2.0 * rho), x_new, inner_tol=1e-8)
            stats.append(float(np.linalg.norm(mp.envelope_gradient)))
            x = x_new
            visited.append(x.copy())
        pick = int(rng.integers(1, 3))

        assert np.array_equal(rep.solution, visited[pick])
        assert np.array_equal(rep.objective_history, objectives)
        assert np.array_equal(rep.stationarity_history, stats)


def step_indexed_problem(subgrad, dim=3):
    """Draw j of each outer step is the integer j, so an oracle can
    misbehave at a chosen inner step; F(x) = 0.5||x||^2 otherwise."""
    return StochasticProblem(
        stoch_value=lambda x, j: 0.5 * float(x @ x),
        stoch_subgrad=subgrad,
        rho=1.0, dim=dim,
        presample=lambda rng, n: np.arange(n),
    )


def tallied(subgrad):
    """``subgrad`` and the list of draws it was called with, so a test
    can count the calls the oracle saw."""
    calls = []

    def counted(x, j):
        calls.append(j)
        return subgrad(x, j)

    return counted, calls


def run_one_step(prob):
    return pgsg_run(prob, np.zeros(prob.dim), outer_iters=1,
                    schedule=default_schedule(prob.rho),
                    rng=RandomStream(13, stream_id=7))


class TestFiniteness:
    """The sum of v is tested once per outer step; a replay names the
    first non-finite v as a test on every step would."""

    def test_nan_names_its_step(self):
        subgrad, calls = tallied(
            lambda x, j: np.full(3, np.nan) if j == 7 else x)
        prob = step_indexed_problem(subgrad)
        with pytest.raises(OracleFailure, match="outer 0, inner 7$"):
            run_one_step(prob)
        # the full step, then the replay up to its failing call
        assert len(calls) == _INNER_OFFSET - 1 + 8
        assert prob.counters["stoch_subgrad"] == len(calls)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_steps_does_not_raise(self):
        # v_0 = 1e308 and v_1 = 1e308 + 2 y_1 are finite, but their sum is
        # not; after them the oracle returns 0 and y decays toward 0
        prob = step_indexed_problem(
            lambda x, j: np.full(3, 1e308) if j < 2 else np.zeros(3))
        rep = run_one_step(prob)
        assert np.all(np.isfinite(rep.solution))
        # the replay that found no bad step made its calls too
        n = _INNER_OFFSET - 1
        calls = rep.oracle_calls["stoch_subgrad"]
        assert calls == prob.counters["stoch_subgrad"] == 2 * n

    def test_exception_after_non_finite_step_is_oracle_failure(self):
        def subgrad(x, j):
            if np.isnan(x).any():
                raise ValueError("NaN input")
            return np.full(3, np.nan) if j == 7 else x

        with pytest.raises(OracleFailure, match="outer 0, inner 7$"):
            run_one_step(step_indexed_problem(subgrad))

    def test_exception_before_any_non_finite_step_is_reraised(self):
        def raising(x, j):
            if j == 7:
                raise ValueError("oracle down")
            return x

        subgrad, calls = tallied(raising)
        prob = step_indexed_problem(subgrad)
        with pytest.raises(ValueError, match="oracle down"):
            run_one_step(prob)
        # the step and its replay each reach the raising call
        assert len(calls) == 2 * 8
        assert prob.counters["stoch_subgrad"] == len(calls)
