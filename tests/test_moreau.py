"""Moreau envelope, certified prox maps, and the proximal point loop."""

import numpy as np
import pytest

from checks import SquaredL2
from proxkit import (
    BudgetExceeded,
    CompositeProblem,
    L1Norm,
    NonconvexSubproblem,
    OracleFailure,
    RandomStream,
    SmoothMap,
    SmoothPlusProx,
    Zero,
    make_lasso,
    make_phase_retrieval,
    prox_map,
    proximal_point_run,
)
from proxkit import moreau, proxlinear
from proxkit.core import finite_difference_gradient
from proxkit.oracles import euclidean_norm
from proxkit.proxlinear import proxlinear_step


def abs_composite():
    """f(x) = |x^2 - 1| as a composite: h = |.| (L1Norm), c(x) = x^2 - 1."""
    c = SmoothMap(
        eval=lambda x: x * x - 1.0,
        jvp=lambda x, v: 2.0 * x * v,
        vjp=lambda x, u: 2.0 * x * u,
        beta=2.0, dim_in=1,
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

    def test_non_finite_data_fails_at_once(self):
        # a NaN in lasso's A makes the first FISTA residual NaN; the prox
        # map must fail on it, not run its 200,000-step budget
        inst = make_lasso(d=50, m=100, lam=0.1, seed=4)
        inst.arrays["A"][3, 2] = np.nan
        f = inst.problem
        with pytest.raises(OracleFailure, match="residual nan at FISTA step 1"):
            prox_map(f, 1.0 / (2.0 * f.beta), np.ones(50))
        assert f.counters["grad"] == f.counters["g_prox"] == 1


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

    @staticmethod
    def _record_steps(monkeypatch):
        """Route proxlinear_step through a wrapper; returns the list it
        appends each step's (x_next, surrogate, dual) to."""
        steps = []

        def recording_step(*args, **kwargs):
            steps.append(proxlinear_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(proxlinear, "proxlinear_step", recording_step)
        return steps

    @staticmethod
    def _robust_pr_case():
        f = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=0).problem
        z = 2.0 * RandomStream(0, stream_id=501).normal(5)
        return f, 1.0 / (2.0 * f.rho + 1.0), z

    def test_stopping_step_certifies_the_stop_gap(self, monkeypatch):
        # the step a prox map returns must have achieved the stop gap, not
        # merely asked for it: this case ends on a step that asked for
        # _GAP_FLOOR when stopping is decided by the request
        steps = self._record_steps(monkeypatch)
        f, nu, z = self._robust_pr_case()
        inner_tol = 1e-8
        mp = prox_map(f, nu, z, inner_tol=inner_tol)
        surr = steps[-1][1]
        assert surr.norm == mp.certificate <= inner_tol
        assert surr.gap <= max(proxlinear._GAP_FLOOR, 5e-3 * inner_tol**2 / (f.L * f.beta))

    def test_step_budget_exhausted_raises(self, monkeypatch):
        # a composite prox map that runs out of prox-linear steps raises
        # with its last iterate; it never returns an uncertified point
        steps = self._record_steps(monkeypatch)
        monkeypatch.setattr(moreau, "_COMPOSITE_STEPS", 2)
        f, nu, z = self._robust_pr_case()
        with pytest.raises(BudgetExceeded) as err:
            prox_map(f, nu, z, inner_tol=1e-8)
        assert len(steps) == 2
        x_last, surr, _ = steps[-1]
        assert err.value.best_point.tobytes() == x_last.tobytes()
        assert err.value.achieved == surr.norm > 1e-8

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


def textbook_fista(smooth_grad, lips, mu, g, start, inner_tol, budget):
    """The FISTA prox loop as the method states it, begun at ``start``,
    the reference that ``moreau._fista_prox`` must match bit for bit.
    ``smooth_grad`` carries the prox center."""
    x = np.asarray(start, dtype=float).copy()
    y = x.copy()
    sq = np.sqrt(mu / lips)
    momentum = (1.0 - sq) / (1.0 + sq)
    residual = np.inf
    for k in range(budget):
        grad = smooth_grad(y)
        x_new = g.prox(1.0 / lips, y - grad / lips)
        residual = lips * np.linalg.norm(x_new - y)
        if residual <= inner_tol:
            return x_new, float(residual), k + 1
        y = x_new + momentum * (x_new - x)
        x = x_new
    raise BudgetExceeded("budget", best_point=x, achieved=float(residual))


def identity_gradient_bundle():
    # its gradient returns its argument: a loop that wrote into the
    # gradient would overwrite its own iterate.  beta is above the true 1,
    # so FISTA does not land on the solution in one step.
    return SmoothPlusProx(smooth_value=lambda x: 0.5 * float(x @ x),
                          smooth_grad=lambda x: x, beta=2.0, g=L1Norm(0.2), dim=3)


class TestFusedFista:
    """``_fista_prox`` against ``textbook_fista``: the same iterates, bit
    for bit, and the same budget exit."""

    CASES = [
        (lambda: make_lasso(d=10, m=25, lam=0.1, seed=3).problem, 10),
        (lambda: make_lasso(d=50, m=100, lam=0.1, seed=1).problem, 50),
        (identity_gradient_bundle, 3),
    ]

    def _reference(self, f, nu, z, tol, budget, start=None):
        return textbook_fista(lambda x: f.smooth_grad(x) + (x - z) / nu,
                              f.beta + 1.0 / nu, 1.0 / nu - f.rho, f.g,
                              z if start is None else start, tol, budget)

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    def test_bit_identical_to_textbook_loop(self, case, tol):
        make, d = self.CASES[case]
        f = make()
        nu = 1.0 / (2.0 * f.beta)
        z = RandomStream(70 + case).normal(d)
        z_before = z.copy()
        x_ref, res_ref, steps = self._reference(f, nu, z, tol, 200_000)
        x, res = moreau._fista_prox(f, nu, z, tol, 200_000)
        assert x.tobytes() == x_ref.tobytes()
        assert res == res_ref
        assert z.tobytes() == z_before.tobytes()
        # one gradient and one prox step per FISTA step
        assert f.counters["grad"] == f.counters["g_prox"] == steps

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_budget_exhausted_raise_matches(self, case):
        make, d = self.CASES[case]
        f = make()
        nu = 1.0 / (2.0 * f.beta)
        z = RandomStream(80 + case).normal(d)
        with pytest.raises(BudgetExceeded) as ref:
            self._reference(f, nu, z, 1e-14, 3)
        with pytest.raises(BudgetExceeded) as err:
            moreau._fista_prox(f, nu, z, 1e-14, 3)
        assert err.value.best_point.tobytes() == ref.value.best_point.tobytes()
        assert err.value.achieved == ref.value.achieved
        assert f.counters["grad"] == f.counters["g_prox"] == 3

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    def test_bit_identical_to_textbook_loop_from_a_start(self, case, tol):
        # begun away from its center, the loop still centers the
        # subproblem at z and leaves both inputs untouched
        make, d = self.CASES[case]
        f = make()
        nu = 1.0 / (2.0 * f.beta)
        z = RandomStream(70 + case).normal(d)
        start = z + 0.1 * RandomStream(90 + case).normal(d)
        z_before, start_before = z.copy(), start.copy()
        x_ref, res_ref, steps = self._reference(f, nu, z, tol, 200_000, start)
        x, res = moreau._fista_prox(f, nu, z, tol, 200_000, start)
        assert x.tobytes() == x_ref.tobytes()
        assert res == res_ref
        assert z.tobytes() == z_before.tobytes()
        assert start.tobytes() == start_before.tobytes()
        assert f.counters["grad"] == f.counters["g_prox"] == steps

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_budget_exhausted_raise_matches_from_a_start(self, case):
        make, d = self.CASES[case]
        f = make()
        nu = 1.0 / (2.0 * f.beta)
        z = RandomStream(80 + case).normal(d)
        start = z + 0.1 * RandomStream(100 + case).normal(d)
        with pytest.raises(BudgetExceeded) as ref:
            self._reference(f, nu, z, 1e-14, 3, start)
        with pytest.raises(BudgetExceeded) as err:
            moreau._fista_prox(f, nu, z, 1e-14, 3, start)
        assert err.value.best_point.tobytes() == ref.value.best_point.tobytes()
        assert err.value.achieved == ref.value.achieved
        assert f.counters["grad"] == f.counters["g_prox"] == 3


class TestProximalPoint:
    def test_geometric_halving_on_quadratic(self):
        # [DERIVED] for f = 0.5||x||^2 and nu = 1: x_{t+1} = x_t / 2
        rep = proximal_point_run(SquaredL2(1.0), 1.0, np.array([8.0]), max_iters=4)
        # f(x_t) = x_t^2 / 2 at x_t = 8, 4, 2, 1
        assert list(rep.objective_history) == [32.0, 8.0, 2.0, 0.5]

    def test_step_tol_stops_early(self):
        rep = proximal_point_run(
            SquaredL2(1.0), 1.0, np.array([8.0]), max_iters=50, step_tol=1e-3
        )
        assert len(rep.iteration_index) < 50
        assert rep.stationarity_history[-1] < 2e-3

    def test_stops_on_the_first_step_below_step_tol_when_solved_exactly(self):
        # [DERIVED] the stationarity of row t is 4 / 2^t, first below 1e-3
        # at t = 12; the closed-form prox certifies 0, so that row stops
        # the run although it asked for a tolerance above the stop's
        rep = proximal_point_run(
            SquaredL2(1.0), 1.0, np.array([8.0]), max_iters=50, step_tol=1e-3
        )
        assert len(rep.iteration_index) == 13
        assert rep.stationarity_history[-1] == 4.0 / 2.0**12

    def test_nonsmooth_reaches_kink(self):
        rep = proximal_point_run(L1Norm(1.0), 0.5, np.array([1.6]), max_iters=10)
        assert abs(rep.solution[0]) < 1e-12

    def test_one_objective_pass_per_step(self, monkeypatch):
        # each step's prox map evaluates f at the next iterate, which the
        # next row records: only x0 is evaluated on its own
        centers = []

        def recording_prox_map(f, nu, z, inner_tol, _start=None):
            centers.append(np.array(z))
            return prox_map(f, nu, z, inner_tol=inner_tol, _start=_start)

        monkeypatch.setattr(moreau, "prox_map", recording_prox_map)
        f = make_lasso(d=10, m=25, lam=0.1, seed=3).problem
        rep = proximal_point_run(f, 1.0 / (2.0 * f.beta), np.ones(10), max_iters=5)
        assert rep.oracle_calls["value"] == 1 + 5
        f2 = make_lasso(d=10, m=25, lam=0.1, seed=3).problem
        assert [f2.value(x) for x in centers] == list(rep.objective_history)

    @pytest.mark.parametrize("seed", range(4))
    def test_converged_only_when_resolved_gradient_is_below_step_tol(
            self, seed, monkeypatch):
        # the recorded stationarity comes from a prox map solved loosely;
        # the step that stops the run must have certified 1% of step_tol,
        # and still be stationary when re-solved to 1e-12
        tols, certs, centers = [], [], []

        def recording_prox_map(f, nu, z, inner_tol, _start=None):
            centers.append(np.array(z))
            tols.append(inner_tol)
            mp = prox_map(f, nu, z, inner_tol=inner_tol, _start=_start)
            certs.append(mp.certificate)
            return mp

        monkeypatch.setattr(moreau, "prox_map", recording_prox_map)
        f = make_lasso(d=50, m=100, lam=0.1, seed=seed).problem
        nu, step_tol = 1.0 / (2.0 * f.beta), 1e-8
        rep = proximal_point_run(f, nu, np.zeros(50), max_iters=2000,
                                 step_tol=step_tol)
        assert len(rep.iteration_index) < 2000  # converged, not out of budget
        stats = rep.stationarity_history
        assert tols == [1e-10] + [max(1e-10, 0.01 * s) for s in stats[:-1]]
        assert certs[-1] <= 0.01 * step_tol
        # no earlier step below step_tol had certified as much
        assert not any(s < step_tol and c <= 0.01 * step_tol
                       for s, c in zip(stats[:-1], certs[:-1]))
        mp = prox_map(f, nu, centers[-1], inner_tol=1e-12)
        assert np.linalg.norm(mp.envelope_gradient) < step_tol

    @pytest.mark.parametrize("seed", range(4))
    def test_fista_starts_where_the_iteration_is_heading(self, seed, monkeypatch):
        # prox map 0 begins at its center; prox map t + 1, whose center is
        # x_{t+1}, at x_{t+1} + q_t (x_{t+1} - x_t) with q_t the ratio
        # min(1, stat_t / stat_{t-1}) of the last two step lengths, and
        # q = 1 for the first.  Against every prox map begun at its center
        # that saves at least half of the FISTA gradients (seeds 0-3 read
        # 582/1270, 579/1435, 633/1643 and 713/2248), and both runs stop
        # certified below step_tol
        step_tol = 1e-8

        def run():
            centers, starts, stats, certs = [], [], [], []

            def recording_prox_map(f, nu, z, inner_tol, _start=None):
                centers.append(np.array(z))
                starts.append(None if _start is None else np.array(_start))
                mp = prox_map(f, nu, z, inner_tol=inner_tol, _start=_start)
                stats.append(euclidean_norm(mp.envelope_gradient))
                certs.append(mp.certificate)
                return mp

            monkeypatch.setattr(moreau, "prox_map", recording_prox_map)
            f = make_lasso(d=50, m=100, lam=0.1, seed=seed).problem
            rep = proximal_point_run(f, 1.0 / (2.0 * f.beta), np.zeros(50),
                                     max_iters=2000, step_tol=step_tol)
            assert len(rep.iteration_index) < 2000
            assert rep.stationarity_history[-1] < step_tol
            assert certs[-1] <= 0.01 * step_tol
            return rep.oracle_calls["grad"], centers, starts, stats

        warm, centers, starts, stats = run()
        assert starts[0] is None
        assert starts[1].tobytes() == (centers[1] + (centers[1] - centers[0])).tobytes()
        for t in range(2, len(starts)):
            q = min(1.0, stats[t - 1] / stats[t - 2])
            x, x_prev = centers[t], centers[t - 1]
            assert starts[t].tobytes() == (x + q * (x - x_prev)).tobytes()
        fista = moreau._fista_prox
        monkeypatch.setattr(
            moreau, "_fista_prox",
            lambda f, nu, z, tol, budget, start=None: fista(f, nu, z, tol, budget))
        cold, _, _, _ = run()
        assert warm <= 0.5 * cold

    def test_start_after_a_step_of_length_zero_is_the_center(self, monkeypatch):
        # q = 0 when the step before last had length 0, as it does once
        # the closed-form l1 prox has reached the kink at 0: 1.6, 1.1, 0.6,
        # 0.1, 0, 0, ... (a ratio there would divide by zero)
        starts = []

        def recording_prox_map(f, nu, z, inner_tol, _start=None):
            starts.append((np.array(z), _start))
            return prox_map(f, nu, z, inner_tol=inner_tol, _start=_start)

        monkeypatch.setattr(moreau, "prox_map", recording_prox_map)
        proximal_point_run(L1Norm(1.0), 0.5, np.array([1.6]), max_iters=10)
        assert starts[3][0][0] > 0.0
        assert [float(z[0]) for z, _ in starts[4:7]] == [0.0, 0.0, 0.0]
        for z, start in starts[6:]:
            assert start.tobytes() == z.tobytes()

    def test_composite_prox_maps_ask_only_the_gap_the_stop_needs(self):
        # the prox-linear runs inside the prox maps floor their gap schedule
        # at what their stop needs; with the rounding floor alone, PDHG
        # chased unreachable gaps and the run cost 115,154 calls
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=1)
        prob = inst.problem
        rep = proximal_point_run(prob, 1.0 / (2.0 * prob.L * prob.beta),
                                 RandomStream(1, stream_id=90).normal(5),
                                 max_iters=40, step_tol=1e-6)
        assert rep.stationarity_history[-1] < 1e-6
        assert rep.evals_history[-1] <= 60_000

    def test_tolerance_rule_reaches_composite_branch(self, monkeypatch):
        # the prox-linear prox maps of a composite follow the schedule too:
        # fewer Jacobian products than every prox map solved to inner_tol,
        # and both runs stop below step_tol
        def run():
            prob = make_phase_retrieval(d=4, m=24, seed=3).problem
            rep = proximal_point_run(prob, 1.0 / (2.0 * prob.rho), np.ones(4),
                                     max_iters=500, step_tol=1e-6)
            assert len(rep.iteration_index) < 500
            assert rep.stationarity_history[-1] < 1e-6
            return rep.oracle_calls["c_jvp"]

        scheduled = run()
        monkeypatch.setattr(moreau, "_INNER_REL", 0.0)  # tol_t = inner_tol
        assert scheduled < run() / 2
