"""Prox-linear method: model solver, surrogate gradient, rate estimation."""

import numpy as np
import pytest

from proxkit import (
    BudgetExceeded,
    CompositeProblem,
    L1Mean,
    L1Norm,
    RandomStream,
    SmoothMap,
    Zero,
    estimate_local_rate,
    make_box_nls,
    make_lasso,
    make_phase_retrieval,
    make_robust_pca,
    model_value,
    proxlinear_run,
    proxlinear_step,
    prox_map,
)
import proxkit.proxlinear
from proxkit.oracles import ShiftedQuadraticProx
from proxkit.proxlinear import _pdhg_step, _solve_model_subproblem


def linear_l1mean_problem(seed=41, d=4, m=7):
    """F(x) = mean |Ax - b|: the model at any anchor is F itself."""
    rng = RandomStream(seed)
    A, b = rng.normal((m, d)), rng.normal(m)
    c = SmoothMap(
        eval=lambda x: A @ x - b, jvp=lambda x, v: A @ v,
        vjp=lambda x, u: A.T @ u, beta=0.0, dim_in=d, dim_out=m,
    )
    return CompositeProblem(Zero(), L1Mean(m), c), A, b


class TestModelValue:
    def test_model_is_exact_for_affine_inner_map(self):
        prob, _, _ = linear_l1mean_problem()
        rng = RandomStream(42)
        for _ in range(10):
            y, x = rng.normal(4), rng.normal(4)
            assert abs(model_value(prob, y, x) - prob.value(x)) < 1e-12


class TestModelSubproblem:
    def test_certified_gap_bounds_suboptimality(self):
        # [ORACLE] the PDHG result is checked against scipy on the exact
        # QP/LP reformulation of the model subproblem
        from scipy.optimize import minimize

        prob, A, b = linear_l1mean_problem()
        x_t = RandomStream(43).normal(4)
        beta = 2.0
        x, u, gap = _solve_model_subproblem(prob, x_t, beta, gap_tol=1e-8)

        def obj(v):
            return np.mean(np.abs(A @ v - b)) + 0.5 * beta * float((v - x_t) @ (v - x_t))

        ref = minimize(obj, x_t, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        assert gap <= 1e-8
        # ref.fun >= true optimum, so the measured suboptimality cannot
        # exceed the certified gap
        assert obj(x) - ref.fun <= gap + 1e-12

    def test_budget_exceeded_carries_best_point(self):
        prob, _, _ = linear_l1mean_problem()
        x_t = RandomStream(44).normal(4)
        with pytest.raises(BudgetExceeded) as ei:
            _solve_model_subproblem(prob, x_t, 2.0, gap_tol=1e-13, max_iters=50)
        assert ei.value.best_point is not None
        assert ei.value.achieved > 0

    def test_step_sizes_meet_chambolle_pock_condition(self):
        # [DERIVED] ||K|| from the dense Jacobian assembled column by
        # column from jvps; the power-iteration estimate alone runs low
        for seed in range(10):
            c = make_robust_pca(20, 15, 3, sparsity=0.1, seed=seed).problem.c
            for k in range(3):
                z = RandomStream(seed, stream_id=300 + k).normal(c.dim_in)
                K = np.column_stack([c.jvp(z, e) for e in np.eye(c.dim_in)])
                step = _pdhg_step(lambda v: c.jvp(z, v), lambda u: c.vjp(z, u),
                                  c.dim_in)
                assert step * step * np.linalg.norm(K, 2) ** 2 <= 1.0


def _textbook_pdhg(problem, x_t, beta, gap_tol, max_iters=200_000,
                   warm_dual=None, check_every=25):
    """The accelerated Chambolle-Pock loop written the plain way: a fresh
    array per operation and a counter bump per oracle call.  The reference
    that _solve_model_subproblem must match bit for bit."""
    g, h = problem.g, problem.h
    if problem.c.linearize is not None:
        c0, K_raw, Kt_raw = problem.c.linearize(x_t)
        problem.counters["c_eval"] += 1

        def K(v):
            problem.counters["c_jvp"] += 1
            return K_raw(v)

        def Kt(u):
            problem.counters["c_vjp"] += 1
            return Kt_raw(u)
    else:
        c0 = problem.c_eval(x_t)
        K = lambda v: problem.c_jvp(x_t, v)
        Kt = lambda u: problem.c_vjp(x_t, u)
    e = c0 - K(x_t)

    x = x_t.copy()
    xbar = x.copy()
    u = h.dual_project(np.zeros(c0.size)) if warm_dual is None else warm_dual.copy()

    tau = sigma = _pdhg_step(K, Kt, x_t.size)
    gamma = beta

    def primal_value(xv):
        return (g.value(xv) + h.value(K(xv) + e)
                + 0.5 * beta * float((xv - x_t) @ (xv - x_t)))

    def dual_value(uv):
        q = Kt(uv)
        xhat = g.prox(1.0 / beta, x_t - q / beta)
        return (float(uv @ e) + g.value(xhat) + float(q @ xhat)
                + 0.5 * beta * float((xhat - x_t) @ (xhat - x_t)))

    best_x, best_gap = x.copy(), np.inf
    stagnant = 0
    last_improve = 0
    x_prev_check = x.copy()
    for k in range(1, max_iters + 1):
        u = h.dual_project(u + sigma * (K(xbar) + e))
        q = Kt(u)
        v = x - tau * q
        scale = 1.0 / (1.0 + tau * beta)
        x_new = g.prox(tau * scale, (v + tau * beta * x_t) * scale)
        theta = 1.0 / np.sqrt(1.0 + 2.0 * gamma * tau)
        tau *= theta
        sigma /= theta
        xbar = x_new + theta * (x_new - x)
        x = x_new

        if k % check_every == 0 or k == max_iters:
            gap = primal_value(x) - dual_value(u)
            if gap < 0.75 * best_gap:
                last_improve = k
            if gap < best_gap:
                best_gap = gap
                best_x = x.copy()
            if gap <= gap_tol:
                return x, u, float(max(gap, 0.0))
            if np.linalg.norm(x - x_prev_check) <= 1e-15 * (1.0 + np.linalg.norm(x)):
                stagnant += 1
                if stagnant >= 3:
                    return best_x, u, float(max(best_gap, 0.0))
            else:
                stagnant = 0
            if k - last_improve >= 10_000:
                return best_x, u, float(max(best_gap, 0.0))
            x_prev_check = x.copy()
    raise BudgetExceeded("model subproblem", best_point=best_x, achieved=best_gap)


class _ZeroReturningItsArgument(Zero):
    def prox(self, nu, z):
        return z


class _L1MeanProjectingInPlace(L1Mean):
    def dual_project(self, u):
        return np.clip(u, -1.0 / self.m, 1.0 / self.m, out=u)


def _oracles_return_their_input(seed=50, m=12):
    """c(x) = x - b under g = 0 and the mean l1 loss, with every oracle
    handing back the array it was given: jvp returns v, vjp u, g.prox z,
    and h.dual_project its argument, projected in place.  A loop that
    writes into oracle output, or reuses a buffer it handed to an oracle
    while the result is live, gets other numbers."""
    b = 0.05 * RandomStream(seed).normal(m)  # residuals near 1/m: u not pinned
    c = SmoothMap(eval=lambda x: x - b, jvp=lambda x, v: v, vjp=lambda x, u: u,
                  beta=0.0, dim_in=m, dim_out=m)
    return CompositeProblem(_ZeroReturningItsArgument(), _L1MeanProjectingInPlace(m), c)


def _abs_x2_minus_one_shifted():
    """Criterion 1's |x^2 - 1|, as its composite prox map solves it."""
    c = SmoothMap(eval=lambda x: x * x - 1.0, jvp=lambda x, v: 2.0 * x * v,
                  vjp=lambda x, u: 2.0 * x * u, beta=2.0, dim_in=1, dim_out=1)
    return CompositeProblem(ShiftedQuadraticProx(Zero(), 0.2, np.array([0.3])),
                            L1Norm(1.0), c)


_PDHG_CASES = {
    # the linearize path
    "phase_retrieval": (lambda: _criterion_4_start()[0].problem,
                        lambda: _criterion_4_start()[1], 1e-13),
    # jvp/vjp path, L1Norm h, a prox map's shifted g
    "abs_x2_minus_one": (_abs_x2_minus_one_shifted, lambda: np.array([1.7]), 1e-12),
    # L2Norm h, BoxIndicator g
    "box_nls": (lambda: make_box_nls(d=5, m=8, seed=3).problem,
                lambda: RandomStream(51).normal(5), 1e-12),
    "robust_pca": (lambda: make_robust_pca(6, 5, 2, sparsity=0.1, seed=4).problem,
                   lambda: RandomStream(52).normal(22), 1e-10),
    "oracles_return_their_input": (_oracles_return_their_input,
                                   lambda: 0.05 * RandomStream(53).normal(12), 1e-12),
}


def _pdhg_outcome(solve, make_problem, x_t, **kwargs):
    problem = make_problem()
    beta = max(problem.L * problem.beta, 1.0)
    try:
        x, u, gap = solve(problem, x_t, beta, **kwargs)
    except BudgetExceeded as exc:
        x, u, gap = exc.best_point, None, exc.achieved
    return x, u, gap, dict(problem.counters)


@pytest.mark.parametrize("case", sorted(_PDHG_CASES))
@pytest.mark.parametrize("short", [False, True])
def test_pdhg_loop_is_textbook_bit_for_bit(case, short):
    # a full cold-started solve, and a warm-started one cut off by its
    # iteration budget
    make_problem, make_start, gap_tol = _PDHG_CASES[case]
    x_t = make_start()
    kwargs = {"gap_tol": gap_tol}
    if short:
        m = make_problem().c.dim_out
        kwargs.update(max_iters=60, warm_dual=1e-3 * RandomStream(54).normal(m))
    ref = _pdhg_outcome(_textbook_pdhg, make_problem, x_t, **kwargs)
    new = _pdhg_outcome(_solve_model_subproblem, make_problem, x_t, **kwargs)
    for a, b in zip(ref[:3], new[:3]):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert ref[3] == new[3]
    assert new[3]["c_jvp"] > 60 and new[3]["c_eval"] == 1
    assert np.array_equal(x_t, make_start())  # the anchor is left as it was


class TestProxlinearStep:
    def test_identity_bypass_is_proximal_gradient(self):
        inst = make_lasso(d=8, m=20, lam=0.2, seed=1)
        prob = inst.problem
        x = RandomStream(45).normal(8)
        beta = prob.L * prob.beta
        x_next, surr, _ = proxlinear_step(prob, x, beta, inner_tol=1e-10)
        # [DERIVED] independent ISTA step on 0.5||Ax-b||^2 + lam||x||_1
        A, b = inst.arrays["A"], inst.arrays["b"]
        grad = A.T @ (A @ x - b)
        t = 0.2 / beta
        z = x - grad / beta
        ref = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        assert np.allclose(x_next, ref, atol=1e-12)
        assert surr.gap == 0.0

    def test_surrogate_vanishes_at_minimizer(self):
        prob, A, b = linear_l1mean_problem(seed=46, d=3, m=3)
        x_star = np.linalg.solve(A, b)  # F(x_star) = 0 is the minimum
        _, surr, _ = proxlinear_step(prob, x_star, 1.0, inner_tol=1e-12)
        assert surr.norm < 1e-5


class TestProxlinearRun:
    def test_descent_and_termination(self):
        inst = make_phase_retrieval(d=6, m=48, outlier_frac=0.0, seed=2)
        x0 = inst.ground_truth + 0.1 * RandomStream(47).normal(6)
        rep = proxlinear_run(inst.problem, x0, outer_iters=30, stat_tol=1e-9)
        objs = rep.objective_history
        assert objs[-1] <= objs[0]
        assert rep.stationarity_history[-1] < 1e-6
        d = min(np.linalg.norm(rep.solution - inst.ground_truth),
                np.linalg.norm(rep.solution + inst.ground_truth))
        assert d < 1e-7

    def test_report_counters_monotone(self):
        inst = make_lasso(d=10, m=25, lam=0.1, seed=3)
        rep = proxlinear_run(inst.problem, np.zeros(10), outer_iters=20)
        assert all(b >= a for a, b in zip(rep.evals_history, rep.evals_history[1:]))


def _criterion_4_start(seed=0):
    inst = make_phase_retrieval(d=20, m=160, outlier_frac=0.0, seed=seed)
    xbar = inst.ground_truth
    direction = RandomStream(seed, stream_id=91).normal(20)
    direction /= np.linalg.norm(direction)
    return inst, xbar + 0.1 * np.linalg.norm(xbar) * direction


def _record_steps(monkeypatch, edit=None):
    """Wrap proxlinear_step; returns the list of (requested gap, surrogate)
    of every step.  ``edit(surr)`` may alter a surrogate before the run
    sees it."""
    steps = []
    step = proxkit.proxlinear.proxlinear_step

    def recording_step(*args, **kwargs):
        x_next, surr, dual = step(*args, **kwargs)
        if edit is not None:
            edit(surr)
        steps.append((kwargs["inner_tol"], surr))
        return x_next, surr, dual

    monkeypatch.setattr(proxkit.proxlinear, "proxlinear_step", recording_step)
    return steps


def test_adaptive_inner_meets_every_requested_gap(monkeypatch):
    inst, x0 = _criterion_4_start()
    steps = _record_steps(monkeypatch)
    rep = proxlinear_run(inst.problem, x0, outer_iters=10, stat_tol=0.0,
                         inner_tol=1e-13)
    assert len(steps) == 10
    for requested, surr in steps:
        assert surr.gap <= requested
    counters = inst.problem.counters
    assert counters["c_jvp"] + counters["c_vjp"] <= 12_000
    xbar = inst.ground_truth
    dist = min(np.linalg.norm(rep.solution - xbar),
               np.linalg.norm(rep.solution + xbar))
    assert dist <= 1e-10
    assert estimate_local_rate(rep.stationarity_history).kind == "quadratic"


def test_loosely_solved_step_cannot_stop_the_run(monkeypatch):
    # every step is below stat_tol, but the first two report a gap above
    # inner_tol, as a solve that stalled would
    inst, x0 = _criterion_4_start()

    def stall_first_two(surr):
        if len(steps) < 2:
            surr.gap = 1.0

    steps = _record_steps(monkeypatch, stall_first_two)
    rep = proxlinear_run(inst.problem, x0, outer_iters=10, stat_tol=1e3,
                         inner_tol=1e-8)
    assert len(rep.iteration_index) == 3
    assert [surr.gap > 1e-8 for _, surr in steps] == [True, True, False]


class TestSandwich:
    def test_surrogate_comparable_to_envelope_gradient(self):
        # spot check of the 1/4 / 3x sandwich at a handful of points
        inst = make_phase_retrieval(d=8, m=64, outlier_frac=0.1, seed=4)
        prob = inst.problem
        beta = prob.rho
        rng = RandomStream(48)
        for _ in range(3):
            x = inst.ground_truth + rng.normal(8)
            _, surr, _ = proxlinear_step(prob, x, beta, inner_tol=1e-9)
            mp = prox_map(prob, 1.0 / (2.0 * beta), x, inner_tol=1e-9)
            gn = np.linalg.norm(mp.envelope_gradient)
            assert 0.25 * gn - 1e-6 <= surr.norm <= 3.0 * gn + 1e-6


class TestRateEstimate:
    def test_quadratic_sequence(self):
        r = [10.0 ** -(2.0**k) for k in range(1, 7)]
        assert estimate_local_rate(r).kind == "quadratic"

    def test_quadratic_with_noise_floor(self):
        r = [1e-1, 1e-2, 1e-4, 1e-8, 1e-15, 1.2e-15, 0.9e-15]
        assert estimate_local_rate(r).kind == "quadratic"

    def test_geometric_sequence(self):
        r = [0.5**k for k in range(40)]
        est = estimate_local_rate(r)
        assert est.kind == "linear"
        assert abs(est.rate - 0.5) < 1e-6
        assert est.r_squared > 0.999

    def test_flat_noise_is_undetermined(self):
        rng = RandomStream(49)
        r = list(1.0 + 0.5 * rng.uniform(size=30))
        assert estimate_local_rate(r).kind == "undetermined"

    def test_short_history_undetermined(self):
        assert estimate_local_rate([1.0, 0.5]).kind == "undetermined"
