"""End-to-end acceptance checks of the library's quantitative guarantees.

Each test states its criterion in the docstring and asserts exactly the
advertised tolerance; together they pin the behavior the rest of the
test suite verifies piecewise.
"""

import math

import numpy as np
import pytest

from proxkit import (
    L1Norm,
    RandomStream,
    SquaredL2,
    catalyst_run,
    choose_kappa,
    default_schedule,
    estimate_local_rate,
    inner_method,
    make_erm_logistic,
    make_lasso,
    make_phase_retrieval,
    make_ridge,
    momentum_update,
    parse_config_text,
    pgsg_run,
    prox_map,
    proxlinear_run,
    proxlinear_step,
    run_experiment,
)
from proxkit.core import finite_difference_gradient


def _abs_x2_minus_one():
    from proxkit import CompositeProblem, SmoothMap, Zero

    c = SmoothMap(
        eval=lambda x: x * x - 1.0,
        jvp=lambda x, v: 2.0 * x * v,
        vjp=lambda x, u: 2.0 * x * u,
        beta=2.0, dim_in=1, dim_out=1,
    )
    return CompositeProblem(Zero(), L1Norm(1.0), c)


@pytest.mark.slow
def test_criterion_1_moreau_gradient_identity():
    """(z - prox)/nu matches the finite-difference gradient of f_nu to
    1e-4 * (1 + ||grad f_nu||) at 50 random points per test function."""
    cases = [
        ("abs", L1Norm(1.0), 0.0, 1, 1e-10, 1e-10),
        ("half_sq", SquaredL2(1.0), 0.0, 1, 1e-10, 1e-10),
        ("abs_x2m1", _abs_x2_minus_one(), 2.0, 1, 1e-9, 1e-8),
        ("phase_retrieval", None, None, 5, 1e-8, 1e-6),
    ]
    pr = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=0)
    cases[3] = ("phase_retrieval", pr.problem, pr.problem.rho, 5, 1e-8, 1e-6)

    rng = RandomStream(1000)
    for name, f, rho, dim, grad_tol, fd_tol in cases:
        nu = 1.0 / (2.0 * rho + 1.0)
        for _ in range(50):
            z = 2.0 * rng.normal(dim)
            mp = prox_map(f, nu, z, inner_tol=grad_tol)
            fd = finite_difference_gradient(
                lambda v: prox_map(f, nu, v, inner_tol=fd_tol).envelope_value, z
            )
            err = np.linalg.norm(mp.envelope_gradient - fd)
            bound = 1e-4 * (1.0 + np.linalg.norm(fd))
            assert err <= bound, "%s: %.3e > %.3e" % (name, err, bound)


def test_criterion_2_proxlinear_equals_ista_on_lasso():
    """On make_lasso(d=50, m=100, lam=0.1), 100 prox-linear iterations
    match an independently coded proximal-gradient loop to 1e-8."""
    inst = make_lasso(d=50, m=100, lam=0.1, seed=0)
    prob = inst.problem
    A, b = inst.arrays["A"], inst.arrays["b"]
    beta = prob.L * prob.beta
    x0 = RandomStream(1001).normal(50)

    rep = proxlinear_run(prob, x0, beta=beta, outer_iters=100, stat_tol=0.0)

    # independent ISTA loop
    x = x0.copy()
    t = 0.1 / beta
    worst = 0.0
    for k in range(100):
        worst = max(worst, float(np.max(np.abs(rep.iterates[k] - x))))
        z = x - A.T @ (A @ x - b) / beta
        x = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    assert worst <= 1e-8, "max per-iterate deviation %.3e" % worst


@pytest.mark.slow
def test_criterion_3_sandwich_bound():
    """0.25 ||grad F_{1/(2 beta)}|| <= ||G|| <= 3 ||grad F_{1/(2 beta)}||
    at 100 random points (LASSO and d=10 phase retrieval), zero
    violations beyond 1e-6 slack, envelope from inner_tol=1e-9 solves."""
    lasso = make_lasso(d=20, m=40, lam=0.1, seed=1)
    pr = make_phase_retrieval(d=10, m=80, outlier_frac=0.1, seed=1)
    rng = RandomStream(1002)
    violations = 0
    for inst, n_pts in ((lasso, 50), (pr, 50)):
        prob = inst.problem
        beta = prob.L * prob.beta
        center = inst.ground_truth if inst.ground_truth is not None else 0.0
        for _ in range(n_pts):
            x = center + rng.normal(prob.dim)
            _, surr, _ = proxlinear_step(prob, x, beta, inner_tol=1e-9)
            mp = prox_map(prob, 1.0 / (2.0 * beta), x, inner_tol=1e-9)
            gn = float(np.linalg.norm(mp.envelope_gradient))
            if not (0.25 * gn - 1e-6 <= surr.norm <= 3.0 * gn + 1e-6):
                violations += 1
    assert violations == 0


def test_criterion_4_quadratic_convergence_under_sharpness():
    """Noiseless phase retrieval d=20, m=160, init at relative distance
    0.1: distance <= 1e-10 within 10 outer iterations and a quadratic
    rate classification, in >= 18 of 20 seeds."""
    successes = 0
    for seed in range(20):
        inst = make_phase_retrieval(d=20, m=160, outlier_frac=0.0, seed=seed)
        xbar = inst.ground_truth
        direction = RandomStream(seed, stream_id=91).normal(20)
        direction /= np.linalg.norm(direction)
        x0 = xbar + 0.1 * np.linalg.norm(xbar) * direction
        rep = proxlinear_run(inst.problem, x0, outer_iters=10, stat_tol=0.0,
                             inner_tol=1e-13)
        dist = min(np.linalg.norm(rep.solution - xbar),
                   np.linalg.norm(rep.solution + xbar))
        if dist <= 1e-10 and estimate_local_rate(
                rep.stationarity_history).kind == "quadratic":
            successes += 1
    assert successes >= 18, "quadratic convergence in %d/20 seeds" % successes


def _evals_to_gap(report, f_star, target):
    for obj, ev in zip(report.objective_history, report.evals_history):
        if obj - f_star <= target:
            return ev
    return None


def test_criterion_5_catalyst_speedup_on_ridge():
    """Ridge d=50, m=500, beta/mu = 1e4: Catalyst-gd with choose_kappa
    reaches f - f* <= 1e-6 in <= 1/5 of plain gradient descent's
    component-gradient evaluations."""
    x0 = RandomStream(0, stream_id=90).normal(50)

    inst = make_ridge(d=50, m=500, cond=1e4, seed=0)
    prob = inst.problem
    rep_cat = catalyst_run(prob, inner_method("gd"), choose_kappa(prob, "gd"),
                           x0, outer_iters=5000, eps=1e-7)
    cat = _evals_to_gap(rep_cat, inst.optimum_value, 1e-6)

    inst2 = make_ridge(d=50, m=500, cond=1e4, seed=0)
    rep_gd = catalyst_run(inst2.problem, inner_method("gd"), 0.0, x0,
                          eps=1e-7, inner_budget=10**9)
    gd = _evals_to_gap(rep_gd, inst2.optimum_value, 1e-6)

    assert cat is not None and gd is not None
    assert cat <= gd / 5.0, "catalyst %d vs gd %d evals" % (cat, gd)


def test_criterion_6_svrg_regime_boundary():
    """m=200 with beta/mu ~ 1e4: Catalyst-SVRG beats plain SVRG by
    >= 1.5x in gradient evaluations; m=5000 with beta/mu ~ 50: ratio
    <= 1.1 (acceleration does not help when m >= beta/mu)."""

    def evals_for(inst, kappa, seed=0):
        prob = inst.problem
        prob.grad_evals = 0
        x0 = RandomStream(seed, stream_id=90).normal(prob.dim)
        rep = catalyst_run(prob, inner_method("svrg"), kappa, x0,
                           outer_iters=3000, eps=1e-7,
                           rng=RandomStream(seed, stream_id=17),
                           inner_budget=10**8)
        return _evals_to_gap(rep, inst.optimum_value, 1e-6)

    # accelerating regime: m << beta/mu
    instA = make_erm_logistic(d=50, m=200, mu=2e-3, seed=0)
    assert instA.problem.beta_i / instA.problem.mu > instA.problem.m
    plainA = evals_for(make_erm_logistic(d=50, m=200, mu=2e-3, seed=0), 0.0)
    catA = evals_for(instA, choose_kappa(instA.problem, "svrg"))
    assert plainA is not None and catA is not None
    assert plainA / catA >= 1.5, "regime A ratio %.2f" % (plainA / catA)

    # saturated regime: m >= beta/mu, choose_kappa returns 0
    instB = make_erm_logistic(d=50, m=5000, mu=0.4, seed=0)
    assert instB.problem.m >= instB.problem.beta_i / instB.problem.mu
    assert choose_kappa(instB.problem, "svrg") == 0.0
    plainB = evals_for(make_erm_logistic(d=50, m=5000, mu=0.4, seed=0), 0.0)
    catB = evals_for(instB, choose_kappa(instB.problem, "svrg"))
    assert plainB is not None and catB is not None
    assert plainB / catB <= 1.1, "regime B ratio %.2f" % (plainB / catB)


def test_criterion_7_momentum_recurrence():
    """For 100 random q: the closed-form alpha satisfies its quadratic to
    1e-12, sqrt(q) is a fixed point to 1e-14, and iterated updates from
    random alpha_0 converge to sqrt(q) within 200 steps to 1e-10."""
    rng = RandomStream(1003)
    for _ in range(100):
        q = float(rng.uniform(1e-8, 1.0))
        a_prev = float(rng.uniform(1e-8, 1.0))
        a, _ = momentum_update(a_prev, q)
        assert abs(a * a - ((1.0 - a) * a_prev**2 + q * a)) <= 1e-12

        fp, _ = momentum_update(math.sqrt(q), q)
        assert abs(fp - math.sqrt(q)) <= 1e-14

        a = float(rng.uniform(1e-3, 1.0))
        for _ in range(200):
            a, _ = momentum_update(a, q)
        assert abs(a - math.sqrt(q)) <= 1e-10


@pytest.mark.slow
def test_criterion_8_pgsg_progress():
    """Robust phase retrieval d=10, m=80, 10% outliers, default schedule,
    200 outer iterations, 20 seeds: the median squared envelope gradient
    at t=200 is <= 1/10 of its value at t=1, and the median stationarity
    trace is nonincreasing on a 10-point grid up to 5% slack."""
    stats = []
    for seed in range(20):
        inst = make_phase_retrieval(d=10, m=80, outlier_frac=0.1, seed=seed)
        sp = inst.stochastic
        x0 = RandomStream(seed, stream_id=90).normal(10)
        rep = pgsg_run(sp, x0, outer_iters=200, schedule=default_schedule(sp.rho),
                       rng=RandomStream(seed, stream_id=200), stat_every=20)
        assert rep.iteration_index[0] == 1 and rep.iteration_index[-1] == 200
        stats.append(rep.stationarity_history)

    arr = np.array(stats)  # columns: t = 1, 20, 40, ..., 200
    med_sq_first = float(np.median(arr[:, 0] ** 2))
    med_sq_last = float(np.median(arr[:, -1] ** 2))
    assert med_sq_last <= med_sq_first / 10.0, (
        "median squared ratio %.3f" % (med_sq_last / med_sq_first))

    med = np.median(arr, axis=0)[1:]  # the 10-point grid t = 20, ..., 200
    assert len(med) == 10
    for a, b in zip(med[:-1], med[1:]):
        assert b <= 1.05 * a, "median trace rose %.3f -> %.3f" % (a, b)


DETERMINISM_CONFIGS = [
    """\
problem.name = lasso
problem.d = 20
problem.m = 40
problem.lam = 0.1
solver.name = proxlinear
solver.outer_iters = 40
seeds = 0, 1, 2
""",
    """\
problem.name = ridge
problem.d = 8
problem.m = 30
problem.cond = 100
solver.name = catalyst-gd
solver.eps = 1e-9
baseline.name = gd
baseline.eps = 1e-9
seeds = 1, 2, 3
run.target_gap = 1e-6
""",
    """\
problem.name = erm_logistic
problem.d = 8
problem.m = 40
problem.mu = 1e-2
solver.name = svrg
solver.eps = 1e-9
seeds = 0, 7
""",
]


@pytest.mark.parametrize("idx", range(len(DETERMINISM_CONFIGS)))
def test_criterion_9_csv_determinism(idx, tmp_path):
    """Running any config twice yields byte-identical CSV bundles."""
    import os

    cfg = parse_config_text(DETERMINISM_CONFIGS[idx])
    bundles = []
    for tag in ("first", "second"):
        out = str(tmp_path / tag)
        manifest = run_experiment(cfg, out)
        assert not manifest["failures"]
        bundles.append({
            f: open(os.path.join(out, f), "rb").read() for f in os.listdir(out)
        })
    assert bundles[0].keys() == bundles[1].keys()
    for f in bundles[0]:
        assert bundles[0][f] == bundles[1][f], "%s differs between runs" % f
