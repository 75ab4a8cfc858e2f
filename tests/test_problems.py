"""Synthetic problem zoo: generator purity, structural invariants,
serialization."""

import os

import numpy as np
import pytest

from proxkit import (
    CompositeProblem,
    FiniteSumProblem,
    GENERATORS,
    RandomStream,
    check_adjoint_consistency,
    check_weak_convexity,
    load_instance,
    make_box_nls,
    make_erm_logistic,
    make_lasso,
    make_phase_retrieval,
    make_ridge,
    make_robust_pca,
    make_z2_sync,
    save_instance,
)

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
        "name", ["phase_retrieval", "robust_pca", "z2_sync", "box_nls", "lasso"]
    )
    def test_adjoint_consistency(self, name):
        inst = GENERATORS[name](seed=3, **SMALL[name])
        assert isinstance(inst.problem, CompositeProblem)
        worst = check_adjoint_consistency(inst.problem.c, RandomStream(100))
        assert worst < 1e-10

    @pytest.mark.parametrize(
        "name", ["phase_retrieval", "z2_sync", "robust_pca", "box_nls"]
    )
    def test_weak_convexity_with_generic_modulus(self, name):
        inst = GENERATORS[name](seed=3, **SMALL[name])
        prob = inst.problem
        oracle = prob.as_subgradient_oracle()
        rep = check_weak_convexity(
            oracle, prob.rho, RandomStream(101), trials=200, dim=prob.dim
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
        # the textbook formula (<a_i, x> - b_i) a_i + mu x, byte for byte
        inst = make_ridge(d=50, m=40, cond=1e4, seed=9)
        A, b, mu = inst.arrays["A"], inst.arrays["b"], inst.problem.mu
        xs = RandomStream(10).normal((20, 50)) * np.logspace(-3.0, 3.0, 20)[:, None]
        for x in xs:
            x0 = x.copy()
            for i in range(40):
                ref = (float(A[i] @ x) - b[i]) * A[i] + mu * x
                got = inst.problem._grad_i(i, x)
                assert got.tobytes() == ref.tobytes()
                assert got is not x
            assert np.array_equal(x, x0)

    def test_logistic_optimum_is_stationary(self):
        inst = make_erm_logistic(d=5, m=30, mu=1e-2, seed=8)
        g = inst.problem.full_gradient(inst.ground_truth)
        assert np.linalg.norm(g) < 1e-10

    def test_finite_sum_mean_consistency(self):
        # full gradient equals the mean of component gradients
        inst = make_erm_logistic(d=5, m=30, mu=1e-2, seed=9)
        prob = inst.problem
        x = RandomStream(103).normal(5)
        mean = np.mean([prob._grad_i(i, x) for i in range(prob.m)], axis=0)
        assert np.allclose(prob.full_gradient(x), mean)
        table = prob.component_gradients_table(x)
        assert np.allclose(table.mean(axis=0), mean)

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
        vals = [sp.stoch_value(x, sp.presample(RandomStream(s), 1)[0])
                for s in range(200)]
        assert abs(np.mean(vals) - sp.full_value(x)) < 0.2 * abs(sp.full_value(x))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_phase_retrieval_subgradient_matches_np_sign_formula(self):
        # [ORACLE] the textbook (2 t sign(t^2 - b_i^2)) a_i, bit for bit,
        # including a zero residual, a NaN point and an infinite point
        inst = make_phase_retrieval(d=5, m=30, outlier_frac=0.1, seed=12)
        A, b = inst.arrays["A"], inst.arrays["b"]
        b2 = b * b

        def textbook(x, i):
            a = A[i]
            t = float(a @ x)
            return (2.0 * t * np.sign(t * t - b2[i])) * a

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
        for x in points:
            for i in range(30):
                new, ref = inst.stochastic.stoch_subgrad(x, i), textbook(x, i)
                assert new.tobytes() == ref.tobytes(), (x, i)


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_roundtrip(self, name, tmp_path):
        inst = GENERATORS[name](seed=13, **SMALL[name])
        path = os.path.join(tmp_path, "%s.pki" % name)
        save_instance(inst, path)
        back = load_instance(path)
        assert back.name == inst.name
        assert back.generator_config == inst.generator_config
        for key in inst.arrays:
            assert np.array_equal(back.arrays[key], inst.arrays[key])

    def test_corrupted_magic_rejected(self, tmp_path):
        inst = make_lasso(d=4, m=8, seed=14)
        path = os.path.join(tmp_path, "x.pki")
        save_instance(inst, path)
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(Exception):
            load_instance(path)
