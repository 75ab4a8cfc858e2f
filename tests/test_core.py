"""Core utilities: random streams, finite differences, probes, and the
checks of tests/checks.py."""

import types

import numpy as np
import pytest

from checks import check_adjoint_consistency, check_weak_convexity
from proxkit import ProbeFailure, RandomStream, finite_difference_gradient, operator_norm


class TestRandomStream:
    def test_same_key_same_draws(self):
        a = RandomStream(42, stream_id=7).normal(100)
        b = RandomStream(42, stream_id=7).normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(42, stream_id=0).normal(100)
        b = RandomStream(42, stream_id=1).normal(100)
        assert not np.array_equal(a, b)

    def test_integers_in_range(self):
        draws = RandomStream(0).integers(0, 5, size=1000)
        assert draws.min() >= 0 and draws.max() < 5

    def test_sign_values(self):
        s = RandomStream(1).sign(size=200)
        assert set(np.unique(s)) <= {-1.0, 1.0}


class TestFiniteDifference:
    def test_quadratic_gradient(self):
        # [DERIVED] grad of 0.5||x||^2 is x
        x = np.array([1.0, -2.0, 3.0])
        g = finite_difference_gradient(lambda v: 0.5 * float(v @ v), x)
        assert np.allclose(g, x, atol=1e-6)

    def test_quartic_gradient(self):
        # [DERIVED] d/dx sum(x^4) = 4 x^3
        x = np.array([0.5, -1.5])
        g = finite_difference_gradient(lambda v: float(np.sum(v**4)), x)
        assert np.allclose(g, 4.0 * x**3, rtol=1e-4)

    def test_non_finite_probe_raises(self):
        with pytest.raises(ProbeFailure):
            finite_difference_gradient(lambda v: np.inf, np.zeros(2))


class TestWeakConvexity:
    def _oracle(self, value, subgrad):
        return types.SimpleNamespace(value=value, subgrad=subgrad)

    def test_abs_is_convex(self):
        f = self._oracle(lambda x: float(np.sum(np.abs(x))),
                         lambda x: np.sign(x))
        rep = check_weak_convexity(f, 0.0, RandomStream(0), trials=200, dim=3)
        assert rep.violations == 0

    def test_negative_norm_is_not_weakly_convex_with_small_rho(self):
        # [DERIVED] -||x|| has a downward kink at 0: no finite modulus
        # fixes the midpoint gap along antipodal probes through the origin
        f = self._oracle(lambda x: -float(np.linalg.norm(x)),
                         lambda x: -x / max(np.linalg.norm(x), 1e-12))
        rep = check_weak_convexity(f, 0.0, RandomStream(3), trials=300, dim=3)
        assert rep.violations > 0

    def test_concave_quadratic_needs_its_modulus(self):
        # [DERIVED] f(x) = -0.5||x||^2 is exactly 1-weakly convex
        f = self._oracle(lambda x: -0.5 * float(x @ x), lambda x: -x)
        ok = check_weak_convexity(f, 1.0, RandomStream(5), trials=300, dim=4)
        assert ok.violations == 0
        bad = check_weak_convexity(f, 0.5, RandomStream(5), trials=300, dim=4)
        assert bad.violations > 0
        assert bad.worst_gap > 0


class TestOperatorTools:
    def _linear_map(self, A, Bt=None):
        from proxkit import SmoothMap

        Bt = A if Bt is None else Bt
        return SmoothMap(
            eval=lambda x: A @ x, jvp=lambda x, v: A @ v,
            vjp=lambda x, u: Bt.T @ u, beta=0.0,
            dim_in=A.shape[1],
        )

    def test_adjoint_consistency_matrix(self):
        A = RandomStream(11).normal((6, 4))
        worst = check_adjoint_consistency(self._linear_map(A), RandomStream(12))
        assert worst < 1e-12

    def test_adjoint_inconsistency_detected(self):
        rng = RandomStream(13)
        A, B = rng.normal((6, 4)), rng.normal((6, 4))
        worst = check_adjoint_consistency(self._linear_map(A, B), RandomStream(14))
        assert worst > 1e-2

    def test_operator_norm_matches_svd(self):
        A = RandomStream(15).normal((8, 5))
        est = operator_norm(lambda v: A @ v, lambda u: A.T @ u, 5, iters=200)
        assert abs(est - np.linalg.svd(A, compute_uv=False)[0]) < 1e-6
