"""Proximally guided stochastic subgradient method for stochastic
weakly convex minimization of a linear model, F(x) = E_i phi_i(a_i . x).

Outer step t runs n = j_t - 1 stochastic subgradient steps on
f(., i) + rho ||. - x_t||^2 from y_0 = x_t; the next center is the average
of y_0 .. y_n.  Step j draws i, takes s_j = phi_i'(a_i . y_j) and sets
w_{j+1} = c_j w_j - (alpha_j s_j) a_i, c_j = 1 - 2 rho alpha_j, for the
offset w = y - x_t.  The loop holds w_j = P_j u, P_j = c_0 ... c_{j-1}
folded into u below 1e-100: a step is t = (A x_t)_i + P_j (a_i . u),
u <- u - (alpha_j s_j / P_{j+1}) a_i, with P and these gains computed once
per run.  After the loop, w_1 + ... + w_n = -sum_j alpha_j s_j R_j a_{i_j},
R_j = 1 + c_{j+1} + c_{j+1} c_{j+2} + ... (n - j terms).  This is the
textbook y <- y - alpha_j (s_j a_i + 2 rho (y - x_t)), rounded differently.

Every step direction v = 2 rho w + s a_i must be finite.  The loop tests
only the sum of the offsets, once per outer step (a NaN or inf in an s or
a drawn row leaves it non-finite: NaN times 0 is NaN).  If it is not
finite, or the oracle raises, the outer step is replayed on the same draws
with every v tested, to raise OracleFailure for the first failing inner
step j.  A replay that finds no bad v means the sum overflowed (the run
goes on, and NumPy warns) or the exception came first (it is re-raised).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidModulus, OracleFailure
from .report import SolverReport, calls_since
from .rng import RandomStream

# Certificate asked of each prox map behind the recorded envelope gradient.
_ENVELOPE_INNER_TOL = 1e-8


@dataclass
class StochasticProblem:
    """Sampling access to F(x) = E_i f(x, i) for the linear model
    f(x, i) = phi_i(a_i . x), where a_i is row i of ``A``, shape (m, d).

    Each x -> f(x, i) must be rho-weakly convex.  ``full_problem``, an
    evaluation-only extra on synthetic instances, is F as a deterministic
    bundle accepted by :func:`proxkit.moreau.prox_map`; PGSG reports its
    value and the gradient of its Moreau envelope.

    Draws are row indices, uniform over the m rows.  ``stoch_subgrad(t, i)``
    returns phi_i'(t), a Python float for a Python float t, so the
    subgradient of f(., i) at y is ``stoch_subgrad(a_i . y, i) * A[i]``.
    It must depend on ``(t, i)`` alone: a failing outer step is replayed
    on the same draws (see the module docstring).  ``counters`` holds the
    subgradients PGSG spends, one per inner step begun, whether the step
    completes or raises (a replayed step counts twice).
    """

    stoch_value: Callable[[np.ndarray, int], float]
    stoch_subgrad: Callable[[float, int], float]
    A: np.ndarray
    rho: float
    full_problem: object = None

    def __post_init__(self):
        self.counters = {"stoch_subgrad": 0}


@dataclass
class PgsgSchedule:
    inner_counts: Callable[[int], int]  # t -> j_t
    inner_steps: Callable[[int], float]  # j -> alpha_j


_INNER_OFFSET = math.ceil(648 * math.log(648))  # 4196 with natural log


def default_schedule(rho: float) -> PgsgSchedule:
    """j_t = t + ceil(648 ln 648), alpha_j = 2 / (rho (j + 49)).

    The logarithm base is not pinned down anywhere authoritative; the
    natural log is used here and isolated in this function.
    """
    if rho <= 0:
        raise InvalidModulus("rho must be positive, got %g" % rho)
    return PgsgSchedule(
        inner_counts=lambda t: t + _INNER_OFFSET,
        inner_steps=lambda j: 2.0 / (rho * (j + 49.0)),
    )


class _NonFiniteStep(OracleFailure):
    """A replayed inner step produced a non-finite v."""


def _inner_loop(subgrad, two_rho, P, gain, folds, A, x, draws, t, counters,
                check):
    """Outer step t's inner steps from center x, one per draw, on the
    offset w_j = P[j] u; returns the list of the s_j.  With ``check``,
    raises _NonFiniteStep at the first non-finite v = (2 rho) w + s a_i,
    reading u without changing a step, so a replay repeats the unchecked
    loop's iterates.  Adds one subgradient per step begun to ``counters``
    on any exit."""
    rows = list(A)
    Ax = (A @ x).tolist()
    u = np.zeros_like(x)
    ss, j = [], -1
    try:
        for j, i in enumerate(draws):
            a = rows[i]
            s = subgrad(Ax[i] + P[j] * float(a.dot(u)), i)
            if check and not np.all(np.isfinite(two_rho * P[j] * u + s * a)):
                raise _NonFiniteStep(
                    "non-finite subgradient at outer %d, inner %d" % (t, j))
            ss.append(s)
            if j in folds:
                u *= folds[j]
            u -= (gain[j] * s) * a
    finally:
        counters["stoch_subgrad"] += j + 1
    return ss


def _replay(args):
    """Rerun an outer step with every v checked: raises _NonFiniteStep if
    one is not finite, else returns, also when another exception stops it."""
    try:
        _inner_loop(*args, check=True)
    except _NonFiniteStep:
        raise
    except Exception:
        pass


def pgsg_run(
    problem: StochasticProblem,
    x0,
    outer_iters: int,
    schedule: PgsgSchedule,
    rng: RandomStream,
    stat_every: int = 1,
) -> SolverReport:
    """Run the method for ``outer_iters`` outer steps.

    Stationarity is recorded every ``stat_every`` outer steps (plus the
    first and last): the Moreau envelope gradient norm of ``full_problem``
    at parameter 1/(2 rho) when it is set, else the proximal step-size
    proxy 2 rho ||x_{t+1} - x_t|| with the objective recorded as NaN.
    """
    for name, value in (("outer_iters", outer_iters), ("stat_every", stat_every)):
        if value < 1:
            raise ValueError("%s must be >= 1, got %r" % (name, value))
    x = np.asarray(x0, dtype=float)
    two_rho = 2.0 * problem.rho
    report = SolverReport()

    max_jt = schedule.inner_counts(outer_iters - 1)
    alphas = np.array([schedule.inner_steps(j) for j in range(max_jt)])
    if np.any(np.diff(alphas) >= 0) or np.any(alphas <= 0):
        raise ValueError("inner step sizes must be positive and strictly decreasing")
    # the scale of w_j = P_j u, folded into u below 1e-100 as svrg_run folds
    P, folds = [1.0], {}
    for j, c in enumerate((1.0 - two_rho * alphas).tolist()):
        P.append(P[j] * c)
        if abs(P[-1]) < 1e-100:
            folds[j], P[-1] = P[-1], 1.0
    P_arr = np.array(P)
    gain = (alphas / P_arr[1:]).tolist()

    full, counters = problem.full_problem, problem.counters
    start = dict(counters)
    visited = []

    def stationarity(xt, xprev):
        if full is not None:
            from .moreau import prox_map

            mp = prox_map(full, 1.0 / two_rho, xt, inner_tol=_ENVELOPE_INNER_TOL)
            return float(np.linalg.norm(mp.envelope_gradient))
        return two_rho * float(np.linalg.norm(xt - xprev))

    for t in range(outer_iters):
        j_t = int(schedule.inner_counts(t))
        if j_t < 1:
            raise ValueError("inner count must be >= 1")
        draws = rng.integers(0, len(problem.A), size=j_t - 1).tolist()
        args = (problem.stoch_subgrad, two_rho, P, gain, folds, problem.A, x,
                draws, t, counters)
        try:
            ss = _inner_loop(*args, check=False)
        except Exception:
            _replay(args)
            raise
        # R_j = Q_{j+1}, Q_e = (P_e + ... + P_n) / P_e by suffix sums (never a
        # difference of prefix sums), span by span back from n between folds
        n = len(ss)
        Q, carry, hi = np.empty(n + 1), 0.0, n + 1
        for lo in sorted({0} | {q + 1 for q in folds if q < n}, reverse=True):
            span = P_arr[lo:hi]
            Q[lo:hi] = (np.cumsum(span[::-1])[::-1] + carry) / span
            carry, hi = folds.get(lo - 1, 0.0) * Q[lo], lo
        wsum = -((alphas[:n] * Q[1:] * ss) @ problem.A[draws])
        if not np.all(np.isfinite(wsum)):
            _replay(args)
        x_new = x + wsum / j_t
        if (t + 1) % stat_every == 0 or t == 0 or t == outer_iters - 1:
            f = np.nan if full is None else full.value(x_new)
            report.record(t + 1, f, stationarity(x_new, x),
                          calls_since(counters, start)["stoch_subgrad"])
        x = x_new
        visited.append(x)

    # the guarantee holds for an iterate drawn uniformly from x_1..x_T
    pick = int(rng.integers(1, outer_iters + 1))
    report.solution = visited[pick - 1]
    report.oracle_calls = calls_since(counters, start)
    return report
