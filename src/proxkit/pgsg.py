"""Proximally guided stochastic subgradient method for stochastic
weakly convex minimization of a linear model, F(x) = E_i phi_i(a_i . x).

Outer step t holds the proximal center x_t fixed and runs j_t - 1
stochastic subgradient steps on the regularized model
f(., i) + rho ||. - x_t||^2, warm-started at y_0 = x_t; the next center is
the running average of the inner iterates.  The loop steps the offset
w = y - x_t: with A x_t computed once per outer step, a step draws i,
takes s = phi_i'(a_i . x_t + a_i . w) and sets
w <- (1 - 2 rho alpha_j) w - (alpha_j s) a_i.  That is the textbook step
y <- y - alpha_j (s a_i + 2 rho (y - x_t)) in exact arithmetic, rounded
differently, so the two agree only to the last few digits.  The next
center is x_t + (sum of the w) / j_t.

Every step direction v = 2 rho w + s a_i must be finite.  The inner loop
does not test each v; it adds up the w and tests that sum once per outer
step (a NaN or inf in any v leaves it non-finite).  When the sum is not
finite, or the oracle raises mid-step, the outer step is replayed from
x_t on the same draws with a test on every v, which finds the first
failing inner step j and raises OracleFailure for (t, j) as a per-step
test would.  A replay that finds no bad v means the sum itself overflowed
(the run goes on, and NumPy warns of the overflow) or the exception came
first (it is re-raised).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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

    Each x -> f(x, i) must be rho-weakly convex.
    ``full_value`` and ``envelope_oracle`` are evaluation-only extras
    available on synthetic instances: the latter is a deterministic
    bundle accepted by :func:`proxkit.moreau.prox_map`, used to report
    the Moreau envelope gradient of the full objective.

    Draws are row indices.  ``presample(rng, n)`` returns n of them as an
    array, which PGSG reads through ``tolist()``.  ``stoch_subgrad(t, i)``
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
    dim: int
    presample: Callable[[RandomStream, int], np.ndarray]
    full_value: Optional[Callable[[np.ndarray], float]] = None
    envelope_oracle: object = None

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


def _inner_loop(subgrad, two_rho, alphas, A, x, draws, t, counters, check):
    """The inner steps of outer step t from center x, one per draw.

    Returns the sum of the offsets w_1 .. w_n from x (w_0 = 0).  With
    ``check``, raises _NonFiniteStep at the first non-finite
    v = (2 rho) w + s a_i; the test reads w and leaves its steps as they
    are, so a replay repeats the unchecked loop's iterates.  One
    subgradient per step begun is added to ``counters`` on any exit.
    """
    rows = list(A)
    Ax = (A @ x).tolist()
    w = np.zeros_like(x)
    wsum = np.zeros_like(x)
    j = -1
    try:
        for j, i in enumerate(draws):
            a = rows[i]
            s = subgrad(Ax[i] + float(a.dot(w)), i)
            if check and not np.all(np.isfinite(two_rho * w + s * a)):
                raise _NonFiniteStep(
                    "non-finite subgradient at outer %d, inner %d" % (t, j))
            alpha = alphas[j]
            w *= 1.0 - two_rho * alpha
            w -= (alpha * s) * a
            wsum += w
    finally:
        counters["stoch_subgrad"] += j + 1
    return wsum


def _replay(args):
    """Rerun an outer step with every v checked; raises _NonFiniteStep
    if one is not finite and returns quietly otherwise, also when the
    replay stops on another exception."""
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
    first and last): the Moreau envelope gradient norm of the full objective
    at parameter 1/(2 rho) when a deterministic oracle is attached, else
    the proximal step-size proxy 2 rho ||x_{t+1} - x_t||.
    """
    x = np.asarray(x0, dtype=float).copy()
    rho = problem.rho
    report = SolverReport()

    max_jt = schedule.inner_counts(outer_iters - 1)
    alphas = np.array([schedule.inner_steps(j) for j in range(max_jt)])
    if np.any(np.diff(alphas) >= 0) or np.any(alphas <= 0):
        raise ValueError("inner step sizes must be positive and strictly decreasing")
    alphas = alphas.tolist()
    subgrad = problem.stoch_subgrad
    two_rho = 2.0 * rho

    counters = problem.counters
    start = dict(counters)
    visited = [x.copy()]

    def stationarity(xt, xprev):
        if problem.envelope_oracle is not None:
            from .moreau import prox_map

            nu = 1.0 / (2.0 * rho)
            mp = prox_map(problem.envelope_oracle, nu, xt,
                          inner_tol=_ENVELOPE_INNER_TOL)
            return float(np.linalg.norm(mp.envelope_gradient))
        return 2.0 * rho * float(np.linalg.norm(xt - xprev))

    def objective(xt):
        return problem.full_value(xt) if problem.full_value is not None else np.nan

    for t in range(outer_iters):
        j_t = int(schedule.inner_counts(t))
        if j_t < 1:
            raise ValueError("inner count must be >= 1")
        draws = problem.presample(rng, max(j_t - 1, 0)).tolist()
        args = (subgrad, two_rho, alphas, problem.A, x, draws, t, counters)
        try:
            wsum = _inner_loop(*args, check=False)
        except Exception:
            _replay(args)
            raise
        if not np.all(np.isfinite(wsum)):
            _replay(args)
        x_new = x + wsum / j_t
        if (t + 1) % stat_every == 0 or t == 0 or t == outer_iters - 1:
            report.record(t + 1, objective(x_new), stationarity(x_new, x),
                          calls_since(counters, start)["stoch_subgrad"])
        x = x_new
        visited.append(x.copy())

    # the guarantee holds for an iterate drawn uniformly from x_1..x_T
    pick = int(rng.integers(1, outer_iters + 1))
    report.solution = visited[pick]
    report.oracle_calls = calls_since(counters, start)
    return report
