"""Proximally guided stochastic subgradient method for stochastic
weakly convex minimization.

Outer step t holds the proximal center x_t fixed and runs j_t - 1
stochastic subgradient steps on the regularized model
f(., zeta) + rho ||. - x_t||^2 (whose quadratic contributes gradient
2 rho (y - x_t)), warm-started at y_0 = x_t; the next center is the
running average of the inner iterates.

Every step direction v must be finite.  The inner loop does not test each
v; it adds them into a running sum and tests that sum once per outer step
(a NaN or inf in any v leaves it non-finite).  When the sum is not finite,
or the oracle or projector raises mid-step, the outer step is replayed
from x_t on the same draws with a test on every v, which finds the first
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
from .report import SolverReport
from .rng import RandomStream


@dataclass
class StochasticProblem:
    """Sampling access to F(x) = E_zeta f(x, zeta).

    Each x -> f(x, zeta) must be rho-weakly convex and lip-Lipschitz.
    ``full_value`` and ``envelope_oracle`` are evaluation-only extras
    available on synthetic instances: the latter is a deterministic
    bundle accepted by :func:`proxkit.moreau.prox_map`, used to report
    the Moreau envelope gradient of the full objective.

    ``stoch_subgrad(x, zeta)`` must depend on ``(x, zeta)`` alone: a
    failing outer step is replayed on the same draws (see the module
    docstring).  ``presample(rng, n)``, when given, returns n draws as an
    array, which PGSG hands to ``stoch_subgrad`` through ``tolist()``, so
    integer draws arrive as Python ints.
    """

    sample: Callable[[RandomStream], object]
    stoch_value: Callable[[np.ndarray, object], float]
    stoch_subgrad: Callable[[np.ndarray, object], np.ndarray]
    rho: float
    lip: float
    dim: int
    full_value: Optional[Callable[[np.ndarray], float]] = None
    envelope_oracle: object = None
    presample: Optional[Callable[[RandomStream, int], np.ndarray]] = None


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


def _inner_loop(subgrad, two_rho, alphas, projector, x, zetas, t, check):
    """The inner steps of outer step t from center x, one per draw.

    Returns the sum of the iterates y_0 .. y_n and the sum of the step
    directions v.  With ``check``, raises _NonFiniteStep at the first
    non-finite v.  The arithmetic is that of
    ``v = g + (2 rho) (y - x); y = y - alpha v`` bit for bit: the in-place
    forms only swap the operands of IEEE + and *, which commute.
    """
    y = x.copy()
    acc = y.copy()
    vsum = np.zeros_like(y)
    for j, zeta in enumerate(zetas):
        v = y - x
        v *= two_rho
        v += subgrad(y, zeta)
        if check and not np.all(np.isfinite(v)):
            raise _NonFiniteStep(
                "non-finite subgradient at outer %d, inner %d" % (t, j))
        vsum += v
        v *= alphas[j]
        y = y - v
        if projector is not None:
            y = projector.project(y)
        acc += y
    return acc, vsum


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
    projector=None,
    stat_every: int = 1,
    envelope_inner_tol: float = 1e-8,
) -> SolverReport:
    """Run the method for ``outer_iters`` outer steps.

    Stationarity is recorded every ``stat_every`` outer steps (plus the
    first and last): the Moreau envelope gradient norm of the full objective
    at parameter 1/(2 rho) when a deterministic oracle is attached, else
    the proximal step-size proxy 2 rho ||x_{t+1} - x_t||.
    """
    x = np.asarray(x0, dtype=float).copy()
    rho = problem.rho
    report = SolverReport(seed=rng.seed)

    max_jt = schedule.inner_counts(outer_iters - 1)
    alphas = np.array([schedule.inner_steps(j) for j in range(max_jt)])
    if np.any(np.diff(alphas) >= 0) or np.any(alphas <= 0):
        raise ValueError("inner step sizes must be positive and strictly decreasing")
    alphas = alphas.tolist()
    subgrad = problem.stoch_subgrad
    two_rho = 2.0 * rho

    subgrad_evals = 0
    visited = [x.copy()]

    def stationarity(xt, xprev):
        if problem.envelope_oracle is not None:
            from .moreau import prox_map

            nu = 1.0 / (2.0 * rho)
            mp = prox_map(problem.envelope_oracle, nu, xt,
                          inner_tol=envelope_inner_tol)
            return float(np.linalg.norm(mp.envelope_gradient))
        return 2.0 * rho * float(np.linalg.norm(xt - xprev))

    def objective(xt):
        return problem.full_value(xt) if problem.full_value is not None else np.nan

    for t in range(outer_iters):
        j_t = int(schedule.inner_counts(t))
        if j_t < 1:
            raise ValueError("inner count must be >= 1")
        if problem.presample is not None:
            zetas = problem.presample(rng, max(j_t - 1, 0)).tolist()
        else:
            zetas = [problem.sample(rng) for _ in range(max(j_t - 1, 0))]
        args = (subgrad, two_rho, alphas, projector, x, zetas, t)
        try:
            acc, vsum = _inner_loop(*args, check=False)
        except Exception:
            _replay(args)
            raise
        if not np.all(np.isfinite(vsum)):
            _replay(args)
        subgrad_evals += j_t - 1
        x_new = acc / j_t
        if (t + 1) % stat_every == 0 or t == 0 or t == outer_iters - 1:
            report.record(t + 1, x_new, objective(x_new),
                          stationarity(x_new, x), subgrad_evals)
        x = x_new
        visited.append(x.copy())

    # the guarantee holds for an iterate drawn uniformly from x_1..x_T
    pick = int(rng.integers(1, outer_iters + 1))
    report.solution = visited[pick]
    report.oracle_calls = {"stoch_subgrad": subgrad_evals}
    report.validate()
    return report
