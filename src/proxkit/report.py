"""Solver run records: the unit of benchmark output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def calls_since(counters: dict, start: dict) -> dict:
    """Oracle calls by kind since ``start``, the copy of ``counters`` a run
    takes when it begins.  A bundle's ``counters`` is the one place its
    oracle calls are counted, over the instance's life; each run reports
    this difference, so runs sharing an instance count only their own."""
    return {k: n - start[k] for k, n in counters.items()}


@dataclass
class SolverReport:
    """Objective and stationarity history of a single solver run.

    ``record`` writes one entry to each of the four histories, so they
    always have equal length, and checks that ``evals_history``, the run's
    cumulative oracle-call count at each recorded iteration, is monotone.
    """

    objective_history: list = field(default_factory=list)
    stationarity_history: list = field(default_factory=list)
    evals_history: list = field(default_factory=list)
    iteration_index: list = field(default_factory=list)
    oracle_calls: dict = field(default_factory=dict)
    solution: np.ndarray | None = None

    def record(self, it, objective, stationarity, evals):
        last = self.evals_history[-1] if self.evals_history else evals
        assert evals >= last, "oracle counters must be monotone"
        self.iteration_index.append(int(it))
        self.objective_history.append(float(objective))
        self.stationarity_history.append(float(stationarity))
        self.evals_history.append(int(evals))
