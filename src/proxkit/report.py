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
    """Iterate and stationarity history of a single solver run.

    ``objective_history`` and ``stationarity_history`` always have equal
    length; ``evals_history`` tracks the run's cumulative oracle-call
    count at each recorded iteration and is therefore monotone.
    """

    iterates: list = field(default_factory=list)
    objective_history: list = field(default_factory=list)
    stationarity_history: list = field(default_factory=list)
    evals_history: list = field(default_factory=list)
    iteration_index: list = field(default_factory=list)
    oracle_calls: dict = field(default_factory=dict)
    solution: np.ndarray | None = None

    def record(self, it, x, objective, stationarity, evals, keep_iterate=False):
        self.iteration_index.append(int(it))
        self.objective_history.append(float(objective))
        self.stationarity_history.append(float(stationarity))
        self.evals_history.append(int(evals))
        if keep_iterate:
            self.iterates.append(np.array(x, dtype=float))

    def validate(self):
        n = len(self.objective_history)
        assert len(self.stationarity_history) == n
        assert len(self.evals_history) == n
        assert all(
            b >= a for a, b in zip(self.evals_history, self.evals_history[1:])
        ), "oracle counters must be monotone"
