"""Solver run records: the unit of benchmark output."""

from __future__ import annotations

from array import array
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
    The histories are typed arrays, 8 bytes a value: ``array("d")`` for
    the objective and stationarity, ``array("q")`` for the evaluation
    count and the iteration index.  An array is never ``==`` to a list,
    and ``+`` with a list raises ``TypeError``; compare or concatenate
    ``list(history)``.
    """

    objective_history: array = field(default_factory=lambda: array("d"))
    stationarity_history: array = field(default_factory=lambda: array("d"))
    evals_history: array = field(default_factory=lambda: array("q"))
    iteration_index: array = field(default_factory=lambda: array("q"))
    oracle_calls: dict = field(default_factory=dict)
    solution: np.ndarray | None = None

    def record(self, it, objective, stationarity, evals):
        last = self.evals_history[-1] if self.evals_history else evals
        assert evals >= last, "oracle counters must be monotone"
        self.iteration_index.append(int(it))
        self.objective_history.append(float(objective))
        self.stationarity_history.append(float(stationarity))
        self.evals_history.append(int(evals))
