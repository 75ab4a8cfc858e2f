"""Proximally guided stochastic subgradient on a weakly convex objective.

Each outer step of PGSG approximately solves the proximal subproblem
min_x f(x) + rho ||x - x_t||^2 by averaged stochastic subgradient
descent with a growing inner iteration count and 1/j step sizes, so the
whole method needs only stochastic subgradients of f.  Progress is
measured by the gradient norm of the Moreau envelope of the full
objective (computed here with the deterministic oracle attached to the
synthetic instance, purely for reporting).
"""

import numpy as np

from proxkit import (
    RandomStream,
    default_schedule,
    make_phase_retrieval,
    pgsg_run,
)

inst = make_phase_retrieval(d=10, m=200, outlier_frac=0.1, seed=3)
sp = inst.stochastic
print("robust phase retrieval with 10%% outliers: d=%d, m=200, rho=%.3f"
      % (sp.dim, sp.rho))

x0 = RandomStream(3, stream_id=90).normal(sp.dim)
schedule = default_schedule(sp.rho)
print("inner counts start at j_0 = %d and grow by one per outer step"
      % schedule.inner_counts(0))

rep = pgsg_run(
    problem=sp,
    x0=x0,
    outer_iters=150,
    schedule=schedule,
    rng=RandomStream(3, stream_id=200),
    stat_every=25,
)

print("\n outer   F(x_t)          ||grad F_nu(x_t)||   subgrad samples")
for t, obj, stat, ev in zip(rep.iteration_index, rep.objective_history,
                            rep.stationarity_history, rep.evals_history):
    print(" %5d   %13.6e   %16.6e   %d" % (t, obj, stat, ev))

first, last = rep.stationarity_history[0], rep.stationarity_history[-1]
print("\nstationarity reduced by a factor of %.1f over %d outer steps"
      % (first / last, rep.iteration_index[-1]))
