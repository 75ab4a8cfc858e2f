"""Prox-linear on robust phase retrieval: local quadratic convergence.

The prox-linear method minimizes F(x) = g(x) + h(c(x)) by repeatedly
solving the convex model obtained from linearizing c, plus a proximal
quadratic.  On sharp problems (noiseless phase retrieval is sharp around
the signal) the iterates converge quadratically once inside the basin of
attraction, provided the subproblems are solved accurately enough.  The
table shows this through the surrogate norm ||G|| of each step; the run
keeps only its final point, whose distance to the signal is printed last.
The adaptive inner tolerance in ``proxlinear_run`` asks only 1e-6 of the
first subproblem and then tightens the certified gap with the fourth
power of the last step length, which preserves that rate while sparing
the far-from-solution steps; ``inner_tol`` is the gap the stopping step
must certify.
"""

import numpy as np

from proxkit import (
    RandomStream,
    estimate_local_rate,
    make_phase_retrieval,
    proxlinear_run,
    proxlinear_step,
)

inst = make_phase_retrieval(d=20, m=160, outlier_frac=0.0, seed=0)
prob = inst.problem
xbar = inst.ground_truth
print("phase retrieval: d=20, m=160, no outliers; F(xbar) =",
      prob.value(xbar))

# start at 10% relative distance from the signal (inside the basin)
direction = RandomStream(0, stream_id=91).normal(20)
x0 = xbar + 0.1 * np.linalg.norm(xbar) * direction / np.linalg.norm(direction)

rep = proxlinear_run(prob, x0, outer_iters=12, stat_tol=1e-13, inner_tol=1e-12)

print("\n iter   objective        surrogate ||G||")
for t, obj, stat in zip(rep.iteration_index, rep.objective_history,
                        rep.stationarity_history):
    print(" %4d   %13.6e   %13.6e" % (t, obj, stat))
x = rep.solution
print("final dist to +/- xbar: %.6e"
      % min(np.linalg.norm(x - xbar), np.linalg.norm(x + xbar)))

rate = estimate_local_rate(rep.stationarity_history)
print("\nestimated local rate:", rate.kind)
print("oracle calls:", rep.oracle_calls)

# For contrast, twelve steps whose subproblems are all solved to a loose,
# fixed gap stall at the subproblem error level instead of converging
# quadratically.
x, dual, surrogates = x0, None, []
for _ in range(12):
    x, surr, dual = proxlinear_step(prob, x, prob.L * prob.beta, 1e-4,
                                    warm_dual=dual)
    surrogates.append(surr.norm)
rate2 = estimate_local_rate(surrogates)
print("\nwith fixed loose subproblem gap 1e-4 the classified rate is:",
      rate2.kind, "(final surrogate %.2e)" % surrogates[-1])
