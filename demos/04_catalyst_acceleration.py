"""Catalyst acceleration of gradient descent on an ill-conditioned ridge
problem.

Catalyst wraps any linearly convergent inner method in an inexact
accelerated proximal point loop: each outer step takes one inner step on
the kappa-regularized subproblem, started at its predicted solution, and
applies a Nesterov extrapolation.  On a mu-strongly convex problem with
component smoothness beta, the right kappa turns gd's O(beta/mu) rate
into roughly O(sqrt(beta/mu)) measured in component gradient
evaluations.
"""

import math

import numpy as np

from proxkit import RandomStream, catalyst_run, choose_kappa, inner_method, make_ridge

inst = make_ridge(d=50, m=500, cond=1e4, seed=0)
prob = inst.problem
print("ridge: d=50, m=500, condition number beta/mu = %.0f"
      % (prob.beta_i / prob.mu))


def gd_ratio(kappa):
    """sqrt(mu + kappa) / (tau sqrt(mu)), with gd's linear rate
    tau = (mu + kappa) / (beta + kappa) on the subproblem: the quantity
    choose_kappa minimizes."""
    tau = (prob.mu + kappa) / (prob.beta_i + kappa)
    return math.sqrt(prob.mu + kappa) / (tau * math.sqrt(prob.mu))


kappa = choose_kappa(prob, "gd")
print("chosen kappa = %.4g  (acceleration ratio %.1f, vs %.1f at kappa=0)"
      % (kappa, gd_ratio(kappa), gd_ratio(1e-12 * prob.beta_i)))

x0 = RandomStream(0, stream_id=90).normal(50)
target_gap = 1e-6
fstar = inst.optimum_value


def evals_to_gap(rep):
    for obj, ev in zip(rep.objective_history, rep.evals_history):
        if obj - fstar <= target_gap:
            return ev
    return None


runs = {}
for label, kap in [("catalyst-gd", kappa), ("plain gd", 0.0)]:
    # inner_budget bounds only the kappa = 0 run
    rep = catalyst_run(prob, inner_method("gd"), kap, x0,
                       outer_iters=5000, eps=1e-7, inner_budget=10**9)
    runs[label] = rep
    print("%-12s  final gap %.2e  component-grad evals to gap %.0e: %s"
          % (label, rep.objective_history[-1] - fstar, target_gap,
             evals_to_gap(rep)))

speedup = evals_to_gap(runs["plain gd"]) / evals_to_gap(runs["catalyst-gd"])
print("\nspeedup in gradient evaluations: %.1fx" % speedup)

# kappa = 0 makes the outer loop a pass-through, so "plain gd" above is
# literally the inner method run once on the original objective.
