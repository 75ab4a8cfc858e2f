"""Moreau envelopes as smooth surrogates for nonsmooth weakly convex functions.

The Moreau envelope of f at parameter nu,

    f_nu(z) = min_x f(x) + ||x - z||^2 / (2 nu),

is differentiable whenever nu < 1/rho(f), and its gradient (z - prox)/nu
points along the proximal step.  This script computes certified prox
points for the weakly convex model function f(x) = |x^2 - 1| (a composite
of the absolute value with a smooth map), checks the envelope gradient
against finite differences, and runs the proximal point iteration to a
stationary point.
"""

import numpy as np

from proxkit import (
    CompositeProblem,
    L1Norm,
    SmoothMap,
    Zero,
    finite_difference_gradient,
    prox_map,
    proximal_point_run,
)

# f(x) = |x^2 - 1| as g + h(c(x)) with g = 0, h = |.|, c(x) = x^2 - 1.
# c has 2-Lipschitz Jacobian and h is 1-Lipschitz, so rho = 2.
c = SmoothMap(
    eval=lambda x: x * x - 1.0,
    jvp=lambda x, v: 2.0 * x * v,
    vjp=lambda x, u: 2.0 * x * u,
    beta=2.0,
    dim_in=1,
)
f = CompositeProblem(Zero(), L1Norm(), c)
print("f(x) = |x^2 - 1|,  weak convexity modulus rho =", f.rho)

nu = 1.0 / (2.0 * f.rho)  # safely below 1/rho
print("envelope parameter nu = 1/(2 rho) =", nu)

print("\n-- certified prox points and envelope gradients --")
for z in (np.array([2.0]), np.array([0.3]), np.array([-0.05])):
    mp = prox_map(f, nu, z, inner_tol=1e-10)
    env = lambda t: prox_map(f, nu, t, inner_tol=1e-12).envelope_value
    fd = finite_difference_gradient(env, z, h=1e-6)
    print(
        "z=%6.2f  prox=%9.6f  f_nu(z)=%9.6f  grad=%10.3e  fd-err=%8.1e  cert=%8.1e"
        % (z[0], mp.prox_point[0], mp.envelope_value,
           mp.envelope_gradient[0], abs(mp.envelope_gradient[0] - fd[0]),
           mp.certificate)
    )

# The proximal point iteration x_{t+1} = prox_{nu f}(x_t) is exactly
# gradient descent on the envelope with step nu; its step sizes are the
# envelope gradient norms, which serve as the stationarity measure.
print("\n-- proximal point iteration from x0 = 3 --")
rep = proximal_point_run(f, nu, np.array([3.0]), max_iters=60, step_tol=1e-9)
for t in range(len(rep.iteration_index)):
    print("iter %3d  f=%12.6e  ||grad f_nu||=%10.3e"
          % (rep.iteration_index[t], rep.objective_history[t],
             rep.stationarity_history[t]))
print("final point: %s  (minimizers are +/-1)" % rep.solution)
