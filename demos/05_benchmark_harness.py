"""The benchmark harness: seeded experiments from flat config files.

An experiment is described by a flat key-value config: one problem, one
solver (optionally a baseline arm), a seed list, and run options.  The
harness runs each (arm, seed) pair in turn, writes one CSV trace per
pair, a quartile summary across seeds, and a MANIFEST; reruns reproduce
every byte.  The same machinery backs the ``proxkit run`` command-line
entry point, whose ``--jobs`` option is accepted for compatibility and
does not change how the runs go.
"""

import os
import tempfile

from proxkit import list_problems, list_solvers, parse_config_text, run_experiment

print("problems:", ", ".join(list_problems()))
print("solvers: ", ", ".join(list_solvers()))

CONFIG = """\
# lasso solved by prox-linear, three seeds
problem.name = lasso
problem.d = 30
problem.m = 60
problem.lam = 0.1
solver.name = proxlinear
solver.outer_iters = 50
solver.stat_tol = 1e-10
seeds = 0, 1, 2
"""

cfg = parse_config_text(CONFIG)
print("\nconfig sha256:", cfg.sha256[:16], "...")

tmp = tempfile.mkdtemp()
out = os.path.join(tmp, "lasso-bench")
result = run_experiment(cfg, out)
print("bundle written to", os.path.relpath(out, tmp))
print("files:", sorted(os.listdir(out)))

print("\n-- head of solver_seed0.csv --")
with open(os.path.join(out, "solver_seed0.csv")) as fh:
    for line in fh.read().splitlines()[:6]:
        print("  " + line)

print("\n-- summary.csv (median and quartiles across seeds) --")
with open(os.path.join(out, "summary.csv")) as fh:
    lines = fh.read().splitlines()
for line in lines[:4] + ["  ..."] + lines[-2:]:
    print("  " + line)

print("\nre-running the same config reproduces every file byte for byte.")
