"""The benchmark's four workloads.

Each workload is a fixed set of solves: the instances, start points and
solver settings are part of its definition, so every count repeats
exactly from run to run.  The ``--seed`` of a run sets the order in which
the closed loop issues those solves (and, for ``cli_lasso_fanout``, the
order of the ``seeds`` line of its config).

A workload has three steps, of which only ``run`` is timed:

* ``build(seed, workdir)`` imports proxkit and builds the instances or
  writes and parses the config;
* ``run(state)`` makes every solve, one after another, through the
  library's public functions, and returns what they returned;
* ``check(state, results)`` turns the results into one :class:`Outcome`
  per solve, and lists any broken output check.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from dataclasses import dataclass, field

import numpy as np

import proxkit
from proxkit import cli


@dataclass
class Outcome:
    """One solve: whether it raised, whether it met its stated accuracy
    target, and a digest of its output for the determinism checks."""

    label: str
    raised: bool
    on_target: bool
    digest: str


@dataclass
class CheckResult:
    outcomes: list
    errors: list = field(default_factory=list)
    bundle: dict | None = None  # cli_lasso_fanout: file name -> bytes


def tally(outcomes):
    """``(attempted, raised, on_target)`` over solve outcomes.  A solve
    that raised and one that returned off its target both miss it."""
    return (len(outcomes), sum(o.raised for o in outcomes),
            sum(o.on_target for o in outcomes))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _call(fn):
    """Run one solve; an exception is the solve's outcome, not the run's."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - counted as a failed solve
        return exc


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# sharp_pr: prox-linear on noiseless phase retrieval (criterion 4's setup)
# ---------------------------------------------------------------------------

class SharpPR:
    name = "sharp_pr"
    seeds = range(6)

    def build(self, seed, workdir):
        tasks = []
        for s in _shuffled(self.seeds, seed):
            inst = proxkit.GENERATORS["phase_retrieval"](
                d=20, m=160, outlier_frac=0.0, seed=s)
            xbar = inst.ground_truth
            direction = proxkit.RandomStream(s, stream_id=91).normal(20)
            direction /= np.linalg.norm(direction)
            tasks.append((s, inst, xbar + 0.1 * np.linalg.norm(xbar) * direction))
        return tasks

    def run(self, tasks):
        return [_call(lambda: proxkit.proxlinear_run(
            inst.problem, x0, outer_iters=10, stat_tol=0.0, inner_tol=1e-13))
            for _, inst, x0 in tasks]

    def check(self, tasks, results):
        outcomes = []
        for (s, inst, _), rep in zip(tasks, results):
            label = "seed%d" % s
            if isinstance(rep, Exception):
                outcomes.append(Outcome(label, True, False, repr(rep)))
                continue
            xbar = inst.ground_truth
            dist = min(np.linalg.norm(rep.solution - xbar),
                       np.linalg.norm(rep.solution + xbar))
            rate = proxkit.estimate_local_rate(rep.stationarity_history).kind
            outcomes.append(Outcome(
                label, False, bool(dist <= 1e-10 and rate == "quadratic"),
                _digest(rep.solution, rep.stationarity_history)))
        return CheckResult(outcomes)


# ---------------------------------------------------------------------------
# pgsg_robust_pr: PGSG on phase retrieval with outliers (criterion 8's setup)
# ---------------------------------------------------------------------------

class PgsgRobustPR:
    name = "pgsg_robust_pr"
    seeds = range(4)

    def build(self, seed, workdir):
        tasks = []
        for s in _shuffled(self.seeds, seed):
            inst = proxkit.GENERATORS["phase_retrieval"](
                d=10, m=80, outlier_frac=0.1, seed=s)
            tasks.append((s, inst, proxkit.RandomStream(s, stream_id=90).normal(10)))
        return tasks

    def run(self, tasks):
        results = []
        for s, inst, x0 in tasks:
            sp = inst.stochastic
            results.append(_call(lambda: proxkit.pgsg_run(
                sp, x0, outer_iters=40, schedule=proxkit.default_schedule(sp.rho),
                rng=proxkit.RandomStream(s, stream_id=200), stat_every=20)))
        return results

    def check(self, tasks, results):
        outcomes = []
        for (s, _, _), rep in zip(tasks, results):
            label = "seed%d" % s
            if isinstance(rep, Exception):
                outcomes.append(Outcome(label, True, False, repr(rep)))
                continue
            stat = rep.stationarity_history
            outcomes.append(Outcome(
                label, False, bool(stat[-1] < stat[0]),
                _digest(rep.solution, stat, rep.objective_history)))
        return CheckResult(outcomes)


# ---------------------------------------------------------------------------
# catalyst_ridge: Catalyst over SVRG and over GD on ill-conditioned ridge
# ---------------------------------------------------------------------------

class CatalystRidge:
    name = "catalyst_ridge"
    seeds = range(2)
    arms = ("svrg", "gd")

    def build(self, seed, workdir):
        insts = {s: proxkit.GENERATORS["ridge"](d=50, m=500, cond=1e4, seed=s)
                 for s in self.seeds}
        return [(s, arm, insts[s], proxkit.RandomStream(s, stream_id=90).normal(50))
                for s, arm in _shuffled(
                    [(s, a) for s in self.seeds for a in self.arms], seed)]

    def run(self, tasks):
        results = []
        for s, arm, inst, x0 in tasks:
            prob = inst.problem
            results.append(_call(lambda: proxkit.catalyst_run(
                prob, proxkit.inner_method(arm), proxkit.choose_kappa(prob, arm),
                x0, outer_iters=1000, eps=1e-7,
                rng=proxkit.RandomStream(s, stream_id=17))))
        return results

    def check(self, tasks, results):
        outcomes = []
        for (s, arm, inst, _), rep in zip(tasks, results):
            label = "catalyst-%s seed%d" % (arm, s)
            if isinstance(rep, Exception):
                outcomes.append(Outcome(label, True, False, repr(rep)))
                continue
            gap = inst.problem.value(rep.solution) - inst.optimum_value
            outcomes.append(Outcome(
                label, False, bool(gap <= 1e-6),
                _digest(rep.solution, rep.objective_history)))
        return CheckResult(outcomes)


# ---------------------------------------------------------------------------
# cli_lasso_fanout: `proxkit run --jobs 2` on a two-arm lasso config
# ---------------------------------------------------------------------------

_CLI_CONFIG = """\
problem.name = lasso
problem.d = 50
problem.m = 100
problem.lam = 0.1
solver.name = proximal_point
solver.max_iters = 2000
solver.step_tol = 1e-8
baseline.name = proxlinear
baseline.outer_iters = 2000
baseline.stat_tol = 1e-8
seeds = %s
run.target_gap = 1e-6
"""
_CLI_TOL = {"solver": 1e-8, "baseline": 1e-8}  # each arm's stopping tolerance


@dataclass
class CliState:
    config_path: str
    workdir: str
    seeds: list
    jobs: int = 2


class CliLassoFanout:
    name = "cli_lasso_fanout"
    seeds = range(32)

    def build(self, seed, workdir):
        seeds = _shuffled(self.seeds, seed)
        path = os.path.join(workdir, "lasso_fanout.cfg")
        with open(path, "w") as fh:
            fh.write(_CLI_CONFIG % ", ".join(str(s) for s in seeds))
        proxkit.load_config(path)
        return CliState(path, workdir, seeds)

    def run(self, state):
        out = tempfile.mkdtemp(prefix="bundle-jobs%d-" % state.jobs, dir=state.workdir)
        code = cli.main(["run", state.config_path, "--out", out,
                         "--jobs", str(state.jobs)])
        return code, out

    def check(self, state, result):
        code, out = result
        errors = []
        if code != 0:
            errors.append("proxkit run exited %d" % code)
        bundle = {}
        for f in os.listdir(out):
            with open(os.path.join(out, f), "rb") as fh:
                bundle[f] = fh.read()
        manifest = bundle.get("MANIFEST", b"").decode().splitlines()
        failed = [ln for ln in manifest if ln.startswith("failed ")]
        errors += ["MANIFEST: " + ln for ln in failed]
        summary = bundle.get("summary.csv", b"").decode().splitlines()
        if not any(ln.startswith("ratio,") for ln in summary):
            errors.append("summary.csv has no ratio row")

        outcomes = []
        for arm in ("solver", "baseline"):
            for s in state.seeds:
                fname = "%s_seed%d.csv" % (arm, s)
                label = "%s seed%d" % (arm, s)
                if fname not in bundle:
                    outcomes.append(Outcome(label, True, False, "missing"))
                    continue
                last = bundle[fname].decode().splitlines()[-1].split(",")
                outcomes.append(Outcome(
                    label, False, float(last[2]) <= _CLI_TOL[arm],
                    hashlib.sha256(bundle[fname]).hexdigest()))
        return CheckResult(outcomes, errors, bundle)

    def reference(self, state):
        """The same config under ``--jobs 1``, whose bundle the timed
        ``--jobs 2`` bundles must equal byte for byte."""
        jobs, state.jobs = state.jobs, 1
        try:
            return self.check(state, self.run(state))
        finally:
            state.jobs = jobs


WORKLOADS = {w.name: w for w in (SharpPR(), PgsgRobustPR(), CatalystRidge(),
                                 CliLassoFanout())}
