"""Benchmark harness: experiment configs, seeded runs, CSV output.

Configs are flat key-value text files with dotted section names::

    problem.name = lasso
    problem.d = 50
    problem.m = 100
    problem.lam = 0.1
    solver.name = proxlinear
    solver.outer_iters = 100
    seeds = 0, 1, 2

A problem's keys are the parameters of its generator; a solver's keys are
the keyword parameters of the library function it calls, with the same
defaults.  An optional ``baseline.*`` section adds a second arm; two-arm
runs get a ``ratio`` row in the summary comparing gradient evaluations to
reach ``run.target_gap`` when every seed of both arms reaches it, and a
MANIFEST line counting the seeds that did when some do not.  Every
section is checked at parse time: an unknown key or an out-of-range value
is a line-anchored ConfigError.

Every run is fully determined by the config content: identical configs
produce byte-identical CSV bundles.  The ``wall_ns`` column is 0 unless
PROXKIT_TIMING=1, in which case every row of a run carries the run's
total wall time; timing is never used in any decision.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import math
import os
import re
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .catalyst import FiniteSumProblem, catalyst_run, choose_kappa, inner_method
from .errors import ConfigError, EmptyInput, ProxkitError
from .moreau import proximal_point_run
from .oracles import CompositeProblem, SmoothPlusProx
from .pgsg import default_schedule, pgsg_run
from .problems import GENERATORS
from .proxlinear import proxlinear_run
from .rng import RandomStream

from . import __version__ as _VERSION

_CSV_COLUMNS = "iter,objective,stationarity,grad_evals,wall_ns"
_SUMMARY_COLUMNS = (
    "iter,objective_median,objective_p25,objective_p75,"
    "stationarity_median,stationarity_p25,stationarity_p75"
)
# the per-task CSVs run_experiment writes: <arm>_seed<N>.csv
_SEED_CSV = re.compile(r"^(solver|baseline)_seed-?\d+\.csv$")


# ---------------------------------------------------------------------------
# Solver registry.  An entry is (runner, params): the runner maps
# (instance, values, seed) to a SolverReport, and params holds the accepted
# config keys as the inspect.Parameters of the library function it calls.
# ---------------------------------------------------------------------------

def _init_point(instance, seed: int) -> np.ndarray:
    return RandomStream(seed, stream_id=90).normal(instance.problem.dim)


def _need(instance, solver, *classes):
    if not isinstance(instance.problem, classes):
        raise ProxkitError(
            "solver %r needs a %s instance, got %s"
            % (solver, " or ".join(c.__name__ for c in classes),
               type(instance.problem).__name__)
        )


def _run_proxlinear(instance, p, seed):
    _need(instance, "proxlinear", CompositeProblem, SmoothPlusProx)
    return proxlinear_run(instance.problem, _init_point(instance, seed), **p)


def _run_proximal_point(instance, p, seed):
    _need(instance, "proximal_point", CompositeProblem, SmoothPlusProx)
    prob = instance.problem
    p = dict(p)  # the caller's dict serves every seed
    nu = p.pop("nu")
    if nu is None:
        if prob.rho == 0:
            # convex: outer steps grow like 1 + 1/(nu mu) and FISTA steps a
            # map like sqrt(1 + nu beta); mu is unknown (0 for a wide
            # lasso), and nu beta = 10 was cheapest on every lasso shape
            nu = 10.0 / max(prob.beta, 1e-12)
        else:
            # 1/(2 L beta): below 1/rho for a composite, whose rho is L beta
            nu = 1.0 / (2.0 * max(prob.L * prob.beta, 1e-12))
    return proximal_point_run(prob, nu, _init_point(instance, seed), **p)


def _run_pgsg(instance, p, seed):
    if instance.stochastic is None:
        raise ProxkitError("solver 'pgsg' needs a stochastic instance")
    sp = instance.stochastic
    return pgsg_run(
        sp, _init_point(instance, seed), schedule=default_schedule(sp.rho),
        rng=RandomStream(seed, stream_id=200), **p,
    )


def _finite_sum_runner(inner_name):
    """Catalyst over ``inner_name``; an arm without a ``kappa`` key runs
    the inner method alone (kappa = 0)."""
    def run(instance, p, seed):
        _need(instance, inner_name, FiniteSumProblem)
        prob = instance.problem
        p = dict(p)  # the caller's dict serves every seed
        kappa = p.pop("kappa", 0.0)
        if kappa is None:
            kappa = choose_kappa(prob, inner_name)
        return catalyst_run(
            prob, inner_method(inner_name), kappa, _init_point(instance, seed),
            rng=RandomStream(seed, stream_id=17), **p,
        )
    return run


def _keyword_params(fn, **defaults) -> dict:
    """fn's parameters that have a default, less ``rng``, which the
    harness sets, plus the required ones named in ``defaults`` with those
    defaults (None: the runner works the value out)."""
    sig = inspect.signature(fn, eval_str=True).parameters
    params = {k: p for k, p in sig.items()
              if p.default is not p.empty and k != "rng"}
    params.update((k, sig[k].replace(default=d)) for k, d in defaults.items())
    return params


_SOLVERS = {
    "proxlinear": (_run_proxlinear, _keyword_params(proxlinear_run)),
    "proximal_point": (_run_proximal_point,
                       _keyword_params(proximal_point_run, nu=None)),
    "pgsg": (_run_pgsg, _keyword_params(pgsg_run, outer_iters=200)),
}
# a plain finite-sum arm runs its inner method once (kappa = 0), so it has
# no outer loop for ``outer_iters`` to bound
_PLAIN = _keyword_params(catalyst_run)
del _PLAIN["outer_iters"]
for _n in ("gd", "svrg"):
    _SOLVERS[_n] = (_finite_sum_runner(_n), _PLAIN)
    _SOLVERS["catalyst-" + _n] = (_finite_sum_runner(_n),
                                  _keyword_params(catalyst_run, kappa=None))


def list_solvers() -> list[str]:
    return sorted(_SOLVERS)


def list_problems() -> list[str]:
    return sorted(GENERATORS)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """A validated experiment: one problem, one or two solver arms,
    a list of seeds, and run-level options."""

    problem: dict
    arms: list  # list of (arm_name, solver_name, params)
    seeds: list
    target_gap: float | None = None
    source_text: str = ""

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


def _coerce(raw: str):
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


_KEYWORD = inspect.Parameter.KEYWORD_ONLY
_RUN_PARAMS = {
    "target_gap": inspect.Parameter("target_gap", _KEYWORD, default=None, annotation=float),
}

# Value ranges beyond "a finite number" (and "a positive integer" for a
# parameter annotated int), keyed by (problem, solver or 'run', key):
# checked at parse time so that a bad value exits 2 with its key named
# instead of failing inside every run.
_POSITIVE = ("> 0", lambda v: v > 0.0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0.0)
_RANGES = {
    ("ridge", "cond"): ("> 1", lambda v: v > 1.0),
    ("phase_retrieval", "outlier_frac"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("z2_sync", "edge_prob"): ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    ("z2_sync", "flip_prob"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("robust_pca", "sparsity"): ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("lasso", "lam"): _NON_NEGATIVE,
    ("erm_logistic", "mu"): _POSITIVE,
    ("proxlinear", "beta"): _POSITIVE,
    ("proxlinear", "stat_tol"): _NON_NEGATIVE,
    ("proxlinear", "inner_tol"): _POSITIVE,
    ("proximal_point", "nu"): _POSITIVE,
    ("proximal_point", "step_tol"): _NON_NEGATIVE,
    ("proximal_point", "inner_tol"): _POSITIVE,
    ("run", "target_gap"): _POSITIVE,
}
for _n in ("gd", "svrg"):
    _RANGES[("catalyst-" + _n, "kappa")] = _NON_NEGATIVE
    _RANGES[(_n, "eps")] = _RANGES[("catalyst-" + _n, "eps")] = _POSITIVE


def _generator_params(name: str) -> dict:
    """The generator's parameters other than ``seed``, by name."""
    sig = inspect.signature(GENERATORS[name], eval_str=True)
    return {k: p for k, p in sig.parameters.items() if k != "seed"}


def _check_section(section: str, values: dict, params: dict, owner: str,
                   whose: str, lines: dict) -> dict:
    """Check one section's values against ``params`` (key ->
    inspect.Parameter) and return every key's value, defaults filled in.
    ``owner`` keys _RANGES; ``whose`` ends the unknown and missing key
    messages."""
    for k, v in values.items():
        key, at = "%s.%s" % (section, k), lines[(section, k)]
        if k not in params:
            raise ConfigError("unknown key '%s'%s" % (key, whose), line=at)
        if not isinstance(v, (int, float)):
            raise ConfigError("%s must be a number, got %r" % (key, v), line=at)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError("%s must be a finite number, got %r" % (key, v), line=at)
        if params[k].annotation is int and not (isinstance(v, int) and v >= 1):
            raise ConfigError("%s must be a positive integer, got %r" % (key, v),
                              line=at)
        rule = _RANGES.get((owner, k))
        if rule and not rule[1](v):
            raise ConfigError("%s must be %s, got %r" % (key, rule[0], v), line=at)
    for k, p in params.items():
        if p.default is p.empty and k not in values:
            raise ConfigError("missing required key '%s.%s'%s" % (section, k, whose))
    return {k: values.get(k, p.default) for k, p in params.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a flat dotted key-value config."""
    sections: dict[str, dict] = {"problem": {}, "solver": {}, "baseline": {}, "run": {}}
    lines: dict[tuple, int] = {}
    seeds = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value', got %r" % stripped, line=ln)
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key == "seeds":
            try:
                seeds = [int(s) for s in val.split(",") if s.strip()]
            except ValueError:
                raise ConfigError("seeds must be comma-separated integers", line=ln)
            if not seeds:
                raise ConfigError("seeds list is empty", line=ln)
            if len(set(seeds)) < len(seeds):
                raise ConfigError("seeds must be distinct, got %r" % val, line=ln)
            continue
        if "." not in key:
            raise ConfigError("unknown key %r" % key, line=ln)
        section, _, sub = key.partition(".")
        if section not in sections or not sub:
            raise ConfigError("unknown key %r" % key, line=ln)
        if sub in sections[section]:
            raise ConfigError("duplicate key %r" % key, line=ln)
        sections[section][sub] = _coerce(val)
        lines[(section, sub)] = ln

    if seeds is None:
        raise ConfigError("missing required key 'seeds'")

    prob = sections["problem"]
    pname = prob.pop("name", None)
    if pname is None:
        raise ConfigError("missing required key 'problem.name'")
    if pname not in GENERATORS:
        raise ConfigError("unknown problem %r (see --list-problems)" % pname,
                          line=lines[("problem", "name")])
    prob = _check_section("problem", prob, _generator_params(pname), pname,
                          " for problem %r" % pname, lines)
    if pname == "robust_pca" and prob["r"] > min(prob["mrows"], prob["ncols"]):
        raise ConfigError("problem.r must be <= min(problem.mrows, problem.ncols), "
                          "got %r" % prob["r"], line=lines[("problem", "r")])

    arms = []
    for arm in ("solver", "baseline"):
        spec = sections[arm]
        if not spec and arm == "baseline":
            continue
        sname = spec.pop("name", None)
        if sname is None:
            raise ConfigError("missing required key '%s.name'" % arm)
        if sname not in _SOLVERS:
            raise ConfigError("unknown solver %r (see --list-solvers)" % sname,
                              line=lines[(arm, "name")])
        arms.append((arm, sname, _check_section(
            arm, spec, _SOLVERS[sname][1], sname, " for solver %r" % sname, lines)))

    run = _check_section("run", sections["run"], _RUN_PARAMS, "run", "", lines)
    return ExperimentConfig(
        problem={"name": pname, **prob}, arms=arms, seeds=seeds,
        target_gap=run["target_gap"], source_text=text,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# Summary aggregation
# ---------------------------------------------------------------------------

def _padded_columns(reports, attr):
    """Stack one history per report, padding shorter runs with their
    final value; returns an (n_reports, n_iters) array."""
    hists = [list(getattr(r, attr)) for r in reports]
    n = max(len(h) for h in hists)
    return np.array([h + [h[-1]] * (n - len(h)) for h in hists], dtype=float)


def _quartiles(cols):
    """Median, p25 and p75 down each column, as a (3, n_iters) array.
    np.percentile interpolates as lo + (hi - lo) t, which is nan when a
    neighbour is infinite; such a quartile is the value of that formula
    in the extended reals: lo when lo == hi, else lo + hi (the infinite
    neighbour, or nan between -inf and +inf)."""
    with np.errstate(invalid="ignore"):
        q = np.percentile(cols, [50, 25, 75], axis=0)
        if np.isnan(q).any():
            lo, hi = (np.percentile(cols, [50, 25, 75], axis=0, method=m)
                      for m in ("lower", "higher"))
            q = np.where(np.isnan(q), np.where(lo == hi, lo, lo + hi), q)
    return q


def emit_summary(reports) -> str:
    """Per-iteration median and quartiles of objective and stationarity
    across a list of SolverReports, as CSV text."""
    if not reports:
        raise EmptyInput("emit_summary needs at least one report")
    obj = _padded_columns(reports, "objective_history")
    stat = _padded_columns(reports, "stationarity_history")
    longest = max(reports, key=lambda r: len(r.iteration_index))
    iters = list(longest.iteration_index)

    q = np.concatenate([_quartiles(obj), _quartiles(stat)]).T
    lines = [_SUMMARY_COLUMNS]
    row = "%d" + ",%.17g" * q.shape[1]
    lines += [row % (i, *qk) for i, qk in zip(iters, q)]
    return "\n".join(lines) + "\n"


def _evals_to_target(report, optimum_value, target_gap):
    """First cumulative eval count at which the run is within target_gap
    of the optimum (by objective when f* is known, else by stationarity)."""
    for obj, stat, ev in zip(report.objective_history,
                             report.stationarity_history,
                             report.evals_history):
        if optimum_value is not None:
            if obj - optimum_value <= target_gap:
                return ev
        elif stat <= target_gap:
            return ev
    return None


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _build_instance(config: ExperimentConfig, seed: int):
    kwargs = {k: v for k, v in config.problem.items() if k != "name"}
    return GENERATORS[config.problem["name"]](seed=seed, **kwargs)


def _run_one(config: ExperimentConfig, solver_name: str, params: dict, seed: int):
    """One task: (report, the instance's optimum value, wall_ns)."""
    instance = _build_instance(config, seed)
    t0 = time.perf_counter_ns()
    report = _SOLVERS[solver_name][0](instance, params, seed)
    elapsed = time.perf_counter_ns() - t0
    wall_ns = elapsed if os.environ.get("PROXKIT_TIMING") == "1" else 0
    return report, instance.optimum_value, wall_ns


def _run_csv_text(config: ExperimentConfig, report, seed: int, wall_ns: int) -> str:
    lines = [
        "# proxkit=%s,config_sha256=%s,seed=%d" % (_VERSION, config.sha256, seed),
        _CSV_COLUMNS,
    ]
    row = "%d,%.17g,%.17g,%d," + str(wall_ns)
    lines += [row % r for r in zip(report.iteration_index, report.objective_history,
                                    report.stationarity_history, report.evals_history)]
    return "\n".join(lines) + "\n"


def _failure(fname, sname, seed, exc) -> dict:
    """MANIFEST record of a task that raised.  A ProxkitError's message
    says what failed; any other exception is named by its type, on one
    line, and keeps its traceback for the caller to show."""
    fail = {"file": fname, "solver": sname, "seed": seed, "error": str(exc)}
    if not isinstance(exc, ProxkitError):
        fail["error"] = "%s: %s" % (type(exc).__name__, " ".join(str(exc).split()))
        fail["traceback"] = "".join(traceback.format_exception(exc))
    return fail


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Run every (arm, seed) combination, one at a time, and write the
    CSV bundle.

    Returns a manifest dict with the written files and any failures;
    partial outputs are retained when some runs fail.  A per-seed CSV that
    an earlier run left in ``out_dir`` and this run does not write, for a
    failed task or for an arm or seed this config does not run, is
    removed, so the directory holds what the MANIFEST lists.
    """
    os.makedirs(out_dir, exist_ok=True)

    # one CSV per task and one quartile block per arm; for two arms, a
    # ratio row of the median evals to reach target_gap
    files: list[str] = []
    failures: list[dict] = []
    summary_lines = ["# proxkit=%s,config_sha256=%s" % (_VERSION, config.sha256),
                     "arm," + _SUMMARY_COLUMNS]
    to_target = {}
    for arm, sname, params in config.arms:
        reports, to_target[arm] = [], []
        for seed in config.seeds:
            fname = "%s_seed%d.csv" % (arm, seed)
            path = os.path.join(out_dir, fname)
            try:
                report, optimum_value, wall_ns = _run_one(config, sname, params, seed)
            except Exception as exc:  # a crashing task is recorded, not fatal
                failures.append(_failure(fname, sname, seed, exc))
                continue
            with open(path, "w", newline="\n") as fh:
                fh.write(_run_csv_text(config, report, seed, wall_ns))
            files.append(fname)
            reports.append(report)
            if config.target_gap is not None:
                ev = _evals_to_target(report, optimum_value, config.target_gap)
                if ev is not None:
                    to_target[arm].append(ev)
        if reports:
            body = emit_summary(reports).splitlines()[1:]  # drop inner header
            summary_lines.extend("%s,%s" % (arm, row) for row in body)

    # a median over the seeds that got there would hide the ones that did
    # not, so the ratio needs every seed of both arms at the target
    notes = []
    if len(config.arms) == 2 and config.target_gap is not None:
        if all(len(evs) == len(config.seeds) for evs in to_target.values()):
            solver, baseline = (np.median(to_target[a]) for a in ("solver", "baseline"))
            summary_lines.append("ratio,baseline_over_solver,%.17g,%.17g,%.17g,,,"
                                 % (baseline / solver, solver, baseline))
        else:
            notes.append("no ratio: target_gap reached by %s" % ", ".join(
                "%s %d/%d seeds" % (arm, len(evs), len(config.seeds))
                for arm, evs in to_target.items()))

    for stale in set(os.listdir(out_dir)).difference(files):
        if _SEED_CSV.match(stale):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, stale))

    with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    files.append("summary.csv")

    manifest_lines = ["proxkit %s" % _VERSION, "config_sha256 %s" % config.sha256]
    for f in files:
        manifest_lines.append("ok %s" % f)
    for fail in failures:
        manifest_lines.append("failed %s: %s" % (fail["file"], fail["error"]))
    manifest_lines += notes
    with open(os.path.join(out_dir, "MANIFEST"), "w", newline="\n") as fh:
        fh.write("\n".join(manifest_lines) + "\n")

    return {"files": files, "failures": failures, "out_dir": out_dir}
