"""Benchmark harness: experiment configs, seeded runs, CSV output.

Configs are flat key-value text files with dotted section names::

    problem.name = lasso
    problem.d = 50
    problem.m = 100
    problem.lam = 0.1
    solver.name = proxlinear
    solver.outer_iters = 100
    seeds = 0, 1, 2

An optional ``baseline.*`` section adds a second arm; two-arm runs get a
``ratio`` row in the summary comparing gradient evaluations to reach
``run.target_gap``.  Unknown keys are rejected with a line-anchored error.

Every run is fully determined by the config content (plus the
PROXKIT_SEED_OFFSET environment variable): identical configs produce
byte-identical CSV bundles.  The ``wall_ns`` column is 0 unless
PROXKIT_TIMING=1, in which case every row of a run carries the run's
total wall time; timing is never used in any decision.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import inspect
import os
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


def _fmt(x) -> str:
    """17 significant digits, '.' decimal point."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Solver registry.  Each entry lists the accepted config keys (with
# defaults) and a runner (instance, params, seed) -> SolverReport.
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
    return proxlinear_run(
        instance.problem, _init_point(instance, seed),
        beta=p["beta"], outer_iters=p["outer_iters"],
        stat_tol=p["stat_tol"], inner_tol=p["inner_tol"],
    )


def _run_proximal_point(instance, p, seed):
    _need(instance, "proximal_point", CompositeProblem, SmoothPlusProx)
    prob = instance.problem
    # 1/(2 L beta): below 1/rho for a composite, whose rho is L beta, and
    # a well-conditioned FISTA subproblem for a convex SmoothPlusProx
    nu = p["nu"]
    if nu is None:
        nu = 1.0 / (2.0 * max(prob.L * prob.beta, 1e-12))
    return proximal_point_run(
        prob, nu, _init_point(instance, seed),
        max_iters=p["max_iters"], step_tol=p["step_tol"],
        inner_tol=p["inner_tol"],
    )


def _run_pgsg(instance, p, seed):
    if instance.stochastic is None:
        raise ProxkitError("solver 'pgsg' needs a stochastic instance")
    sp = instance.stochastic
    return pgsg_run(
        sp, _init_point(instance, seed), outer_iters=p["outer_iters"],
        schedule=default_schedule(sp.rho), rng=RandomStream(seed, stream_id=200),
        stat_every=p["stat_every"], envelope_inner_tol=p["envelope_inner_tol"],
    )


def _make_finite_sum_runner(inner_name, accelerated):
    def run(instance, p, seed):
        _need(instance, inner_name, FiniteSumProblem)
        prob = instance.problem
        inner = inner_method(inner_name)
        if accelerated:
            kappa = p["kappa"] if p["kappa"] is not None else choose_kappa(prob, inner_name)
        else:
            kappa = 0.0
        return catalyst_run(
            prob, inner, kappa, _init_point(instance, seed),
            outer_iters=p["outer_iters"], eps=p["eps"],
            rng=RandomStream(seed, stream_id=17), inner_budget=p["inner_budget"],
        )
    return run


@dataclass
class _Solver:
    defaults: dict
    run: callable


_SOLVERS = {
    "proxlinear": _Solver({
        "outer_iters": 200, "stat_tol": 1e-9, "inner_tol": None, "beta": None,
    }, _run_proxlinear),
    "proximal_point": _Solver({
        "nu": None, "max_iters": 100, "step_tol": 0.0, "inner_tol": 1e-10,
    }, _run_proximal_point),
    "pgsg": _Solver({
        "outer_iters": 200, "stat_every": 1, "envelope_inner_tol": 1e-8,
    }, _run_pgsg),
}
for _n in ("gd", "prox_gd", "svrg"):
    _defaults = {"outer_iters": 1000, "eps": 1e-10, "inner_budget": 10_000_000,
                 "kappa": None}
    _SOLVERS[_n] = _Solver(dict(_defaults), _make_finite_sum_runner(_n, False))
    _SOLVERS["catalyst-%s" % _n] = _Solver(
        dict(_defaults), _make_finite_sum_runner(_n, True))


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
    record_every: int = 1
    source_text: str = ""

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


def _coerce(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


# Value ranges the generators require, checked at parse time so that a bad
# value exits 2 with its key named instead of failing inside every run.
# Every integer parameter of a generator is a size and must be positive.
_PROBLEM_RANGES = {
    ("ridge", "cond"): ("> 1", lambda v: v > 1.0),
    ("phase_retrieval", "outlier_frac"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("z2_sync", "edge_prob"): ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    ("z2_sync", "flip_prob"): ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("robust_pca", "sparsity"): ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("lasso", "lam"): (">= 0", lambda v: v >= 0.0),
    ("erm_logistic", "mu"): ("> 0", lambda v: v > 0.0),
}


def _generator_params(name: str) -> dict:
    """The generator's parameters other than ``seed``, by name."""
    sig = inspect.signature(GENERATORS[name], eval_str=True)
    return {k: p for k, p in sig.parameters.items() if k != "seed"}


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

    # problem section
    prob = sections["problem"]
    if "name" not in prob:
        raise ConfigError("missing required key 'problem.name'")
    pname = prob["name"]
    if pname not in GENERATORS:
        raise ConfigError("unknown problem %r (see --list-problems)" % pname,
                          line=lines[("problem", "name")])
    params = _generator_params(pname)
    for k, v in prob.items():
        if k == "name":
            continue
        if k not in params:
            raise ConfigError("unknown key 'problem.%s' for problem %r" % (k, pname),
                              line=lines[("problem", k)])
        if not isinstance(v, (int, float)):
            raise ConfigError("problem.%s must be a number, got %r" % (k, v),
                              line=lines[("problem", k)])
        if params[k].annotation is int and not (isinstance(v, int) and v >= 1):
            raise ConfigError("problem.%s must be a positive integer, got %r" % (k, v),
                              line=lines[("problem", k)])
        rule = _PROBLEM_RANGES.get((pname, k))
        if rule and not rule[1](v):
            raise ConfigError("problem.%s must be %s, got %r" % (k, rule[0], v),
                              line=lines[("problem", k)])
    for k, p in params.items():
        if p.default is p.empty and k not in prob:
            raise ConfigError("missing required key 'problem.%s' for problem %r"
                              % (k, pname))
    if pname == "robust_pca" and prob["r"] > min(prob["mrows"], prob["ncols"]):
        raise ConfigError("problem.r must be <= min(problem.mrows, problem.ncols), "
                          "got %r" % prob["r"], line=lines[("problem", "r")])

    # solver arms
    arms = []
    for arm in ("solver", "baseline"):
        spec = sections[arm]
        if not spec:
            if arm == "solver":
                raise ConfigError("missing required key 'solver.name'")
            continue
        if "name" not in spec:
            raise ConfigError("missing required key '%s.name'" % arm)
        sname = spec["name"]
        if sname not in _SOLVERS:
            raise ConfigError("unknown solver %r (see --list-solvers)" % sname,
                              line=lines[(arm, "name")])
        params = dict(_SOLVERS[sname].defaults)
        for k, v in spec.items():
            if k == "name":
                continue
            if k not in params:
                raise ConfigError("unknown key '%s.%s' for solver %r" % (arm, k, sname),
                                  line=lines[(arm, k)])
            params[k] = v
        arms.append((arm, sname, params))

    # run section
    run = dict(sections["run"])
    target_gap = run.pop("target_gap", None)
    record_every = run.pop("record_every", 1)
    if run:
        k = next(iter(run))
        raise ConfigError("unknown key 'run.%s'" % k, line=lines[("run", k)])
    if not (isinstance(record_every, int) and record_every >= 1):
        raise ConfigError("run.record_every must be a positive integer",
                          line=lines.get(("run", "record_every")))
    if target_gap is not None and not (
        isinstance(target_gap, (int, float)) and target_gap > 0
    ):
        raise ConfigError("run.target_gap must be a positive real",
                          line=lines.get(("run", "target_gap")))

    return ExperimentConfig(
        problem=prob, arms=arms, seeds=seeds,
        target_gap=target_gap, record_every=int(record_every), source_text=text,
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


def emit_summary(reports) -> str:
    """Per-iteration median and quartiles of objective and stationarity
    across a list of SolverReports, as CSV text."""
    if not reports:
        raise EmptyInput("emit_summary needs at least one report")
    obj = _padded_columns(reports, "objective_history")
    stat = _padded_columns(reports, "stationarity_history")
    longest = max(reports, key=lambda r: len(r.iteration_index))
    iters = list(longest.iteration_index)

    q = np.concatenate([np.percentile(obj, [50, 25, 75], axis=0),
                        np.percentile(stat, [50, 25, 75], axis=0)]).T
    lines = [_SUMMARY_COLUMNS]
    for k in range(obj.shape[1]):
        lines.append(",".join([str(iters[k])] + [_fmt(v) for v in q[k]]))
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


def _run_one(config: ExperimentConfig, arm: str, solver_name: str,
             params: dict, seed: int):
    import time

    instance = _build_instance(config, seed)
    t0 = time.perf_counter_ns()
    report = _SOLVERS[solver_name].run(instance, params, seed)
    elapsed = time.perf_counter_ns() - t0
    wall_ns = elapsed if os.environ.get("PROXKIT_TIMING") == "1" else 0
    return instance, report, wall_ns


def _run_csv_text(config: ExperimentConfig, report, seed: int, wall_ns: int) -> str:
    lines = [
        "# proxkit=%s,config_sha256=%s,seed=%d" % (_VERSION, config.sha256, seed),
        _CSV_COLUMNS,
    ]
    n = len(report.iteration_index)
    stride = config.record_every
    for k in range(n):
        if k % stride and k != n - 1:
            continue
        lines.append(",".join([
            str(report.iteration_index[k]),
            _fmt(report.objective_history[k]),
            _fmt(report.stationarity_history[k]),
            str(report.evals_history[k]),
            str(wall_ns),
        ]))
    return "\n".join(lines) + "\n"


def _failure(fname, arm, sname, seed, exc) -> dict:
    """MANIFEST record of a task that raised.  A ProxkitError's message
    says what failed; any other exception is named by its type, on one
    line, and keeps its traceback for the caller to show."""
    fail = {"file": fname, "arm": arm, "solver": sname, "seed": seed,
            "error": str(exc)}
    if not isinstance(exc, ProxkitError):
        fail["error"] = "%s: %s" % (type(exc).__name__, " ".join(str(exc).split()))
        fail["traceback"] = "".join(traceback.format_exception(exc))
    return fail


def run_experiment(config: ExperimentConfig, out_dir: str, jobs: int = 1) -> dict:
    """Run every (arm, seed) combination and write the CSV bundle.

    Returns a manifest dict with the written files and any failures;
    partial outputs are retained when some runs fail.
    """
    raw_offset = os.environ.get("PROXKIT_SEED_OFFSET", "0")
    try:
        offset = int(raw_offset)
    except ValueError:
        raise ConfigError("PROXKIT_SEED_OFFSET must be an integer, got %r"
                          % raw_offset) from None
    os.makedirs(out_dir, exist_ok=True)
    seeds = [s + offset for s in config.seeds]

    tasks = [(arm, sname, params, seed)
             for arm, sname, params in config.arms for seed in seeds]
    results: dict[tuple, tuple] = {}
    failures: list[dict] = []

    def attempt(task):
        arm, sname, params, seed = task
        try:
            return _run_one(config, arm, sname, params, seed)
        except Exception as exc:  # a crashing task is recorded, not fatal
            return exc

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(zip(tasks, pool.map(attempt, tasks)))
    else:
        outcomes = [(t, attempt(t)) for t in tasks]

    files = []
    for task, result in outcomes:
        arm, sname, params, seed = task
        fname = "%s_seed%d.csv" % (arm, seed)
        if isinstance(result, Exception):
            failures.append(_failure(fname, arm, sname, seed, result))
            continue
        instance, report, wall_ns = result
        results[(arm, seed)] = (instance, report)
        path = os.path.join(out_dir, fname)
        with open(path, "w", newline="\n") as fh:
            fh.write(_run_csv_text(config, report, seed, wall_ns))
        files.append(fname)

    # summary: one quartile block per arm, plus a ratio row for two arms
    summary_lines = ["# proxkit=%s,config_sha256=%s" % (_VERSION, config.sha256),
                     "arm," + _SUMMARY_COLUMNS]
    arm_reports = {}
    for arm, sname, params in config.arms:
        reports = [results[(arm, s)][1] for s in seeds if (arm, s) in results]
        if not reports:
            continue
        arm_reports[arm] = reports
        body = emit_summary(reports).splitlines()[1:]  # drop inner header
        summary_lines.extend("%s,%s" % (arm, row) for row in body)

    if len(config.arms) == 2 and config.target_gap is not None and len(arm_reports) == 2:
        meds = {}
        for arm, _, _ in config.arms:
            f_star = None
            counts = []
            for s in seeds:
                if (arm, s) not in results:
                    continue
                instance, report = results[(arm, s)]
                f_star = instance.optimum_value
                ev = _evals_to_target(report, f_star, config.target_gap)
                if ev is not None:
                    counts.append(ev)
            meds[arm] = float(np.median(counts)) if counts else None
        if meds.get("solver") and meds.get("baseline"):
            ratio = meds["baseline"] / meds["solver"]
            summary_lines.append(",".join([
                "ratio", "baseline_over_solver", _fmt(ratio),
                _fmt(meds["solver"]), _fmt(meds["baseline"]), "", "", "",
            ]))

    with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    files.append("summary.csv")

    manifest_lines = ["proxkit %s" % _VERSION, "config_sha256 %s" % config.sha256]
    for f in files:
        manifest_lines.append("ok %s" % f)
    for fail in failures:
        manifest_lines.append("failed %s: %s" % (fail["file"], fail["error"]))
    with open(os.path.join(out_dir, "MANIFEST"), "w", newline="\n") as fh:
        fh.write("\n".join(manifest_lines) + "\n")

    return {"files": files, "failures": failures, "out_dir": out_dir}
