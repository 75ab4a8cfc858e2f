"""Benchmark harness: config parsing, summary aggregation, CLI contract."""

import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from proxkit import (
    ConfigError,
    EmptyInput,
    SolverReport,
    emit_summary,
    list_problems,
    list_solvers,
    parse_config_text,
    run_experiment,
)
import proxkit.bench
from proxkit.cli import main as cli_main

LASSO_CFG = """\
problem.name = lasso
problem.d = 10
problem.m = 20
problem.lam = 0.1
solver.name = proxlinear
solver.outer_iters = 30
seeds = 0, 1
"""

PGSG_CFG = """\
problem.name = phase_retrieval
problem.d = 5
problem.m = 30
problem.outlier_frac = 0.1
solver.name = pgsg
solver.outer_iters = 4
solver.stat_every = 2
seeds = 0, 1
"""


class TestConfigParsing:
    def test_valid_config(self):
        cfg = parse_config_text(LASSO_CFG)
        assert cfg.problem["name"] == "lasso"
        assert cfg.seeds == [0, 1]
        assert cfg.arms[0][1] == "proxlinear"
        assert cfg.arms[0][2]["outer_iters"] == 30

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\n" + LASSO_CFG)
        assert cfg.problem["d"] == 10

    def test_unknown_problem_key_rejected_with_line(self):
        bad = LASSO_CFG + "problem.bogus = 3\n"
        with pytest.raises(ConfigError) as ei:
            parse_config_text(bad)
        assert "problem.bogus" in str(ei.value)
        assert "line 8" in str(ei.value)

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ConfigError, match="solver.step_size"):
            parse_config_text(LASSO_CFG + "solver.step_size = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("plotting.enabled = 1\n" + LASSO_CFG)

    def test_unknown_solver_name(self):
        with pytest.raises(ConfigError, match="adam"):
            parse_config_text(LASSO_CFG.replace("proxlinear", "adam"))

    @pytest.mark.parametrize("problem,key,value", [
        ("ridge", "cond", "1"),
        ("ridge", "cond", "high"),
        ("phase_retrieval", "outlier_frac", "1.0"),
        ("z2_sync", "edge_prob", "0"),
        ("z2_sync", "flip_prob", "-0.1"),
        ("robust_pca", "sparsity", "2"),
        ("robust_pca", "sparsity", "-0.5"),
        ("lasso", "lam", "-0.1"),
        ("erm_logistic", "mu", "0"),
        ("erm_logistic", "mu", "nan"),
    ])
    def test_out_of_range_problem_value_rejected(self, problem, key, value):
        text = ("problem.name = %s\nproblem.%s = %s\nsolver.name = proxlinear\n"
                "seeds = 0\n" % (problem, key, value))
        with pytest.raises(ConfigError, match="line 2: problem.%s must be" % key):
            parse_config_text(text)

    @pytest.mark.parametrize("text,message", [
        ("problem.name = lasso\nproblem.m = 20\n",
         "missing required key 'problem.d'"),
        ("problem.name = lasso\nproblem.d = 2.5\nproblem.m = 20\n",
         "line 2: problem.d must be a positive integer, got 2.5"),
        ("problem.name = lasso\nproblem.d = -3\nproblem.m = 20\n",
         "line 2: problem.d must be a positive integer, got -3"),
        ("problem.name = robust_pca\nproblem.mrows = 4\nproblem.ncols = 4\n"
         "problem.r = 9\n",
         r"line 4: problem.r must be <= min\(problem.mrows, problem.ncols\), got 9"),
    ])
    def test_generator_arguments_checked(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text + "solver.name = proxlinear\nseeds = 0\n")

    @pytest.mark.parametrize("solver,key,value,message", [
        ("proxlinear", "outer_iters", "abc", "must be a number, got 'abc'"),
        ("proxlinear", "outer_iters", "0", "must be a positive integer, got 0"),
        ("pgsg", "stat_every", "0", "must be a positive integer, got 0"),
        ("proximal_point", "max_iters", "1e3", "must be a positive integer, got 1000.0"),
        ("svrg", "inner_budget", "1e7", "must be a positive integer, got 10000000.0"),
        ("proxlinear", "beta", "0", "must be > 0, got 0"),
        ("proxlinear", "beta", "-2", "must be > 0, got -2"),
        ("proximal_point", "nu", "0", "must be > 0, got 0"),
        ("proximal_point", "inner_tol", "0", "must be > 0, got 0"),
        ("catalyst-gd", "kappa", "-1", "must be >= 0, got -1"),
        ("proxlinear", "beta", "inf", "must be a finite number, got inf"),
        ("catalyst-gd", "kappa", "inf", "must be a finite number, got inf"),
        ("proxlinear", "stat_tol", "-1", "must be >= 0, got -1"),
        ("proxlinear", "stat_tol", "nan", "must be a finite number, got nan"),
        ("proxlinear", "inner_tol", "-1", "must be > 0, got -1"),
        ("proxlinear", "inner_tol", "0", "must be > 0, got 0"),
        ("proximal_point", "step_tol", "-1e-8", "must be >= 0, got -1e-08"),
        ("proximal_point", "inner_tol", "inf", "must be a finite number, got inf"),
        ("gd", "eps", "0", "must be > 0, got 0"),
        ("catalyst-svrg", "eps", "-1e-7", "must be > 0, got -1e-07"),
    ])
    def test_out_of_range_solver_value_rejected(self, solver, key, value, message):
        text = ("problem.name = lasso\nproblem.d = 5\nproblem.m = 10\n"
                "solver.name = %s\nsolver.%s = %s\nseeds = 0\n" % (solver, key, value))
        with pytest.raises(ConfigError, match="line 5: solver.%s %s" % (key, message)):
            parse_config_text(text)

    # a plain arm runs its inner method once, with kappa = 0: neither the
    # outer loop's kappa nor its outer_iters selects anything there
    @pytest.mark.parametrize("solver,key", [
        ("gd", "kappa"), ("svrg", "kappa"),
        ("gd", "outer_iters"), ("svrg", "outer_iters"),
    ], ids=["gd", "svrg", "gd-outer_iters", "svrg-outer_iters"])
    def test_kappa_on_plain_arm_rejected(self, solver, key):
        text = ("problem.name = ridge\nproblem.d = 4\nproblem.m = 10\n"
                "solver.name = %s\nsolver.%s = 5\nseeds = 0\n" % (solver, key))
        with pytest.raises(ConfigError, match="line 5: unknown key 'solver.%s' "
                                              "for solver '%s'" % (key, solver)):
            parse_config_text(text)

    @pytest.mark.parametrize("text,message", [
        ("run.name = x\n", "line 8: unknown key 'run.name'"),
        ("run.record_every = 5\n", "line 8: unknown key 'run.record_every'"),
        ("run.target_gap = -1\n", "line 8: run.target_gap must be > 0, got -1"),
        ("baseline.outer_iters = 3\n", "missing required key 'baseline.name'"),
    ])
    def test_run_and_baseline_sections_checked(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(LASSO_CFG + text)

    # Every solver's keys and defaults, written out: a change to a library
    # function's signature must not add or change a config key silently.
    _FINITE_SUM = {"eps": 1e-10, "inner_budget": 10_000_000}
    SOLVER_KEYS = {
        "proxlinear": {"outer_iters": 200, "stat_tol": 1e-9, "inner_tol": None,
                       "beta": None},
        "proximal_point": {"nu": None, "max_iters": 100, "step_tol": 0.0,
                           "inner_tol": 1e-10},
        "pgsg": {"outer_iters": 200, "stat_every": 1},
        "gd": _FINITE_SUM,
        "svrg": _FINITE_SUM,
        "catalyst-gd": {"outer_iters": 1000, **_FINITE_SUM, "kappa": None},
        "catalyst-svrg": {"outer_iters": 1000, **_FINITE_SUM, "kappa": None},
    }

    def test_solver_keys_and_defaults_pinned(self):
        assert sorted(self.SOLVER_KEYS) == list_solvers()
        for solver, keys in self.SOLVER_KEYS.items():
            cfg = parse_config_text("problem.name = lasso\nproblem.d = 5\n"
                                    "problem.m = 10\nsolver.name = %s\n"
                                    "seeds = 0\n" % solver)
            assert cfg.arms == [("solver", solver, keys)], solver

    def test_missing_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text(LASSO_CFG.replace("seeds = 0, 1\n", ""))

    def test_duplicate_seeds(self):
        # a repeated seed would run twice and count twice in the summary
        with pytest.raises(ConfigError, match="line 7: seeds must be distinct"):
            parse_config_text(LASSO_CFG.replace("seeds = 0, 1", "seeds = 0, 0"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(LASSO_CFG + "problem.d = 11\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")


def constant_report(value, n=5):
    rep = SolverReport()
    for t in range(n):
        rep.record(t, value, value / 10.0, t)
    return rep


def fail_task(monkeypatch, solver, seed):
    """Make the harness's (solver name, seed) task raise
    RuntimeError('boom'); the arms of a config name distinct solvers."""
    run_one = proxkit.bench._run_one

    def run(config, sname, params, task_seed):
        if (sname, task_seed) == (solver, seed):
            raise RuntimeError("boom")
        return run_one(config, sname, params, task_seed)

    monkeypatch.setattr(proxkit.bench, "_run_one", run)


def test_record_rejects_falling_evals():
    rep = constant_report(1.0)
    with pytest.raises(AssertionError, match="monotone"):
        rep.record(5, 1.0, 0.1, 3)


def test_thousand_rows_stay_under_40kb():
    # typed rows, 8 bytes a value; list rows held a float or int object
    # per value as well, about 136 bytes a row.  Measured as allocated
    # bytes: sys.getsizeof of a list leaves out the objects it holds
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = SolverReport()
        for t in range(1000):
            rep.record(t, 1.0 + t / 7.0, 2.0 + t / 3.0, 1000 * t)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 40_000


def test_typed_rows_give_the_bytes_of_list_rows():
    rep = SolverReport()
    for t in range(30):
        rep.record(t, 10.0 / (t + 1), 0.5**t, 3 * t + 2)
    rows = SimpleNamespace(**{k: list(getattr(rep, k)) for k in (
        "iteration_index", "objective_history", "stationarity_history",
        "evals_history")})
    cfg = parse_config_text(LASSO_CFG)
    assert (proxkit.bench._run_csv_text(cfg, rep, 0, 0)
            == proxkit.bench._run_csv_text(cfg, rows, 0, 0))
    assert emit_summary([rep, rep]) == emit_summary([rows, rows])
    assert (proxkit.estimate_local_rate(rep.stationarity_history)
            == proxkit.estimate_local_rate(rows.stationarity_history))


def test_csv_rows_are_the_fmt_form():
    # one % per row gives the bytes of format(v, ".17g") on each value,
    # infinities, NaN, -0.0, subnormals, integral floats and 17-digit ones
    # included
    values = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e300, 3.0, -2.5,
              0.1, 1 / 3, 123456789012345678.0, 1e-7]
    rep = SolverReport()
    for t, v in enumerate(values):
        rep.record(t, v, values[-1 - t], 7 * t)
    cfg = parse_config_text(LASSO_CFG)
    for wall_ns in (0, 123456789):
        rows = proxkit.bench._run_csv_text(cfg, rep, 0, wall_ns).splitlines()[2:]
        assert rows == [",".join([str(t), format(v, ".17g"),
                                  format(values[-1 - t], ".17g"), str(7 * t),
                                  str(wall_ns)]) for t, v in enumerate(values)]


class TestEmitSummary:
    def test_single_report_medians_equal_values(self):
        rep = constant_report(2.0)
        lines = emit_summary([rep]).splitlines()
        assert lines[0].startswith("iter,objective_median")
        row = lines[1].split(",")
        assert float(row[1]) == 2.0 and float(row[4]) == 0.2

    def test_three_constant_reports_median_two(self):
        reps = [constant_report(v) for v in (1.0, 2.0, 3.0)]
        for line in emit_summary(reps).splitlines()[1:]:
            assert float(line.split(",")[1]) == 2.0

    def test_shorter_runs_padded_with_final_value(self):
        a, b = constant_report(1.0, n=3), constant_report(3.0, n=6)
        lines = emit_summary([a, b]).splitlines()
        assert len(lines) == 7
        assert float(lines[-1].split(",")[1]) == 2.0  # median of padded 1 and 3

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            emit_summary([])

    @pytest.mark.parametrize("values,quartiles", [
        ((1.0, 2.0, np.inf), (2.0, 1.5, np.inf)),
        ((np.inf, np.inf, np.inf, np.inf), (np.inf,) * 3),
        ((1.0, np.inf, np.inf), (np.inf,) * 3),
        ((0.0, 1.0, 2.0, np.inf, np.inf), (2.0, 1.0, np.inf)),
        ((-np.inf, 1.0, 2.0), (1.0, -np.inf, 1.5)),
        ((-np.inf, np.inf), (np.nan,) * 3),
        ((1.0, np.nan, np.inf), (np.nan,) * 3),
    ])
    def test_quartiles_toward_an_infinity_are_that_infinity(self, values,
                                                           quartiles):
        # np.percentile gives nan for 2 + (inf - 2) * 0 and for
        # inf - (inf - 2) * 0.5; the quartile is the value in the extended
        # reals, and only -inf..+inf and a nan input stay nan
        reps = [constant_report(v, n=1) for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = emit_summary(reps).splitlines()[1].split(",")
        got = [float(v) for v in row[1:4]]
        np.testing.assert_array_equal(got, quartiles)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_column_percentiles(self, seed):
        # one np.percentile call per history gives the bytes of one call
        # per column, NaN and tied columns included
        rng = np.random.default_rng(seed)
        n_rep = int(rng.integers(1, 8))
        reps = []
        for _ in range(n_rep):
            n = int(rng.integers(1, 30))
            obj = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8)
            stat = np.round(rng.uniform(size=n), 1)  # many ties
            obj[rng.uniform(size=n) < 0.1] = np.nan
            stat[rng.uniform(size=n) < 0.1] = np.nan
            rep = SolverReport()
            for t in range(n):
                rep.record(t, obj[t], stat[t], t)
            reps.append(rep)
        obj = proxkit.bench._padded_columns(reps, "objective_history")
        stat = proxkit.bench._padded_columns(reps, "stationarity_history")
        iters = max(reps, key=lambda r: len(r.iteration_index)).iteration_index
        ref = [proxkit.bench._SUMMARY_COLUMNS]
        for k in range(obj.shape[1]):
            qo = np.percentile(obj[:, k], [50, 25, 75])
            qs = np.percentile(stat[:, k], [50, 25, 75])
            ref.append(",".join([str(iters[k])] + [format(float(v), ".17g")
                                                   for v in np.concatenate([qo, qs])]))
        assert emit_summary(reps).encode() == ("\n".join(ref) + "\n").encode()


class TestRunExperiment:
    def test_bundle_layout_and_schema(self, tmp_path):
        cfg = parse_config_text(LASSO_CFG)
        out = str(tmp_path / "out")
        manifest = run_experiment(cfg, out)
        assert not manifest["failures"]
        names = sorted(os.listdir(out))
        assert names == ["MANIFEST", "solver_seed0.csv", "solver_seed1.csv",
                         "summary.csv"]
        lines = open(os.path.join(out, "solver_seed0.csv"), "rb").read()
        assert b"\r" not in lines  # LF endings only
        text = lines.decode().splitlines()
        assert text[0].startswith("# proxkit=")
        assert text[1] == "iter,objective,stationarity,grad_evals,wall_ns"
        row = text[2].split(",")
        assert len(row) == 5 and row[4] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config_text(LASSO_CFG)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            run_experiment(cfg, out)
            outs.append({
                f: open(os.path.join(out, f), "rb").read()
                for f in os.listdir(out)
            })
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_output(self, tmp_path):
        # --jobs is accepted for compatibility and changes nothing
        p = tmp_path / "lasso.cfg"
        p.write_text(LASSO_CFG)
        bundles = []
        for jobs in ("1", "4"):
            out = tmp_path / ("jobs" + jobs)
            assert cli_main(["run", str(p), "--out", str(out), "--jobs", jobs]) == 0
            bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert bundles[0] == bundles[1]
        assert len(bundles[0]) == 4

    def test_solver_failure_recorded_in_manifest(self, tmp_path):
        # pgsg needs a stochastic instance; lasso has none -> solver failure
        cfg = parse_config_text(LASSO_CFG.replace("proxlinear", "pgsg")
                                .replace("solver.outer_iters = 30\n", ""))
        out = str(tmp_path / "fail")
        manifest = run_experiment(cfg, out)
        assert len(manifest["failures"]) == 2
        content = open(os.path.join(out, "MANIFEST")).read()
        assert "failed solver_seed0.csv" in content

    def test_failed_task_removes_an_earlier_runs_csv(self, tmp_path, monkeypatch):
        cfg = parse_config_text(LASSO_CFG)
        out = tmp_path / "o"
        run_experiment(cfg, str(out))
        first = (out / "solver_seed0.csv").read_bytes()
        fail_task(monkeypatch, "proxlinear", 1)
        manifest = run_experiment(cfg, str(out))
        assert [f["file"] for f in manifest["failures"]] == ["solver_seed1.csv"]
        assert sorted(f.name for f in out.iterdir()) == [
            "MANIFEST", "solver_seed0.csv", "summary.csv"]
        assert (out / "solver_seed0.csv").read_bytes() == first
        assert ("failed solver_seed1.csv: RuntimeError: boom"
                in (out / "MANIFEST").read_text().splitlines())

    def test_fewer_seeds_remove_an_earlier_configs_csvs(self, tmp_path):
        # a two-arm config on seeds 0, 1, 2 and then a one-arm config on
        # seeds 0, 1, into one directory, leave the bundle a fresh
        # directory gets: no solver_seed2.csv or baseline_seed*.csv that
        # the MANIFEST does not list.  Files that are not per-seed CSVs
        # are kept
        first = LASSO_CFG.replace("seeds = 0, 1", "seeds = 0, 1, 2") + (
            "baseline.name = proxlinear\nbaseline.outer_iters = 10\n")
        second = LASSO_CFG
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_experiment(parse_config_text(first), str(reused))
        (reused / "notes.txt").write_text("kept")
        (reused / "solver_seed2.csv.bak").write_text("kept")
        run_experiment(parse_config_text(second), str(reused))
        run_experiment(parse_config_text(second), str(fresh))
        kept = {"notes.txt", "solver_seed2.csv.bak"}
        names = sorted(f.name for f in fresh.iterdir())
        assert sorted(f.name for f in reused.iterdir()) == sorted(kept.union(names))
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("solver", ["proxlinear", "proximal_point"])
    def test_proxlinear_on_finite_sum_recorded_in_manifest(self, tmp_path, solver):
        # ridge is a finite sum, neither kind of composite these solvers take
        cfg = parse_config_text("problem.name = ridge\nproblem.d = 4\n"
                                "problem.m = 10\nsolver.name = %s\n"
                                "seeds = 0\n" % solver)
        out = str(tmp_path / "ridge")
        manifest = run_experiment(cfg, out)
        assert len(manifest["failures"]) == 1
        content = open(os.path.join(out, "MANIFEST")).read()
        assert ("failed solver_seed0.csv: solver '%s' needs a "
                "CompositeProblem or SmoothPlusProx instance, got "
                "FiniteSumProblem\n" % solver) in content

    def test_inner_budget_bounds_catalyst_arms_at_kappa_zero(self, tmp_path):
        # a catalyst- arm whose kappa resolves to 0 runs the inner method
        # once, which spends inner_budget: set by the config, or chosen by
        # choose_kappa for svrg when m >= beta/mu (here m = 400, beta/mu
        # about 12.8)
        configs = {
            "svrg": "problem.name = erm_logistic\nproblem.d = 5\n"
                    "problem.m = 400\nproblem.mu = 0.4\n"
                    "solver.name = catalyst-svrg\nsolver.eps = 1e-9\n",
            "gd": "problem.name = ridge\nproblem.d = 8\nproblem.m = 30\n"
                  "problem.cond = 100\nsolver.name = catalyst-gd\n"
                  "solver.kappa = 0\n",
        }
        for inner, text in configs.items():
            for budget in ("", "solver.inner_budget = 1\n"):
                out = str(tmp_path / (inner + ("-budget" if budget else "")))
                manifest = run_experiment(
                    parse_config_text(text + budget + "seeds = 0\n"), out)
                content = open(os.path.join(out, "MANIFEST")).read()
                failed = ("failed solver_seed0.csv: %s inner budget exhausted\n"
                          % inner)
                if budget:
                    assert len(manifest["failures"]) == 1
                    assert failed in content
                else:
                    assert not manifest["failures"]
                    assert "ok solver_seed0.csv\n" in content

    def test_ratio_row_for_two_arms(self, tmp_path):
        cfg = parse_config_text("""\
problem.name = ridge
problem.d = 8
problem.m = 30
problem.cond = 100
solver.name = catalyst-gd
solver.eps = 1e-9
baseline.name = gd
baseline.eps = 1e-9
seeds = 0
run.target_gap = 1e-6
""")
        out = str(tmp_path / "two")
        run_experiment(cfg, out)
        rows = open(os.path.join(out, "summary.csv")).read().splitlines()
        ratio_rows = [r for r in rows if r.startswith("ratio,")]
        assert len(ratio_rows) == 1
        assert float(ratio_rows[0].split(",")[2]) > 0
        assert "no ratio" not in open(os.path.join(out, "MANIFEST")).read()

    def _ratio_bundle(self, out, baseline_eps):
        cfg = parse_config_text(
            "problem.name = ridge\nproblem.d = 8\nproblem.m = 30\n"
            "problem.cond = 100\nsolver.name = catalyst-gd\nsolver.eps = 1e-9\n"
            "baseline.name = gd\nbaseline.eps = %s\nseeds = 0, 1, 2\n"
            "run.target_gap = 1e-6\n" % baseline_eps)
        manifest = run_experiment(cfg, str(out))
        return ((out / "summary.csv").read_text().splitlines(),
                (out / "MANIFEST").read_text().splitlines(), manifest)

    def test_no_ratio_row_when_an_arm_misses_the_target(self, tmp_path):
        # gd stopped at a gradient bound of 1e-4 stays above the 1e-6 gap
        # on every seed, and catalyst-gd reaches it on every seed
        summary, manifest, _ = self._ratio_bundle(tmp_path / "o", "1e-4")
        assert not [r for r in summary if r.startswith("ratio,")]
        assert manifest[-1] == ("no ratio: target_gap reached by solver 3/3 "
                                "seeds, baseline 0/3 seeds")

    def test_no_ratio_row_on_a_subset_of_seeds(self, tmp_path, monkeypatch):
        # every run that finishes reaches the target, but one baseline
        # seed fails: a median over the other two would hide it
        fail_task(monkeypatch, "gd", 1)
        summary, manifest, result = self._ratio_bundle(tmp_path / "o", "1e-9")
        assert len(result["failures"]) == 1
        assert not [r for r in summary if r.startswith("ratio,")]
        assert manifest[-2:] == [
            "failed baseline_seed1.csv: RuntimeError: boom",
            "no ratio: target_gap reached by solver 3/3 seeds, baseline 2/3 seeds"]

    def test_ratio_by_stationarity_when_the_optimum_is_unknown(self, tmp_path):
        # lasso has no known optimum, so a seed's evals to target are those
        # of its first row with stationarity <= target_gap
        cfg = parse_config_text("""\
problem.name = lasso
problem.d = 20
problem.m = 40
solver.name = proximal_point
solver.max_iters = 2000
solver.step_tol = 1e-8
baseline.name = proxlinear
baseline.outer_iters = 400
baseline.stat_tol = 1e-8
seeds = 0, 1, 2
run.target_gap = 1e-6
""")
        out = tmp_path / "stat"
        run_experiment(cfg, str(out))
        median = {}
        for arm in ("solver", "baseline"):
            evs = []
            for seed in cfg.seeds:
                text = (out / ("%s_seed%d.csv" % (arm, seed))).read_text()
                rows = [r.split(",") for r in text.splitlines()[2:]]
                evs.append(next(int(r[3]) for r in rows if float(r[2]) <= 1e-6))
            median[arm] = np.median(evs)
        solver, baseline = median["solver"], median["baseline"]
        ref = ",".join(["ratio", "baseline_over_solver"]
                       + [format(float(v), ".17g")
                          for v in (baseline / solver, solver, baseline)]
                       + ["", "", ""])
        summary = (out / "summary.csv").read_text().splitlines()
        assert [r for r in summary if r.startswith("ratio,")] == [ref]

    def test_default_nu_stops_on_a_wide_lasso(self, tmp_path):
        # d > m: lasso is convex but not strongly convex (mu = 0); at
        # nu = 1/(2 beta) neither seed stops within the 2,000 rows
        cfg = parse_config_text("""\
problem.name = lasso
problem.d = 200
problem.m = 100
solver.name = proximal_point
solver.max_iters = 2000
solver.step_tol = 1e-8
seeds = 0, 1
""")
        out = tmp_path / "wide"
        run_experiment(cfg, str(out))
        for seed in cfg.seeds:
            text = (out / ("solver_seed%d.csv" % seed)).read_text()
            rows = [r.split(",") for r in text.splitlines()[2:]]
            assert len(rows) < 2000
            assert float(rows[-1][2]) <= 1e-8

    @pytest.mark.parametrize("nu", [None, 0.375])
    @pytest.mark.parametrize("problem", ["lasso", "phase_retrieval"])
    def test_default_nu(self, monkeypatch, problem, nu):
        # a convex bundle (rho = 0) gets 10 / beta; a weakly convex one
        # must stay below 1/rho; an explicit nu passes through
        text = ("problem.name = %s\nproblem.d = 5\nproblem.m = %d\n"
                "solver.name = proximal_point\nseeds = 0\n"
                % (problem, 10 if problem == "lasso" else 30))
        if nu is not None:
            text += "solver.nu = %r\n" % nu
        cfg = parse_config_text(text)
        passed = []
        monkeypatch.setattr(proxkit.bench, "proximal_point_run",
                            lambda prob, nu, x0, **p: passed.append(nu))
        proxkit.bench._run_one(cfg, "proximal_point", cfg.arms[0][2], 0)
        prob = proxkit.bench._build_instance(cfg, 0).problem
        if nu is None:
            nu = 10 / prob.beta if problem == "lasso" else 1 / (2 * prob.rho)
        assert passed == [nu]

    def test_infinite_objective_gives_infinite_quartiles(self, tmp_path):
        # the harness's standard-normal start lies outside the box, so
        # every run's iteration-0 objective is inf
        cfg = parse_config_text("problem.name = box_nls\nproblem.d = 3\n"
                                "problem.m = 2\nsolver.name = proximal_point\n"
                                "seeds = 0, 1, 2, 3\n")
        out = tmp_path / "box"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(cfg, str(out))
        row = (out / "summary.csv").read_text().splitlines()[2].split(",")
        assert row[:5] == ["solver", "0", "inf", "inf", "inf"]
        assert all(np.isfinite(float(v)) for v in row[5:])


class TestCli:
    def test_list_flags(self, capsys):
        assert cli_main(["run", "--list-problems"]) == 0
        assert "lasso" in capsys.readouterr().out
        assert cli_main(["run", "--list-solvers"]) == 0
        out = capsys.readouterr().out
        assert "proxlinear" in out and "catalyst-svrg" in out

    def test_registry_helpers(self):
        assert "ridge" in list_problems()
        assert "pgsg" in list_solvers()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(LASSO_CFG + "problem.bogus = 1\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "line 8" in capsys.readouterr().err

    def test_ridge_cond_one_exits_2(self, tmp_path, capsys):
        p = tmp_path / "ridge.cfg"
        p.write_text("problem.name = ridge\nproblem.d = 4\nproblem.m = 8\n"
                     "problem.cond = 1\nsolver.name = gd\nseeds = 0\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "problem.cond" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,key,value", [
        ("robust_pca", "sparsity", "2"),
        ("lasso", "lam", "-1"),
        ("erm_logistic", "mu", "0"),
    ])
    def test_out_of_range_generator_value_exits_2(self, tmp_path, capsys,
                                                  problem, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text("problem.name = %s\nproblem.%s = %s\nsolver.name = gd\n"
                     "seeds = 0\n" % (problem, key, value))
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "line 2: problem.%s must be" % key in capsys.readouterr().err
        assert not out.exists()

    def test_the_config_is_the_whole_input(self, tmp_path, monkeypatch):
        # a variable that once shifted the seed list changes nothing
        p = tmp_path / "lasso.cfg"
        p.write_text(LASSO_CFG)
        bundles = []
        for offset in (None, "5"):
            if offset is None:
                monkeypatch.delenv("PROXKIT_SEED_OFFSET", raising=False)
            else:
                monkeypatch.setenv("PROXKIT_SEED_OFFSET", offset)
            out = tmp_path / ("offset%s" % offset)
            assert cli_main(["run", str(p), "--out", str(out)]) == 0
            bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(bundles[1]) == [
            "MANIFEST", "solver_seed0.csv", "solver_seed1.csv", "summary.csv"]
        assert bundles[0] == bundles[1]

    def test_non_numeric_problem_value_exits_2(self, tmp_path, capsys):
        p = tmp_path / "abc.cfg"
        p.write_text(LASSO_CFG.replace("problem.d = 10", "problem.d = abc"))
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "line 2: problem.d must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_outer_iters_exits_2(self, tmp_path, capsys):
        p = tmp_path / "zero.cfg"
        p.write_text(LASSO_CFG.replace("solver.outer_iters = 30",
                                       "solver.outer_iters = 0"))
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert ("line 6: solver.outer_iters must be a positive integer, got 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_solver_value_exits_2(self, tmp_path, capsys):
        p = tmp_path / "inf.cfg"
        p.write_text(LASSO_CFG + "solver.beta = inf\n")
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert ("line 8: solver.beta must be a finite number, got inf"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_generator_argument_exits_2(self, tmp_path, capsys):
        p = tmp_path / "rpca.cfg"
        p.write_text("problem.name = robust_pca\nproblem.mrows = 4\n"
                     "problem.ncols = 4\nproblem.r = 9\nsolver.name = proxlinear\n"
                     "seeds = 0, 1\n")
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "line 4: problem.r must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_proxkit_exception_still_writes_bundle(self, tmp_path, capsys,
                                                       monkeypatch, jobs):
        # instance generation raises ValueError in every task
        def failing_build(config, seed):
            raise ValueError("generator failed\n  for seed %d" % seed)

        monkeypatch.setattr(proxkit.bench, "_build_instance", failing_build)
        p = tmp_path / "lasso.cfg"
        p.write_text(LASSO_CFG)
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out), "--jobs", jobs]) == 3
        manifest = (out / "MANIFEST").read_text().splitlines()
        assert ("failed solver_seed0.csv: ValueError: generator failed for "
                "seed 0") in manifest
        assert sum(ln.startswith("failed ") for ln in manifest) == 2
        assert (out / "summary.csv").exists()
        assert "Traceback" in capsys.readouterr().err

    def test_jobs_below_one_exits_2(self, tmp_path, capsys):
        p = tmp_path / "lasso.cfg"
        p.write_text(LASSO_CFG)
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out), "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_no_config_path_exits_2(self, capsys):
        assert cli_main(["run"]) == 2
        assert "missing config path" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert cli_main(["run", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("case", ["config_dir", "config_not_utf8",
                                      "out_is_file", "out_under_file"])
    def test_bad_path_exits_2(self, tmp_path, capsys, case):
        cfg, out = tmp_path / "ok.cfg", tmp_path / "o"
        cfg.write_text(LASSO_CFG)
        if case == "config_dir":
            cfg = tmp_path
        elif case == "config_not_utf8":
            cfg.write_bytes(b"problem.name = \xff\xfe\n")
        else:
            (tmp_path / "f").write_text("")
            out = tmp_path / "f" if case == "out_is_file" else tmp_path / "f" / "o"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(cfg if case.startswith("config") else out) in err

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        p = tmp_path / "fail.cfg"
        p.write_text(
            "problem.name = lasso\nproblem.d = 5\nproblem.m = 10\n"
            "solver.name = pgsg\nseeds = 0\n"
        )
        out = str(tmp_path / "o")
        assert cli_main(["run", str(p), "--out", out]) == 3
        assert os.path.exists(os.path.join(out, "MANIFEST"))  # partial bundle

    def test_successful_run_exits_0(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text(LASSO_CFG)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_pgsg_arm_exits_0_and_reruns_byte_identical(self, tmp_path):
        p = tmp_path / "pgsg.cfg"
        p.write_text(PGSG_CFG)
        bundles = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["run", str(p), "--out", str(out)]) == 0
            bundles.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert bundles[0] == bundles[1]
        rows = bundles[0]["solver_seed0.csv"].decode().splitlines()[2:]
        assert [(r.split(",")[0], r.split(",")[3]) for r in rows] == [
            ("1", "4195"), ("2", "8391"), ("4", "16786")]

    def test_pgsg_zero_stat_every_exits_2(self, tmp_path, capsys):
        p = tmp_path / "pgsg.cfg"
        p.write_text(PGSG_CFG.replace("solver.stat_every = 2",
                                      "solver.stat_every = 0"))
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "solver.stat_every" in capsys.readouterr().err
        assert not out.exists()
