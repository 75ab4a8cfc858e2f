"""Benchmark harness: config parsing, summary aggregation, CLI contract."""

import os

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

    def test_missing_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text(LASSO_CFG.replace("seeds = 0, 1\n", ""))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(LASSO_CFG + "problem.d = 11\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")


def constant_report(value, n=5):
    rep = SolverReport()
    for t in range(n):
        rep.record(t, None, value, value / 10.0, t)
    return rep


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
                rep.record(t, None, obj[t], stat[t], t)
            reps.append(rep)
        obj = proxkit.bench._padded_columns(reps, "objective_history")
        stat = proxkit.bench._padded_columns(reps, "stationarity_history")
        iters = max(reps, key=lambda r: len(r.iteration_index)).iteration_index
        ref = [proxkit.bench._SUMMARY_COLUMNS]
        for k in range(obj.shape[1]):
            qo = np.percentile(obj[:, k], [50, 25, 75])
            qs = np.percentile(stat[:, k], [50, 25, 75])
            ref.append(",".join([str(iters[k])] + [proxkit.bench._fmt(v)
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
        cfg = parse_config_text(LASSO_CFG)
        serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
        run_experiment(cfg, serial, jobs=1)
        run_experiment(cfg, parallel, jobs=4)
        for f in os.listdir(serial):
            assert (open(os.path.join(serial, f), "rb").read()
                    == open(os.path.join(parallel, f), "rb").read())

    def test_seed_offset_env(self, tmp_path, monkeypatch):
        cfg = parse_config_text(LASSO_CFG)
        monkeypatch.setenv("PROXKIT_SEED_OFFSET", "5")
        out = str(tmp_path / "off")
        run_experiment(cfg, out)
        assert sorted(f for f in os.listdir(out) if f.endswith("seed5.csv")) == [
            "solver_seed5.csv"
        ]

    def test_solver_failure_recorded_in_manifest(self, tmp_path):
        # pgsg needs a stochastic instance; lasso has none -> solver failure
        cfg = parse_config_text(LASSO_CFG.replace("proxlinear", "pgsg")
                                .replace("solver.outer_iters = 30\n", ""))
        out = str(tmp_path / "fail")
        manifest = run_experiment(cfg, out)
        assert len(manifest["failures"]) == 2
        content = open(os.path.join(out, "MANIFEST")).read()
        assert "failed solver_seed0.csv" in content

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

    def test_bad_seed_offset_exits_2(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "ok.cfg"
        p.write_text(LASSO_CFG)
        monkeypatch.setenv("PROXKIT_SEED_OFFSET", "abc")
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "PROXKIT_SEED_OFFSET" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_problem_value_exits_2(self, tmp_path, capsys):
        p = tmp_path / "abc.cfg"
        p.write_text(LASSO_CFG.replace("problem.d = 10", "problem.d = abc"))
        out = tmp_path / "o"
        assert cli_main(["run", str(p), "--out", str(out)]) == 2
        assert "line 2: problem.d must be a number" in capsys.readouterr().err
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

    def test_missing_file_exits_2(self, capsys):
        assert cli_main(["run", "/nonexistent/x.cfg"]) == 2

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
