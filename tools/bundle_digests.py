"""sha256 digests of every output the byte-identity gates compare.

Usage, from anywhere::

    python3 tools/bundle_digests.py TREE > digests.txt

TREE is a copy of the repository (``git archive REV | tar -x``).  The
script imports proxkit from ``TREE/src`` and prints one line per output:

* ``demo NAME stdout SHA``: the stdout of each script in ``TREE/demos``;
* ``criterion9/IDX/FILE SHA``: every file of the bundle of each config
  in ``tests/test_acceptance.DETERMINISM_CONFIGS``;
* ``fanout/jobsN/FILE SHA``: every file of the bundle of perfbench's
  ``_CLI_CONFIG`` over seeds 0..31, written by ``proxkit run --jobs N``
  for N = 1 and 2;
* ``pgsg/FILE SHA``: every file of the bundle of ``PGSG_CONFIG``, a
  PGSG arm written by ``proxkit run``, since no criterion-9 config runs
  the harness's PGSG arm;
* ``catalyst_ridge/ARM/seedS SHA``: the solution and the four histories
  of each of the four solves of perfbench's ``CatalystRidge`` workload,
  the only accelerated SVRG runs here;
* ``pgsg_robust_pr/seedS SHA``: the solution, stationarity and objective
  histories of each of the four solves of perfbench's ``PgsgRobustPR``
  workload, since no criterion-9 config runs PGSG;
* ``sharp_pr/seedS SHA``: the solution, objective and stationarity
  histories of each of the six prox-linear solves of perfbench's
  ``SharpPR`` workload, since no criterion-9 config runs a composite.
  The evals history is left out: it counts oracle calls, and a change
  that reads c fewer times moves it without moving an iterate.

Two trees that make the same bytes print the same lines, so the gate
"byte-identical bundles and demo output" is one ``diff`` of the two
outputs.  ``PROXKIT_TIMING`` is cleared first, since it changes the
bytes.  So is ``PROXKIT_SEED_OFFSET``: proxkit no longer reads it, but
older trees that a gate compares against shift their seeds by it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile

FANOUT_SEEDS = range(32)
PGSG_CONFIG = """\
problem.name = phase_retrieval
problem.d = 5
problem.m = 30
problem.outlier_frac = 0.1
solver.name = pgsg
solver.outer_iters = 4
solver.stat_every = 2
seeds = 0, 1
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _bundle_lines(prefix, out_dir):
    lines = []
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            lines.append("%s/%s %s" % (prefix, fname, _sha(fh.read())))
    return lines


def demo_lines(tree, scratch):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), TMPDIR=scratch)
    lines = []
    demos = os.path.join(tree, "demos")
    for name in sorted(os.listdir(demos)):
        if not name.endswith(".py"):
            continue
        proc = subprocess.run([sys.executable, os.path.join(demos, name)],
                              cwd=scratch, env=env, capture_output=True, timeout=1800)
        if proc.returncode != 0:
            raise RuntimeError("%s exited %d:\n%s"
                               % (name, proc.returncode, proc.stderr.decode()))
        lines.append("demo %s stdout %s" % (name, _sha(proc.stdout)))
    return lines


def _cli_bundle_lines(text, prefix, scratch, flags=()):
    """The lines of the bundle ``proxkit run`` writes for config ``text``."""
    from proxkit import cli

    name = prefix.replace("/", "-")
    config, out = (os.path.join(scratch, name + ext) for ext in (".cfg", ""))
    with open(config, "w") as fh:
        fh.write(text)
    code = cli.main(["run", config, "--out", out, *flags])
    if code != 0:
        raise RuntimeError("proxkit run %s exited %d" % (prefix, code))
    return _bundle_lines(prefix, out)


def _seed_lines(workloads, workload, scratch, fields):
    """One line per solve of a workload whose tasks start with their seed:
    the digest of the report's ``fields``, in that order."""
    tasks = workload.build(0, scratch)
    lines = []
    for task, rep in sorted(zip(tasks, workload.run(tasks)),
                            key=lambda pair: pair[0][0]):
        if isinstance(rep, Exception):
            raise RuntimeError("%s seed%d raised %r" % (workload.name, task[0], rep))
        digest = workloads._digest(*(getattr(rep, f) for f in fields))
        lines.append("%s/seed%d %s" % (workload.name, task[0], digest))
    return lines


def bundle_lines(tree, scratch):
    import proxkit

    acceptance = _load("_digest_acceptance",
                       os.path.join(tree, "tests", "test_acceptance.py"))
    workloads = _load("_digest_workloads",
                      os.path.join(tree, "perfbench", "workloads.py"))
    lines = []
    for idx, text in enumerate(acceptance.DETERMINISM_CONFIGS):
        out = os.path.join(scratch, "criterion9-%d" % idx)
        proxkit.run_experiment(proxkit.parse_config_text(text), out)
        lines += _bundle_lines("criterion9/%d" % idx, out)
    fanout = workloads._CLI_CONFIG % ", ".join(str(s) for s in FANOUT_SEEDS)
    for jobs in ("1", "2"):
        lines += _cli_bundle_lines(fanout, "fanout/jobs" + jobs, scratch,
                                   ["--jobs", jobs])
    lines += _cli_bundle_lines(PGSG_CONFIG, "pgsg", scratch)
    workload = workloads.CatalystRidge()
    tasks = workload.build(0, scratch)
    for (s, arm, _, _), rep in sorted(zip(tasks, workload.run(tasks)),
                                      key=lambda pair: pair[0][:2]):
        if isinstance(rep, Exception):
            raise RuntimeError("catalyst_ridge %s seed%d raised %r" % (arm, s, rep))
        digest = workloads._digest(rep.solution, rep.objective_history,
                                   rep.stationarity_history, rep.evals_history,
                                   rep.iteration_index)
        lines.append("catalyst_ridge/%s/seed%d %s" % (arm, s, digest))
    lines += _seed_lines(workloads, workloads.PgsgRobustPR(), scratch,
                         ("solution", "stationarity_history", "objective_history"))
    lines += _seed_lines(workloads, workloads.SharpPR(), scratch,
                         ("solution", "objective_history", "stationarity_history"))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: tools/bundle_digests.py TREE", file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[0])
    src = os.path.join(tree, "src")
    os.environ.pop("PROXKIT_TIMING", None)
    os.environ.pop("PROXKIT_SEED_OFFSET", None)
    sys.path.insert(0, src)
    import proxkit

    if os.path.dirname(os.path.dirname(os.path.abspath(proxkit.__file__))) != src:
        print("error: proxkit imported from %s, not %s" % (proxkit.__file__, src),
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        lines = demo_lines(tree, scratch) + bundle_lines(tree, scratch)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
