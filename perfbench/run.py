"""proxkit's benchmark: one workload per run, closed loop, one process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sharp_pr --seed 0 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another in this
process.  A run

1. builds the workload's solves (proxkit is imported from ``src/``);
2. repeats untraced passes over them until the next pass would end past
   ``--seconds`` (at least one pass), each solve starting when the
   previous one ends;
3. reads the peak resident memory;
4. with ``--trace 1`` only, makes one traced pass on freshly built
   instances, which gives the per-layer metrics and the oracle counts;
5. for ``cli_lasso_fanout``, makes one ``--jobs 1`` reference pass;
6. times the set-up in five fresh interpreters, each scaled to the
   reference speed by a speed probe run right after it;
7. checks every output, prints its environment and readings as ``#``
   lines, and ends with one JSON line.  ``--trace 0`` prints the
   end-to-end metrics in it and ``--trace 1`` the per-layer ones.

It exits 0 when every output check held, even if some solves missed
their accuracy target (those count in ``on_target_frac``), 1 when an
output check broke, and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 5
# seconds the speed probe takes on the baseline machine at its usual
# (slower) speed; set-up times are reported at this reference speed
PROBE_REF_S = 0.02


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import and set-up of one workload; print the "
                         "seconds and the speed probe")
    return ap.parse_args(argv)


def _workdir():
    return tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)


def speed_probe():
    """Seconds for a fixed loop of small NumPy operations; the median of
    three.

    The machine this benchmark was set up on is shared, and its speed
    switches between levels up to 1.8x apart, every few seconds.  A set-up
    of a fifth of a second scaled by ``PROBE_REF_S / speed_probe()``,
    probed right after it, reads the same at either level and still scales
    with the cost of importing and building, which the probe does not
    share.  A pass lasts several seconds and spans both levels, so
    ``solve_s`` stays a plain wall time.
    """
    import numpy as np

    rows = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
    times = []
    for _ in range(3):
        x = np.zeros(16)
        t0 = time.perf_counter()
        for i in range(2400):
            row = rows[i % 64]
            x = x - 1e-3 * ((float(row @ x) - 1.0) * row + 0.1 * x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(name, seed):
    """Seconds to import proxkit and build ``name``'s solves, measured in
    this (fresh) interpreter, and the speed probe measured after it."""
    t0 = time.perf_counter()
    import workloads

    workdir = _workdir()
    try:
        workloads.WORKLOADS[name].build(seed, workdir)
        return time.perf_counter() - t0, speed_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(name, seed):
    """Median set-up time over fresh interpreters, at reference speed,
    and the raw median."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        seconds, probe = (float(v) for v in out.stdout.split()[-2:])
        scaled.append(seconds * PROBE_REF_S / probe)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
    }


def _signature(check):
    return [(o.label, o.raised, o.on_target, o.digest) for o in check.outcomes]


def run_workload(w, seed, seconds, workdir, traced):
    """Measure one workload; returns the end-to-end readings and, when
    ``traced``, the per-layer ones, as ``name -> (value, unit)``; the
    solve counts, the broken output checks and the notes to print."""
    import selfcheck
    from tracing import Tracer
    from workloads import tally

    errors = list(selfcheck.run_all())
    state = w.build(seed, workdir)
    times, results = [], []
    while True:
        t0 = time.perf_counter()
        results.append(w.run(state))
        times.append(time.perf_counter() - t0)
        if sum(times) + statistics.median(times) > seconds:
            break
    peak_rss = _peak_rss_mb()
    solve_s = statistics.median(times)
    checks = [w.check(state, r) for r in results]
    notes = ["passes %d, pass seconds %s"
             % (len(times), ", ".join("%.4f" % t for t in times))]

    layers = {}
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            traced_state = w.build(seed, workdir)
            t0 = time.perf_counter()
            traced_result = w.run(traced_state)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.remove()
        # read now: the traced instances keep counting while the checks run
        layers, tails = tracer.layer_metrics()
        layers["trace.overhead_s"] = (traced_s - solve_s, "s")
        checks.append(w.check(traced_state, traced_result))
        notes += [
            "traced pass %.4f s" % traced_s,
            "tail percentiles: %s" % ", ".join(
                "%s=p%s of %d" % (k, pct, n) for k, (pct, n) in sorted(tails.items())),
            "spans (count, total s, self s): %s" % ", ".join(
                "%s %d %.4f %.4f" % (k, st.count, st.total_s, st.self_s)
                for k, st in sorted(tracer.spans.items())),
        ]
    reference = w.reference(state) if hasattr(w, "reference") else None
    setup_s, setup_wall_s = _setup_seconds(w.name, seed)

    for i, c in enumerate(checks):
        tag = "traced pass" if i == len(times) else "pass %d" % (i + 1)
        errors += ["%s: %s" % (tag, e) for e in c.errors]
        if _signature(c) != _signature(checks[0]):
            errors.append("%s: outputs differ from pass 1" % tag)
        if reference is not None and c.bundle != reference.bundle:
            errors.append("%s: bundle differs from the --jobs 1 bundle" % tag)
    if reference is not None:
        errors += ["--jobs 1 reference: %s" % e for e in reference.errors]

    outcomes = [o for c in checks[:len(times)] for o in c.outcomes]
    attempted, raised, on_target = tally(outcomes)
    end_to_end = {
        "solve_s": (solve_s, "s"),
        "setup_s": (setup_s, "s"),
        "on_target_frac": (on_target / attempted, "frac"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes += [
        "set-up wall seconds, median: %.4f" % setup_wall_s,
        "solves attempted %d, raised %d, off target %d (failed_frac %.4f)"
        % (attempted, raised, attempted - on_target,
           (attempted - on_target) / attempted),
        "off target: %s" % (", ".join(sorted({o.label for o in outcomes
                                              if not o.on_target})) or "none"),
    ]
    counts = {"attempted": attempted, "failed": raised}
    return end_to_end, layers, counts, errors, notes


def _metrics_json(readings):
    return {k: {"value": v, "unit": u} for k, (v, u) in readings.items()}


def main(argv=None):
    args = _parse_args(argv)
    # turn SIGTERM into SystemExit so that the work directories are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "proxkit", "__init__.py")):
        print("perfbench: no proxkit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # the bench bundle is byte-deterministic only without these
    os.environ.pop("PROXKIT_TIMING", None)
    os.environ.pop("PROXKIT_SEED_OFFSET", None)

    if args.setup_probe:
        print("%r %r" % setup_probe(args.workload, args.seed))
        return 0

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print("perfbench: unknown workload %r (choose from %s, all)"
              % (unknown[0], ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    env = _environment()
    env["loadavg_start"] = os.getloadavg()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = _workdir()
        try:
            e2e, layers, counts, errors, notes = run_workload(
                workloads.WORKLOADS[name], args.seed, args.seconds, workdir,
                traced=bool(args.trace))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for line in notes:
            print("# %s: %s" % (name, line))
        for k, (v, u) in list(e2e.items()) + list(layers.items()):
            print("# %s: %-32s %.6g %s" % (name, k, v, u))
        for err in errors:
            print("# %s: CHECK FAILED: %s" % (name, err))
        shown = layers if args.trace else e2e
        prefix = name + "/" if len(names) > 1 else ""
        total["correct"] = total["correct"] and not errors
        total["attempted"] += counts["attempted"]
        total["failed"] += counts["failed"]
        total["metrics"].update(
            {prefix + k: v for k, v in _metrics_json(shown).items()})
    env["loadavg_end"] = os.getloadavg()
    print("# env %s" % json.dumps(env, sort_keys=True))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
