"""Alternated A/B runs of the benchmark on two source trees.

Usage, from anywhere::

    python3 tools/ab_perfbench.py --base OLD_TREE --change NEW_TREE \\
        --workload catalyst_ridge --out ab.json

Each tree is a plain copy of the repository (``git archive REV | tar -x``),
so each side imports proxkit from its own ``src/``.  For every workload the
script makes ``PAIRS`` pairs of ``perfbench/run.py --trace 0`` runs, one
from each tree, and alternates which side runs first.  Pair k uses
``--seed k``; the seed only orders a workload's solves.  Every run keeps
the benchmark's own run length.  It then makes one ``--trace 1`` run per
side, for the per-layer counts.

The JSON it writes holds every run's end-to-end metrics and pass seconds
in the order they ran and, per metric, each side's median and quartiles
and the number of pairs the change won (ties count for neither side; the
better direction is read from ``BENCHMARK.json``).  Next to the
``solve_s`` quartiles it gives each side's median of the per-run minimum
pass, ``pass_min_median``: a run's fastest pass is the one the host
slowed least, so minimums separate host drift from the code.  A gain may
be claimed only when the change wins at least nine pairs in ten and the
medians differ by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Pairs per workload: the fewest on which "wins at least nine in ten" can
# be read.
PAIRS = 10


def _run(tree, workload, seed, trace):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=3600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d:\n%s%s"
                           % (" ".join(cmd), out.returncode, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # "# WORKLOAD: passes N, pass seconds S1, S2, ..."
    passes = "# %s: passes " % workload
    pass_s = [float(s) for line in lines if line.startswith(passes)
              for s in line.split("pass seconds ", 1)[1].split(", ")]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "pass_s": pass_s}


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _summary(pairs, better):
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        out[name] = {"base": _quartiles(base), "change": _quartiles(change),
                     "change_wins": wins, "change_losses": losses,
                     "pairs": len(pairs), "better": better[name]}
    for side in ("base", "change"):
        out["solve_s"][side]["pass_min_median"] = statistics.median(
            min(p[side]["pass_s"]) for p in pairs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tools/ab_perfbench.py")
    ap.add_argument("--base", required=True, help="source tree of the parent")
    ap.add_argument("--change", required=True, help="source tree of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    report = {"pairs": PAIRS, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k in range(PAIRS):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": k, "first": order[0]}
            for side in order:
                t0 = time.time()
                pair[side] = _run(trees[side], workload, k, 0)
                pair[side]["wall_s"] = time.time() - t0  # the whole run
            pairs.append(pair)
            print("%s pair %d: %s" % (workload, k, json.dumps(
                {s: pair[s]["metrics"] for s in ("base", "change")})), flush=True)
        traced = {side: _run(trees[side], workload, 0, 1)
                  for side in ("base", "change")}
        report["workloads"][workload] = {
            "runs": pairs, "summary": _summary(pairs, better), "traced": traced}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
