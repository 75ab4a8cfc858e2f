"""Self-check of the benchmark's own arithmetic.

Every run calls :func:`run_all` and reports a broken check as a failed
output check.  Run it alone with ``python3 perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import os

from tracing import Tracer, tail_percentile

_BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def _check_tail_rule():
    # n -> the highest percentile with at least ten samples beyond it
    expected = {10000: 99.9, 9999: 99.0, 1000: 99.0, 999: 95.0, 200: 95.0,
                199: 90.0, 100: 90.0, 60: 80.0, 40: 75.0, 39: 50.0, 20: 50.0,
                19: 50.0}
    for n, pct in expected.items():
        got, _ = tail_percentile(list(range(n, 0, -1)))
        if got != pct:
            yield "tail rule: n=%d picked p%s, expected p%s" % (n, got, pct)
    # linear interpolation between the 990th and 991st of 1..1000
    value = tail_percentile(list(range(1, 1001)))[1]
    if abs(value - 990.01) > 1e-9:
        yield "tail rule: p99 of 1..1000 is %r, expected 990.01" % value
    if tail_percentile([]) != (None, 0.0):
        yield "tail rule: no samples should give (None, 0.0)"


def _check_self_time():
    # parent [0, 10] holds child [2, 5] (which holds grandchild [3, 4])
    # and an oracle call [6, 7]: self times 10-3-1 = 6, 3-1 = 2 and 1
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    oracle = tr.oracle_fn(lambda: None, ("vjp", 2))
    grandchild = tr.span("grandchild", lambda: None)
    child = tr.span("child", grandchild)
    parent = tr.span("parent", lambda: (child(), oracle()))
    parent()
    want = {"parent": (10.0, 6.0), "child": (3.0, 2.0), "grandchild": (1.0, 1.0)}
    for name, (total, own) in want.items():
        st = tr.spans[name]
        if (st.total_s, st.self_s) != (total, own):
            yield "self time: %s total %r self %r, expected %r and %r" % (
                name, st.total_s, st.self_s, total, own)
    p = tr.spans["parent"].counts
    if (p["vjp"], p["direct.vjp"], p["child.child"]) != (2, 2, 1):
        yield "self time: parent counts %r" % dict(p)
    if tr.oracle["self_s"] != 1.0 or tr.oracle["vjp"] != 2:
        yield "self time: oracle totals %r" % dict(tr.oracle)


def _check_tally():
    from workloads import Outcome, tally

    outcomes = [Outcome("met", False, True, ""),
                Outcome("returned off target", False, False, ""),
                Outcome("raised", True, False, "")]
    if tally(outcomes) != (3, 1, 1):
        yield "tally: %r, expected (3 attempted, 1 raised, 1 on target)" % (
            tally(outcomes),)


def _check_declared_metrics():
    if not os.path.isfile(_BENCHMARK_JSON):
        return
    with open(_BENCHMARK_JSON) as fh:
        declared = {(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]}
    produced = {(k, unit) for k, (_, unit) in Tracer().layer_metrics()[0].items()}
    produced.add(("trace.overhead_s", "s"))
    if declared != produced:
        yield "BENCHMARK.json per_layer differs from the tracer: %s" % sorted(
            declared ^ produced)


def run_all():
    """Every broken check, as one message each."""
    for check in (_check_tail_rule, _check_self_time, _check_tally,
                  _check_declared_metrics):
        yield from check()


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(_BENCHMARK_JSON), "src"))
    broken = list(run_all())
    for msg in broken:
        print(msg)
    print("selfcheck: %s" % ("FAILED" if broken else "ok"))
    sys.exit(1 if broken else 0)
