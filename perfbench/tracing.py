"""Layer tracing for the benchmark, installed from outside the library.

A :class:`Tracer` wraps the public entry point of each proxkit layer in a
span and wraps each instance's oracle callables in a counter.  Nothing
under ``src/`` changes: :meth:`Tracer.install` rebinds the entry points
in every loaded ``proxkit`` module and in ``GENERATORS``, and
:meth:`Tracer.remove` puts the originals back.  Instances built while the
tracer is installed carry counting oracles for the rest of their life, so
the benchmark builds fresh instances for each traced pass.

Spans are aggregated per name as they close (count, inclusive time, self
time, durations, and the oracle calls and child spans they covered); only
the open spans of each thread are kept individually.  Oracle calls are
leaf spans: they are timed and counted but never pushed on the stack.
Totals are summed under a lock, because ``proxkit run --jobs 2`` runs its
tasks on threads.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

# percentiles tried for a tail, highest first, in tenths of a percent
_TAIL_LADDER = (999, 990, 950, 900, 800, 750, 500)


def tail_percentile(samples):
    """The highest percentile of the ladder with at least ten samples
    beyond it, as ``(percentile, value)``.

    Falls back to the median when fewer than twenty samples exist, and to
    ``(None, 0.0)`` for no samples.  Uses integer arithmetic so that the
    ten-sample rule is exact at its boundary.
    """
    n = len(samples)
    if n == 0:
        return None, 0.0
    for permille in _TAIL_LADDER:
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0, float(np.percentile(samples, permille / 10.0))
    return 50.0, float(np.percentile(samples, 50.0))


class _Frame:
    __slots__ = ("name", "start", "child_s", "counts")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.counts = Counter()


@dataclasses.dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    last_end: float = 0.0
    durations: list = dataclasses.field(default_factory=list)
    counts: Counter = dataclasses.field(default_factory=Counter)


class Tracer:
    """Spans at layer boundaries and counts at the oracle boundary."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.lock = threading.Lock()
        self.local = threading.local()
        self.spans: dict[str, SpanStats] = {}
        self.oracle = Counter()  # kind -> weighted calls, plus "self_s"
        self.extra = Counter()   # facts read from return values
        self.instances = []
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name):
        frame = _Frame(name, self.clock())
        self._stack().append(frame)
        return frame

    def close(self, frame):
        end = self.clock()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            parent = stack[-1]
            parent.child_s += dur
            parent.counts["child." + frame.name] += 1
            parent.counts["child_s." + frame.name] += dur
        with self.lock:
            st = self.spans.setdefault(frame.name, SpanStats())
            st.count += 1
            st.total_s += dur
            st.self_s += dur - frame.child_s
            st.last_end = max(st.last_end, end)
            st.durations.append(dur)
            st.counts.update(frame.counts)

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so that each call is a span named ``name``;
        ``on_return(args, kwargs, result)`` may read facts off the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # -- oracle calls ---------------------------------------------------------

    def record_call(self, kinds, dur):
        stack = self._stack()
        for frame in stack:
            for kind, weight in kinds:
                frame.counts[kind] += weight
        if stack:
            inner = stack[-1]
            inner.child_s += dur
            for kind, weight in kinds:
                inner.counts["direct." + kind] += weight
        with self.lock:
            for kind, weight in kinds:
                self.oracle[kind] += weight
            self.oracle["self_s"] += dur

    def oracle_fn(self, fn, *kinds):
        """Wrap an oracle callable; each call adds ``weight`` to each
        ``(kind, weight)`` pair in ``kinds``."""
        clock = self.clock

        def counted(*args):
            t0 = clock()
            result = fn(*args)
            self.record_call(kinds, clock() - t0)
            return result

        return counted

    def wrap_instance(self, inst):
        """Replace an instance's oracle callables by counting ones."""
        import proxkit

        prob = inst.problem
        if isinstance(prob, proxkit.CompositeProblem):
            c = prob.c
            lin = c.linearize
            c.eval = self.oracle_fn(c.eval, ("eval", 1))
            c.jvp = self.oracle_fn(c.jvp, ("jvp", 1))
            c.vjp = self.oracle_fn(c.vjp, ("vjp", 1))
            if lin is not None:
                def linearize(x):
                    c0, K, Kt = lin(x)
                    return (c0, self.oracle_fn(K, ("jvp", 1)),
                            self.oracle_fn(Kt, ("vjp", 1)))
                c.linearize = self.oracle_fn(linearize, ("eval", 1))
        elif isinstance(prob, proxkit.FiniteSumProblem):
            m = prob.m
            prob._grad_i = self.oracle_fn(prob._grad_i, ("grad_i", 1))
            prob._value_i = self.oracle_fn(prob._value_i, ("eval", 1))
            if prob._full_grad is not None:
                prob._full_grad = self.oracle_fn(prob._full_grad, ("grad_i", m))
            if prob._all_grads is not None:
                prob._all_grads = self.oracle_fn(
                    prob._all_grads, ("grad_i", m), ("grad_table", 1))
            if prob._full_smooth_value is not None:
                prob._full_smooth_value = self.oracle_fn(
                    prob._full_smooth_value, ("eval", m))
        sp = inst.stochastic
        if sp is not None:
            sp.stoch_subgrad = self.oracle_fn(sp.stoch_subgrad, ("subgrad", 1))
            sp.stoch_value = self.oracle_fn(sp.stoch_value, ("eval", 1))
        with self.lock:
            self.instances.append(inst)
        return inst

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "proxkit" and not name.startswith("proxkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import proxkit
        from proxkit import bench, catalyst, core, moreau, pgsg, proxlinear

        self._rebind(proxlinear.proxlinear_step, self.span(
            "proxlinear_step", proxlinear.proxlinear_step, self._on_step))
        self._rebind(core.operator_norm, self.span(
            "operator_norm", core.operator_norm))
        self._rebind(moreau.prox_map, self.span("prox_map", moreau.prox_map))
        self._rebind(pgsg.pgsg_run, self.span(
            "pgsg_run", pgsg.pgsg_run, self._on_pgsg))
        self._rebind(catalyst.catalyst_run, self.span(
            "catalyst_run", catalyst.catalyst_run, self._on_catalyst))

        inner_method = catalyst.inner_method

        @functools.wraps(inner_method)
        def traced_inner_method(name):
            im = inner_method(name)
            return dataclasses.replace(
                im, run=self.span("InnerMethod.run", im.run))

        self._rebind(inner_method, traced_inner_method)
        self._rebind(bench._run_one, self.span("bench.task", bench._run_one))
        self._rebind(bench.run_experiment,
                     self._traced_run_experiment(bench.run_experiment))

        gens = proxkit.GENERATORS
        for key, gen in list(gens.items()):
            gens[key] = self._traced_generator(gen)
            self._undo.append((gens, key, gen))

    def remove(self):
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def _traced_generator(self, gen):
        inner = self.span("generate", gen)

        @functools.wraps(gen)
        def traced(*args, **kwargs):
            return self.wrap_instance(inner(*args, **kwargs))

        return traced

    def _traced_run_experiment(self, run_experiment):
        inner = self.span("run_experiment", run_experiment)

        @functools.wraps(run_experiment)
        def traced(*args, **kwargs):
            cpu0, wall0 = _cpu_seconds(), self.clock()
            manifest = inner(*args, **kwargs)
            wall1, cpu1 = self.clock(), _cpu_seconds()
            task = self.spans.get("bench.task")
            written = sum(
                os.path.getsize(os.path.join(manifest["out_dir"], f))
                for f in manifest["files"] + ["MANIFEST"])
            with self.lock:
                self.extra["bench.cpu_s"] += cpu1 - cpu0
                self.extra["bench.wall_s"] += wall1 - wall0
                if task is not None:
                    self.extra["bench.output_s"] += wall1 - task.last_end
                self.extra["bench.write_bytes"] += written
            return manifest

        return traced

    # -- facts read off return values ---------------------------------------

    def _on_step(self, args, kwargs, result):
        tol = kwargs["inner_tol"] if "inner_tol" in kwargs else args[3]
        met = 1 if result[1].gap <= tol else 0
        with self.lock:
            self.extra["proxlinear.inner_met"] += met

    def _on_pgsg(self, args, kwargs, report):
        with self.lock:
            self.extra["library_calls"] += report.oracle_calls["stoch_subgrad"]

    def _on_catalyst(self, args, kwargs, report):
        import proxkit

        bound = inspect.signature(proxkit.catalyst.catalyst_run).bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["kappa"] > 0.0:
            outer = len(report.iteration_index)
            with self.lock:
                self.extra["catalyst.outer_iters"] += outer
                if outer >= bound.arguments["outer_iters"]:
                    self.extra["catalyst.outer_budget_stops"] += 1

    def library_calls(self):
        """Oracle calls the library's own counters report for the traced
        instances, plus the subgradients PGSG reports."""
        import proxkit

        total = self.extra["library_calls"]
        for inst in self.instances:
            prob = inst.problem
            if isinstance(prob, proxkit.CompositeProblem):
                cnt = prob.counters
                total += cnt["c_eval"] + cnt["c_jvp"] + cnt["c_vjp"]
            elif isinstance(prob, proxkit.FiniteSumProblem):
                total += prob.grad_evals
        return total

    # -- metrics ------------------------------------------------------------------

    def oracle_calls(self):
        o = self.oracle
        return o["eval"] + o["jvp"] + o["vjp"] + o["subgrad"] + o["grad_i"]

    def layer_metrics(self):
        """The per-layer metrics, as ``name -> (value, unit)``, plus the
        tail percentiles used, as ``name -> percentile``."""
        empty = SpanStats()
        sp = lambda name: self.spans.get(name, empty)
        ratio = lambda a, b: a / b if b else 0.0
        out, tails = {}, {}

        def timing(prefix, stats):
            ms = [d * 1e3 for d in stats.durations]
            out[prefix + "_ms_p50"] = (float(np.median(ms)) if ms else 0.0, "ms")
            pct, val = tail_percentile(ms)
            out[prefix + "_ms_tail"] = (val, "ms")
            tails[prefix + "_ms_tail"] = (pct, len(ms))

        step = sp("proxlinear_step")
        products = step.counts["jvp"] + step.counts["vjp"]
        out["proxlinear.steps"] = (step.count, "count")
        out["proxlinear.step_s"] = (step.total_s, "s")
        timing("proxlinear.step", step)
        out["proxlinear.inner_met_frac"] = (
            ratio(self.extra["proxlinear.inner_met"], step.count), "frac")
        out["proxlinear.products_per_step"] = (ratio(products, step.count), "count")
        out["proxlinear.us_per_product"] = (ratio(step.total_s * 1e6, products), "us")

        opn = sp("operator_norm")
        out["core.operator_norm_calls"] = (opn.count, "count")
        out["core.operator_norm_s"] = (opn.total_s, "s")

        pm = sp("prox_map")
        out["moreau.prox_maps"] = (pm.count, "count")
        timing("moreau.prox_map", pm)
        inner_steps = pm.counts["child.proxlinear_step"] + pm.counts["direct.vjp"]
        out["moreau.steps_per_prox"] = (ratio(inner_steps, pm.count), "count")
        out["moreau.prox_s"] = (pm.total_s, "s")

        pg = sp("pgsg_run")
        pg_inner_s = pg.total_s - pg.counts["child_s.prox_map"]
        out["pgsg.inner_steps"] = (pg.counts["direct.subgrad"], "count")
        out["pgsg.inner_s"] = (pg_inner_s, "s")
        out["pgsg.us_per_inner_step"] = (
            ratio(pg_inner_s * 1e6, pg.counts["direct.subgrad"]), "us")
        out["pgsg.stationarity_s"] = (pg.counts["child_s.prox_map"], "s")

        inner = sp("InnerMethod.run")
        out["catalyst.outer_iters"] = (self.extra["catalyst.outer_iters"], "count")
        out["catalyst.inner_solves"] = (inner.count, "count")
        out["catalyst.inner_s"] = (inner.total_s, "s")
        out["catalyst.svrg_epochs"] = (inner.counts["grad_table"], "count")
        out["catalyst.outer_budget_stops"] = (
            self.extra["catalyst.outer_budget_stops"], "count")
        out["catalyst.us_per_grad"] = (
            ratio(inner.total_s * 1e6, inner.counts["grad_i"]), "us")

        o = self.oracle
        out["oracles.calls"] = (self.oracle_calls(), "count")
        out["oracles.eval_calls"] = (o["eval"], "count")
        out["oracles.jvp_calls"] = (o["jvp"], "count")
        out["oracles.vjp_calls"] = (o["vjp"], "count")
        out["oracles.subgrad_calls"] = (o["subgrad"], "count")
        out["oracles.grad_i_calls"] = (o["grad_i"], "count")
        out["oracles.self_s"] = (o["self_s"], "s")
        out["oracles.uncounted_calls"] = (
            self.oracle_calls() - self.library_calls(), "count")

        out["problems.generate_s"] = (sp("generate").total_s, "s")

        task = sp("bench.task")
        out["bench.tasks"] = (task.count, "count")
        out["bench.cores_used"] = (
            ratio(self.extra["bench.cpu_s"], self.extra["bench.wall_s"]), "cores")
        out["bench.generate_s"] = (task.counts["child_s.generate"], "s")
        out["bench.output_s"] = (self.extra["bench.output_s"], "s")
        out["bench.write_bytes"] = (self.extra["bench.write_bytes"], "bytes")
        return out, tails


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
