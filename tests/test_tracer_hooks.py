"""The benchmark's tracer installs on the library and comes off cleanly.

perfbench/tracing.py rebinds library entry points by name and wraps the
oracles of the instances the generators build, so deleting or renaming
one of those names breaks the traced benchmark.  This test notices that
without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import proxkit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _library_bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "proxkit" or name.startswith("proxkit.")
            for attr, value in vars(mod).items()}


def test_install_wraps_instances_and_remove_restores_every_binding():
    before = _library_bindings()
    generators = dict(proxkit.GENERATORS)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        during = _library_bindings()
        # phase retrieval has a stochastic part, ridge is a finite sum
        pr = proxkit.GENERATORS["phase_retrieval"](d=5, m=30, outlier_frac=0.1, seed=0)
        ridge = proxkit.GENERATORS["ridge"](d=5, m=20, cond=100.0, seed=0)
    finally:
        tracer.remove()
    rebound = {key[1] for key, value in before.items() if during[key] is not value}
    assert {"proxlinear_step", "operator_norm", "prox_map", "pgsg_run",
            "catalyst_run", "inner_method"} <= rebound
    assert pr.stochastic is not None
    assert [id(i) for i in tracer.instances] == [id(pr), id(ridge)]
    after = _library_bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert proxkit.GENERATORS == generators  # functions compare by identity


def test_traced_pgsg_counts_one_wrapped_subgradient_per_inner_step():
    # the tracer counts PGSG's inner steps through the stoch_subgrad it
    # wraps, so pgsg_run must call that attribute once per step begun
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        pr = proxkit.GENERATORS["phase_retrieval"](d=5, m=30, outlier_frac=0.1, seed=0)
        sp = pr.stochastic
        report = proxkit.pgsg_run(sp, np.zeros(5), outer_iters=2,
                                  schedule=proxkit.default_schedule(sp.rho),
                                  rng=proxkit.RandomStream(0, stream_id=200))
    finally:
        tracer.remove()
    steps = report.oracle_calls["stoch_subgrad"]
    assert steps == 2 * proxkit.default_schedule(sp.rho).inner_counts(0) - 1
    assert tracer.oracle["subgrad"] == steps
    assert tracer.spans["pgsg_run"].counts["direct.subgrad"] == steps


def test_traced_catalyst_svrg_counts_every_component_gradient():
    # the tracer counts component gradients through the callables it
    # wraps: _grad_i once per SVRG draw, _all_grads m per anchor (and one
    # grad_table), _full_grad m per full gradient
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        ridge = proxkit.GENERATORS["ridge"](d=5, m=20, cond=100.0, seed=0)
        prob = ridge.problem
        report = proxkit.catalyst_run(
            prob, proxkit.inner_method("svrg"), proxkit.choose_kappa(prob, "svrg"),
            np.zeros(5), outer_iters=3, eps=0.0,
            rng=proxkit.RandomStream(0, stream_id=17))
    finally:
        tracer.remove()
    assert tracer.oracle["grad_i"] == report.oracle_calls["grad_i"] == 20 + 3 * 3 * 20
    # each outer step is one epoch between two anchors
    assert tracer.spans["InnerMethod.run"].counts["grad_table"] == 2 * 3
