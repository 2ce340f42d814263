"""The benchmark's tracer patches package names from outside
(``perfbench/tracing.py``); every name it patches must exist, so that
deleting one fails here and not only in the benchmark's own smoke run.
The counts it reports for the solver's work are pinned here too."""

import importlib.util
import os

import numpy as np
import pytest

from dohertylab import analysis, cli
from dohertylab.netkit import s_parameters, solve_columns

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_on_every_patched_name():
    originals = (analysis.solve, cli.main)
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (analysis.solve, cli.main) == originals


@pytest.mark.parametrize("work, assembles, lapacks, columns", [
    # one point, two drive columns: one matrix, one solve
    (lambda net, f0: solve_columns(net, f0, {"main": [1.0, 2.0]}), 1, 1, 2),
    # three points: one layout, one solve per point
    (lambda net, f0: solve_columns(net, f0 * np.array([0.9, 1.0, 1.1]), {"main": [1.0, 2.0]}),
     1, 3, 6),
    # 600 points across chunk edges: still one layout, one solve per point
    (lambda net, f0: solve_columns(net, f0 * np.linspace(0.8, 1.2, 600), {"main": [1.0, 2.0]}),
     1, 600, 1200),
    # two points, one column per port
    (lambda net, f0: s_parameters(net, ["main", "aux", "load"], [0.9 * f0, f0]), 1, 2, 6),
], ids=["single-point", "sweep", "chunked-sweep", "s-parameters"])
def test_traced_solver_counts(work, assembles, lapacks, columns, tf_net, proto_cfg):
    tracer = _tracer()
    try:
        tracer.install()
        work(tf_net, proto_cfg.f0)
    finally:
        tracer.uninstall()
    assert tracer.calls["mna.assemble"] == assembles
    assert tracer.calls["mna.lapack"] == lapacks
    assert tracer.counts["rhs_columns"] == columns
