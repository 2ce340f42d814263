"""The benchmark's tracer patches package names from outside
(``perfbench/tracing.py``); every name it patches must exist, so that
deleting one fails here and not only in the benchmark's own smoke run."""

import importlib.util
import os

from dohertylab import analysis, cli

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


def test_tracer_installs_on_every_patched_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (analysis.solve, cli.main)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (analysis.solve, cli.main) == originals
