"""dohertylab: closed-form Doherty power-combiner synthesis with an
independent AC-network verification engine.

Layers:

* :mod:`dohertylab.netkit` - general linear multiport AC solver (MNA),
  two-port algebra, Touchstone I/O; the oracle everything is checked
  against.
* :mod:`dohertylab.ideal` - closed-form current split, back-off and
  impedance-transformation-ratio math, ideal efficiency models.
* :mod:`dohertylab.synth` - component-value synthesis and netlist
  emission for the two-line, three-line and two-transformer combiners.
* :mod:`dohertylab.analysis` / :mod:`dohertylab.cells` /
  :mod:`dohertylab.evm` - load-modulation sweeps, bandwidth and passive
  efficiency studies, behavioral PA simulation, 64QAM EVM.
* :mod:`dohertylab.cli` - ``dohertylab synth|analyze|export``.

Importing the package loads none of them: each public name below resolves
on first use, from the submodule that defines it.
"""

import importlib

#: the submodule that defines each public name
_SOURCES = {
    **dict.fromkeys(("DohertyConfig", "current_profile", "pbo_level", "itr_conv", "itr_intro",
                     "zero_itr_alpha", "ideal_efficiency"), "ideal"),
    **dict.fromkeys(("TwoLineDesign", "ThreeLineDesign", "PiNetwork", "TransformerCombinerDesign",
                     "synth_two_line", "synth_three_line", "pi_approx",
                     "synth_transformer_combiner", "to_netlist",
                     "transformer_combiner_explicit_netlist"), "synth"),
    "DesignConsistencyError": "errors",
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its submodule on first use."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
