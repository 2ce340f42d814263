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
"""

from .ideal import (
    DohertyConfig,
    current_profile,
    ideal_efficiency,
    itr_conv,
    itr_intro,
    pbo_level,
    zero_itr_alpha,
)
from .synth import (
    DesignConsistencyError,
    PiNetwork,
    ThreeLineDesign,
    TransformerCombinerDesign,
    TwoLineDesign,
    pi_approx,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
    transformer_combiner_explicit_netlist,
)

__all__ = [
    "DohertyConfig",
    "current_profile",
    "pbo_level",
    "itr_conv",
    "itr_intro",
    "zero_itr_alpha",
    "ideal_efficiency",
    "TwoLineDesign",
    "ThreeLineDesign",
    "PiNetwork",
    "TransformerCombinerDesign",
    "DesignConsistencyError",
    "synth_two_line",
    "synth_three_line",
    "pi_approx",
    "synth_transformer_combiner",
    "to_netlist",
    "transformer_combiner_explicit_netlist",
]

__version__ = "0.1.0"
