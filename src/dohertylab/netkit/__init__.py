"""General linear AC multiport network engine.

Element models, modified nodal analysis, two-port conversions, power
accounting and Touchstone I/O.  This is the simulation substrate used to
cross-check every closed-form combiner result in the rest of the package.
"""

from .elements import (
    Capacitor,
    Component,
    CoupledInductors,
    CurrentSource,
    IdealTransformer,
    Inductor,
    Resistor,
    TransmissionLine,
)
from .mna import (
    AnalysisResult,
    ColumnsResult,
    SingularSystemError,
    assemble,
    check_network,
    solve,
    solve_columns,
)
from .netlist import Netlist, NetworkTopologyError, Placed
from .touchstone import (
    TouchstoneData,
    export_touchstone,
    read_touchstone,
    s_parameters,
    write_touchstone,
)
from .twoport import Series, Shunt, TwoPortMatrix, input_impedance, two_port_matrix

__all__ = [
    "Resistor",
    "Inductor",
    "Capacitor",
    "CoupledInductors",
    "IdealTransformer",
    "TransmissionLine",
    "CurrentSource",
    "Component",
    "Netlist",
    "Placed",
    "NetworkTopologyError",
    "AnalysisResult",
    "ColumnsResult",
    "SingularSystemError",
    "assemble",
    "check_network",
    "solve",
    "solve_columns",
    "Series",
    "Shunt",
    "TwoPortMatrix",
    "two_port_matrix",
    "input_impedance",
    "s_parameters",
    "export_touchstone",
    "write_touchstone",
    "read_touchstone",
    "TouchstoneData",
]

