"""General linear AC multiport network engine.

Element models, modified nodal analysis, power accounting and
Touchstone I/O.  This is the simulation substrate used to cross-check
every closed-form combiner result in the rest of the package.
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
    ColumnsResult,
    SingularSystemError,
    assemble,
    check_network,
    solve,
    solve_columns,
    unit_columns,
)
from .netlist import Netlist, NetworkTopologyError, Placed
from .touchstone import (
    TouchstoneData,
    read_touchstone,
    s_parameters,
    write_touchstone,
)

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
    "ColumnsResult",
    "SingularSystemError",
    "assemble",
    "check_network",
    "solve",
    "solve_columns",
    "unit_columns",
    "s_parameters",
    "write_touchstone",
    "read_touchstone",
    "TouchstoneData",
]

