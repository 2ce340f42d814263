"""Complex-valued modified nodal analysis at a single frequency.

Two entries share one assembly and one solution-acceptance check:
:func:`solve` solves one operating point and reports it per node and per
element, :func:`solve_columns` factors the matrix once for K drive
columns and reports arrays with one entry per column.

Unknowns are the non-ground node voltages plus the auxiliary branch
currents each element asks for.  Elements stamp and read themselves back
(:mod:`~dohertylab.netkit.elements`); this module numbers the unknowns,
solves and books the powers.  Ground is a trailing slot of the matrix,
the right-hand side and the solution: stamps write to it freely, it is
dropped before the solve and comes back as a zero.

Sign conventions: KCL rows sum currents *leaving* each node through
elements; sources and port excitations enter on the right-hand side.
Phasors are peak amplitudes (P = |V|^2 / 2R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netlist import Netlist, Placed

__all__ = [
    "AnalysisResult",
    "ColumnsResult",
    "SingularSystemError",
    "solve",
    "solve_columns",
    "assemble",
    "MnaSystem",
]

#: relative KCL residual above which a solution is rejected as unreliable
RESIDUAL_TOL = 1e-9


class SingularSystemError(RuntimeError):
    """The MNA matrix could not be solved reliably."""

    def __init__(self, msg: str, node: str | None = None, element: str | None = None):
        super().__init__(msg)
        self.node = node
        self.element = element


@dataclass
class AnalysisResult:
    """Solution of one AC operating point.

    ``branch_currents`` maps element name to per-winding/per-port currents
    flowing *into* the element at its first node of each terminal pair.
    Powers are time-averaged watts.
    """

    freq: float
    node_voltages: dict[str, complex]
    branch_currents: dict[str, tuple[complex, ...]]
    element_power: dict[str, float]
    port_injected_power: dict[str, float]
    load_power: float
    kcl_residual: float

    def port_voltage(self, netlist: Netlist, port: str) -> complex:
        plus, minus = netlist.ports[port]
        return self.node_voltages[plus] - self.node_voltages[minus]

    def total_injected(self) -> float:
        return sum(self.port_injected_power.values())

    def passive_efficiency(self) -> float:
        """Fraction of the injected power that reaches the load port's
        termination; NaN when no power is injected."""
        injected = self.total_injected()
        return self.load_power / injected if injected > 0 else math.nan

    def total_dissipated(self) -> float:
        return sum(self.element_power.values())

    def power_balance_residual(self) -> float:
        """Relative imbalance of injected = dissipated + delivered."""
        injected = self.total_injected()
        out = self.total_dissipated() + self.load_power
        scale = max(abs(injected), abs(out), 1e-300)
        return abs(injected - out) / scale


@dataclass
class ColumnsResult:
    """Solution of K drive columns at one frequency.

    ``x`` holds the unknowns with the ground row (zero) last, one column
    per drive column; every other array has one entry per column.
    ``injected_power`` counts the driven ports and the current-source
    elements.  Powers are time-averaged watts.
    """

    freq: float
    x: np.ndarray
    port_voltages: dict[str, np.ndarray]
    load_power: np.ndarray
    injected_power: np.ndarray
    kcl_residual: np.ndarray

    def passive_efficiency(self) -> np.ndarray:
        """Fraction of the injected power that reaches the load port's
        termination; NaN where no power is injected."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.injected_power > 0, self.load_power / self.injected_power, math.nan
            )


@dataclass
class MnaSystem:
    """Assembled matrix with its index bookkeeping; ``node_index`` and
    ``source_rhs`` include the ground slot, ``matrix`` does not."""

    netlist: Netlist
    freq: float
    matrix: np.ndarray
    source_rhs: np.ndarray  # contributions from current-source elements
    node_index: dict[str, int]
    slots: list[tuple[Placed, list[int], range]]  # element, terminal and aux slots

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def names(self) -> list[str]:
        """Unknown labels, for diagnostics."""
        names = [""] * self.size
        for node, i in self.node_index.items():
            if i < self.size:
                names[i] = f"V({node})"
        for e, _, a in self.slots:
            for k, i in enumerate(a, 1):
                names[i] = f"I({e.name})" if len(a) == 1 else f"I({e.name}:{k})"
        return names

    def rhs(
        self, drives: dict[str, complex | np.ndarray], columns: int | None = None
    ) -> np.ndarray:
        """Right-hand side: the current sources plus each port's drive.

        With ``columns`` None every drive is a scalar and the shape is
        (size,); otherwise every drive is a 1-D array of ``columns``
        currents, the shape is (size, ``columns``) and the sources are in
        every column.
        """
        if columns is None:
            b = self.source_rhs.copy()
        else:
            b = np.repeat(self.source_rhs[:, None], columns, axis=1)
        for port, current in drives.items():
            if port not in self.netlist.ports:
                raise ValueError(f"unknown port '{port}'")
            plus, minus = self.netlist.ports[port]
            b[self.node_index[plus]] += current
            b[self.node_index[minus]] -= current
        return b[:-1]


def assemble(netlist: Netlist, freq: float) -> MnaSystem:
    """Build the MNA matrix of ``netlist`` at ``freq`` hertz."""
    if freq <= 0:
        raise ValueError(f"analysis frequency must be positive, got {freq}")
    netlist.validate()

    nodes = netlist.nodes()
    n = len(nodes) + sum(e.component.aux for e in netlist.elements)
    node_index = {nd: i for i, nd in enumerate(nodes)}
    node_index[netlist.ground] = n
    A = np.zeros((n + 1, n + 1), dtype=complex)
    b = np.zeros(n + 1, dtype=complex)
    slots = []
    first_aux = len(nodes)
    for e in netlist.elements:
        t = [node_index[nd] for nd in e.nodes]
        a = range(first_aux, first_aux + e.component.aux)
        first_aux = a.stop
        e.component.stamp(A, b, t, a, freq)
        slots.append((e, t, a))
    return MnaSystem(netlist, freq, np.ascontiguousarray(A[:n, :n]), b, node_index, slots)


def _diagnose_singular(system: MnaSystem) -> SingularSystemError:
    A = system.matrix
    for i in range(system.size):
        if not np.any(A[i, :]) or not np.any(A[:, i]):
            label = system.names[i]
            node = label[2:-1] if label.startswith("V(") else None
            element = label[2:-1].split(":")[0] if label.startswith("I(") else None
            return SingularSystemError(
                f"singular system: no constraints for unknown {label}",
                node=node,
                element=element,
            )
    return SingularSystemError(
        "singular system: the network contains a degenerate (all-ideal) loop "
        "or an unconstrained node"
    )


def _solve_accepted(system: MnaSystem, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the right-hand side ``rhs``, one column (size,) or K
    columns (size, K) with one factorization, and reject a column whose
    KCL residual exceeds 1e-6 of its largest drive (at least 1 A).

    Returns the solution with the ground row (zero) appended, and each
    column's residual relative to its largest drive (a 0-d array for one
    column).
    """
    A = system.matrix
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise _diagnose_singular(system) from None
    residual = np.abs(A @ x - rhs).max(axis=0)
    scale = np.abs(rhs).max(axis=0)
    relative = residual / np.maximum(scale, 1e-300)
    # the cheap first test passes most solutions: relative <= 1e-6 implies
    # residual <= 1e-6 * max(scale, 1); NaN fails both tests
    if not relative.max() <= 1e-6 and not (residual <= 1e-6 * np.maximum(scale, 1.0)).all():
        raise _diagnose_singular(system)
    with_ground = np.zeros((len(x) + 1,) + x.shape[1:], dtype=complex)
    with_ground[:-1] = x
    return with_ground, relative


def _solve_drives(
    netlist: Netlist, freq: float, drives: dict, columns: int | None
) -> tuple[MnaSystem, np.ndarray, np.ndarray]:
    """Assemble, solve and reject any column whose relative KCL residual
    exceeds ``RESIDUAL_TOL``."""
    system = assemble(netlist, freq)
    if not drives and not any(e.component.source for e in netlist.elements):
        raise ValueError("no excitation: provide port currents or source elements")
    x, kcl_residual = _solve_accepted(system, system.rhs(drives, columns))
    worst = float(kcl_residual.max())
    if worst > RESIDUAL_TOL:
        raise SingularSystemError(
            f"solution rejected: KCL residual {worst:.2e} exceeds {RESIDUAL_TOL}"
        )
    return system, x, kcl_residual


def solve(
    netlist: Netlist,
    freq: float,
    excitations: dict[str, complex] | None = None,
) -> AnalysisResult:
    """Solve ``netlist`` at ``freq`` with per-port current drives.

    ``excitations`` maps port names to complex peak currents injected into
    the port plus node.  Current-source elements in the netlist contribute
    as well.  Raises :class:`SingularSystemError` on degenerate systems.
    """
    excitations = dict(excitations or {})
    system, x, kcl_residual = _solve_drives(netlist, freq, excitations, None)
    return _package(system, excitations, x, float(kcl_residual))


def solve_columns(
    netlist: Netlist,
    freq: float,
    drives: dict[str, np.ndarray],
) -> ColumnsResult:
    """Solve ``netlist`` at ``freq`` for K drive columns with one
    factorization.

    ``drives`` maps port names to 1-D arrays of K complex peak currents,
    column k of every array making one operating point; current-source
    elements contribute to every column.  Each column passes the same
    acceptance check as :func:`solve`, and agrees with it.
    """
    drives = {p: np.asarray(i, dtype=complex) for p, i in drives.items()}
    lengths = {i.shape for i in drives.values()}
    if len(lengths) > 1 or any(len(shape) != 1 or shape[0] == 0 for shape in lengths):
        raise ValueError(f"drives must be 1-D arrays of one nonzero length, got {lengths}")
    columns = lengths.pop()[0] if lengths else 1
    system, x, kcl_residual = _solve_drives(netlist, freq, drives, columns)

    index = system.node_index
    port_voltages = {
        port: x[index[plus]] - x[index[minus]] for port, (plus, minus) in netlist.ports.items()
    }
    injected = np.zeros(columns)
    for port, current in drives.items():
        injected += 0.5 * (port_voltages[port] * current.conjugate()).real
    loads = {e.name for e in netlist.load_terminations()}
    load_power = np.zeros(columns)
    for e, t, a in system.slots:
        if e.name in loads:
            load_power += e.component.readback(x, t, a, freq)[1]
        elif e.component.source:
            (current,), _ = e.component.readback(x, t, a, freq)
            injected += 0.5 * ((x[t[0]] - x[t[1]]) * current.conjugate()).real
    return ColumnsResult(freq, x, port_voltages, load_power, injected, kcl_residual)


def _package(
    system: MnaSystem,
    excitations: dict[str, complex],
    x: np.ndarray,
    kcl_residual: float,
) -> AnalysisResult:
    netlist, index = system.netlist, system.node_index
    v = x.tolist()
    node_voltages = {n: v[i] for n, i in index.items()}

    branch_currents: dict[str, tuple[complex, ...]] = {}
    element_power: dict[str, float] = {}
    loads = {e.name for e in netlist.load_terminations()}
    load_power = 0.0
    sources: dict[str, float] = {}
    for e, t, a in system.slots:
        currents, p = e.component.readback(v, t, a, system.freq)
        branch_currents[e.name] = currents
        if e.name in loads:
            load_power += p
        else:
            element_power[e.name] = p
        if e.component.source:
            dv = v[t[0]] - v[t[1]]
            sources[f"source:{e.name}"] = 0.5 * (dv * currents[0].conjugate()).real

    port_injected: dict[str, float] = {}
    for port, current in excitations.items():
        plus, minus = netlist.ports[port]
        vp = v[index[plus]] - v[index[minus]]
        port_injected[port] = 0.5 * (vp * current.conjugate()).real
    port_injected.update(sources)

    return AnalysisResult(
        freq=system.freq,
        node_voltages=node_voltages,
        branch_currents=branch_currents,
        element_power=element_power,
        port_injected_power=port_injected,
        load_power=load_power,
        kcl_residual=kcl_residual,
    )
