"""Complex-valued modified nodal analysis at one frequency or over a sweep.

Two entries share one assembly and one solution-acceptance check:
:func:`solve` solves one operating point and reports it per node and per
element, :func:`solve_columns` factors the matrix once for K drive
columns and reports arrays with one entry per column.  Given an array of
frequencies, :func:`solve_columns` validates and numbers the netlist once,
stamps the frequencies ``CHUNK`` at a time into a frequency-major
(F, n, n) stack, solves each frequency's matrix for its K columns, checks
and reads back each chunk in batched array operations and reports arrays
with a leading frequency axis.

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
from collections.abc import Iterator
from dataclasses import dataclass, replace

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

#: frequencies stamped and checked together in a sweep: enough to spread
#: the Python work of each stamp over many frequencies, few enough that a
#: dense sweep holds only a chunk of matrices (256 of 9x9 are 0.3 MB)
CHUNK = 256


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
    """Solution of K drive columns at one frequency or at each of F.

    At one frequency ``x`` holds the unknowns with the ground row (zero)
    last, shape (n+1, K), and every other array has one entry per column.
    Over a sweep ``freq`` is the frequency array, every other array is
    (F, K) and ``x`` is None: the solutions are read back a chunk at a
    time and not kept.  ``injected_power`` counts the driven ports and the
    current-source elements.  Powers are time-averaged watts.
    """

    freq: float | np.ndarray
    x: np.ndarray | None
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

    def matrices(self, freqs: np.ndarray) -> np.ndarray:
        """The matrices at each of ``freqs``, shape (F, size, size)."""
        n = self.size
        A = np.zeros((len(freqs), n + 1, n + 1), dtype=complex)
        by_entry = A.transpose(1, 2, 0)  # by_entry[i, j] is A[:, i, j]
        b = np.zeros(n + 1, dtype=complex)  # no stamp puts a frequency into b
        for e, t, a in self.slots:
            e.component.stamp(by_entry, b, t, a, freqs)
        return A[:, :n, :n]


def _sweep_frequencies(freqs) -> np.ndarray:
    """``freqs`` as a float array; ValueError unless it is a non-empty 1-D
    array of positive, finite frequencies."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError(
            f"analysis frequencies must be a non-empty 1-D array, got shape {freqs.shape}"
        )
    bad = ~(np.isfinite(freqs) & (freqs > 0))
    if bad.any():
        raise ValueError(
            f"analysis frequency must be positive and finite, got {freqs[bad][0]}"
        )
    return freqs


def assemble(netlist: Netlist, freq: float) -> MnaSystem:
    """Build the MNA matrix of ``netlist`` at ``freq`` hertz."""
    if not 0 < freq < math.inf:
        raise ValueError(f"analysis frequency must be positive and finite, got {freq}")
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


def _assembled(
    netlist: Netlist, freq: float, drives: dict, columns: int | None
) -> tuple[MnaSystem, np.ndarray]:
    """The system at ``freq`` and its (size, K) right-hand side, K being
    ``columns`` or 1 for scalar drives."""
    system = assemble(netlist, freq)
    if not drives and not any(e.component.source for e in netlist.elements):
        raise ValueError("no excitation: provide port currents or source elements")
    rhs = system.rhs(drives, columns)
    return system, rhs.reshape(len(rhs), -1)


def _solve_one(
    system: MnaSystem, rhs: np.ndarray, rel_tol: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve at ``system``'s frequency: the solution with the ground row
    (zero) appended, (size+1, K), and the residuals of :func:`_accepted`."""
    x = np.zeros((system.size + 1, rhs.shape[1]), dtype=complex)
    x[:-1] = _lapack(system.matrix, rhs)
    return x, _accepted(system, system.matrix, x[:-1], rhs, rel_tol)


def _solved_chunks(
    system: MnaSystem, rhs: np.ndarray, freqs: np.ndarray, rel_tol: float | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Solve at each of ``freqs``, ``system`` being assembled at the first:
    one ``np.linalg.solve`` per frequency, ``CHUNK`` frequencies stamped
    and checked at a time.

    Yields per chunk of f frequencies the index of its first frequency,
    the solutions with the ground row (zero) appended, (f, size+1, K), and
    the residuals of :func:`_accepted`, (f, K).  A sweep holds one chunk
    of solutions at a time.
    """
    for start in range(0, len(freqs), CHUNK):
        at = freqs[start : start + CHUNK]
        A = system.matrices(at)
        x = np.zeros((len(at), system.size + 1, rhs.shape[1]), dtype=complex)
        for j in range(len(at)):
            x[j, :-1] = _lapack(A[j], rhs)
        yield start, x, _accepted(system, A, x[:, :-1], rhs, rel_tol, at)


def _lapack(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, with NaN for a singular matrix, which fails
    the acceptance test."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, math.nan)


def _accepted(
    system: MnaSystem,
    A: np.ndarray,
    x: np.ndarray,
    rhs: np.ndarray,
    rel_tol: float | None,
    freqs: np.ndarray | None = None,
) -> np.ndarray:
    """Each column's KCL residual relative to its largest drive: (K,) for
    one matrix ``A``, (f, K) for a stack of matrices at ``freqs``.

    A frequency is rejected when a column's residual exceeds 1e-6 of its
    largest drive (at least 1 A), which is diagnosed as a singular system,
    or when ``rel_tol`` is given and a relative residual exceeds it.  The
    first rejected frequency raises, as a loop of single solves would.
    """
    floor = np.maximum(np.abs(rhs).max(axis=0), 1e-300)
    residual = np.abs(A @ x - rhs).max(axis=-2)
    relative = residual / floor
    # relative <= 1e-6 implies residual <= 1e-6 * max(|rhs|, 1): one test
    # passes most solutions
    if relative.max() <= (1e-6 if rel_tol is None else min(rel_tol, 1e-6)):
        return relative
    columns = len(floor)
    residual, worst = residual.reshape(-1, columns), relative.reshape(-1, columns).max(axis=1)
    singular = ~(residual <= 1e-6 * np.maximum(floor, 1.0)).all(axis=1)  # NaN fails
    rejected = singular if rel_tol is None else singular | (worst > rel_tol)
    if rejected.any():
        j = int(np.argmax(rejected))
        if not singular[j]:
            raise SingularSystemError(
                f"solution rejected: KCL residual {worst[j]:.2e} exceeds {rel_tol}"
            )
        if freqs is not None:
            system = replace(system, freq=float(freqs[j]), matrix=A[j])
        raise _diagnose_singular(system)
    return relative


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
    system, rhs = _assembled(netlist, freq, excitations, None)
    x, kcl_residual = _solve_one(system, rhs, RESIDUAL_TOL)
    return _package(system, excitations, x[:, 0], float(kcl_residual[0]))


def solve_columns(
    netlist: Netlist,
    freq: float | np.ndarray,
    drives: dict[str, np.ndarray],
) -> ColumnsResult:
    """Solve ``netlist`` at ``freq`` for K drive columns with one
    factorization.

    ``drives`` maps port names to 1-D arrays of K complex peak currents,
    column k of every array making one operating point; current-source
    elements contribute to every column.  Each column passes the same
    acceptance check as :func:`solve`, and agrees with it.

    ``freq`` may be a 1-D array of F frequencies: the same K columns are
    then solved at each frequency on one validated netlist layout, and the
    result carries a leading frequency axis (see :class:`ColumnsResult`).
    """
    drives = {p: np.asarray(i, dtype=complex) for p, i in drives.items()}
    lengths = {i.shape for i in drives.values()}
    if len(lengths) > 1 or any(len(shape) != 1 or shape[0] == 0 for shape in lengths):
        raise ValueError(f"drives must be 1-D arrays of one nonzero length, got {lengths}")
    columns = lengths.pop()[0] if lengths else 1
    # isinstance first: np.ndim of a float costs about 1 us a solve
    if isinstance(freq, (int, float)) or np.ndim(freq) == 0:
        system, rhs = _assembled(netlist, freq, drives, columns)
        x, kcl_residual = _solve_one(system, rhs, RESIDUAL_TOL)
        voltages, load, injected = _read_powers(system, drives, x, freq)
        return ColumnsResult(freq, x, voltages, load, injected, kcl_residual)

    freqs = _sweep_frequencies(freq)
    system, rhs = _assembled(netlist, float(freqs[0]), drives, columns)
    shape = (len(freqs), columns)
    voltages = {port: np.empty(shape, dtype=complex) for port in netlist.ports}
    load, injected, kcl_residual = np.empty(shape), np.empty(shape), np.empty(shape)
    for start, x, relative in _solved_chunks(system, rhs, freqs, RESIDUAL_TOL):
        rows = slice(start, start + len(x))
        # unknowns first and frequencies down a column, so that element
        # values of shape (f, 1) broadcast over the K drive columns
        chunk = _read_powers(system, drives, x.transpose(1, 0, 2), freqs[rows, None])
        for port, v in chunk[0].items():
            voltages[port][rows] = v
        load[rows], injected[rows], kcl_residual[rows] = chunk[1], chunk[2], relative
    return ColumnsResult(freqs, None, voltages, load, injected, kcl_residual)


def _read_powers(
    system: MnaSystem, drives: dict[str, np.ndarray], x: np.ndarray, freq
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Port voltages, load power and injected power (driven ports and
    current sources) of the solutions ``x``, indexed by unknown on the
    first axis, at ``freq``, which broadcasts against ``x[i]``."""
    netlist, index = system.netlist, system.node_index
    port_voltages = {
        port: x[index[plus]] - x[index[minus]] for port, (plus, minus) in netlist.ports.items()
    }
    injected = np.zeros(x.shape[1:])
    for port, current in drives.items():
        injected += 0.5 * (port_voltages[port] * current.conjugate()).real
    loads = {e.name for e in netlist.load_terminations()}
    load_power = np.zeros(x.shape[1:])
    for e, t, a in system.slots:
        if e.name in loads:
            load_power += e.component.readback(x, t, a, freq)[1]
        elif e.component.source:
            (current,), _ = e.component.readback(x, t, a, freq)
            injected += 0.5 * ((x[t[0]] - x[t[1]]) * current.conjugate()).real
    return port_voltages, load_power, injected


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
