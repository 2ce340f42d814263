"""Complex-valued modified nodal analysis at one operating point or over a sweep.

:func:`solve_columns` factors the matrix once for K drive columns and
reports arrays with one entry per column; :func:`solve` is its
one-column case with every element probed, reported per node and per
element in Python numbers.  One readback serves both.  Given an array of
frequencies, :func:`solve_columns` validates and numbers the netlist
once, stamps the frequencies ``CHUNK`` at a time into a point-major
(V, n, n) stack, solves each point's matrix for its K columns, checks
and reads back each chunk in batched array operations and reports arrays
with a leading point axis.
:func:`check_network` judges a network at one frequency for every drive
at once and for the error that rounding its matrix may cause.

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
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InputError
from .netlist import Netlist, NetworkTopologyError, Placed

__all__ = [
    "AnalysisResult",
    "ColumnsResult",
    "SingularSystemError",
    "check_network",
    "solve",
    "solve_columns",
    "assemble",
    "MnaSystem",
]

#: normwise backward error above which :func:`_accepted` rejects a solution
BACKWARD_ERROR_TOL = 1e-12

#: relative error that rounding a matrix to double precision may cause in
#: its solutions, above which :func:`check_network` rejects the network: a
#: fifth of the 0.5% to which the acceptance criteria hold a synthesized
#: combiner's network to its closed forms
ROUNDING_ERROR_TOL = 1e-3

#: points stamped and checked together in a sweep: enough to spread the
#: Python work of each stamp over many points, few enough that a dense
#: sweep holds only a chunk of matrices (256 of 9x9 are 0.3 MB)
CHUNK = 256


class SingularSystemError(RuntimeError):
    """The MNA matrix could not be solved reliably."""

    def __init__(self, msg: str, node: str | None = None, element: str | None = None):
        super().__init__(msg)
        self.node = node
        self.element = element


@dataclass
class AnalysisResult:
    """Solution of one AC operating point, per node and per element: the
    one column of ``columns`` (see :func:`solve`) as Python numbers.

    ``branch_currents`` maps element name to per-winding/per-port currents
    flowing *into* the element at its first node of each terminal pair.
    ``element_power`` covers every element but the load termination, whose
    power is ``load_power``.  Powers are time-averaged watts.
    ``backward_error`` is :func:`_accepted`'s.
    """

    freq: float
    node_voltages: dict[str, complex]
    branch_currents: dict[str, tuple[complex, ...]]
    element_power: dict[str, float]
    port_injected_power: dict[str, float]
    load_power: float
    backward_error: float
    columns: ColumnsResult = field(repr=False, compare=False)

    def port_voltage(self, netlist: Netlist, port: str) -> complex:
        plus, minus = netlist.ports[port]
        return self.node_voltages[plus] - self.node_voltages[minus]

    def total_injected(self) -> float:
        return sum(self.port_injected_power.values())

    def passive_efficiency(self) -> float:
        """:meth:`ColumnsResult.passive_efficiency` of the one column."""
        return self.columns.passive_efficiency().item()

    def total_dissipated(self) -> float:
        return sum(self.element_power.values())

    def power_balance_residual(self) -> float:
        """Relative imbalance of injected = dissipated + delivered."""
        injected = self.total_injected()
        out = self.total_dissipated() + self.load_power
        scale = max(abs(injected), abs(out), 1e-300)
        return abs(injected - out) / scale


@dataclass(eq=False)
class ColumnsResult:
    """Solution of K drive columns at one operating point or at each of V.

    At one point ``x`` holds the unknowns with the ground row (zero) last,
    (n+1, K), of ``system``, and every other array has one entry per
    column.  Over a sweep they are (V, K) and ``x`` and ``system`` None.
    ``injected_power`` totals ``port_injected_power``: the driven ports'
    and, as ``source:<name>``, the current sources'.  ``node_voltages``,
    ``branch_currents`` (as in :class:`AnalysisResult`) and
    ``element_power`` cover the probed elements, the last leaving out the
    load termination, whose power is ``load_power``.  Powers are
    time-averaged watts.  ``backward_error`` is :func:`_accepted`'s.
    ``load_power``, ``injected_power`` and ``port_injected_power`` are
    None when :func:`solve_columns` was asked for no powers.
    """

    freq: float | np.ndarray
    x: np.ndarray | None
    port_voltages: dict[str, np.ndarray]
    backward_error: np.ndarray
    load_power: np.ndarray | None = None
    injected_power: np.ndarray | None = None
    node_voltages: dict[str, np.ndarray] = field(default_factory=dict)
    branch_currents: dict[str, tuple[np.ndarray, ...]] = field(default_factory=dict)
    element_power: dict[str, np.ndarray] = field(default_factory=dict)
    port_injected_power: dict[str, np.ndarray] | None = None
    system: MnaSystem | None = field(default=None, repr=False, compare=False)

    def combined(self, drives: dict[str, np.ndarray], weights: np.ndarray) -> ColumnsResult:
        """The L solutions ``x @ weights`` of this one-point result, read back
        with powers for their port currents ``drives`` (by linearity, if the
        sources' weights sum to one); each has the K columns' worst backward error."""
        x = self.x @ weights
        eta = np.full(x.shape[1], np.maximum.reduce(self.backward_error))
        return ColumnsResult(self.freq, x, backward_error=eta,
                             **_readback(self.system, drives, x, self.freq))

    def passive_efficiency(self) -> np.ndarray:
        """Fraction of the injected power that reaches the load port's
        termination; NaN where no power is injected."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.injected_power > 0, self.load_power / self.injected_power, math.nan
            )


@dataclass(eq=False)
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

    def rhs(self, drives: dict[str, np.ndarray], columns: int) -> np.ndarray:
        """Right-hand side, (size, ``columns``): the current sources in
        every column plus each port's drive, a 1-D array of ``columns``
        currents.  The ground row is left out, not written and dropped."""
        n, index, ports = self.size, self.node_index, self.netlist.ports
        b = np.empty((n, columns), dtype=complex)
        b[:] = self.source_rhs[:n, None]
        for port, current in drives.items():
            if port not in ports:
                raise InputError(f"unknown port '{port}'")
            plus, minus = ports[port]
            if (i := index[plus]) < n:
                b[i] += current
            if (i := index[minus]) < n:
                b[i] -= current
        return b

    def matrices(self, freq: np.ndarray) -> np.ndarray:
        """The (points, size, size) matrices at ``freq``, one frequency
        per point.  A value beyond float range stays in them: no solution
        passes :func:`_accepted` there, and :func:`_diagnose_singular`
        names the element."""
        n = self.size
        A = np.zeros((len(freq), n + 1, n + 1), dtype=complex)
        by_entry = A.transpose(1, 2, 0)  # by_entry[i, j] is A[:, i, j]
        b = np.zeros(n + 1, dtype=complex)  # no stamp puts a frequency into b
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for e, t, a in self.slots:
                e.component.stamp(by_entry, b, t, a, freq)
        return A[:, :n, :n]


def _sweep_frequencies(freqs) -> np.ndarray:
    """``freqs`` as a float array; ValueError unless it is a non-empty 1-D
    array of positive, finite frequencies."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InputError(
            f"analysis frequencies must be a non-empty 1-D array, got shape {freqs.shape}"
        )
    bad = ~(np.isfinite(freqs) & (freqs > 0))
    if bad.any():
        raise InputError(
            f"analysis frequency must be positive and finite, got {freqs[bad][0]}"
        )
    return freqs


def assemble(netlist: Netlist, freq: float) -> MnaSystem:
    """Build the MNA matrix of ``netlist`` at ``freq`` hertz; a value beyond
    float range is left to :func:`_diagnose_singular`, as in a sweep."""
    if not 0 < freq < math.inf:
        raise InputError(f"analysis frequency must be positive and finite, got {freq}")
    nodes = netlist.validate()
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
        slots.append((e, t, a))
        try:
            e.component.stamp(A, b, t, a, freq)
        except ZeroDivisionError:  # Python's complex 1/0, where an array gets inf
            raise _out_of_range(slots, n, np.full(1, freq)) from None
    return MnaSystem(netlist, freq, A[:n, :n], b, node_index, slots)


def _out_of_range(slots, n: int, freq) -> NetworkTopologyError:
    """The error for a matrix of ``n`` unknowns stamped by ``slots`` at
    ``freq`` (a float, or an array of one point, stamped as they were)
    that holds a value beyond float range: it names the first element
    whose stamp puts one there."""
    A = np.zeros((n + 1, n + 1, *np.shape(freq)), dtype=complex)
    b = np.zeros(n + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e, t, a in slots:
            e.component.stamp(A, b, t, a, freq)
            if not np.isfinite(A[:n, :n]).all():
                break
    return NetworkTopologyError(
        f"a value of element '{e.name}' leaves float range at {np.max(freq):g} Hz", element=e.name
    )


def _diagnose_singular(
    system: MnaSystem, x: np.ndarray, eta: float
) -> SingularSystemError | NetworkTopologyError:
    """The error for a rejected solution ``x`` of ``system``, of worst
    backward error ``eta``: an element that leaves float range, else an
    unconstrained unknown by name, else a singular matrix if ``x`` is not
    finite, else ``eta``."""
    A = system.matrix
    if not np.isfinite(A).all():
        return _out_of_range(system.slots, system.size, system.freq)
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
    if not np.isfinite(x).all():
        return SingularSystemError(
            "singular system: the network contains a degenerate (all-ideal) loop "
            "or an unconstrained node"
        )
    return SingularSystemError(
        f"solution rejected: backward error {eta:.2e} exceeds {BACKWARD_ERROR_TOL:g}"
    )


def _solved_chunks(
    system: MnaSystem, rhs: np.ndarray, freqs: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Solve on the layout of ``system`` at each of ``freqs``: one
    ``np.linalg.solve`` per frequency, ``CHUNK`` frequencies stamped and
    checked at a time, so a sweep holds one chunk of solutions.

    Yields per chunk of f frequencies its rows, the frequencies there,
    the solutions with the ground row (zero) appended, (f, size+1, K),
    and the result of :func:`_accepted`, (f, K).
    """
    for start in range(0, len(freqs), CHUNK):
        rows = slice(start, min(start + CHUNK, len(freqs)))
        at = freqs[rows]
        A = system.matrices(at)
        x = np.zeros((len(A), system.size + 1, rhs.shape[1]), dtype=complex)
        for j in range(len(A)):
            x[j, :-1] = _lapack(A[j], rhs)
        yield rows, at, x, _accepted(system, A, x[:, :-1], rhs, at)


def _lapack(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, with NaN for a singular matrix, which fails
    the acceptance test."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, math.nan)


def _accepted(
    system: MnaSystem, A: np.ndarray, x: np.ndarray, rhs: np.ndarray, freqs=None
) -> np.ndarray:
    """Each column's normwise backward error: (K,) for one matrix ``A``,
    (f, K) for a stack of f matrices at ``freqs``.

    With D = diag(1 / sum_j |A_ij|), which scales each row of ``A`` to
    unit 1-norm, the backward error of a column x is
    ||D(Ax - b)|| / (||x|| + ||Db||) in the infinity norm: the smallest
    relative change to DA and Db that makes x exact (Rigal and Gaches,
    1967; Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 7), whatever the units of the rows.  A point is rejected when a
    column's exceeds :data:`BACKWARD_ERROR_TOL` or is NaN; the first
    rejected point raises, as a loop of single solves would.
    """
    # an empty row divides by zero, an infinite x makes inf/inf and so
    # does an entry of A beyond float range: NaN rejects all three; a
    # scale that overflows leaves eta 0 only for a finite residual (a row
    # sum by matrix product is the fastest on small rows; the reductions
    # are called as ufuncs, without the Python wrappers of the array
    # methods)
    most = np.maximum.reduce
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = (np.abs(A) @ np.ones(A.shape[-1]))[..., None]
        residual = most(np.abs(A @ x - rhs) / rows, axis=-2)
        scale = most(np.abs(x), axis=-2) + most(np.abs(rhs) / rows, axis=-2)
        eta = residual / np.maximum(scale, 1e-300)  # a zero column has no residual
    if not most(eta, axis=None) <= BACKWARD_ERROR_TOL:  # NaN fails
        accepted = eta <= BACKWARD_ERROR_TOL
        j = int(np.argmin(accepted.reshape(-1, eta.shape[-1]).all(axis=1)))
        if A.ndim == 3:  # a one-point array: the diagnosis stamps it as the sweep did
            system = replace(system, matrix=A[j], freq=freqs[j:j + 1])
            x, eta = x[j], eta[j]
        raise _diagnose_singular(system, x, eta.max())
    return eta


def check_network(netlist: Netlist, freq: float) -> float:
    """Judge ``netlist`` at ``freq`` for every drive at once; return the
    condition number of its row-equilibrated matrix, kappa =
    ||DA|| ||(DA)^-1|| in the infinity norm (D as in :func:`_accepted`).

    The columns of A^-1 solve a unit drive into each row, on the factors
    every solve of A uses, so :func:`_accepted` on them rejects a network
    that some drive would be rejected on.  Rounding A's entries to double
    precision (relative error u) may move a solution by about kappa * u,
    which no backward error can see; the network is rejected when that
    exceeds :data:`ROUNDING_ERROR_TOL`.  Raises :class:`SingularSystemError`.
    """
    system = assemble(netlist, freq)
    A, unit = system.matrix, np.eye(system.size)
    inv = _lapack(A, unit)
    _accepted(system, A, inv, unit)
    kappa = (np.abs(inv) @ np.abs(A).sum(axis=1)).max()  # ||A^-1 D^-1||, ||DA|| = 1
    error = kappa * np.finfo(float).eps / 2
    if not error <= ROUNDING_ERROR_TOL:
        raise SingularSystemError(
            f"ill-conditioned network at {freq:.6g} Hz: condition number {kappa:.2e} "
            f"allows a relative error of {error:.1e}, above {ROUNDING_ERROR_TOL:g}"
        )
    return kappa


def solve(
    netlist: Netlist,
    freq: float,
    excitations: dict[str, complex] | None = None,
) -> AnalysisResult:
    """Solve ``netlist`` at ``freq`` with per-port current drives.

    ``excitations`` maps port names to complex peak currents injected into
    the port plus node.  Current-source elements in the netlist contribute
    as well.  This is :func:`solve_columns` for one column with every
    element probed, read per node and per element.  Raises
    :class:`SingularSystemError` on degenerate systems.
    """
    drives = {port: [current] for port, current in (excitations or {}).items()}
    res = solve_columns(netlist, freq, drives, probes={e.name for e in netlist.elements})
    node_voltages = {nd: v.item() for nd, v in res.node_voltages.items()}
    node_voltages.setdefault(netlist.ground, 0j)  # reached only through a line
    return AnalysisResult(
        res.freq,
        node_voltages,
        {e: tuple(c.item() for c in i) for e, i in res.branch_currents.items()},
        {e: p.item() for e, p in res.element_power.items()},
        {key: p.item() for key, p in res.port_injected_power.items()},
        res.load_power.item(),
        res.backward_error.item(),
        res,
    )


def solve_columns(
    netlist: Netlist,
    freq: float | np.ndarray,
    drives: dict[str, np.ndarray],
    probes=(),
    powers: bool = True,
) -> ColumnsResult:
    """Solve ``netlist`` at ``freq`` for K drive columns with one
    factorization.

    ``drives`` maps port names to 1-D arrays of K complex peak currents,
    column k of every array making one operating point; current-source
    elements contribute to every column.  Each column is accepted on its
    own backward error (:func:`_accepted`).  The elements named in
    ``probes`` read back their node voltages, branch currents and
    absorbed power.  Port voltages are always read back, the load and
    injected powers only with ``powers``.

    With ``freq`` a 1-D array of V frequencies, a sweep solves the same
    K columns at each of them on one netlist layout, with a leading point
    axis on the result.
    """
    drives = {p: np.asarray(i, dtype=complex) for p, i in drives.items()}
    lengths = {i.shape for i in drives.values()} or {(1,)}
    (shape, *others) = lengths
    if others or len(shape) != 1 or shape[0] == 0:
        raise InputError(f"drives must be 1-D arrays of one nonzero length, got {lengths}")
    columns = shape[0]
    if probes and not set(probes) <= {e.name for e in netlist.elements}:
        raise InputError(f"unknown element among probes {sorted(probes)}")
    # isinstance first: np.ndim of a float costs about 1 us a solve
    one_freq = isinstance(freq, (int, float)) or np.ndim(freq) == 0
    freqs = float(freq) if one_freq else _sweep_frequencies(freq)
    system = assemble(netlist, freq if one_freq else float(freqs[0]))
    if not drives and not any(e.component.source for e in netlist.elements):
        raise InputError("no excitation: provide port currents or source elements")
    rhs = system.rhs(drives, columns)
    if one_freq:
        x = np.zeros((system.size + 1, columns), dtype=complex)  # the ground row stays 0
        x[:-1] = _lapack(system.matrix, rhs)
        eta = _accepted(system, system.matrix, x[:-1], rhs)
        read = _readback(system, drives, x, freq, probes, powers)
        return ColumnsResult(freq, x, backward_error=eta, system=system, **read)

    by_column = {port: i[:, None] for port, i in drives.items()}
    whole = None
    for rows, at, x, eta in _solved_chunks(system, rhs, freqs):
        # unknowns first and points last, so that values per frequency
        # broadcast over the K drive columns; each result is (K, f)
        read = _readback(system, by_column, x.transpose(1, 2, 0), at, probes, powers)
        read["backward_error"] = eta.T
        whole = _gathered(whole, read, rows, (len(freqs), columns))
    return ColumnsResult(freqs, None, **whole)


def _gathered(whole, part, rows: slice, shape: tuple[int, int]):
    """``whole`` (None before the first chunk) with a chunk's readback
    ``part`` written to ``rows`` of its (V, K) arrays; ``part`` holds
    (K, f) arrays in dicts and tuples as ``whole`` does."""
    if isinstance(part, dict):
        return {k: _gathered(whole and whole[k], v, rows, shape) for k, v in part.items()}
    if isinstance(part, tuple):
        return tuple(_gathered(whole and whole[j], v, rows, shape) for j, v in enumerate(part))
    if whole is None:
        whole = np.empty(shape, dtype=part.dtype)
    whole[rows] = part.T
    return whole


def _readback(
    system: MnaSystem, drives: dict[str, np.ndarray], x: np.ndarray, freq, probes=(),
    powers: bool = True,
) -> dict:
    """The :class:`ColumnsResult` fields of the solutions ``x``, indexed by
    unknown on the first axis, other than ``freq``, ``x`` and
    ``backward_error``: port voltages, the ``probes``' node voltages,
    branch currents and absorbed power (the load termination's is the
    load power), and with ``powers`` the power each driven port and
    current source injects, their total and the load power.  ``freq``
    broadcasts against ``x[i]``."""
    netlist, index = system.netlist, system.node_index
    port_voltages = {
        port: x[index[plus]] - x[index[minus]] for port, (plus, minus) in netlist.ports.items()
    }
    nodes, currents, absorbed = {}, {}, {}
    read = dict(port_voltages=port_voltages, node_voltages=nodes, branch_currents=currents,
                element_power=absorbed)
    if not (powers or probes):
        return read
    injected = {p: 0.5 * (port_voltages[p] * i.conjugate()).real
                for p, i in drives.items()} if powers else {}
    loads = {e.name for e in netlist.load_terminations()}
    load_powers = []
    for e, t, a in system.slots:
        probed = e.name in probes
        booked = powers and (e.name in loads or e.component.source)
        if not (probed or booked):
            continue
        branch, p = e.component.readback(x, t, a, freq)
        if probed:
            currents[e.name] = branch
            nodes.update((nd, x[index[nd]]) for nd in e.nodes)
        if e.name in loads:
            load_powers.append(p)
        elif probed:
            absorbed[e.name] = p
        if booked and e.component.source:
            dv = x[t[0]] - x[t[1]]
            injected[f"source:{e.name}"] = 0.5 * (dv * branch[0].conjugate()).real
    if powers:
        # sums start from 0, as from an array of zeros (a solve always injects)
        read.update(load_power=sum(load_powers) if load_powers else np.zeros(x.shape[1:]),
                    injected_power=sum(injected.values()), port_injected_power=injected)
    return read
