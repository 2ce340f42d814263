"""Complex-valued modified nodal analysis at one operating point or over a sweep.

:func:`solve_columns` factors the matrix once for K drive columns and
reports arrays with one entry per column; :func:`solve` is its one-column
case, :func:`unit_columns` its unit drive into each port.  Given an array
of V frequencies, it validates and numbers the netlist once, stamps the
frequencies ``CHUNK`` at a time into a point-major stack of matrices,
solves each point's matrix for its K columns and checks each chunk in
batched array operations; it keeps the whole sweep's solutions,
(n+1, V, K), and reports arrays with a leading point axis.  A point, a
batch and a sweep return one result type, :class:`ColumnsResult`, which
reads each of its voltages, currents and powers back from the solutions
when it is first used.
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import InputError, SingularSystemError, require_within
from .netlist import Netlist, NetworkTopologyError, Placed

__all__ = [
    "ColumnsResult",
    "SingularSystemError",
    "check_network",
    "solve",
    "solve_columns",
    "unit_columns",
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


@dataclass(eq=False)
class ColumnsResult:
    """Solution of K drive columns at one operating point or at each of V.

    ``x`` holds the unknowns of ``system`` with the ground row (zero)
    last, (n+1, K) at one point and (n+1, V, K) over a sweep, whose
    ``system`` is stamped at its first frequency; ``drives`` are the port
    currents of its columns.  Every other field is read back from ``x``
    when it is first used, each element at most once, and has one entry
    per column, (K,), or per point and column, (V, K); the ports and load
    terminations are ``system``'s, fixed when it was assembled.
    ``injected_power`` totals ``port_injected_power``: the driven ports'
    and, as ``source:<name>``, the current sources'.  ``node_voltages``,
    ``branch_currents`` and ``element_power`` cover every element: the
    currents per winding or port flow *into* the element at the first
    node of each terminal pair, and the powers leave out the load
    termination, whose power is ``load_power``.  Powers are time-averaged
    watts.  ``backward_error`` is :func:`_accepted`'s.
    """

    freq: float | np.ndarray
    x: np.ndarray
    drives: dict[str, np.ndarray]
    backward_error: np.ndarray
    system: MnaSystem = field(repr=False, compare=False)
    _readbacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def combined(self, drives: dict[str, np.ndarray]) -> ColumnsResult:
        """The solutions of this one-point :func:`unit_columns` result for
        the port currents ``drives``, L per port, by linearity: each unit
        column weighted by its port's currents and, when the netlist has
        current sources, the sources' column by 1 minus the drives, so that
        each solution holds them once; each has the K columns' worst
        backward error."""
        weights = [drives[p] for p in self.drives]
        if len(weights) < self.x.shape[1]:
            weights.append(1.0 - sum(weights))
        x = self.x @ np.array(weights)
        eta = np.full(x.shape[1], np.maximum.reduce(self.backward_error))
        return ColumnsResult(self.freq, x, drives, eta, self.system)

    def unit_response(self, port: str) -> np.ndarray:
        """Port ``port``'s voltage for each unit drive alone of this
        :func:`unit_columns` result of P ports, (P,) or (V, P): each unit
        column less the sources' column, when it has one."""
        v, p = self.port_voltages[port], len(self.drives)
        return v[..., :p] - v[..., p:] if v.shape[-1] > p else v

    def passive_efficiency(self) -> np.ndarray:
        """Fraction of the injected power that reaches the load port's
        termination; NaN where no power is injected."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.injected_power > 0, self.load_power / self.injected_power, math.nan
            )

    @cached_property
    def port_voltages(self) -> dict[str, np.ndarray]:
        return {p: self.x[plus] - self.x[minus] for p, (plus, minus) in self.system.ports.items()}

    @cached_property
    def node_voltages(self) -> dict[str, np.ndarray]:
        x, index = self.x, self.system.node_index
        return {nd: x[index[nd]] for e, _, _ in self.system.slots for nd in e.nodes}

    @cached_property
    def branch_currents(self) -> dict[str, tuple[np.ndarray, ...]]:
        return {e.name: self._read(e, t, a)[0] for e, t, a in self.system.slots}

    @cached_property
    def element_power(self) -> dict[str, np.ndarray]:
        return {e.name: self._read(e, t, a)[1] for e, t, a in self.system.slots
                if e.name not in self.system.loads}

    @cached_property
    def load_power(self) -> np.ndarray:
        powers = [self._read(e, t, a)[1] for e, t, a in self.system.slots
                  if e.name in self.system.loads]
        # a sum starts from 0, as from an array of zeros
        return sum(powers) if powers else np.zeros(self.x.shape[1:])

    @cached_property
    def port_injected_power(self) -> dict[str, np.ndarray]:
        x, v = self.x, self.port_voltages
        injected = {p: 0.5 * (v[p] * i.conjugate()).real for p, i in self.drives.items()}
        for e, t, a in self.system.slots:
            if e.component.source:
                dv, i = x[t[0]] - x[t[1]], self._read(e, t, a)[0][0]
                injected[f"source:{e.name}"] = 0.5 * (dv * i.conjugate()).real
        return injected

    @cached_property
    def injected_power(self) -> np.ndarray:
        return sum(self.port_injected_power.values())

    def _read(self, e: Placed, t: list[int], a: range) -> tuple[tuple, np.ndarray]:
        """Element ``e``'s branch currents and absorbed power, read back once."""
        read = self._readbacks.get(e.name)
        if read is None:
            at = self.freq[:, None] if self.x.ndim == 3 else self.freq  # per point, over K
            read = self._readbacks[e.name] = e.component.readback(self.x, t, a, at)
        return read


@dataclass(eq=False)
class MnaSystem:
    """Assembled matrix with its index bookkeeping; ``node_index``,
    ``ports`` and ``source_rhs`` include the ground slot, ``matrix`` does not."""

    netlist: Netlist
    freq: float
    matrix: np.ndarray
    source_rhs: np.ndarray  # contributions from current-source elements
    node_index: dict[str, int]
    slots: list[tuple[Placed, list[int], range]]  # element, terminal and aux slots
    ports: dict[str, tuple[int, int]]  # each port's plus and minus slots
    loads: frozenset[str]  # the names of the load terminations

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def rhs(self, drives: dict[str, np.ndarray], columns: int) -> np.ndarray:
        """Right-hand side, (size, ``columns``): the current sources in
        every column plus each port's drive, a 1-D array of ``columns``
        currents.  The ground row is left out, not written and dropped."""
        n, ports = self.size, self.ports
        b = np.empty((n, columns), dtype=complex)
        b[:] = self.source_rhs[:n, None]
        for port, current in drives.items():
            if port not in ports:
                raise InputError(f"unknown port '{port}'")
            plus, minus = ports[port]
            if plus < n:
                b[plus] += current
            if minus < n:
                b[minus] -= current
        return b


def _sweep_frequencies(freqs) -> np.ndarray:
    """``freqs`` as a float array; InputError unless it is a non-empty 1-D
    array of positive, finite frequencies."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise InputError(
            f"analysis frequencies must be a non-empty 1-D array, got shape {freqs.shape}"
        )
    return require_within("analysis frequency", freqs, math.ulp(0.0), np.finfo(float).max)


def assemble(netlist: Netlist, freq: float) -> MnaSystem:
    """Build the MNA matrix of ``netlist`` at ``freq`` hertz; a value beyond
    float range is left to :func:`_diagnose_singular`, as in a sweep."""
    if not 0 < freq < math.inf:
        raise InputError(f"analysis frequency must be positive and finite, got {freq}")
    nodes = netlist.validate()
    n = len(nodes) + sum(e.component.aux for e in netlist.elements)
    node_index = {nd: i for i, nd in enumerate(nodes)}
    node_index[netlist.ground] = n
    slots = []
    first_aux = len(nodes)
    for e in netlist.elements:
        a = range(first_aux, first_aux + e.component.aux)
        first_aux = a.stop
        slots.append((e, [node_index[nd] for nd in e.nodes], a))
    A, b = _stamped(slots, n, freq)
    ports = {p: (node_index[plus], node_index[minus]) for p, (plus, minus) in netlist.ports.items()}
    loads = frozenset(e.name for e in netlist.load_terminations())
    return MnaSystem(netlist, freq, A, b, node_index, slots, ports, loads)


def _stamped(slots, n: int, freq) -> tuple[np.ndarray, np.ndarray]:
    """The matrix of ``n`` unknowns that the elements of ``slots`` stamp
    at ``freq`` and the right-hand side, its ground slot kept: at a float
    an (n, n) matrix of scalar stamps, at an array of frequencies
    a point-major (points, n, n) stack.  A value beyond float range stays
    in the matrix as inf or NaN: no solution on it passes
    :func:`_accepted`, and :func:`_diagnose_singular` names the element."""
    stack = isinstance(freq, np.ndarray) and freq.ndim == 1
    A = np.zeros((len(freq), n + 1, n + 1) if stack else (n + 1, n + 1), dtype=complex)
    entries = A.transpose(1, 2, 0) if stack else A  # entries[i, j] is A[..., i, j]
    b = np.zeros(n + 1, dtype=complex)  # no stamp puts a frequency into b
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e, t, a in slots:
            try:
                e.component.stamp(entries, b, t, a, freq)
            except ZeroDivisionError:  # Python's complex 1/0; numpy gives inf or NaN
                A[:] = math.nan
                break
    return A[..., :n, :n], b


def _diagnose_singular(system: MnaSystem, A: np.ndarray, freq, x: np.ndarray,
                       eta: float) -> SingularSystemError | NetworkTopologyError:
    """The error for a rejected solution ``x``, of worst backward error
    ``eta``, of the matrix ``A`` that ``system``'s elements stamp at
    ``freq`` (a float, or an array of one point, stamped as they were):
    the first element whose stamp leaves float range, else an
    unconstrained unknown by name, else a singular matrix if ``x`` is not
    finite, else ``eta``."""
    slots = system.slots
    if not np.isfinite(A).all():  # restamp ever longer runs of the slots
        e = next(e for k, (e, _, _) in enumerate(slots, 1)
                 if not np.isfinite(_stamped(slots[:k], len(A), freq)[0]).all())
        return NetworkTopologyError(
            f"a value of element '{e.name}' leaves float range at {np.max(freq):g} Hz",
            element=e.name,
        )
    nodes = list(system.node_index)  # numbered in order, ground last
    for i in range(len(A)):
        if not np.any(A[i, :]) or not np.any(A[:, i]):
            if i < len(nodes) - 1:
                return SingularSystemError(
                    f"singular system: no constraints for unknown V({nodes[i]})", node=nodes[i]
                )
            e, a = next((e, a) for e, _, a in slots if i in a)
            label = e.name if len(a) == 1 else f"{e.name}:{i - a.start + 1}"
            return SingularSystemError(
                f"singular system: no constraints for unknown I({label})", element=e.name
            )
    if not np.isfinite(x).all():
        return SingularSystemError(
            "singular system: the network contains a degenerate (all-ideal) loop "
            "or an unconstrained node"
        )
    return SingularSystemError(
        f"solution rejected: backward error {eta:.2e} exceeds {BACKWARD_ERROR_TOL:g}"
    )


def _solved_sweep(
    system: MnaSystem, rhs: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve on the layout of ``system`` at each of the V ``freqs``: one
    ``np.linalg.solve`` per frequency, ``CHUNK`` frequencies stamped,
    solved and checked at a time, so a sweep holds one chunk of matrices.

    Returns the solutions with the ground row (zero) last, (size+1, V, K),
    and the result of :func:`_accepted`, (V, K).
    """
    x = np.zeros((len(freqs), system.size + 1, rhs.shape[1]), dtype=complex)
    eta = np.empty((len(freqs), rhs.shape[1]))
    for start in range(0, len(freqs), CHUNK):
        rows = slice(start, start + CHUNK)
        A = _stamped(system.slots, system.size, freqs[rows])[0]
        for a, point in zip(A, x[rows]):
            point[:-1] = _lapack(a, rhs)
        eta[rows] = _accepted(system, A, x[rows, :-1], rhs, freqs[rows])
    return x.transpose(1, 0, 2), eta


def _lapack(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, with NaN for a singular matrix, which fails
    the acceptance test."""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return np.full(rhs.shape, math.nan)


def _accepted(
    system: MnaSystem, A: np.ndarray, x: np.ndarray, rhs: np.ndarray, freq
) -> np.ndarray:
    """Each column's normwise backward error: (K,) for one matrix ``A``
    at the float ``freq``, (f, K) for a stack of f matrices at the array
    ``freq``.

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
        if A.ndim == 3:  # a one-point array: the diagnosis stamps it as the sweep did
            j = int(np.argmin((eta <= BACKWARD_ERROR_TOL).all(axis=1)))
            A, freq, x, eta = A[j], freq[j:j + 1], x[j], eta[j]
        raise _diagnose_singular(system, A, freq, x, eta.max())
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
    _accepted(system, A, inv, unit, freq)
    with np.errstate(over="ignore"):  # an overflow is a kappa past any bound
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
) -> ColumnsResult:
    """Solve ``netlist`` at ``freq`` with per-port current drives:
    :func:`solve_columns` for the one column ``excitations`` (port name ->
    complex peak current into the port's plus node).  Current-source
    elements contribute as well."""
    drives = {port: [current] for port, current in (excitations or {}).items()}
    return solve_columns(netlist, freq, drives)


def solve_columns(
    netlist: Netlist,
    freq: float | np.ndarray,
    drives: dict[str, np.ndarray],
) -> ColumnsResult:
    """Solve ``netlist`` at ``freq`` for K drive columns with one
    factorization.

    ``drives`` maps port names to 1-D arrays of K complex peak currents,
    column k of every array making one operating point; current-source
    elements contribute to every column.  Each column is accepted on its
    own backward error (:func:`_accepted`).

    With ``freq`` a 1-D array of V frequencies, a sweep solves the same
    K columns at each of them on one netlist layout, with a leading point
    axis on the result.  Port responses are read from :func:`unit_columns`.
    """
    drives = {p: np.asarray(i, dtype=complex) for p, i in drives.items()}
    lengths = {i.shape for i in drives.values()} or {(1,)}
    (shape, *others) = lengths
    if others or len(shape) != 1 or shape[0] == 0:
        raise InputError(f"drives must be 1-D arrays of one nonzero length, got {lengths}")
    columns = shape[0]
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
        eta = _accepted(system, system.matrix, x[:-1], rhs, freq)
    else:
        x, eta = _solved_sweep(system, rhs, freqs)
        freq = freqs
    return ColumnsResult(freq, x, drives, eta, system)


def unit_columns(netlist: Netlist, ports, freq: float | np.ndarray) -> ColumnsResult:
    """:func:`solve_columns` for a unit current into each of ``ports`` in
    order and, when the netlist has current sources, a last column of the
    sources alone: the columns :meth:`ColumnsResult.combined` weights and
    :meth:`ColumnsResult.unit_response` reads."""
    k = len(ports) + any(e.component.source for e in netlist.elements)
    return solve_columns(netlist, freq, dict(zip(ports, np.eye(len(ports), k, dtype=complex))))
