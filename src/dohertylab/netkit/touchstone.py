"""N-port S-parameters by matched-drive MNA, and Touchstone v1 text I/O.

S-parameters are extracted the way a circuit simulator does it: every
listed port gets a z_ref termination, port k is driven by a 1 A Norton
source, and the resulting port voltages give the k-th column,

    S[j,k] = 2*V_j / (z_ref * I0)          (j != k)
    S[k,k] = 2*V_k / (z_ref * I0) - 1,

because the incident wave at a matched termination vanishes.

The Touchstone writer emits version-1 text (``# GHz S RI R <z_ref>``).
Port counts 1..4 are supported; the 2-port record order is the standard
S11 S21 S12 S22, everything else is row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import Resistor
from .mna import _solved_chunks, _sweep_frequencies, assemble
from .netlist import Netlist

__all__ = [
    "s_parameters",
    "export_touchstone",
    "write_touchstone",
    "read_touchstone",
    "TouchstoneData",
]

_TERMINATION_PREFIX = "__sterm_"


def s_parameters(
    netlist: Netlist,
    ports: list[str],
    freqs: np.ndarray | list[float],
    z_ref: float = 50.0,
) -> np.ndarray:
    """S-matrix of ``netlist`` seen from ``ports`` over ``freqs``.

    Returns an array of shape (len(freqs), n, n).  The netlist is taken
    as-is; any termination that should not be part of the device must be
    left out by the caller.  The netlist is validated once and the
    frequencies are solved as one sweep (see :mod:`.mna`), each on the
    absolute acceptance test alone.
    """
    if not 1 <= len(ports) <= 4:
        raise ValueError(f"supported port counts are 1..4, got {len(ports)}")
    if not 0 < z_ref < math.inf:
        raise ValueError(f"reference impedance must be positive and finite, got {z_ref}")
    for p in ports:
        if p not in netlist.ports:
            raise ValueError(f"unknown port '{p}'")
    freqs = _sweep_frequencies(freqs)

    terminated = netlist.copy()
    for p in ports:
        plus, minus = terminated.ports[p]
        terminated.add(f"{_TERMINATION_PREFIX}{p}", Resistor(z_ref), plus, minus)

    n = len(ports)
    i0 = 1.0
    system = assemble(terminated, float(freqs[0]))
    # column k drives port k alone
    drives = {p: i0 * np.eye(n)[k] for k, p in enumerate(ports)}
    index = system.node_index
    ends = [terminated.ports[p] for p in ports]
    s = np.empty((len(freqs), n, n), dtype=complex)
    for start, x, _ in _solved_chunks(system, system.rhs(drives, n), freqs, None):
        v = np.stack([x[:, index[plus]] - x[:, index[minus]] for plus, minus in ends], axis=1)
        s[start : start + len(x)] = 2.0 * v / (z_ref * i0) - np.eye(n)
    return s


def export_touchstone(
    netlist: Netlist,
    ports: list[str],
    freq_grid: np.ndarray | list[float],
    z_ref: float = 50.0,
) -> str:
    """Touchstone v1 text of the netlist's S-parameters over ``freq_grid``."""
    freqs = np.asarray(freq_grid, dtype=float)
    if len(freqs) > 1 and not np.all(np.diff(freqs) > 0):
        raise ValueError("frequency grid must be strictly increasing")
    return write_touchstone(freqs, s_parameters(netlist, ports, freqs, z_ref), z_ref)


@dataclass
class TouchstoneData:
    freqs_hz: np.ndarray
    s: np.ndarray  # (n_freq, n, n)
    z_ref: float


def _record_order(n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 0), (1, 0), (0, 1), (1, 1)]
    return [(i, j) for i in range(n) for j in range(n)]


def write_touchstone(
    freqs_hz: np.ndarray | list[float],
    s: np.ndarray,
    z_ref: float = 50.0,
) -> str:
    """Render S-parameter data as Touchstone v1 text (GHz / RI)."""
    s = np.asarray(s, dtype=complex)
    n = s.shape[-1]
    if not 1 <= n <= 4:
        raise ValueError(f"supported port counts are 1..4, got {n}")
    lines = [f"! {n}-port S-parameter data", f"# GHz S RI R {z_ref:.9g}"]
    order = _record_order(n)
    per_line = 4  # complex pairs per physical line, standard wrapping
    for f, mat in zip(freqs_hz, s):
        vals: list[str] = []
        for i, j in order:
            vals.append(f"{mat[i, j].real:.12e}")
            vals.append(f"{mat[i, j].imag:.12e}")
        head = f"{f / 1e9:.12e}"
        if n <= 2:
            lines.append(" ".join([head] + vals))
        else:
            for row_start in range(0, len(vals), 2 * per_line):
                chunk = " ".join(vals[row_start : row_start + 2 * per_line])
                lines.append(f"{head} {chunk}" if row_start == 0 else f"    {chunk}")
    return "\n".join(lines) + "\n"


def read_touchstone(text: str) -> TouchstoneData:
    """Parse Touchstone v1 text written by :func:`write_touchstone`.

    Handles arbitrary line wrapping by token counting; the option line is
    case-insensitive.  Only the RI format emitted here is accepted.
    """
    unit_scale = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
    scale = 1e9
    z_ref = 50.0
    tokens: list[float] = []
    saw_options = False
    for raw in text.splitlines():
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].lower().split()
            i = 0
            while i < len(parts):
                p = parts[i]
                if p in unit_scale:
                    scale = unit_scale[p]
                elif p == "r" and i + 1 < len(parts):
                    z_ref = float(parts[i + 1])
                    i += 1
                elif p == "s":
                    pass
                elif p == "ri":
                    pass
                elif p in ("ma", "db"):
                    raise ValueError(f"unsupported touchstone format '{p}'")
                i += 1
            saw_options = True
            continue
        tokens.extend(float(t) for t in line.split())
    if not saw_options:
        raise ValueError("missing touchstone option line")

    if not tokens:
        raise ValueError("touchstone file holds no data records")
    # Infer the port count from the record length: 1 + 2*n^2 floats each.
    for n in (1, 2, 3, 4):
        rec = 1 + 2 * n * n
        if len(tokens) % rec == 0 and _freqs_monotone(tokens, rec):
            break
    else:
        raise ValueError("cannot infer port count from token stream")

    order = _record_order(n)
    n_rec = len(tokens) // rec
    freqs = np.empty(n_rec)
    s = np.empty((n_rec, n, n), dtype=complex)
    for r in range(n_rec):
        chunk = tokens[r * rec : (r + 1) * rec]
        freqs[r] = chunk[0] * scale
        for pos, (i, j) in enumerate(order):
            s[r, i, j] = complex(chunk[1 + 2 * pos], chunk[2 + 2 * pos])
    return TouchstoneData(freqs_hz=freqs, s=s, z_ref=z_ref)


def _freqs_monotone(tokens: list[float], rec: int) -> bool:
    freqs = tokens[0::rec]
    return all(b > a for a, b in zip(freqs, freqs[1:])) if len(freqs) > 1 else True
