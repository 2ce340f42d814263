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

from ..errors import InputError, require_positive, require_within
from .mna import assemble, solve_columns  # assemble stays: perfbench/tracing.py patches it here
from .netlist import Netlist

__all__ = [
    "s_parameters",
    "write_touchstone",
    "read_touchstone",
    "TouchstoneData",
]


def s_parameters(
    netlist: Netlist,
    ports: list[str],
    freqs: np.ndarray | list[float],
    z_ref: float = 50.0,
) -> np.ndarray:
    """S-matrix of ``netlist`` seen from ``ports`` over ``freqs``.

    Returns an array of shape (len(freqs), n, n).  The netlist is taken
    as-is; any termination that should not be part of the device must be
    left out by the caller.  The frequencies are solved as one sweep of
    :func:`~.mna.solve_columns`, each accepted on its backward error as
    every solve is.
    """
    if not 1 <= len(ports) <= 4:
        raise InputError(f"supported port counts are 1..4, got {len(ports)}")
    require_positive(z_ref=z_ref)
    for k, p in enumerate(ports):
        if p not in netlist.ports:
            raise InputError(f"unknown port '{p}'")
        if p in ports[:k]:
            raise InputError(f"port '{p}' is listed more than once")

    n = len(ports)
    i0 = 1.0
    # column k drives port k alone
    drives = {p: i0 * np.eye(n)[k] for k, p in enumerate(ports)}
    terminated = netlist.terminated(ports, z_ref)
    sweep = solve_columns(terminated, np.atleast_1d(freqs), drives).port_voltages
    v = np.stack([sweep[p] for p in ports], axis=1)  # (freqs, port j, column k)
    return 2.0 * v / (z_ref * i0) - np.eye(n)


@dataclass(eq=False)
class TouchstoneData:
    """S-matrices read from a Touchstone file, with their frequencies and
    reference impedance."""

    freqs_hz: np.ndarray
    s: np.ndarray  # (n_freq, n, n)
    z_ref: float


def _number(token: str, what: str) -> float:
    """``token`` as a float; InputError naming it when it is not a number."""
    try:
        return float(token)
    except ValueError:
        raise InputError(f"touchstone {what} '{token}' is not a number") from None


def _record_order(n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 0), (1, 0), (0, 1), (1, 1)]
    return [(i, j) for i in range(n) for j in range(n)]


def write_touchstone(
    freqs_hz: np.ndarray | list[float],
    s: np.ndarray,
    z_ref: float = 50.0,
) -> str:
    """Render S-parameter data as Touchstone v1 text (GHz / RI).

    The frequencies must increase in the digits a record holds, or the
    text would not read back.  One record template covers a frequency; the
    whole table is formatted in one ``%`` pass.  Records of 3-4 ports wrap
    at 4 complex pairs per line, the standard layout.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise InputError(f"S-parameters must be an (f, n, n) array, got shape {s.shape}")
    n = s.shape[-1]
    if not 1 <= n <= 4:
        raise InputError(f"supported port counts are 1..4, got {n}")
    freqs = require_within("touchstone frequency", freqs_hz, math.ulp(0.0), math.inf)
    if freqs.shape != (len(s),):
        raise InputError(f"{freqs.size} frequencies for {len(s)} S-matrices")
    require_positive(z_ref=z_ref)
    rows, cols = zip(*_record_order(n))
    pairs = np.stack([s.real[:, rows, cols], s.imag[:, rows, cols]], axis=-1)
    table = np.column_stack([freqs / 1e9, pairs.reshape(len(freqs), 2 * n * n)])
    if not np.isfinite(table).all():
        raise InputError(f"touchstone value {table[~np.isfinite(table)][0]} is not finite")
    if not np.all(np.diff(freqs) > 0):
        raise InputError("frequency grid must be strictly increasing")
    # a step above 1e-11 of the frequency changes its 13 written digits
    for k in np.flatnonzero(np.diff(freqs) <= 1e-11 * freqs[1:]):
        if "%.12e" % (freqs[k] / 1e9) == "%.12e" % (freqs[k + 1] / 1e9):
            raise InputError(f"frequency grid steps below Touchstone's 13 digits: "
                             f"{float(freqs[k])} and {float(freqs[k + 1])} Hz print alike")
    vals = ["%.12e"] * (2 * n * n)
    width = len(vals) if n <= 2 else 8  # 4 complex pairs per physical line
    lines = [" ".join(vals[k : k + width]) for k in range(0, len(vals), width)]
    record = "\n    ".join(["%.12e " + lines[0]] + lines[1:])
    head = [f"! {n}-port S-parameter data", f"# GHz S RI R {z_ref:.12g}"]
    return "\n".join(head + [record] * len(freqs)) % tuple(table.ravel().tolist()) + "\n"


def read_touchstone(text: str) -> TouchstoneData:
    """Parse Touchstone v1 text written by :func:`write_touchstone`.

    A record starts on a line with an odd number of values (the frequency
    and whole complex pairs); the lines after it that hold an even number
    continue it.  That covers this writer's layout (4 pairs per line) and
    the v1 layout of one matrix row per line.  Every record must hold
    1 + 2n^2 values for one n in 1..4, every value must be finite, the
    reference impedance and frequencies positive and the frequencies
    increasing.  The option line is case-insensitive; only the RI format is
    accepted.
    """
    unit_scale = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
    scale = 1e9
    z_ref = 50.0
    tokens: list[str] = []
    counts: list[int] = []
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
                    z_ref = _number(parts[i + 1], "reference impedance")
                    require_positive(z_ref=z_ref)
                    i += 1
                elif p in ("s", "ri"):
                    pass
                elif p in ("ma", "db"):
                    raise InputError(f"unsupported touchstone format '{p}'")
                i += 1
            saw_options = True
            continue
        values = line.split()
        tokens.extend(values)
        counts.append(len(values))
    if not saw_options:
        raise InputError("missing touchstone option line")

    if not tokens:
        raise InputError("touchstone file holds no data records")
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:  # name the token that is not a number
        values = np.array([_number(token, "value") for token in tokens])
    if not np.isfinite(values).all():
        raise InputError(f"touchstone value '{tokens[np.argmin(np.isfinite(values))]}' "
                         "is not finite")
    sizes = np.array(counts)
    starts = (np.cumsum(sizes) - sizes)[sizes % 2 == 1]
    lengths = np.diff(starts, append=len(values))
    n = round(math.sqrt((lengths[0] - 1) / 2)) if len(starts) else 0
    rec = 1 + 2 * n * n
    if not 1 <= n <= 4 or starts[0] != 0 or np.any(lengths != rec):
        raise InputError(
            "cannot infer port count: each record must start on a line with an odd"
            " number of values and hold 1 + 2n^2 values for one n in 1..4"
        )
    data = values.reshape(-1, rec)
    freqs = require_within("touchstone frequency", data[:, 0] * scale, math.ulp(0.0), math.inf)
    if not np.all(data[1:, 0] > data[:-1, 0]):
        raise InputError("touchstone frequencies must increase")
    s = np.empty((len(data), n, n), dtype=complex)
    for pos, (i, j) in enumerate(_record_order(n)):
        s.real[:, i, j] = data[:, 1 + 2 * pos]
        s.imag[:, i, j] = data[:, 2 + 2 * pos]
    return TouchstoneData(freqs_hz=freqs, s=s, z_ref=z_ref)
