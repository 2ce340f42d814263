"""Deterministic CSV/JSON rendering of sweep results, and the one file writer.

All floats are formatted with :data:`DIGITS` significant digits and a
lowercase exponent, so identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .ideal import current_profile, itr_conv, itr_intro, pbo_level

if TYPE_CHECKING:  # annotations only: rendering itr-curves needs no analysis
    from .analysis import LoadModulationSweep, PASimResult

__all__ = [
    "csv_text",
    "json_text",
    "write_text",
    "SWEEP_COLUMNS",
    "load_mod_rows",
    "pa_sim_rows",
    "itr_curve_rows",
    "ITR_COLUMNS",
]

#: documented sweep schema; one row per drive point
SWEEP_COLUMNS = [
    "pbo_db",
    "i_main",
    "i_aux",
    "re_z_main",
    "im_z_main",
    "re_z_aux",
    "im_z_aux",
    "eta_passive",
    "eta_drain",
    "am_am_db",
    "am_pm_deg",
]

ITR_COLUMNS = ["pbo_db", "i_main", "i_aux", "itr_conv", "itr_intro"]

#: significant digits of every float written
DIGITS = 9


def csv_text(header: list[str], rows) -> str:
    """CSV text of a table: ``header``, then one line per row of ``rows``.

    ``rows`` is 2-D: a float array, or rows of numbers and None with
    strings in whole columns.  Numbers take ``%.9g`` (:data:`DIGITS`)
    with -0.0 folded to 0; NaN and None give an empty cell; strings are
    written as they are.  Each pattern of empty cells gets one line
    template with no field at its empty cells, and the rows' templates are
    filled in one ``%`` pass over the written cells alone, so an empty
    cell is never formatted.
    """
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        table = rows.reshape(-1, width)
        text = np.zeros(width, dtype=bool)
    else:
        table = np.array(rows, dtype=object).reshape(-1, width)
        text = np.array([any(isinstance(v, str) for v in col) for col in table.T], dtype=bool)
    numbers = table[:, ~text].astype(float) + 0.0
    empty = np.empty(table.shape, dtype=bool)
    empty[:, ~text] = np.isnan(numbers)
    empty[:, text] = np.equal(table[:, text], None)
    if text.any():
        table[:, ~text] = numbers  # table is a copy here
    else:
        table = numbers
    # a row's key is its mask of empty cells as bytes; each key gets one template
    keys = empty.view(np.dtype((np.void, width))).ravel().tolist()
    fields = np.where(text, "%s", f"%.{DIGITS}g")
    lines = {k: ",".join(np.where(np.frombuffer(k, bool), "", fields)) + "\n" for k in set(keys)}
    body = "".join([lines[k] for k in keys])
    return ",".join(header) + "\n" + body % tuple(table[~empty].tolist())


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{DIGITS}g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def json_text(doc: dict) -> str:
    return json.dumps(_round_floats(doc), indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines as they are, making its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _re_im(z: np.ndarray) -> list[np.ndarray]:
    """Real and imaginary parts of ``z``, both NaN wherever either one is."""
    z = np.where(np.isnan(z), complex(np.nan, np.nan), z)
    return [z.real, z.imag]


def load_mod_rows(sweep: LoadModulationSweep) -> np.ndarray:
    """One row per drive point in ``SWEEP_COLUMNS`` order; NaN is an empty cell."""
    blank = np.full(len(sweep.profile), np.nan)
    return np.column_stack(
        [
            sweep.pbo_db,
            sweep.profile.i_main,
            sweep.profile.i_aux,
            *_re_im(sweep.z_main),
            *_re_im(sweep.z_aux),
            sweep.eta_passive,
            blank,
            blank,
            blank,
        ]
    )


def pa_sim_rows(sim: PASimResult) -> np.ndarray:
    """One row per drive level in ``SWEEP_COLUMNS`` order; NaN is an empty cell."""
    return np.column_stack(
        [
            sim.pbo_db,
            sim.i_main,
            sim.i_aux,
            *_re_im(sim.z_main),
            *_re_im(sim.z_aux),
            np.full(len(sim.v), np.nan),
            sim.eta,
            sim.am_am_db,
            sim.am_pm_deg,
        ]
    )


def itr_curve_rows(alpha: float, r_opt: float, r_l: float, n_points: int = 121) -> np.ndarray:
    """One row per point in ``ITR_COLUMNS`` order, from peak drive down to
    the auxiliary turn-on point; one call per closed form."""
    i_main = np.linspace(2.0 / (1.0 + alpha) ** 2, 2.0 / (1.0 + alpha), n_points)[::-1]
    return np.column_stack(
        [
            pbo_level(alpha, i_main),
            i_main,
            current_profile(alpha, i_main),
            itr_conv(alpha, i_main),
            itr_intro(alpha, i_main, r_opt, r_l),
        ]
    )
