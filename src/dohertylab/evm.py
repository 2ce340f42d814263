"""Memoryless 64QAM error-vector-magnitude evaluation.

The PA is reduced to its gain-normalized AM-AM/AM-PM characteristic over
drive level; each constellation symbol is pushed through that complex
gain, the best single complex gain is removed, and EVM is the rms error
over the rms reference.  No pulse shaping: raw symbols only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

__all__ = ["qam64_symbols", "apply_memoryless", "evm_64qam"]


_LEVELS = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
_QAM64 = np.add.outer(1j * _LEVELS, _LEVELS).ravel() / math.sqrt(42.0)  # unscaled E|s|^2 = 42
_QAM64.flags.writeable = False  # shared by every call; qam64_symbols() hands out copies


def qam64_symbols() -> np.ndarray:
    """The 64 square-QAM symbols normalized to unit average power (a copy)."""
    return _QAM64.copy()


def _interp_checked(x: np.ndarray, levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    if levels.ndim != 1 or levels.shape != values.shape or len(levels) < 2:
        raise InputError("level map needs two equal-length 1-d arrays")
    if np.any(np.diff(levels) <= 0):
        raise InputError("level map drive axis must be strictly increasing")
    lo, hi = levels[0], levels[-1]
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise InputError(
            f"symbol drive range [{x.min():.4g}, {x.max():.4g}] leaves the "
            f"characterized level range [{lo:.4g}, {hi:.4g}]"
        )
    return np.interp(x, levels, values)


def apply_memoryless(
    symbols: np.ndarray,
    am_am: tuple[np.ndarray, np.ndarray],
    am_pm: tuple[np.ndarray, np.ndarray],
    drive: np.ndarray,
) -> np.ndarray:
    """Distort ``symbols`` through the level-mapped complex gain at
    per-symbol drive amplitudes ``drive``."""
    lv_a, gain_db = (np.asarray(a, dtype=float) for a in am_am)
    lv_p, phase_deg = (np.asarray(a, dtype=float) for a in am_pm)
    g = 10.0 ** (_interp_checked(drive, lv_a, gain_db) / 20.0)
    ph = np.radians(_interp_checked(drive, lv_p, phase_deg))
    return symbols * g * np.exp(1j * ph)


def evm_64qam(
    am_am: tuple[np.ndarray, np.ndarray],
    am_pm: tuple[np.ndarray, np.ndarray],
    backoff_db: float = 0.0,
) -> float:
    """rms EVM (percent) of 64QAM through the memoryless characteristic.

    ``backoff_db`` positions the constellation on the drive axis: at 0 dB
    the corner symbol sits at the top characterized level, and each dB of
    backoff scales every symbol's drive down by a factor 10^(-1/20).
    Raises when any symbol lands outside the characterized range.
    """
    if not 0 <= backoff_db < math.inf:
        raise InputError(f"backoff must be finite and >= 0 dB, got {backoff_db}")
    s = _QAM64
    v_top = float(np.asarray(am_am[0], dtype=float).max())
    drive = np.abs(s) / np.abs(s).max() * v_top * 10.0 ** (-backoff_db / 20.0)
    y = apply_memoryless(s, am_am, am_pm, drive)
    # optimal single complex gain in the least-squares sense
    g = np.vdot(s, y) / np.vdot(s, s)
    err = y - g * s
    return 100.0 * math.sqrt(float(np.vdot(err, err).real / np.vdot(g * s, g * s).real))
