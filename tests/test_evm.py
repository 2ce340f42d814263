"""Memoryless 64QAM EVM evaluation against a per-symbol brute force."""

import math

import numpy as np
import pytest

from dohertylab.errors import InputError
from dohertylab.evm import apply_memoryless, evm_64qam, qam64_symbols


def flat_maps(levels=None):
    lv = np.asarray(levels if levels is not None else np.linspace(0.0, 1.0, 11))
    return (lv, np.zeros_like(lv)), (lv, np.zeros_like(lv))


def test_constellation_normalization():
    s = qam64_symbols()
    assert len(s) == 64
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, rel=1e-12)
    assert np.abs(s).max() == pytest.approx(np.sqrt(98.0 / 42.0), rel=1e-12)


def test_identity_response_gives_zero():
    am_am, am_pm = flat_maps()
    assert evm_64qam(am_am, am_pm, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_constant_rotation_absorbed_by_gain():
    lv = np.linspace(0.0, 1.0, 11)
    am_am = (lv, np.zeros_like(lv))
    am_pm = (lv, np.full_like(lv, 10.0))  # flat 10 degree rotation
    assert evm_64qam(am_am, am_pm, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert evm_64qam(am_am, am_pm, 3.0) == pytest.approx(0.0, abs=1e-10)


def _limiter_maps(limit_frac):
    # nodes at the nine distinct symbol radii plus the limiter knee, so
    # linear interpolation introduces no error against the brute force
    s = qam64_symbols()
    radii = np.unique(np.round(np.abs(s) / np.abs(s).max(), 12))
    lv = np.unique(np.concatenate(([0.0, limit_frac], radii)))
    gain_db = np.where(lv <= limit_frac, 0.0, 20.0 * np.log10(limit_frac / np.maximum(lv, 1e-30)))
    return (lv, gain_db), (lv, np.zeros_like(lv))


def test_hard_limiter_at_corner_is_transparent():
    am_am, am_pm = _limiter_maps(1.0)
    assert evm_64qam(am_am, am_pm, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_hard_limiter_brute_force_oracle():
    # independent oracle: clip each symbol amplitude at 0.8 * corner,
    # remove the least-squares complex gain, take rms ratio; frozen value
    # computed from that loop
    am_am, am_pm = _limiter_maps(0.8)
    got = evm_64qam(am_am, am_pm, 0.0)
    assert got == pytest.approx(7.45015537477218, rel=1e-9)

    s = qam64_symbols()
    corner = np.abs(s).max()
    y = s * np.minimum(np.abs(s), 0.8 * corner) / np.abs(s)
    g = np.vdot(s, y) / np.vdot(s, s)
    err = y - g * s
    brute = 100.0 * np.sqrt(np.vdot(err, err).real / np.vdot(g * s, g * s).real)
    assert got == pytest.approx(brute, rel=1e-12)


def test_limiter_vanishes_with_enough_backoff():
    am_am, am_pm = _limiter_maps(0.8)
    assert evm_64qam(am_am, am_pm, 2.0) == pytest.approx(0.0, abs=1e-10)


def test_backoff_out_of_range_rejected():
    lv = np.linspace(0.5, 1.0, 6)  # characterized only down to half drive
    am_am = (lv, np.zeros_like(lv))
    am_pm = (lv, np.zeros_like(lv))
    with pytest.raises(ValueError):
        evm_64qam(am_am, am_pm, 0.0)  # inner symbols fall below 0.5
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="backoff must be finite and >= 0 dB"):
            evm_64qam(am_am, am_pm, bad)


def test_apply_memoryless_gain_curve():
    s = qam64_symbols()
    lv = np.linspace(0.0, 1.0, 5)
    am_am = (lv, np.full_like(lv, 6.0205999))  # ~2x voltage gain
    am_pm = (lv, np.zeros_like(lv))
    y = apply_memoryless(s, am_am, am_pm, np.abs(s) / np.abs(s).max())
    assert np.allclose(y, 2.0 * s, rtol=1e-6)


def test_unsorted_level_map_rejected():
    lv = np.array([0.0, 0.5, 0.3, 1.0])
    with pytest.raises(ValueError):
        evm_64qam((lv, np.zeros(4)), (lv, np.zeros(4)), 0.0)
