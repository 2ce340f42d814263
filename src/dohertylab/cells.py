"""Conduction-angle current cells for behavioral PA simulation.

The active device is a transconductor producing a truncated sinusoid
i(theta) = max(0, I_q + I_p*cos(theta)); drive scales I_p linearly.
Standard Fourier integrals of the clipped waveform give the DC component
and the fundamental phasor:

    I_dc   = (I_q*t + I_p*sin(t)) / pi
    I_fund = (2*I_q*sin(t) + I_p*(t + sin(t)*cos(t))) / pi

with t the conduction half-angle, cos(t) = -I_q/I_p (clamped to full or
zero conduction).  A cell is parameterized by its conduction angle at
full drive: pi is class-B, above class-AB (conducts the whole cycle at
small drive), below class-C (dead until the drive crosses a threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, require_positive, require_within
from .ideal import DohertyConfig, current_profile

__all__ = ["ActiveCellModel", "IdealMainCell", "IdealAuxCell", "ideal_doherty_cells"]


@dataclass(frozen=True)
class ActiveCellModel:
    """Truncated-sinusoid cell; ``phi_rad`` is the conduction angle at
    full drive, ``i_max`` the waveform peak at full drive."""

    phi_rad: float
    i_max: float
    v_dc: float

    def __post_init__(self):
        if not 0.0 < self.phi_rad <= 2.0 * math.pi:
            raise InputError(f"conduction angle must lie in (0, 2*pi], got {self.phi_rad}")
        require_positive(i_max=self.i_max, v_dc=self.v_dc)

    @property
    def _iq_ip(self) -> tuple[float, float]:
        cos_half = math.cos(self.phi_rad / 2.0)
        i_p1 = self.i_max / (1.0 - cos_half)
        return -i_p1 * cos_half, i_p1

    def currents(self, v: float | np.ndarray) -> tuple:
        """(I_dc, fundamental phasor) at normalized drive ``v`` in [0, 1],
        a float or an array; both results have the shape of ``v``."""
        v = require_within("drive", v, 0.0, 1.0 + 1e-12)
        i_q, i_p1 = self._iq_ip
        i_p = v * i_p1
        driven = i_p > 0.0
        with np.errstate(over="ignore"):  # a subnormal drive gives ratio inf
            ratio = -i_q / np.where(driven, i_p, 1.0)
        t = np.arccos(np.clip(ratio, -1.0, 1.0))
        sin_t = np.sin(t)
        i_dc = (i_q * t + i_p * sin_t) / math.pi
        i_fund = (2.0 * i_q * sin_t + i_p * (t + sin_t * np.cos(t))) / math.pi
        law = [~driven, ratio >= 1.0, ratio <= -1.0]  # undriven, dead, unclipped
        i_dc = np.select(law, [max(i_q, 0.0), 0.0, i_q], i_dc)
        i_fund = np.select(law, [0.0, 0.0, i_p], i_fund)
        return i_dc[()], i_fund.astype(complex)[()]

    @classmethod
    def class_c_turn_on(cls, turn_on: float, i_max: float, v_dc: float) -> "ActiveCellModel":
        """Class-C cell that starts conducting at drive ``turn_on``.

        The full-drive conduction angle follows from cos(phi/2) = turn_on.
        """
        if not 0.0 < turn_on < 1.0:
            raise InputError(f"turn-on drive must lie in (0, 1), got {turn_on}")
        return cls(2.0 * math.acos(turn_on), i_max, v_dc)


@dataclass(frozen=True)
class IdealMainCell:
    """Textbook main path: fundamental current linear in drive, class-B
    DC law I_dc = (2/pi) * I_fund."""

    alpha: float
    i_scale: float
    v_dc: float

    def currents(self, v: float | np.ndarray) -> tuple:
        i = np.asarray(v, dtype=float) * 2.0 / (1.0 + self.alpha) * self.i_scale
        return (2.0 / math.pi) * i, i.astype(complex)[()]


@dataclass(frozen=True)
class IdealAuxCell:
    """Textbook auxiliary path: fundamental current follows the ideal
    load-modulation ramp of the main drive, class-B DC law."""

    alpha: float
    i_scale: float
    v_dc: float

    def currents(self, v: float | np.ndarray) -> tuple:
        i_main_norm = np.asarray(v, dtype=float) * 2.0 / (1.0 + self.alpha)
        i = current_profile(self.alpha, i_main_norm) * self.i_scale
        return (2.0 / math.pi) * i, np.asarray(i, dtype=complex)[()]


def ideal_doherty_cells(cfg: DohertyConfig, v_dc: float) -> tuple[IdealMainCell, IdealAuxCell]:
    """Cell pair scaled so the main device saturates (|V| = v_dc) exactly
    at peak drive into its load-pull target."""
    i_scale = v_dc / cfg.r_opt
    return (
        IdealMainCell(cfg.alpha, i_scale, v_dc),
        IdealAuxCell(cfg.alpha, i_scale, v_dc),
    )
