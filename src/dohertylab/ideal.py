"""Closed-form two-way Doherty mathematics.

Current split, back-off bookkeeping, impedance-transformation ratios of
the inverter in the two classic parallel combiner families, the
asymmetry that removes the transformation entirely at the second
efficiency peak, and ideal drain-efficiency models.

Conventions: ``alpha`` is the auxiliary/main peak-current ratio, currents
are normalized so i_main in [0, 2/(1+alpha)] and i_aux in
[0, 2*alpha/(1+alpha)]; the sum of the two maxima is 2 regardless of
alpha, which keeps peak output power fixed while alpha varies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ClosedForm, InputError

__all__ = [
    "DohertyConfig",
    "EfficiencyCurve",
    "ZeroItrResult",
    "current_profile",
    "pbo_level",
    "i_main_from_pbo",
    "itr_conv",
    "itr_intro",
    "zero_itr_alpha",
    "ideal_efficiency",
    "efficiency_curve",
    "average_efficiency",
]

PEAK_CLASS_B = math.pi / 4.0


@dataclass(frozen=True)
class DohertyConfig:
    """Shared design inputs: current asymmetry, main-device optimal load,
    system load and center frequency."""

    alpha: float
    r_opt: float
    r_l: float
    f0: float

    #: design-file key -> field
    keys: ClassVar[dict] = {"alpha": "alpha", "r_opt_ohm": "r_opt", "r_l_ohm": "r_l", "f0_hz": "f0"}

    def __post_init__(self):
        with ClosedForm(self.inputs) as check:
            check(i_main_max=self.i_main_max, i_main_turn_on=self.i_main_turn_on,
                  i_aux_max=self.i_aux_max, z_main_peak=self.z_main_peak,
                  z_aux_peak=self.z_aux_peak)

    @property
    def inputs(self) -> dict[str, float]:
        """The values by design-file key."""
        return {key: getattr(self, name) for key, name in self.keys.items()}

    @property
    def i_main_max(self) -> float:
        return 2.0 / (1.0 + self.alpha)

    @property
    def i_main_turn_on(self) -> float:
        """Main current at which the auxiliary path starts conducting."""
        return 2.0 / (1.0 + self.alpha) ** 2

    @property
    def i_aux_max(self) -> float:
        return 2.0 * self.alpha / (1.0 + self.alpha)

    @property
    def z_main_peak(self) -> float:
        """Main-device load-pull target at peak output, (1+a)*R_opt/2."""
        return (1.0 + self.alpha) * self.r_opt / 2.0

    @property
    def z_aux_peak(self) -> float:
        """Auxiliary-device load-pull target at peak output."""
        return (1.0 + self.alpha) * self.r_opt / (2.0 * self.alpha)


@dataclass(frozen=True, eq=False)
class EfficiencyCurve:
    """Sampled (back-off dB, drain efficiency) curve with a class tag."""

    pbo_db: np.ndarray
    eta: np.ndarray
    tag: str

    def interp(self, pbo: float) -> float:
        if pbo < self.pbo_db.min() - 1e-12 or pbo > self.pbo_db.max() + 1e-12:
            raise InputError(f"back-off {pbo} dB outside curve support")
        return float(np.interp(pbo, self.pbo_db, self.eta))


def current_profile(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Auxiliary current demanded by ideal load modulation at ``i_main``
    (a float or an array; the result has its shape).

    Zero below the turn-on point 2/(1+alpha)^2, then the linear ramp
    (1+alpha)*i_main - 2/(1+alpha); continuous at the junction.
    """
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    top = 2.0 / (1.0 + alpha)
    i_main = np.asarray(i_main, dtype=float)
    lo = np.fmin.reduce(i_main, None, initial=np.inf)  # NaN passes
    hi = np.fmax.reduce(i_main, None, initial=-np.inf)
    if lo < -1e-15 or hi > top * (1.0 + 1e-12):
        raise InputError(f"i_main {lo if lo < 0 else hi} outside [0, {top}]")
    ramp = (1.0 + alpha) * i_main - 2.0 / (1.0 + alpha)
    return np.where(i_main < 2.0 / (1.0 + alpha) ** 2, 0.0, ramp)[()]


def pbo_level(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Output back-off in dB at ``i_main``, a float or an array: 20*log10(2/((1+alpha)*i_main))."""
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    i_main = np.asarray(i_main, dtype=float)
    lo = np.fmin.reduce(i_main, None, initial=np.inf)  # NaN passes
    if lo <= 0:
        raise InputError(f"i_main must be positive, got {lo}")
    return 20.0 * np.log10(2.0 / ((1.0 + alpha) * i_main))


def i_main_from_pbo(alpha: float, pbo_db: float) -> float:
    """Inverse of :func:`pbo_level`."""
    return 2.0 / ((1.0 + alpha) * 10.0 ** (pbo_db / 20.0))


def _check_aux_on(alpha: float, i_main: float | np.ndarray) -> np.ndarray:
    """``i_main`` as a float array; ValueError naming an element outside
    the auxiliary-on region, NaN among them."""
    i_main = np.asarray(i_main, dtype=float)
    lo = 2.0 / (1.0 + alpha) ** 2
    hi = 2.0 / (1.0 + alpha)
    least = np.min(i_main, initial=np.inf)  # NaN propagates and fails
    most = np.max(i_main, initial=-np.inf)
    if not (lo * (1.0 - 1e-12) <= least and most <= hi * (1.0 + 1e-12)):
        bad = most if lo * (1.0 - 1e-12) <= least else least
        raise InputError(f"i_main {bad} outside the auxiliary-on region [{lo}, {hi}]")
    return i_main


def itr_conv(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Inverter impedance-transformation ratio, conventional combiner, at
    ``i_main`` (a float or an array; the result has its shape).

    [(1+alpha) / ((2+alpha) - 2/((1+alpha)*i_main))]^2: unity at peak
    drive, monotone increasing during back-off, (1+alpha)^2 once the
    auxiliary branch shuts off.  Independent of the load values.
    """
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    i_main = _check_aux_on(alpha, i_main)
    # the denominator written without cancellation at the turn-on point
    i_on = 2.0 / (1.0 + alpha) ** 2
    denom = 1.0 + (1.0 + alpha) * (i_main - i_on) / i_main
    return np.square((1.0 + alpha) / denom)


def itr_intro(
    alpha: float, i_main: float | np.ndarray, r_opt: float, r_l: float
) -> float | np.ndarray:
    """Inverter ITR of the output-side-transforming combiner, at ``i_main``
    (a float or an array; the result has its shape).

    beta = R_opt/(2*R_L) * itr_conv; the reported ratio is max(beta,
    1/beta) so it is always >= 1.  The R_opt/(2*R_L) factor breaks the
    monotonicity of the conventional ratio and ties the ITR to the peak
    output power.
    """
    if r_opt <= 0 or r_l <= 0:
        raise InputError("r_opt and r_l must be positive")
    beta = r_opt / (2.0 * r_l) * itr_conv(alpha, i_main)
    return np.maximum(beta, 1.0 / beta)


class ZeroItrResult(NamedTuple):
    alpha: float
    aux_stronger: bool  # alpha > 1, equivalently r_opt < r_l/2


def zero_itr_alpha(r_opt: float, r_l: float) -> ZeroItrResult | None:
    """Asymmetry that makes the second-efficiency-peak ITR exactly one.

    alpha = sqrt(2*r_l/r_opt) - 1 when positive, else None.  The result
    exceeds one (auxiliary stronger than main) precisely when
    r_opt < r_l/2.
    """
    if r_opt <= 0 or r_l <= 0:
        raise InputError("r_opt and r_l must be positive")
    alpha = math.sqrt(2.0 * r_l / r_opt) - 1.0
    if alpha <= 0:
        return None
    return ZeroItrResult(alpha=alpha, aux_stronger=r_opt < r_l / 2.0)


def ideal_efficiency(tag: str, pbo_db: float, alpha: float | None = None) -> float:
    """Ideal lossless drain efficiency at ``pbo_db`` back-off.

    tag "class-a": 0.5 * 10^(-pbo/10) (constant DC draw);
    tag "class-b": (pi/4) * 10^(-pbo/20);
    tag "doherty": two-segment curve from the ideal current split with the
    main device held at voltage saturation while the auxiliary is on;
    peaks at pi/4 at 0 dB and at 20*log10(1+alpha) dB.
    """
    if pbo_db < 0:
        raise InputError(f"back-off must be >= 0 dB, got {pbo_db}")
    x = 10.0 ** (-pbo_db / 20.0)  # normalized output voltage
    if tag == "class-a":
        return 0.5 * x * x
    if tag == "class-b":
        return PEAK_CLASS_B * x
    if tag == "doherty":
        if alpha is None or alpha <= 0:
            raise InputError("doherty efficiency needs a positive alpha")
        x_t = 1.0 / (1.0 + alpha)
        if x >= x_t:
            return PEAK_CLASS_B * x * x * (1.0 + alpha) / ((2.0 + alpha) * x - 1.0)
        return PEAK_CLASS_B * x * (1.0 + alpha)
    raise InputError(f"unknown class tag '{tag}'")


def efficiency_curve(
    tag: str,
    pbo_grid: np.ndarray | list[float],
    alpha: float | None = None,
) -> EfficiencyCurve:
    pbo = np.asarray(pbo_grid, dtype=float)
    eta = np.array([ideal_efficiency(tag, p, alpha) for p in pbo])
    label = f"doherty(alpha={alpha:g})" if tag == "doherty" else tag
    return EfficiencyCurve(pbo_db=pbo, eta=eta, tag=label)


def average_efficiency(
    curve: EfficiencyCurve,
    pdf_pbo_db: np.ndarray | list[float],
    pdf_mass: np.ndarray | list[float],
) -> float:
    """Power-weighted average efficiency over a back-off distribution.

    The distribution is a set of point masses (continuous densities can be
    pre-sampled with quadrature weights).  Defined as the ratio of expected
    output power to expected DC power with P_dc = P_out / eta, i.e. the
    long-run efficiency of a transmitter dwelling on those levels.
    """
    pbo = np.asarray(pdf_pbo_db, dtype=float)
    mass = np.asarray(pdf_mass, dtype=float)
    if pbo.shape != mass.shape or pbo.ndim != 1 or pbo.size == 0:
        raise InputError("pdf must be two equal-length 1-d arrays")
    if np.any(mass < 0):
        raise InputError("pdf masses must be non-negative")
    total = float(mass.sum())
    if abs(total - 1.0) > 1e-6:
        raise InputError(f"pdf mass sums to {total}, expected 1 within 1e-6")
    p_out = 10.0 ** (-pbo / 10.0)
    eta = np.array([curve.interp(p) for p in pbo])  # raises off-support
    if np.any(eta <= 0):
        raise InputError("pdf puts mass where the curve has zero efficiency")
    p_dc = p_out / eta
    return float((mass * p_out).sum() / (mass * p_dc).sum())
