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

from .errors import ClosedForm, InputError, require_positive, require_within

__all__ = [
    "DohertyConfig",
    "ZeroItrResult",
    "current_profile",
    "pbo_level",
    "itr_conv",
    "itr_intro",
    "zero_itr_alpha",
    "ideal_efficiency",
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


def current_profile(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Auxiliary current demanded by ideal load modulation at ``i_main``
    (a float or an array; the result has its shape).

    Zero below the turn-on point 2/(1+alpha)^2, then the linear ramp
    (1+alpha)*i_main - 2/(1+alpha); continuous at the junction.
    """
    require_positive(alpha=alpha)
    i_main = require_within("i_main", i_main, -1e-15, 2.0 / (1.0 + alpha) * (1.0 + 1e-12))
    ramp = (1.0 + alpha) * i_main - 2.0 / (1.0 + alpha)
    return np.where(i_main < 2.0 / (1.0 + alpha) ** 2, 0.0, ramp)[()]


def pbo_level(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Output back-off in dB at ``i_main``, a float or an array: 20*log10(2/((1+alpha)*i_main))."""
    require_positive(alpha=alpha)
    i_main = require_within("i_main", i_main, math.ulp(0.0), math.inf)
    return 20.0 * np.log10(2.0 / ((1.0 + alpha) * i_main))


def itr_conv(alpha: float, i_main: float | np.ndarray) -> float | np.ndarray:
    """Inverter impedance-transformation ratio, conventional combiner, at
    ``i_main`` (a float or an array; the result has its shape).

    [(1+alpha) / ((2+alpha) - 2/((1+alpha)*i_main))]^2: unity at peak
    drive, monotone increasing during back-off, (1+alpha)^2 once the
    auxiliary branch shuts off.  Independent of the load values.
    """
    require_positive(alpha=alpha)
    i_on = 2.0 / (1.0 + alpha) ** 2
    i_main = require_within("i_main", i_main, i_on * (1.0 - 1e-12),
                            2.0 / (1.0 + alpha) * (1.0 + 1e-12))
    # the denominator written without cancellation at the turn-on point
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
    require_positive(r_opt=r_opt, r_l=r_l)
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
    require_positive(r_opt=r_opt, r_l=r_l)
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
    if not 0 <= pbo_db < math.inf:
        raise InputError(f"back-off must be finite and >= 0 dB, got {pbo_db}")
    x = 10.0 ** (-pbo_db / 20.0)  # normalized output voltage
    if tag == "class-a":
        return 0.5 * x * x
    if tag == "class-b":
        return PEAK_CLASS_B * x
    if tag == "doherty":
        if alpha is None:
            raise InputError("doherty efficiency needs a positive alpha")
        require_positive(alpha=alpha)
        x_t = 1.0 / (1.0 + alpha)
        if x >= x_t:
            return PEAK_CLASS_B * x * x * (1.0 + alpha) / ((2.0 + alpha) * x - 1.0)
        return PEAK_CLASS_B * x * (1.0 + alpha)
    raise InputError(f"unknown class tag '{tag}'")
