"""Synthesis of the three Doherty combiner topologies.

Given the shared design inputs (current asymmetry, device load-pull
target, system load, center frequency) this module produces component
values and executable netlists for

* the two-quarter-wave-line parallel combiner (inverter at the main
  output plus an output down-scaling line),
* the three-quarter-wave-line parallel combiner whose inverter ITR is
  tied to the peak output power, and
* its compact two-transformer realization, where the three lines are
  replaced by low-pass/high-pass pi sections and the four inductors are
  absorbed as leakage and magnetizing inductances of two coupled-winding
  transformers.

Every closed-form identity used in the transformer derivation is
re-evaluated from independent expressions and kept on the design as a
named residual, so a consistency failure is loud rather than silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InputError
from .ideal import DohertyConfig
from .netkit import (
    Capacitor,
    CoupledInductors,
    IdealTransformer,
    Inductor,
    Netlist,
    Resistor,
    TransmissionLine,
)

__all__ = [
    "TwoLineDesign",
    "ThreeLineDesign",
    "PiNetwork",
    "TransformerCombinerDesign",
    "DesignConsistencyError",
    "synth_two_line",
    "synth_three_line",
    "pi_approx",
    "synth_transformer_combiner",
    "to_netlist",
    "transformer_combiner_explicit_netlist",
    "IDENTITY_TOL",
]

IDENTITY_TOL = 1e-9

# soft on-chip realizability windows; violations warn, never fail
Z0_WINDOW = (10.0, 150.0)
L_WINDOW = (50e-12, 10e-9)
C_WINDOW = (5e-15, 10e-12)


class DesignConsistencyError(RuntimeError):
    """A synthesized design violates one of its own defining identities."""


def _rel_residual(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _window_warnings(values: dict[str, float], window: tuple[float, float], unit: str):
    lo, hi = window
    return tuple(
        f"{name} = {val:.4g} {unit} outside the {lo:g}..{hi:g} {unit} realizability window"
        for name, val in values.items()
        if not lo <= val <= hi
    )


@dataclass(frozen=True)
class TwoLineDesign:
    z01: float  # impedance inverter at the main output
    z02: float  # output transformer line
    cfg: DohertyConfig
    identity_residuals: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def f0(self) -> float:
        return self.cfg.f0


@dataclass(frozen=True)
class ThreeLineDesign:
    z01: float
    z02: float
    z03: float
    cfg: DohertyConfig
    identity_residuals: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def f0(self) -> float:
        return self.cfg.f0


@dataclass(frozen=True)
class PiNetwork:
    """Lumped pi section matching a quarter-wave line at ``f0``.

    Low-pass (C-L-C, -90 deg transfer at center) or high-pass (L-C-L,
    +90 deg).  ``series_value`` and ``shunt_value`` are henries/farads as
    the type dictates.
    """

    kind: str  # "low-pass" | "high-pass"
    z0: float
    series_value: float
    shunt_value: float
    f0: float


@dataclass(frozen=True)
class TransformerCombinerDesign:
    """Two-transformer combiner: coupled pairs TF1/TF2 plus C1..C5.

    ``c3_external`` is the part of C3 left to implement after absorbing a
    stated output parasitic; the electrical value in the network is c3.
    """

    l_p1: float
    n1: float
    k1: float
    l_p2: float
    n2: float
    k2: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    z0_lp_main: float
    z0_lp_aux: float
    z0_hp_aux: float
    l_m1: float
    l_m2: float
    c_pad: float
    c3_external: float
    cfg: DohertyConfig
    identity_residuals: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def f0(self) -> float:
        return self.cfg.f0

    def tf1(self, q: float = math.inf) -> CoupledInductors:
        return CoupledInductors(self.l_p1, self.n1, self.k1, q=q)

    def tf2(self, q: float = math.inf) -> CoupledInductors:
        return CoupledInductors(self.l_p2, self.n2, self.k2, q=q)


def synth_two_line(cfg: DohertyConfig) -> TwoLineDesign:
    """Two-line combiner values: the output line maps the system load to
    R_opt/2 at every drive, the inverter sits at the main-device target."""
    z01 = (1.0 + cfg.alpha) * cfg.r_opt / 2.0
    z02 = math.sqrt(cfg.r_opt * cfg.r_l / 2.0)
    residuals = {
        "inverter_z0_matches_main_target": _rel_residual(z01, cfg.z_main_peak),
        "output_line_squares_to_half_load_product": _rel_residual(
            z02 * z02, cfg.r_opt * cfg.r_l / 2.0
        ),
    }
    warnings = _window_warnings({"z01": z01, "z02": z02}, Z0_WINDOW, "ohm")
    return TwoLineDesign(z01, z02, cfg, residuals, warnings)


def synth_three_line(cfg: DohertyConfig, z02: float | None = None) -> ThreeLineDesign:
    """Three-line combiner values.

    z01 = (1+alpha)*sqrt(R_opt*R_L/2); the two auxiliary lines may be
    chosen freely as long as z03/z02 = sqrt(2*R_L/R_opt).  The default
    picks z02 = z01, which lands z03 at (1+alpha)*R_L.
    """
    z01 = (1.0 + cfg.alpha) * math.sqrt(cfg.r_opt * cfg.r_l / 2.0)
    ratio = math.sqrt(2.0 * cfg.r_l / cfg.r_opt)
    if z02 is None:
        z02 = z01
    if z02 <= 0:
        raise InputError(f"z02 must be positive, got {z02}")
    z03 = z02 * ratio
    residuals = {
        "inverter_z0_from_loads": _rel_residual(z01, (1.0 + cfg.alpha) * math.sqrt(cfg.r_opt * cfg.r_l / 2.0)),
        "aux_line_ratio": _rel_residual(z03 / z02, ratio),
    }
    warnings = _window_warnings({"z01": z01, "z02": z02, "z03": z03}, Z0_WINDOW, "ohm")
    return ThreeLineDesign(z01, z02, z03, cfg, residuals, warnings)


def pi_approx(z0: float, f0: float, kind: str) -> PiNetwork:
    """Pi section equivalent to a quarter-wave line of impedance ``z0``.

    low-pass: series L = z0/w0, shunt C = 1/(w0*z0) both sides;
    high-pass: series C = 1/(w0*z0), shunt L = z0/w0 both sides.
    """
    if z0 <= 0 or f0 <= 0:
        raise InputError("z0 and f0 must be positive")
    w0 = 2.0 * math.pi * f0
    if kind == "low-pass":
        return PiNetwork(kind, z0, series_value=z0 / w0, shunt_value=1.0 / (w0 * z0), f0=f0)
    if kind == "high-pass":
        return PiNetwork(kind, z0, series_value=1.0 / (w0 * z0), shunt_value=z0 / w0, f0=f0)
    raise InputError(f"unknown pi kind '{kind}'")


def synth_transformer_combiner(
    cfg: DohertyConfig,
    n1: float = 1.0,
    k1: float = 0.7,
    n2: float = 1.0,
    c_pad: float = 0.0,
) -> TransformerCombinerDesign:
    """Closed-form two-transformer combiner synthesis (symmetric split).

    The free choices are TF1's turn ratio and coupling and TF2's turn
    ratio; TF2's coupling and all capacitors then follow.  ``c_pad``
    farads of output parasitic are absorbed into C3.  The derivation is
    for the symmetric current split, so alpha must be 1.
    """
    if abs(cfg.alpha - 1.0) > 1e-12:
        raise InputError(
            "transformer-combiner synthesis is defined for the symmetric "
            f"split (alpha = 1); got alpha = {cfg.alpha}"
        )
    if not n1 > 0 or not n2 > 0:
        raise InputError("turn ratios must be positive")
    if not 0.0 < k1 < 1.0:
        raise InputError(f"k1 must lie in (0, 1), got {k1}")
    if c_pad < 0:
        raise InputError(f"c_pad must be >= 0, got {c_pad}")
    try:
        return _transformer_combiner(cfg, n1, k1, n2, c_pad)
    except OverflowError:
        # a ratio of two free parameters squared left float range; the
        # parameter farthest from 1 made it
        name, val = max((("n1", n1), ("k1", k1), ("n2", n2)), key=lambda p: abs(math.log(p[1])))
        raise InputError(f"{name} = {val} overflows the closed-form synthesis") from None


def _transformer_combiner(
    cfg: DohertyConfig, n1: float, k1: float, n2: float, c_pad: float
) -> TransformerCombinerDesign:
    w = 2.0 * math.pi * cfg.f0
    r_opt, r_l = cfg.r_opt, cfg.r_l
    root_2rr = math.sqrt(2.0 * r_opt * r_l)

    z0_lp_main = (k1 / n1) * root_2rr
    l_p1 = z0_lp_main / (w * (1.0 - k1 * k1))
    c1 = 1.0 / (w * z0_lp_main)
    c3 = (k1 / n1) ** 2 * c1
    z0_hp_aux = n1 * n1 / (1.0 - k1 * k1) * z0_lp_main
    l_p2 = l_p1 * (n1 / n2) ** 2
    c5 = 1.0 / (w * z0_hp_aux)

    s = math.sqrt(r_opt / (2.0 * r_l))
    # the root of k2^2 + n2 s k2 = 1 in (0, 1), in the form that does not
    # cancel for a large n2 s
    k2 = 2.0 / (math.sqrt(n2 * n2 * s * s + 4.0) + n2 * s)
    if not 0.0 < k2 < 1.0:
        raise DesignConsistencyError(
            f"solved coupling k2 = {k2} fell outside (0, 1); inputs "
            f"n2 = {n2}, r_opt/r_l = {r_opt / r_l}"
        )

    z0_lp_aux = (1.0 - k2 * k2) / (n2 * n2) * z0_hp_aux
    c2 = 1.0 / (w * z0_lp_aux)
    c4 = (k2 / n2) ** 2 * c2
    l_m1 = k1 * k1 * l_p1
    l_m2 = k2 * k2 * l_p2

    if c_pad > c3:
        raise InputError(
            f"output parasitic {c_pad:.4g} F exceeds the synthesized C3 {c3:.4g} F"
        )
    c3_external = c3 - c_pad

    residuals = {
        "lp_main_z0_from_loads": _rel_residual(z0_lp_main, (k1 / n1) * root_2rr),
        "tf1_primary_from_lp_z0": _rel_residual(
            l_p1, (k1 / (w * n1 * (1.0 - k1 * k1))) * root_2rr
        ),
        "c1_inverts_lp_main_z0": _rel_residual(c1, n1 / (w * k1 * root_2rr)),
        "c3_is_c1_reflected_through_tf1": _rel_residual(c3, (k1 / n1) ** 2 * c1),
        "tf1_magnetizing_two_forms": _rel_residual(
            k1 * k1 * z0_lp_main / (w * (1.0 - k1 * k1)),
            z0_hp_aux / (w * (n1 / k1) ** 2),
        ),
        "tf2_magnetizing_two_forms": _rel_residual(
            k2 * k2 * z0_lp_aux / (w * (1.0 - k2 * k2)),
            z0_hp_aux / (w * (n2 / k2) ** 2),
        ),
        "hp_aux_z0_from_tf1": _rel_residual(
            z0_hp_aux, n1 * k1 / (1.0 - k1 * k1) * root_2rr
        ),
        "tf2_primary_two_forms": _rel_residual(
            z0_hp_aux / (w * (n2 / k2) ** 2 * k2 * k2),
            n1 * k1 / (w * n2 * n2 * (1.0 - k1 * k1)) * root_2rr,
        ),
        "tf2_primary_matches_stored": _rel_residual(l_p2, z0_hp_aux / (w * n2 * n2)),
        "c5_inverts_hp_aux_z0": _rel_residual(
            c5, (1.0 - k1 * k1) / (w * n1 * k1 * root_2rr)
        ),
        "aux_ratio_line_form": _rel_residual(
            z0_hp_aux / z0_lp_aux, (n2 / k2) * math.sqrt(2.0 * r_l / r_opt)
        ),
        "aux_ratio_coupling_form": _rel_residual(
            z0_hp_aux / z0_lp_aux, n2 * n2 / (1.0 - k2 * k2)
        ),
        "c2_two_forms": _rel_residual(
            c2,
            n2 * n2 * (1.0 - k1 * k1)
            / (w * n1 * k1 * (1.0 - k2 * k2) * root_2rr),
        ),
        "c4_is_c2_reflected_through_tf2": _rel_residual(c4, (k2 / n2) ** 2 * c2),
        "k2_quadratic_root": _rel_residual(k2 * k2 + n2 * s * k2, 1.0),
    }
    bad = {name: r for name, r in residuals.items() if r > IDENTITY_TOL}
    if bad:
        raise DesignConsistencyError(f"identity residuals above {IDENTITY_TOL}: {bad}")

    warnings = _window_warnings(
        {"l_p1": l_p1, "l_p2": l_p2, "l_m1": l_m1, "l_m2": l_m2}, L_WINDOW, "H"
    ) + _window_warnings(
        {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}, C_WINDOW, "F"
    )

    return TransformerCombinerDesign(
        l_p1=l_p1,
        n1=n1,
        k1=k1,
        l_p2=l_p2,
        n2=n2,
        k2=k2,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        z0_lp_main=z0_lp_main,
        z0_lp_aux=z0_lp_aux,
        z0_hp_aux=z0_hp_aux,
        l_m1=l_m1,
        l_m2=l_m2,
        c_pad=c_pad,
        c3_external=c3_external,
        cfg=cfg,
        identity_residuals=residuals,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# Netlist emission
# ----------------------------------------------------------------------


def _add_pi(net: Netlist, tag: str, pi: PiNetwork, n_in: str, n_out: str,
            q_l: float, q_c: float) -> None:
    g = net.ground
    if pi.kind == "low-pass":
        net.add(f"{tag}_cin", Capacitor(pi.shunt_value, q=q_c), n_in, g)
        net.add(f"{tag}_l", Inductor(pi.series_value, q=q_l), n_in, n_out)
        net.add(f"{tag}_cout", Capacitor(pi.shunt_value, q=q_c), n_out, g)
    else:
        net.add(f"{tag}_lin", Inductor(pi.shunt_value, q=q_l), n_in, g)
        net.add(f"{tag}_c", Capacitor(pi.series_value, q=q_c), n_in, n_out)
        net.add(f"{tag}_lout", Inductor(pi.shunt_value, q=q_l), n_out, g)


def _finish(net: Netlist, r_l: float, include_load: bool, aux_node: str = "aux") -> Netlist:
    if include_load:
        net.add("RL", Resistor(r_l), "out", net.ground)
    net.add_port("main", "main")
    net.add_port("aux", aux_node)
    net.add_port("load", "out")
    net.load_port = "load"
    net.validate()
    return net


def to_netlist(
    design: TwoLineDesign | ThreeLineDesign | TransformerCombinerDesign,
    q_l: float = math.inf,
    q_c: float = math.inf,
    include_load: bool = True,
    implementation: str = "line",
) -> Netlist:
    """Executable netlist with ports ``main``, ``aux`` and ``load``.

    Line-based designs come either as ideal transmission lines
    (``implementation="line"``) or as their lumped pi realization
    (``"lumped-pi"``) carrying the given element Q budget; a lossy line
    is built through :class:`TransmissionLine` or netlist JSON.  The
    transformer design is inherently lumped; ``q_l`` applies to its
    windings and ``q_c`` to C1..C5.
    """
    net = Netlist(f0=design.f0)
    g = net.ground

    if isinstance(design, TransformerCombinerDesign):
        net.add("C1", Capacitor(design.c1, q=q_c), "main", g)
        net.add("TF1", design.tf1(q=q_l), "main", g, "out", g)
        net.add("C3", Capacitor(design.c3, q=q_c), "out", g)
        net.add("C2", Capacitor(design.c2, q=q_c), "aux", g)
        net.add("TF2", design.tf2(q=q_l), "aux", g, "tf2s", g)
        net.add("C4", Capacitor(design.c4, q=q_c), "tf2s", g)
        net.add("C5", Capacitor(design.c5, q=q_c), "tf2s", "out")
        return _finish(net, design.cfg.r_l, include_load)

    # one (name, z0, input node, output node, pi kind) row per line
    if isinstance(design, TwoLineDesign):
        aux_node = "aux_node"
        rows = [("TL1", design.z01, "main", aux_node, "low-pass"),
                ("TL2", design.z02, aux_node, "out", "low-pass")]
    elif isinstance(design, ThreeLineDesign):
        aux_node = "aux"
        rows = [("TL1", design.z01, "main", "out", "low-pass"),
                ("TL2", design.z02, "aux", "mid", "low-pass"),
                ("TL3", design.z03, "mid", "out", "high-pass")]
    else:
        raise TypeError(f"cannot emit a netlist for {type(design).__name__}")
    if implementation not in ("line", "lumped-pi"):
        raise InputError(f"unknown implementation '{implementation}'")
    for name, z0, n_in, n_out, kind in rows:
        if implementation == "line":
            net.add(name, TransmissionLine(z0, 90.0, design.f0), n_in, n_out)
        else:
            _add_pi(net, name, pi_approx(z0, design.f0, kind), n_in, n_out, q_l, q_c)
    return _finish(net, design.cfg.r_l, include_load, aux_node)


def transformer_combiner_explicit_netlist(
    design: TransformerCombinerDesign,
    q_l: float = math.inf,
    q_c: float = math.inf,
    include_load: bool = True,
) -> Netlist:
    """The pre-absorption intermediate network: explicit leakage and
    magnetizing inductors plus ideal transformers in place of the two
    coupled pairs.  Port-for-port equivalent to :func:`to_netlist` of the
    same design; used to validate the synthesis derivation end to end.
    """
    net = Netlist(f0=design.f0)
    g = net.ground
    tf1, tf2 = design.tf1(), design.tf2()

    net.add("C1", Capacitor(design.c1, q=q_c), "main", g)
    net.add("TF1_leak", Inductor(tf1.l_leak, q=q_l), "main", "m1")
    net.add("TF1_mag", Inductor(tf1.l_mag, q=q_l), "m1", g)
    net.add("TF1_ideal", IdealTransformer(tf1.ideal_ratio), "m1", g, "out", g)
    net.add("C3", Capacitor(design.c3, q=q_c), "out", g)

    net.add("C2", Capacitor(design.c2, q=q_c), "aux", g)
    net.add("TF2_leak", Inductor(tf2.l_leak, q=q_l), "aux", "a1")
    net.add("TF2_mag", Inductor(tf2.l_mag, q=q_l), "a1", g)
    net.add("TF2_ideal", IdealTransformer(tf2.ideal_ratio), "a1", g, "tf2s", g)
    net.add("C4", Capacitor(design.c4, q=q_c), "tf2s", g)
    net.add("C5", Capacitor(design.c5, q=q_c), "tf2s", "out")
    return _finish(net, design.cfg.r_l, include_load)
