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
from typing import ClassVar

from .errors import ClosedForm, InputError
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
    "CombinerDesign",
    "TOPOLOGIES",
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


class CombinerDesign:
    """A synthesized combiner.  Each family states here, once, what the
    CLI, :func:`to_netlist` and the ITR oracle know of it: its design-file
    ``topology`` name; its design-file ``keys`` by section, mapped to the
    keywords of ``synthesize(cfg, **keywords)``, whose signature holds the
    defaults; its ``components()`` report; and its netlist ``rows(q_l,
    q_c, implementation)``, ``(name, component, *nodes)`` each, of which
    the first ``inverter_rows`` form the main-path impedance inverter and
    one node of which, ``aux_node``, is the ``aux`` port.
    """

    keys: ClassVar[dict[str, dict[str, str]]] = {}
    inverter_rows: ClassVar[int] = 1
    aux_node: ClassVar[str] = "aux"

    @property
    def f0(self) -> float:
        return self.cfg.f0


@dataclass(frozen=True)
class TwoLineDesign(CombinerDesign):
    z01: float  # impedance inverter at the main output
    z02: float  # output transformer line
    cfg: DohertyConfig
    identity_residuals: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    topology = "two-line"
    aux_node = "aux_node"
    synthesize = staticmethod(lambda cfg: synth_two_line(cfg))  # looked up when called

    def components(self) -> dict[str, float]:
        return {"z01_ohm": self.z01, "z02_ohm": self.z02}

    def rows(self, q_l: float, q_c: float, implementation: str) -> list[tuple]:
        return _line_rows(self, [("TL1", self.z01, "main", "aux_node", "low-pass"),
                                 ("TL2", self.z02, "aux_node", "out", "low-pass")],
                          q_l, q_c, implementation)


@dataclass(frozen=True)
class ThreeLineDesign(CombinerDesign):
    z01: float
    z02: float
    z03: float
    cfg: DohertyConfig
    identity_residuals: dict[str, float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    topology = "three-line"
    keys = {"free_params": {"z02_ohm": "z02"}}
    synthesize = staticmethod(lambda cfg, **params: synth_three_line(cfg, **params))

    def components(self) -> dict[str, float]:
        return {"z01_ohm": self.z01, "z02_ohm": self.z02, "z03_ohm": self.z03}

    def rows(self, q_l: float, q_c: float, implementation: str) -> list[tuple]:
        return _line_rows(self, [("TL1", self.z01, "main", "out", "low-pass"),
                                 ("TL2", self.z02, "aux", "mid", "low-pass"),
                                 ("TL3", self.z03, "mid", "out", "high-pass")],
                          q_l, q_c, implementation)


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
class TransformerCombinerDesign(CombinerDesign):
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

    topology = "transformer"
    keys = {"free_params": {"n1": "n1", "k1": "k1", "n2": "n2"},
            "parasitics": {"c_pad_f": "c_pad"}}
    synthesize = staticmethod(lambda cfg, **params: synth_transformer_combiner(cfg, **params))
    inverter_rows = 3  # the C1/TF1/C3 pi section

    def tf1(self, q: float = math.inf) -> CoupledInductors:
        return CoupledInductors(self.l_p1, self.n1, self.k1, q=q)

    def tf2(self, q: float = math.inf) -> CoupledInductors:
        return CoupledInductors(self.l_p2, self.n2, self.k2, q=q)

    def components(self) -> dict[str, float]:
        return {
            "l_p1_h": self.l_p1, "n1": self.n1, "k1": self.k1,
            "l_p2_h": self.l_p2, "n2": self.n2, "k2": self.k2,
            "l_m1_h": self.l_m1, "l_m2_h": self.l_m2,
            "c1_f": self.c1, "c2_f": self.c2, "c3_f": self.c3,
            "c3_external_f": self.c3_external, "c4_f": self.c4, "c5_f": self.c5,
            "z0_lp_main_ohm": self.z0_lp_main, "z0_lp_aux_ohm": self.z0_lp_aux,
            "z0_hp_aux_ohm": self.z0_hp_aux,
        }

    def rows(self, q_l: float, q_c: float, implementation: str) -> list[tuple]:
        """Inherently lumped: ``implementation`` changes nothing."""
        return [
            ("C1", Capacitor(self.c1, q=q_c), "main", _G),
            ("TF1", self.tf1(q=q_l), "main", _G, "out", _G),
            ("C3", Capacitor(self.c3, q=q_c), "out", _G),
            ("C2", Capacitor(self.c2, q=q_c), "aux", _G),
            ("TF2", self.tf2(q=q_l), "aux", _G, "tf2s", _G),
            ("C4", Capacitor(self.c4, q=q_c), "tf2s", _G),
            ("C5", Capacitor(self.c5, q=q_c), "tf2s", "out"),
        ]


#: topology name -> design class: the topologies a design file may name
TOPOLOGIES = {d.topology: d for d in (TwoLineDesign, ThreeLineDesign, TransformerCombinerDesign)}


def synth_two_line(cfg: DohertyConfig) -> TwoLineDesign:
    """Two-line combiner values: the output line maps the system load to
    R_opt/2 at every drive, the inverter sits at the main-device target."""
    with ClosedForm(cfg.inputs) as check:
        z01 = (1.0 + cfg.alpha) * cfg.r_opt / 2.0
        z02 = math.sqrt(cfg.r_opt * cfg.r_l / 2.0)
        check(z01=z01, z02=z02)
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
    with ClosedForm(cfg.inputs if z02 is None else {**cfg.inputs, "z02_ohm": z02}) as check:
        z01 = (1.0 + cfg.alpha) * math.sqrt(cfg.r_opt * cfg.r_l / 2.0)
        ratio = math.sqrt(2.0 * cfg.r_l / cfg.r_opt)
        if z02 is None:
            z02 = z01
        z03 = z02 * ratio
        check(z01=z01, aux_line_ratio=ratio, z03=z03)
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
    if kind not in ("low-pass", "high-pass"):
        raise InputError(f"unknown pi kind '{kind}'")
    with ClosedForm({"z0_ohm": z0, "f0_hz": f0}) as check:
        w0 = 2.0 * math.pi * f0
        henries, farads = z0 / w0, 1.0 / (w0 * z0)
        check(henries=henries, farads=farads)
    if kind == "low-pass":
        return PiNetwork(kind, z0, series_value=henries, shunt_value=farads, f0=f0)
    return PiNetwork(kind, z0, series_value=farads, shunt_value=henries, f0=f0)


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
            f"split (alpha = 1); got alpha = {cfg.alpha}",
            key="alpha",
        )
    if not 0.0 < k1 < 1.0:
        raise InputError(f"k1 must lie in (0, 1), got {k1}", key="k1")
    if not c_pad >= 0:
        raise InputError(f"c_pad must be >= 0, got {c_pad}", key="c_pad_f")
    r_opt, r_l = cfg.r_opt, cfg.r_l

    with ClosedForm({**cfg.inputs, "n1": n1, "k1": k1, "n2": n2}) as check:
        w = 2.0 * math.pi * cfg.f0
        root_2rr = math.sqrt(2.0 * r_opt * r_l)

        z0_lp_main = (k1 / n1) * root_2rr
        l_p1 = z0_lp_main / (w * (1.0 - k1 * k1))
        c1 = 1.0 / (w * z0_lp_main)
        c3 = (k1 / n1) ** 2 * c1
        z0_hp_aux = n1 * n1 / (1.0 - k1 * k1) * z0_lp_main
        l_p2 = l_p1 * (n1 / n2) ** 2
        c5 = 1.0 / (w * z0_hp_aux)

        s = math.sqrt(r_opt / (2.0 * r_l))
        # the root of k2^2 + n2 s k2 = 1 in (0, 1), in the form that does
        # not cancel for a large n2 s
        k2 = 2.0 / (math.sqrt(n2 * n2 * s * s + 4.0) + n2 * s)

        z0_lp_aux = (1.0 - k2 * k2) / (n2 * n2) * z0_hp_aux
        c2 = 1.0 / (w * z0_lp_aux)
        c4 = (k2 / n2) ** 2 * c2
        l_m1 = k1 * k1 * l_p1
        l_m2 = k2 * k2 * l_p2
        # k2 < 1 holds while z0_lp_aux is positive; the identities below
        # divide by these values
        check(w=w, root_2rr=root_2rr, s=s, l_p1=l_p1, l_p2=l_p2, k2=k2, c1=c1, c2=c2, c3=c3,
              c4=c4, c5=c5, z0_lp_main=z0_lp_main, z0_lp_aux=z0_lp_aux, z0_hp_aux=z0_hp_aux,
              l_m1=l_m1, l_m2=l_m2)

        residuals = {
            "lp_main_z0_from_loads": _rel_residual(z0_lp_main, (k1 / n1) * root_2rr),
            "tf1_primary_from_lp_z0": _rel_residual(
                l_p1, (k1 / (w * n1 * (1.0 - k1 * k1))) * root_2rr),
            "c1_inverts_lp_main_z0": _rel_residual(c1, n1 / (w * k1 * root_2rr)),
            "c3_is_c1_reflected_through_tf1": _rel_residual(c3, (k1 / n1) ** 2 * c1),
            "tf1_magnetizing_two_forms": _rel_residual(
                k1 * k1 * z0_lp_main / (w * (1.0 - k1 * k1)), z0_hp_aux / (w * (n1 / k1) ** 2)),
            "tf2_magnetizing_two_forms": _rel_residual(
                k2 * k2 * z0_lp_aux / (w * (1.0 - k2 * k2)), z0_hp_aux / (w * (n2 / k2) ** 2)),
            "hp_aux_z0_from_tf1": _rel_residual(z0_hp_aux, n1 * k1 / (1.0 - k1 * k1) * root_2rr),
            "tf2_primary_two_forms": _rel_residual(
                z0_hp_aux / (w * (n2 / k2) ** 2 * k2 * k2),
                n1 * k1 / (w * n2 * n2 * (1.0 - k1 * k1)) * root_2rr),
            "tf2_primary_matches_stored": _rel_residual(l_p2, z0_hp_aux / (w * n2 * n2)),
            "c5_inverts_hp_aux_z0": _rel_residual(
                c5, (1.0 - k1 * k1) / (w * n1 * k1 * root_2rr)),
            "aux_ratio_line_form": _rel_residual(
                z0_hp_aux / z0_lp_aux, (n2 / k2) * math.sqrt(2.0 * r_l / r_opt)),
            "aux_ratio_coupling_form": _rel_residual(
                z0_hp_aux / z0_lp_aux, n2 * n2 / (1.0 - k2 * k2)),
            "c2_two_forms": _rel_residual(
                c2, n2 * n2 * (1.0 - k1 * k1) / (w * n1 * k1 * (1.0 - k2 * k2) * root_2rr)),
            "c4_is_c2_reflected_through_tf2": _rel_residual(c4, (k2 / n2) ** 2 * c2),
            "k2_quadratic_root": _rel_residual(k2 * k2 + n2 * s * k2, 1.0),
        }

    if c_pad > c3:
        raise InputError(
            f"output parasitic {c_pad:.4g} F exceeds the synthesized C3 {c3:.4g} F",
            key="c_pad_f",
        )
    bad = {name: r for name, r in residuals.items() if r > IDENTITY_TOL}
    if bad:
        raise DesignConsistencyError(f"identity residuals above {IDENTITY_TOL}: {bad}")

    warnings = _window_warnings(
        {"l_p1": l_p1, "l_p2": l_p2, "l_m1": l_m1, "l_m2": l_m2}, L_WINDOW, "H"
    ) + _window_warnings(
        {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5}, C_WINDOW, "F"
    )
    return TransformerCombinerDesign(
        l_p1=l_p1, n1=n1, k1=k1, l_p2=l_p2, n2=n2, k2=k2, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5,
        z0_lp_main=z0_lp_main, z0_lp_aux=z0_lp_aux, z0_hp_aux=z0_hp_aux, l_m1=l_m1, l_m2=l_m2,
        c_pad=c_pad, c3_external=c3 - c_pad, cfg=cfg, identity_residuals=residuals,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# Netlist emission
# ----------------------------------------------------------------------

_G = Netlist.ground


def _line_rows(design: CombinerDesign, lines: list[tuple], q_l: float, q_c: float,
               implementation: str):
    """Netlist rows of ``design``'s quarter-wave ``lines``, each (name, z0,
    input node, output node, pi kind): ideal lines, or their lumped pi
    sections carrying the given element Q."""
    f0 = design.f0
    if implementation == "line":
        return [(name, TransmissionLine(z0, 90.0, f0), n_in, n_out)
                for name, z0, n_in, n_out, _ in lines]
    if implementation != "lumped-pi":
        raise InputError(f"unknown implementation '{implementation}'")
    free = {key: getattr(design, f) for key, f in design.keys.get("free_params", {}).items()}
    with ClosedForm({**design.cfg.inputs, **free}):  # names a design-file key
        pis = [pi_approx(z0, f0, kind) for _, z0, _, _, kind in lines]
    rows = []
    for (tag, z0, n_in, n_out, kind), pi in zip(lines, pis):
        if kind == "low-pass":
            rows += [(f"{tag}_cin", Capacitor(pi.shunt_value, q=q_c), n_in, _G),
                     (f"{tag}_l", Inductor(pi.series_value, q=q_l), n_in, n_out),
                     (f"{tag}_cout", Capacitor(pi.shunt_value, q=q_c), n_out, _G)]
        else:
            rows += [(f"{tag}_lin", Inductor(pi.shunt_value, q=q_l), n_in, _G),
                     (f"{tag}_c", Capacitor(pi.series_value, q=q_c), n_in, n_out),
                     (f"{tag}_lout", Inductor(pi.shunt_value, q=q_l), n_out, _G)]
    return rows


def _finish(net: Netlist, r_l: float, include_load: bool, aux_node: str) -> Netlist:
    if include_load:
        net.add("RL", Resistor(r_l), "out", net.ground)
    net.add_port("main", "main")
    net.add_port("aux", aux_node)
    net.add_port("load", "out")
    net.load_port = "load"
    net.validate()
    return net


def to_netlist(
    design: CombinerDesign,
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
    if not isinstance(design, CombinerDesign):
        raise TypeError(f"cannot emit a netlist for {type(design).__name__}")
    net = Netlist(f0=design.f0)
    for name, component, *nodes in design.rows(q_l, q_c, implementation):
        net.add(name, component, *nodes)
    return _finish(net, design.cfg.r_l, include_load, design.aux_node)


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
    for name, part, *nodes in design.rows(q_l, q_c, "line"):
        if isinstance(part, CoupledInductors):
            plus, minus, out, _ = nodes
            mid = f"{name}_m"
            net.add(f"{name}_leak", Inductor(part.l_leak, q=q_l), plus, mid)
            net.add(f"{name}_mag", Inductor(part.l_mag, q=q_l), mid, minus)
            net.add(f"{name}_ideal", IdealTransformer(part.ideal_ratio), mid, minus, out, minus)
        else:
            net.add(name, part, *nodes)
    return _finish(net, design.cfg.r_l, include_load, design.aux_node)
