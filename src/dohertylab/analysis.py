"""Verification and analysis harness.

Everything here drives the MNA engine against a combiner netlist: input
phase alignment, load-modulation sweeps, passive efficiency versus
back-off and frequency, bandwidth extraction, behavioral PA simulation
with current cells, and the inverter-face impedance probe used to
cross-check the closed-form transformation ratios.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ideal import (
    DohertyConfig,
    current_profile,
    itr_conv,
    itr_intro,
    pbo_level,
)
from .netkit import (
    Capacitor,
    CoupledInductors,
    Netlist,
    Resistor,
    TransmissionLine,
    solve,
    solve_columns,
)
from .netkit.mna import AnalysisResult

__all__ = [
    "DriveProfile",
    "LoadModulationSweep",
    "PASimResult",
    "BandwidthReport",
    "DegenerateTransferError",
    "required_phase_offset",
    "offset_delivered_power",
    "drive_profile",
    "load_modulation",
    "passive_eff_vs_pbo",
    "compare_passive_eff",
    "bandwidth_report",
    "pa_drive_grid",
    "simulate_pa",
    "inverter_face_impedances",
    "measured_itr",
    "itr_inverter_oracle",
    "peak_excitations",
]


class DegenerateTransferError(RuntimeError):
    """Transfer from a source port to the load is numerically zero."""


def _terminated_copy(netlist: Netlist, ports: list[str], ohms: float | None) -> Netlist:
    """Copy with a resistor across each of ``ports``: ``ohms``, or by
    default the load termination's value (50 ohm without one)."""
    if ohms is None:
        loads = netlist.load_terminations()
        ohms = loads[0].component.ohms if loads else 50.0
    work = netlist.copy()
    for p in ports:
        plus, minus = work.ports[p]
        work.add(f"__offs_term_{p}", Resistor(ohms), plus, minus)
    return work


def required_phase_offset(
    netlist: Netlist,
    f0: float | None = None,
    main_port: str = "main",
    aux_port: str = "aux",
    load_port: str = "load",
    termination_ohms: float | None = None,
) -> float:
    """Main-minus-aux input phase (degrees) for in-phase combining.

    Computed as arg(T_aux) - arg(T_main) from the transimpedances of each
    source port to the load at ``f0``.  The transfer is measured with the
    non-driven source ports resistively terminated: an ideal current
    source at the other port would leave it open, and a quarter-wave
    inverter maps that open into a short at the load, collapsing the raw
    transimpedance to zero.  At center frequency the measured phase does
    not depend on the termination value.  Raises
    :class:`DegenerateTransferError` when a transfer is below 1e-15 of
    the drive level.
    """
    f0 = f0 if f0 is not None else netlist.f0
    work = _terminated_copy(netlist, [main_port, aux_port], termination_ohms)
    # column 0 drives the main port alone, column 1 the auxiliary port
    r = solve_columns(work, f0, {main_port: np.array([1.0, 0.0]), aux_port: np.array([0.0, 1.0])})

    args = {}
    for port, t in zip((main_port, aux_port), r.port_voltages[load_port]):
        if abs(t) < 1e-15:
            raise DegenerateTransferError(
                f"transfer from port '{port}' to '{load_port}' is degenerate (|T|={abs(t):.2e})"
            )
        args[port] = cmath.phase(t)
    offset = math.degrees(args[aux_port] - args[main_port])
    return (offset + 180.0) % 360.0 - 180.0


def offset_delivered_power(
    netlist: Netlist,
    offset_deg: float,
    f0: float | None = None,
    main_port: str = "main",
    aux_port: str = "aux",
    load_port: str = "load",
    termination_ohms: float | None = None,
) -> float:
    """Load power for unit drives at the given main-minus-aux phase.

    Uses the same source-terminated network as
    :func:`required_phase_offset`, where the optimum is a strict maximum;
    the +-1 degree perturbation checks run against this function.
    """
    f0 = f0 if f0 is not None else netlist.f0
    work = _terminated_copy(netlist, [main_port, aux_port], termination_ohms)
    work.load_port = load_port
    i_main = cmath.exp(1j * math.radians(offset_deg))
    result = solve_columns(work, f0, {main_port: np.array([i_main]), aux_port: np.array([1.0])})
    return float(result.load_power[0])


# ----------------------------------------------------------------------
# Drive profiles and load modulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DriveProfile:
    """Grid of normalized drive currents plus the port phasing.

    Port currents are i * i_max_amps * exp(j*phase); the grid is ordered
    by rising i_main.
    """

    i_main: np.ndarray
    i_aux: np.ndarray
    pbo_db: np.ndarray
    main_phase_deg: float
    aux_phase_deg: float
    i_max_amps: float = 1.0

    def __len__(self) -> int:
        return len(self.i_main)


def _grid_with(lo: float, hi: float, n_points: int, point: float) -> np.ndarray:
    """``n_points`` from ``lo`` to ``hi``, plus ``point`` when it lies
    inside the range and no grid point is within 1e-12 of it."""
    grid = np.linspace(lo, hi, n_points)
    if lo < point < hi and np.abs(grid - point).min() > 1e-12:
        grid = np.sort(np.append(grid, point))
    return grid


def drive_profile(
    cfg: DohertyConfig,
    netlist: Netlist | None = None,
    n_points: int = 21,
    i_main_min: float | None = None,
    main_phase_deg: float | None = None,
    aux_phase_deg: float = 0.0,
    i_max_amps: float = 1.0,
) -> DriveProfile:
    """Ideal-split drive grid; phases default to the netlist's required
    offset (main) and zero (aux).  The auxiliary turn-on level is always
    part of the grid when it falls inside the range, so sweeps land
    exactly on the second efficiency peak."""
    if main_phase_deg is None:
        if netlist is None:
            raise ValueError("give either a netlist or an explicit main phase")
        main_phase_deg = aux_phase_deg + required_phase_offset(netlist, cfg.f0)
    lo = i_main_min if i_main_min is not None else cfg.i_main_max / 100.0
    i_main = _grid_with(lo, cfg.i_main_max, n_points, cfg.i_main_turn_on)
    i_aux = np.array([current_profile(cfg.alpha, i) for i in i_main])
    pbo = np.array([pbo_level(cfg.alpha, i) for i in i_main])
    return DriveProfile(i_main, i_aux, pbo, main_phase_deg, aux_phase_deg, i_max_amps)


@dataclass
class LoadModulationSweep:
    """Per-point effective load impedances and power bookkeeping.

    ``z_aux`` is NaN where the auxiliary is off; ``y_aux`` is always
    defined (0 at an ideal open) and is the honest report in that region.
    """

    profile: DriveProfile
    z_main: np.ndarray
    z_aux: np.ndarray
    y_aux: np.ndarray
    p_delivered: np.ndarray
    eta_passive: np.ndarray

    @property
    def pbo_db(self) -> np.ndarray:
        return self.profile.pbo_db


def peak_excitations(cfg: DohertyConfig, profile: DriveProfile) -> dict[str, complex]:
    """Port currents at full drive with the profile's phasing."""
    return {
        "main": cfg.i_main_max
        * profile.i_max_amps
        * cmath.exp(1j * math.radians(profile.main_phase_deg)),
        "aux": cfg.i_aux_max
        * profile.i_max_amps
        * cmath.exp(1j * math.radians(profile.aux_phase_deg)),
    }


def load_modulation(
    netlist: Netlist,
    cfg: DohertyConfig,
    profile: DriveProfile,
    freq: float | None = None,
) -> LoadModulationSweep:
    """Effective main/aux load impedances over the drive grid at ``freq``
    (defaults to center)."""
    freq = freq if freq is not None else cfg.f0
    scale = profile.i_max_amps
    i_main = profile.i_main * scale * cmath.exp(1j * math.radians(profile.main_phase_deg))
    aux_on = profile.i_aux > 0.0
    i_aux = np.where(
        aux_on, profile.i_aux * scale * cmath.exp(1j * math.radians(profile.aux_phase_deg)), 0j
    )
    r = solve_columns(netlist, freq, {"main": i_main, "aux": i_aux})
    v_aux = r.port_voltages["aux"]
    z_main = r.port_voltages["main"] / i_main
    with np.errstate(divide="ignore", invalid="ignore"):
        z_aux = np.where(aux_on, v_aux / i_aux, complex(np.nan, np.nan))
        y_aux = np.where(aux_on, i_aux / v_aux, 0j)  # ideal current source off = open
    return LoadModulationSweep(
        profile, z_main, z_aux, y_aux, r.load_power, r.passive_efficiency()
    )


def passive_eff_vs_pbo(
    netlist: Netlist,
    cfg: DohertyConfig,
    profile: DriveProfile,
) -> tuple[np.ndarray, np.ndarray]:
    """(pbo_db, passive efficiency) over the drive grid at f0."""
    sweep = load_modulation(netlist, cfg, profile)
    return sweep.pbo_db.copy(), sweep.eta_passive.copy()


def compare_passive_eff(
    netlist_a: Netlist,
    netlist_b: Netlist,
    cfg: DohertyConfig,
    n_points: int = 21,
    i_main_min: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Passive efficiency of two combiners on one drive grid.

    Each netlist gets its own required phase offset; returns
    (pbo_db, eta_a, eta_b).
    """
    prof_a = drive_profile(cfg, netlist_a, n_points, i_main_min)
    prof_b = drive_profile(cfg, netlist_b, n_points, i_main_min)
    pbo, eta_a = passive_eff_vs_pbo(netlist_a, cfg, prof_a)
    _, eta_b = passive_eff_vs_pbo(netlist_b, cfg, prof_b)
    return pbo, eta_a, eta_b


# ----------------------------------------------------------------------
# Bandwidth
# ----------------------------------------------------------------------


@dataclass
class BandwidthReport:
    metric: str
    threshold_db: float
    f_lo: float
    f_hi: float
    fractional: float
    met_at_center: bool
    freqs: np.ndarray
    values_db: np.ndarray


def bandwidth_report(
    netlist: Netlist,
    excitations: dict[str, complex],
    metric: str = "passive-efficiency",
    threshold_db: float | None = None,
    window: float = 0.4,
    n_points: int = 201,
    port: str = "main",
    load_port: str = "load",
    f0: float | None = None,
    z_ref_ohm: float | None = None,
) -> BandwidthReport:
    """Widest contiguous band around center meeting the criterion.

    metric "passive-efficiency": band where the efficiency stays within
    ``threshold_db`` (default 1) of its center value.  metric
    "load-match": band where the reflection at ``port`` stays below
    ``-threshold_db`` (default 10) return loss; the reference is
    ``z_ref_ohm`` when given, else the port's own center-frequency input
    resistance.  A criterion never met at center yields a zero-width
    report, not an error.
    """
    f0 = f0 if f0 is not None else netlist.f0
    if metric == "passive-efficiency":
        thr = threshold_db if threshold_db is not None else 1.0
    elif metric == "load-match":
        thr = threshold_db if threshold_db is not None else 10.0
    else:
        raise ValueError(f"unknown metric '{metric}'")
    freqs = np.linspace((1.0 - window) * f0, (1.0 + window) * f0, n_points)
    i_center = int(np.argmin(np.abs(freqs - f0)))

    sweep = solve_columns(netlist, freqs, {p: np.array([i]) for p, i in excitations.items()})
    if metric == "passive-efficiency":
        eta = sweep.passive_efficiency()[:, 0]
        ref = eta[i_center]
        with np.errstate(divide="ignore", invalid="ignore"):
            values_db = 10.0 * np.log10(eta / ref)
        meets = values_db >= -thr
    else:
        z = sweep.port_voltages[port][:, 0] / excitations[port]
        z_ref = z_ref_ohm if z_ref_ohm is not None else z[i_center].real
        gamma = (z - z_ref) / (z + z_ref)
        with np.errstate(divide="ignore"):
            values_db = 20.0 * np.log10(np.maximum(np.abs(gamma), 1e-30))
        meets = values_db <= -thr

    met_center = bool(meets[i_center])
    if not met_center:
        return BandwidthReport(metric, thr, f0, f0, 0.0, False, freqs, values_db)
    lo = i_center
    while lo > 0 and meets[lo - 1]:
        lo -= 1
    hi = i_center
    while hi < n_points - 1 and meets[hi + 1]:
        hi += 1
    f_lo, f_hi = float(freqs[lo]), float(freqs[hi])
    return BandwidthReport(metric, thr, f_lo, f_hi, (f_hi - f_lo) / f0, True, freqs, values_db)


# ----------------------------------------------------------------------
# Behavioral PA simulation
# ----------------------------------------------------------------------


def pa_drive_grid(alpha: float, n_points: int, v_min: float = 0.02) -> np.ndarray:
    """Normalized PA drive levels: ``n_points`` from ``v_min`` to 1, plus
    the second efficiency peak 1/(1+alpha) when it lies inside the range
    and no grid point is within 1e-12 of it."""
    return _grid_with(v_min, 1.0, n_points, 1.0 / (1.0 + alpha))


@dataclass
class PASimResult:
    """Drive-level sweep of the assembled PA behavioral model."""

    v: np.ndarray
    p_out_w: np.ndarray
    p_dc_w: np.ndarray
    eta: np.ndarray
    pbo_db: np.ndarray
    am_am_db: np.ndarray
    am_pm_deg: np.ndarray
    overdrive: np.ndarray
    v_load: np.ndarray
    z_main: np.ndarray
    z_aux: np.ndarray
    i_main: np.ndarray
    i_aux: np.ndarray

    def eta_at_pbo(self, pbo_db: float) -> float:
        order = np.argsort(self.pbo_db)
        return float(np.interp(pbo_db, self.pbo_db[order], self.eta[order]))


def simulate_pa(
    main_cell,
    aux_cell,
    netlist: Netlist,
    drive: np.ndarray | list[float],
    v_dc: float,
    freq: float | None = None,
    offset_deg: float | None = None,
) -> PASimResult:
    """Sweep the two-cell PA over normalized drive levels.

    Cells provide ``currents(v) -> (I_dc, I_fund)``; fundamentals are
    injected with the combiner's required phase offset (measured unless
    ``offset_deg`` is given) and the network is solved per level.  Drain
    efficiency is P_load / (v_dc * (I_dc sum)).  Port voltages beyond
    each cell's saturation limit set the per-point overdrive flag (the
    current-source model does not clip).
    """
    freq = freq if freq is not None else netlist.f0
    v = np.asarray(drive, dtype=float)
    if np.any(v < 0) or np.any(v > 1.0 + 1e-12):
        raise ValueError("drive levels must lie in [0, 1]")
    offset = offset_deg if offset_deg is not None else required_phase_offset(netlist, freq)
    ph_main = cmath.exp(1j * math.radians(offset))

    n = len(v)
    i_dc = np.empty(n)
    if_main = np.empty(n, dtype=complex)
    if_aux = np.empty(n, dtype=complex)
    for k, vk in enumerate(v):
        idc_m, if_main[k] = main_cell.currents(float(vk))
        idc_a, if_aux[k] = aux_cell.currents(float(vk))
        i_dc[k] = idc_m + idc_a
    p_dc = v_dc * i_dc
    main_on = np.abs(if_main) > 0.0
    aux_on = np.abs(if_aux) > 0.0

    # one column per level that drives either port
    p_out = np.zeros(n)
    v_load = np.zeros(n, dtype=complex)
    z_main = np.full(n, complex(np.nan, np.nan), dtype=complex)
    z_aux = np.full(n, complex(np.nan, np.nan), dtype=complex)
    overdrive = np.zeros(n, dtype=bool)
    on = main_on | aux_on
    if on.any():
        drive_main = if_main[on] * ph_main
        drive_aux = if_aux[on]
        r = solve_columns(netlist, freq, {"main": drive_main, "aux": drive_aux})
        vm, va = r.port_voltages["main"], r.port_voltages["aux"]
        p_out[on] = r.load_power
        v_load[on] = r.port_voltages["load"]
        with np.errstate(divide="ignore", invalid="ignore"):
            z_main[on] = vm / drive_main
            z_aux[on] = va / drive_aux
        z_main[~main_on] = z_aux[~aux_on] = complex(np.nan, np.nan)  # port not driven
        lim_main = main_cell.v_dc - getattr(main_cell, "v_knee", 0.0)
        lim_aux = aux_cell.v_dc - getattr(aux_cell, "v_knee", 0.0)
        overdrive[on] = (np.abs(vm) > lim_main * (1.0 + 1e-6)) | (
            np.abs(va) > lim_aux * (1.0 + 1e-6)
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(on & (p_dc > 0), p_out / p_dc, 0.0)

    p_ref = p_out.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        pbo = -10.0 * np.log10(p_out / p_ref)

    # gain-normalized AM-AM and AM-PM, both zero-referenced at the lowest
    # drive point that produces output
    first = int(np.argmax(np.abs(v_load) > 0))
    gain = np.abs(v_load) / np.where(v > 0, v, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        am_am = 20.0 * np.log10(gain / gain[first])
    phase = np.degrees(np.angle(v_load))
    am_pm = phase - phase[first]

    return PASimResult(
        v=v,
        p_out_w=p_out,
        p_dc_w=p_dc,
        eta=eta,
        pbo_db=pbo,
        am_am_db=am_am,
        am_pm_deg=am_pm,
        overdrive=overdrive,
        v_load=v_load,
        z_main=z_main,
        z_aux=z_aux,
        i_main=np.abs(if_main),
        i_aux=np.abs(if_aux),
    )


# ----------------------------------------------------------------------
# Inverter-face probe
# ----------------------------------------------------------------------


def inverter_face_impedances(
    netlist: Netlist, result: AnalysisResult
) -> tuple[complex, complex]:
    """Impedances at the two faces of the main-path impedance inverter.

    For line-based combiners the inverter is the element named ``TL1``;
    for the transformer combiner it is the C1/TF1/C3 pi section, whose
    output-face current is the TF1 secondary current net of the C3 shunt.
    """
    names = {e.name for e in netlist.elements}
    if "TL1" in names:
        placed = netlist.element("TL1")
        i1, i2 = result.branch_currents["TL1"]
        v1 = result.node_voltages[placed.nodes[0]]
        v2 = result.node_voltages[placed.nodes[1]]
        return v1 / i1, v2 / (-i2)
    if "TF1" in names:
        tf1 = netlist.element("TF1")
        if not isinstance(tf1.component, CoupledInductors):
            raise ValueError("element TF1 is not a coupled pair")
        v_main = result.node_voltages[tf1.nodes[0]]
        v_out = result.node_voltages[tf1.nodes[2]]
        i_p, i_s = result.branch_currents["TF1"]
        (i_c1,) = result.branch_currents["C1"]
        (i_c3,) = result.branch_currents["C3"]
        face1 = v_main / (i_p + i_c1)
        face2 = v_out / (-i_s - i_c3)
        return face1, face2
    raise ValueError("netlist has neither a TL1 line nor a TF1 transformer")


def measured_itr(netlist: Netlist, result: AnalysisResult) -> float:
    """Impedance-transformation ratio (>= 1) across the main inverter."""
    z1, z2 = inverter_face_impedances(netlist, result)
    r1, r2 = z1.real, z2.real
    if r1 <= 0 or r2 <= 0:
        raise ValueError(f"non-positive face resistances {r1}, {r2}")
    return max(r1 / r2, r2 / r1)


def itr_inverter_oracle(design, i_main_grid) -> tuple[np.ndarray, np.ndarray]:
    """Measure the inverter's transformation ratio against the closed form.

    The closed-form ratios describe the inverter loaded by the
    combining-node impedance of the current-division picture: base node
    resistance times (i_main + i_aux)/i_main with the ideal current
    split.  This probe builds exactly that situation in the solver - the
    synthesized inverter alone, terminated by that modulated resistance -
    and reads both face impedances from branch currents.  The base node
    resistance itself is measured, not assumed: for the two-line design
    it is the input resistance of the synthesized output line terminated
    in the system load; for the three-line and transformer designs the
    inverter lands directly on the load node.

    Returns (measured, closed_form) arrays over ``i_main_grid``.
    """
    from .synth import ThreeLineDesign, TransformerCombinerDesign, TwoLineDesign

    if not isinstance(design, (TwoLineDesign, ThreeLineDesign, TransformerCombinerDesign)):
        raise TypeError(f"no inverter oracle for {type(design).__name__}")
    cfg = design.cfg
    f0 = cfg.f0

    if isinstance(design, TwoLineDesign):
        probe = Netlist(f0=f0)
        probe.add("TL2", TransmissionLine(design.z02, 90.0, f0), "x", "out")
        probe.add("RL", Resistor(cfg.r_l), "out", probe.ground)
        probe.add_port("in", "x")
        r_base = solve(probe, f0, {"in": 1.0}).node_voltages["x"].real

        def build(r_node: float) -> Netlist:
            net = Netlist(f0=f0)
            net.add("TL1", TransmissionLine(design.z01, 90.0, f0), "main", "x")
            net.add("Rnode", Resistor(r_node), "x", net.ground)
            net.add_port("main", "main")
            return net

        def closed(i: float) -> float:
            return itr_conv(cfg.alpha, i)

    elif isinstance(design, ThreeLineDesign):
        r_base = cfg.r_l

        def build(r_node: float) -> Netlist:
            net = Netlist(f0=f0)
            net.add("TL1", TransmissionLine(design.z01, 90.0, f0), "main", "out")
            net.add("Rnode", Resistor(r_node), "out", net.ground)
            net.add_port("main", "main")
            return net

        def closed(i: float) -> float:
            return itr_intro(cfg.alpha, i, cfg.r_opt, cfg.r_l)

    else:  # TransformerCombinerDesign, guaranteed by the guard above
        r_base = cfg.r_l

        def build(r_node: float) -> Netlist:
            net = Netlist(f0=f0)
            net.add("C1", Capacitor(design.c1), "main", net.ground)
            net.add("TF1", design.tf1(), "main", net.ground, "out", net.ground)
            net.add("C3", Capacitor(design.c3), "out", net.ground)
            net.add("Rnode", Resistor(r_node), "out", net.ground)
            net.add_port("main", "main")
            return net

        def closed(i: float) -> float:
            return itr_intro(cfg.alpha, i, cfg.r_opt, cfg.r_l)

    grid = np.asarray(i_main_grid, dtype=float)
    measured = np.empty(len(grid))
    formula = np.empty(len(grid))
    for k, i in enumerate(grid):
        a = current_profile(cfg.alpha, float(i))
        r_node = r_base * (i + a) / i
        net = build(r_node)
        r = solve(net, f0, {"main": 1.0})
        measured[k] = measured_itr(net, r)
        formula[k] = closed(float(i))
    return measured, formula
