"""Verification and analysis harness.

Everything here drives the MNA engine against a combiner netlist with
the ports ``main``, ``aux`` and ``load`` that ``to_netlist`` gives it,
the aux drive being the phase reference: input phase alignment,
load-modulation sweeps, passive efficiency versus back-off and
frequency, bandwidth extraction, behavioral PA simulation with current
cells, and the inverter-ratio oracle that cross-checks the closed-form
transformation ratios.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransferError, InputError, require_within
from .ideal import (
    DohertyConfig,
    current_profile,
    itr_conv,
    itr_intro,
    pbo_level,
)
from .netkit import ColumnsResult, Netlist, Resistor, solve_columns
from .netkit import solve  # stays: perfbench/tracing.py patches it here
from .synth import CombinerDesign

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
    "itr_inverter_oracle",
    "peak_excitations",
]


def _unit_columns(netlist: Netlist, freq: float) -> ColumnsResult:
    """One solve at ``freq`` of a unit drive into ``main`` and one into
    ``aux`` and, when the netlist has current sources, a third column of
    the sources alone: the columns :meth:`ColumnsResult.combined` weights."""
    k = 3 if any(e.component.source for e in netlist.elements) else 2
    return solve_columns(netlist, freq, {"main": [1, 0, 0][:k], "aux": [0, 1, 0][:k]})


def _offset_columns(netlist: Netlist) -> ColumnsResult:
    """:func:`_unit_columns` at the netlist's center frequency with a
    resistor of the load termination's ohms (50 without one) across
    ``main`` and ``aux``, ``load`` being the load port."""
    loads = netlist.load_terminations()
    work = netlist.terminated(("main", "aux"), loads[0].component.ohms if loads else 50.0)
    work.load_port = "load"
    return _unit_columns(work, netlist.f0)


def required_phase_offset(netlist: Netlist) -> float:
    """Main-minus-aux input phase (degrees) for in-phase combining.

    Computed as arg(T_aux) - arg(T_main) from the transimpedances of the
    ``main`` and ``aux`` ports to the ``load`` port at the netlist's
    center frequency.  The transfer is measured with the non-driven source
    ports resistively terminated: an ideal current source at the other port
    would leave it open, and a quarter-wave inverter maps that open into a
    short at the load, collapsing the raw transimpedance to zero.  At
    center frequency the measured phase does not depend on the termination
    value.  Current sources do not move it: each transfer is a unit
    drive's alone, its column less the sources'.  Raises
    :class:`DegenerateTransferError` when a transfer is below 1e-15 of the
    drive level.
    """
    transfers = _offset_columns(netlist).port_voltages["load"]
    if len(transfers) == 3:  # less the sources' column
        transfers = transfers[:2] - transfers[2]
    args = {}
    for port, t in zip(("main", "aux"), transfers):
        if abs(t) < 1e-15:
            raise DegenerateTransferError(
                f"transfer from port '{port}' to 'load' is degenerate (|T|={abs(t):.2e})"
            )
        args[port] = cmath.phase(t)
    offset = math.degrees(args["aux"] - args["main"])
    return (offset + 180.0) % 360.0 - 180.0


def offset_delivered_power(netlist: Netlist, main_phase_deg: float) -> float:
    """Load power for unit drives at the given main-minus-aux phase, at
    the netlist's center frequency.

    Combines the columns of :func:`required_phase_offset`'s
    source-terminated network, where the optimum is a strict maximum;
    the +-1 degree perturbation checks run against this function.
    """
    i_main = cmath.exp(1j * math.radians(main_phase_deg))
    r = _offset_columns(netlist).combined({"main": np.array([i_main]), "aux": np.array([1.0])})
    return float(r.load_power[0])


# ----------------------------------------------------------------------
# Drive profiles and load modulation
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DriveProfile:
    """Grid of normalized drive currents plus the main port's phase.

    The aux drive is the phase reference: port currents are
    i_main * exp(j*main_phase) and i_aux, in units of the peak current;
    the grid is ordered by rising i_main.
    """

    i_main: np.ndarray
    i_aux: np.ndarray
    pbo_db: np.ndarray
    main_phase_deg: float

    def __len__(self) -> int:
        return len(self.i_main)


def _grid_with(
    lo: float, hi: float, n_points: int, point: float, tol: float = 1e-12
) -> np.ndarray:
    """``n_points`` from ``lo`` to ``hi``, plus ``point`` when it lies
    inside the range and no grid point is within ``tol`` of it."""
    if n_points < 1:
        raise InputError(f"n_points must be at least 1, got {n_points}")
    grid = np.linspace(lo, hi, n_points)
    if lo < point < hi and np.abs(grid - point).min() > tol:
        grid = np.concatenate((grid, [point]))
        grid.sort()
    return grid


def drive_profile(
    cfg: DohertyConfig,
    netlist: Netlist | None = None,
    n_points: int = 21,
    i_main_min: float | None = None,
    main_phase_deg: float | None = None,
) -> DriveProfile:
    """Ideal-split drive grid; the main phase defaults to the netlist's
    required offset from the aux drive.  The auxiliary turn-on level is
    always part of the grid when it falls inside the range, so sweeps
    land exactly on the second efficiency peak."""
    if main_phase_deg is None:
        if netlist is None:
            raise InputError("give either a netlist or an explicit main phase")
        main_phase_deg = required_phase_offset(netlist)
    lo = i_main_min if i_main_min is not None else cfg.i_main_max / 100.0
    i_main = _grid_with(lo, cfg.i_main_max, n_points, cfg.i_main_turn_on)
    i_aux, pbo = current_profile(cfg.alpha, i_main), pbo_level(cfg.alpha, i_main)
    return DriveProfile(i_main, i_aux, pbo, main_phase_deg)


@dataclass(eq=False)
class LoadModulationSweep:
    """Per-point effective load impedances and passive efficiency.

    ``z_aux`` is NaN where the auxiliary is off; ``y_aux`` is always
    defined (0 at an ideal open) and is the honest report in that region.
    """

    profile: DriveProfile
    z_main: np.ndarray
    z_aux: np.ndarray
    y_aux: np.ndarray
    eta_passive: np.ndarray

    @property
    def pbo_db(self) -> np.ndarray:
        return self.profile.pbo_db


def peak_excitations(cfg: DohertyConfig, profile: DriveProfile) -> dict[str, complex]:
    """Port currents at full drive with the profile's main phase."""
    return {
        "main": cfg.i_main_max * cmath.exp(1j * math.radians(profile.main_phase_deg)),
        "aux": complex(cfg.i_aux_max),
    }


def load_modulation(
    netlist: Netlist,
    cfg: DohertyConfig,
    profile: DriveProfile,
) -> LoadModulationSweep:
    """Effective impedances at the ``main`` and ``aux`` ports over the
    drive grid at ``cfg.f0``.  The network is linear, so every level
    combines the columns of one solve (:func:`_unit_columns`), which the
    acceptance check judges."""
    i_main = profile.i_main * cmath.exp(1j * math.radians(profile.main_phase_deg))
    aux_on = profile.i_aux > 0.0
    i_aux = np.where(aux_on, profile.i_aux, 0j)
    r = _unit_columns(netlist, cfg.f0).combined({"main": i_main, "aux": i_aux})
    v_aux = r.port_voltages["aux"]
    z_main = r.port_voltages["main"] / i_main
    with np.errstate(divide="ignore", invalid="ignore"):
        z_aux = np.where(aux_on, v_aux / i_aux, complex(np.nan, np.nan))
        y_aux = np.where(aux_on, i_aux / v_aux, 0j)  # ideal current source off = open
    return LoadModulationSweep(profile, z_main, z_aux, y_aux, r.passive_efficiency())


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


@dataclass(eq=False)
class BandwidthReport:
    """Widest band around the center frequency where ``metric`` meets
    ``threshold_db``, with the sampled metric it was read from."""

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
) -> BandwidthReport:
    """Widest contiguous band around the netlist's center frequency
    meeting the criterion.

    metric "passive-efficiency": band where the efficiency stays within
    ``threshold_db`` (default 1) of its center value.  metric
    "load-match": band where the reflection at the ``main`` port stays
    below ``-threshold_db`` (default 10) return loss against the port's
    own center-frequency input resistance.  The grid holds f0 itself: it
    is added when no point of the ``n_points`` lies within a relative
    1e-12 of it (an even count).  A criterion never met at center yields
    a zero-width report, not an error.
    """
    f0 = netlist.f0
    if metric == "passive-efficiency":
        thr = threshold_db if threshold_db is not None else 1.0
    elif metric == "load-match":
        thr = threshold_db if threshold_db is not None else 10.0
    else:
        raise InputError(f"unknown metric '{metric}'")
    freqs = _grid_with((1.0 - window) * f0, (1.0 + window) * f0, n_points, f0, 1e-12 * f0)
    i_center = int(np.argmin(np.abs(freqs - f0)))

    drives = {p: np.array([i]) for p, i in excitations.items()}
    sweep = solve_columns(netlist, freqs, drives)
    if metric == "passive-efficiency":
        eta = sweep.passive_efficiency()[:, 0]
        ref = eta[i_center]
        with np.errstate(divide="ignore", invalid="ignore"):
            values_db = 10.0 * np.log10(eta / ref)
        meets = values_db >= -thr
    else:
        z = sweep.port_voltages["main"][:, 0] / excitations["main"]
        z_ref = z[i_center].real
        gamma = (z - z_ref) / (z + z_ref)
        with np.errstate(divide="ignore"):
            values_db = 20.0 * np.log10(np.maximum(np.abs(gamma), 1e-30))
        meets = values_db <= -thr

    met_center = bool(meets[i_center])
    if not met_center:
        return BandwidthReport(metric, thr, f0, f0, 0.0, False, freqs, values_db)
    fails = np.flatnonzero(~meets)  # the band is the run of met points around center
    lo = fails[fails < i_center].max(initial=-1) + 1
    hi = fails[fails > i_center].min(initial=len(freqs)) - 1
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


@dataclass(eq=False)
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
) -> PASimResult:
    """Sweep the two-cell PA over normalized drive levels at the
    netlist's center frequency.

    Cells provide ``currents(v) -> (I_dc, I_fund)`` for a float or an
    array ``v`` and get the whole drive array in one call; fundamentals are
    injected with the combiner's measured phase offset and all levels
    are solved in one pass.  Drain efficiency is P_load / (v_dc * (I_dc
    sum)).  Port voltages beyond each cell's ``v_dc`` set the per-point
    overdrive flag (the current-source model does not clip).
    """
    v = require_within("drive", drive, 0.0, 1.0 + 1e-12)
    ph_main = cmath.exp(1j * math.radians(required_phase_offset(netlist)))

    idc_main, if_main = main_cell.currents(v)
    idc_aux, if_aux = aux_cell.currents(v)
    p_dc = v_dc * (idc_main + idc_aux)

    # one column per level; a level that drives neither port solves to zero
    drive_main = if_main * ph_main
    r = solve_columns(netlist, netlist.f0, {"main": drive_main, "aux": if_aux})
    vm, va = r.port_voltages["main"], r.port_voltages["aux"]
    p_out, v_load = r.load_power, r.port_voltages["load"]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # NaN where the port is not driven; a near-subnormal drive overflows
        z_main = np.where(if_main != 0, vm / drive_main, complex(np.nan, np.nan))
        z_aux = np.where(if_aux != 0, va / if_aux, complex(np.nan, np.nan))
        eta = np.where(p_dc > 0, p_out / p_dc, 0.0)
    overdrive = ((np.abs(vm) > main_cell.v_dc * (1.0 + 1e-6))
                 | (np.abs(va) > aux_cell.v_dc * (1.0 + 1e-6)))

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
# Inverter-ratio oracle
# ----------------------------------------------------------------------


def itr_inverter_oracle(design, i_main_grid) -> tuple[np.ndarray, np.ndarray]:
    """Measure the inverter's transformation ratio against the closed form.

    The closed-form ratios describe the inverter loaded by the
    combining-node impedance of the current-division picture: base node
    resistance times (i_main + i_aux)/i_main with the ideal current
    split.  This probe builds exactly that situation in the solver - the
    synthesized inverter alone, terminated by that modulated resistance
    r_node.  One solve at f0, a unit drive into ``main`` and one into the
    output face, gives the inverter's open-circuit two-port matrix
    [[z11, z12], [z21, z22]]; terminated in r_node its input face reads
    z11 - z12 z21 / (z22 + r_node) over the whole grid, and the output
    face sees r_node itself.  The inverter is the design's leading
    ``inverter_rows``.  Where it lands on the load node (three-line,
    transformer) the base node resistance is the system load; where it
    lands on an output line (two-line) it is measured, not assumed: the
    input resistance of the remaining rows terminated in the system load,
    read at a port on the face.

    Returns (measured, closed_form) arrays over ``i_main_grid``.
    """
    if not isinstance(design, CombinerDesign):
        raise TypeError(f"no inverter oracle for {type(design).__name__}")
    cfg, f0 = design.cfg, design.f0
    grid = np.asarray(i_main_grid, dtype=float)
    rows = design.rows(math.inf, math.inf, "line")
    net = Netlist(f0=f0)
    for name, component, *nodes in rows[: design.inverter_rows]:
        net.add(name, component, *nodes)
    (face,) = {nd for e in net.elements for nd in e.nodes} - {"main", net.ground}

    if face == "out":  # the inverter lands on the load node
        r_base = cfg.r_l
        closed = itr_intro(cfg.alpha, grid, cfg.r_opt, cfg.r_l)
    else:  # on the input of an output line: the conventional combiner
        probe = Netlist(f0=f0)
        for name, component, *nodes in rows[design.inverter_rows:]:
            probe.add(name, component, *nodes)
        probe.add("RL", Resistor(cfg.r_l), "out", probe.ground)
        probe.add_port("in", face)
        r_in = solve_columns(probe, f0, {"in": np.array([1.0])})
        r_base = r_in.port_voltages["in"][0].real
        closed = itr_conv(cfg.alpha, grid)

    net.add_port("main", "main")
    net.add_port("face", face)
    # column 0 drives main alone, column 1 the face: [z11, z12] and [z21, z22]
    drives = {"main": np.array([1.0, 0.0]), "face": np.array([0.0, 1.0])}
    z = solve_columns(net, f0, drives)
    (z11, z12), (z21, z22) = z.port_voltages["main"], z.port_voltages["face"]
    r_node = r_base * (grid + current_profile(cfg.alpha, grid)) / grid
    r_main = (z11 - z12 * z21 / (z22 + r_node)).real
    return np.maximum(r_main / r_node, r_node / r_main), closed
