"""Analysis harness: phasing, load modulation, efficiency, bandwidth,
behavioral PA simulation, inverter-ratio oracle."""

import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import power_balance_residual

from dohertylab import (
    DohertyConfig,
    current_profile,
    ideal_efficiency,
    itr_conv,
    itr_intro,
    pbo_level,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
)
from dohertylab.analysis import (
    DegenerateTransferError,
    bandwidth_report,
    compare_passive_eff,
    drive_profile,
    itr_inverter_oracle,
    load_modulation,
    offset_delivered_power,
    pa_drive_grid,
    peak_excitations,
    required_phase_offset,
    simulate_pa,
)
from dohertylab.cells import ActiveCellModel, ideal_doherty_cells
from dohertylab.netkit import (
    Capacitor,
    CurrentSource,
    Netlist,
    Resistor,
    TransmissionLine,
    solve,
    solve_columns,
)
from dohertylab.synth import TransformerCombinerDesign, TwoLineDesign


def symmetric_two_path(f0=1e9):
    net = Netlist(f0=f0)
    net.add("Ra", Resistor(50.0), "main", "out")
    net.add("Rb", Resistor(50.0), "aux", "out")
    net.add("RL", Resistor(25.0), "out", "0")
    net.add_port("main", "main")
    net.add_port("aux", "aux")
    net.add_port("load", "out")
    net.load_port = "load"
    return net


# ----------------------------------------------------------------------
# phase offsets
# ----------------------------------------------------------------------


def test_offset_symmetric_paths_zero():
    assert required_phase_offset(symmetric_two_path()) == pytest.approx(0.0, abs=1e-9)


def test_offset_two_line_plus_90(two_line_net):
    assert required_phase_offset(two_line_net) == pytest.approx(90.0, abs=1e-6)


def test_offset_three_line_minus_90(three_line_net):
    # main path is one quarter wave, aux path two: main lags aux by 90
    assert required_phase_offset(three_line_net) == pytest.approx(-90.0, abs=1e-6)


def test_offset_transformer_plus_90(tf_net):
    # low-pass main path vs low-pass+high-pass aux path: main leads by 90
    assert required_phase_offset(tf_net) == pytest.approx(90.0, abs=1e-6)


@pytest.mark.parametrize("fixture", ["two_line_net", "three_line_net", "tf_net"])
def test_offset_perturbation_strictly_reduces_power(fixture, request):
    net = request.getfixturevalue(fixture)
    off = required_phase_offset(net)
    p0 = offset_delivered_power(net, off)
    assert offset_delivered_power(net, off + 1.0) < p0
    assert offset_delivered_power(net, off - 1.0) < p0


def test_degenerate_transfer_raises():
    # aux port isolated from the load by a quarter-wave-shorted stub:
    # main port open (pure current drive) maps to a short at the output
    net = Netlist(f0=1e9)
    net.add("TL1", TransmissionLine(50.0, 90.0, 1e9), "main", "out")
    net.add("RL", Resistor(50.0), "out", "0")
    net.add("Raux", Resistor(50.0), "aux", "0")
    net.add_port("main", "main")
    net.add_port("aux", "aux")
    net.add_port("load", "out")
    net.load_port = "load"
    with pytest.raises(DegenerateTransferError):
        required_phase_offset(net)


# ----------------------------------------------------------------------
# load modulation
# ----------------------------------------------------------------------


def test_two_line_load_modulation_anchors(proto_cfg, two_line_net):
    prof = drive_profile(proto_cfg, two_line_net, n_points=3, i_main_min=0.5)
    sweep = load_modulation(two_line_net, proto_cfg, prof)
    assert sweep.z_main[-1].real == pytest.approx(41.3, rel=1e-9)
    assert sweep.z_main[0].real == pytest.approx(82.6, rel=1e-9)
    assert abs(sweep.z_main[0].imag) < 1e-3 * sweep.z_main[0].real
    # auxiliary off at the 6 dB point: reported as a vanishing admittance
    assert abs(sweep.y_aux[0]) < 1e-12
    assert np.isnan(sweep.z_aux[0].real)


def test_load_modulation_matches_target_trajectory(proto_cfg, tf_net):
    prof = drive_profile(proto_cfg, tf_net, n_points=11, i_main_min=0.5)
    sweep = load_modulation(tf_net, proto_cfg, prof)
    target = proto_cfg.r_opt / prof.i_main
    assert np.max(np.abs(sweep.z_main.real - target) / target) < 5e-3
    lim = 0.01 * proto_cfg.z_main_peak
    assert np.max(np.abs(sweep.z_main.imag)) < lim
    on = prof.i_aux > 0
    assert np.max(np.abs(sweep.z_aux[on].imag)) < 0.01 * proto_cfg.z_aux_peak


def test_lossless_sweep_efficiency_is_unity(proto_cfg, three_line_net):
    prof = drive_profile(proto_cfg, three_line_net, n_points=5, i_main_min=0.3)
    sweep = load_modulation(three_line_net, proto_cfg, prof)
    assert np.max(np.abs(sweep.eta_passive - 1.0)) < 1e-9


def test_off_center_imaginary_part_grows(proto_cfg, tf_net):
    prof = drive_profile(proto_cfg, tf_net, n_points=1, i_main_min=1.0)
    freqs = [1.0, 1.025, 1.05, 1.075, 1.10]
    ims = []
    for fr in freqs:
        sweep = load_modulation(tf_net, proto_cfg, prof, freq=fr * proto_cfg.f0)
        ims.append(abs(sweep.z_main[0].imag))
    assert all(b > a for a, b in zip(ims, ims[1:]))


def _load_modulation_net(name, q, cfg):
    if name == "source":  # a library netlist with a current-source element
        net = to_netlist(synth_two_line(cfg), q_l=20.0, q_c=20.0, implementation="lumped-pi")
        net.add("I1", CurrentSource(0.05 - 0.02j), "out", net.ground)
        return net
    if name == "transformer":
        design, implementation = synth_transformer_combiner(cfg, 1.0, 0.7, 1.0), "line"
    else:
        synthesize = synth_two_line if name == "two-line" else synth_three_line
        design, implementation = synthesize(cfg), "lumped-pi"
    lossy = {} if q is None else {"q_l": q, "q_c": q, "implementation": implementation}
    return to_netlist(design, **lossy)


@pytest.mark.parametrize("freq_ratio", [1.0, 0.9])
@pytest.mark.parametrize("name,q", [
    (name, q) for name in ("two-line", "three-line", "transformer") for q in (None, 20.0)
] + [("source", None)])
def test_load_modulation_matches_per_column_solves(
    name, q, freq_ratio, proto_cfg, monkeypatch
):
    # the sweep sums a unit drive column per port (and the sources alone)
    # in one solve; it must agree with one solved column per drive level
    net = _load_modulation_net(name, q, proto_cfg)
    prof = drive_profile(proto_cfg, net, n_points=41, main_phase_deg=90.0)
    freq = freq_ratio * proto_cfg.f0
    i_main = prof.i_main * np.exp(1j * math.radians(prof.main_phase_deg))
    aux_on = prof.i_aux > 0.0
    i_aux = np.where(aux_on, prof.i_aux, 0j)
    ref = solve_columns(net, freq, {"main": i_main, "aux": i_aux})
    with np.errstate(divide="ignore", invalid="ignore"):
        want = {
            "z_main": ref.port_voltages["main"] / i_main,
            "z_aux": np.where(aux_on, ref.port_voltages["aux"] / i_aux, np.nan),
            "y_aux": np.where(aux_on, i_aux / ref.port_voltages["aux"], 0j),
            "eta_passive": ref.passive_efficiency(),
        }

    columns = []
    lapack = np.linalg.solve

    def counted(a, b):
        columns.append(np.shape(b)[1])
        return lapack(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    sweep = load_modulation(net, proto_cfg, prof, freq=freq)
    assert columns == [3 if name == "source" else 2]
    for field, expected in want.items():
        got = getattr(sweep, field)
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(got), finite), field
        err = np.abs(got[finite] - expected[finite])
        assert np.all(err <= 1e-12 * np.abs(expected[finite])), (field, err.max())


def test_array_records_compare_by_identity(proto_cfg, tf_net):
    # a generated field-wise == would ask numpy for the truth of an array
    first, second = (drive_profile(proto_cfg, tf_net, n_points=5) for _ in range(2))
    assert first == first and first != second
    assert hash(first) != hash(second)
    sweeps = [load_modulation(tf_net, proto_cfg, first) for _ in range(2)]
    assert sweeps[0] == sweeps[0] and sweeps[0] != sweeps[1]


# ----------------------------------------------------------------------
# passive efficiency and bandwidth
# ----------------------------------------------------------------------


def test_transformer_beats_two_line_at_six_db(proto_cfg):
    ntf = to_netlist(
        synth_transformer_combiner(proto_cfg), q_l=20.0, q_c=20.0
    )
    n2l = to_netlist(
        synth_two_line(proto_cfg), q_l=20.0, q_c=20.0, implementation="lumped-pi"
    )
    pbo, eta_tf, eta_2l = compare_passive_eff(ntf, n2l, proto_cfg, n_points=3, i_main_min=0.5)
    assert pbo[0] == pytest.approx(6.02, abs=0.005)
    assert eta_tf[0] > eta_2l[0]


def test_two_line_efficiency_drops_into_backoff(proto_cfg):
    n2l = to_netlist(
        synth_two_line(proto_cfg), q_l=20.0, q_c=20.0, implementation="lumped-pi"
    )
    pbo, eta, _ = compare_passive_eff(n2l, n2l, proto_cfg, n_points=3, i_main_min=0.5)
    assert eta[0] < eta[-1]  # 6 dB strictly below peak (ITR 4 vs 1)


def test_bandwidth_matched_line_fills_window():
    net = Netlist(f0=1e9)
    net.add("TL1", TransmissionLine(50.0, 90.0, 1e9), "main", "out")
    net.add("RL", Resistor(50.0), "out", "0")
    net.add_port("main", "main")
    net.add_port("load", "out")
    net.load_port = "load"
    bw = bandwidth_report(net, {"main": 1.0}, "load-match", 10.0, window=0.4)
    assert bw.fractional == pytest.approx(0.8, rel=1e-9)


def test_bandwidth_narrows_with_itr():
    def match_bw(itr):
        net = Netlist(f0=1e9)
        net.add("TL1", TransmissionLine(50.0, 90.0, 1e9), "main", "out")
        net.add("RL", Resistor(50.0 * math.sqrt(itr)), "out", "0")
        net.add_port("main", "main")
        net.add_port("load", "out")
        net.load_port = "load"
        return bandwidth_report(
            net, {"main": 1.0}, "load-match", 10.0, window=0.9, n_points=401
        ).fractional

    bws = [match_bw(i) for i in (1, 2, 4)]
    assert bws[0] > bws[1] > bws[2]


def test_bandwidth_zero_width_when_unmet():
    # grossly mismatched against an external 50 ohm reference at every
    # frequency: zero-width report, not an error
    net = Netlist(f0=1e9)
    net.add("TL1", TransmissionLine(50.0, 90.0, 1e9), "main", "out")
    net.add("RL", Resistor(5000.0), "out", "0")
    net.add_port("main", "main")
    net.add_port("load", "out")
    net.load_port = "load"
    bw = bandwidth_report(net, {"main": 1.0}, "load-match", 10.0, z_ref_ohm=50.0)
    assert bw.fractional == 0.0
    assert not bw.met_at_center


def test_transformer_bandwidth_at_least_two_line(proto_cfg):
    ntf = to_netlist(synth_transformer_combiner(proto_cfg), q_l=20.0, q_c=20.0)
    n2l = to_netlist(
        synth_two_line(proto_cfg), q_l=20.0, q_c=20.0, implementation="lumped-pi"
    )
    out = {}
    for name, net in (("tf", ntf), ("2l", n2l)):
        prof = drive_profile(proto_cfg, net, n_points=2)
        exc = peak_excitations(proto_cfg, prof)
        out[name] = bandwidth_report(net, exc, "passive-efficiency", 1.0).fractional
    assert out["tf"] >= out["2l"]


# ----------------------------------------------------------------------
# behavioral PA simulation
# ----------------------------------------------------------------------


def test_single_class_b_cell_peak_efficiency():
    # one class-B cell into its optimal load: eta = pi/4 at full drive
    cfg = DohertyConfig(alpha=1.0, r_opt=50.0, r_l=50.0, f0=1e9)
    net = Netlist(f0=1e9)
    net.add("RL", Resistor(100.0), "main", "0")  # (1+alpha)*r_opt/2
    net.add("Raux", Resistor(1e9), "aux", "0")
    net.add_port("main", "main")
    net.add_port("aux", "aux")
    net.add_port("load", "main")
    net.load_port = "load"
    v_dc = 1.0
    main = ActiveCellModel.class_b(i_max=2.0 * v_dc / 100.0, v_dc=v_dc)
    aux = ActiveCellModel.class_c_turn_on(0.999, i_max=1e-12, v_dc=v_dc)
    sim = simulate_pa(main, aux, net, [1.0], v_dc, offset_deg=0.0)
    assert sim.eta[0] == pytest.approx(math.pi / 4.0, abs=1e-6)


def test_ideal_symmetric_doherty_two_peaks(proto_cfg, two_line_net):
    main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    grid = np.linspace(0.05, 1.0, 96)
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc=1.0)
    assert sim.eta[-1] == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert sim.eta_at_pbo(20.0 * math.log10(2.0)) == pytest.approx(math.pi / 4.0, abs=1e-3)
    assert not sim.overdrive.any()


def test_ideal_doherty_main_voltage_saturated(proto_cfg, two_line_net):
    main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    grid = np.linspace(0.5, 1.0, 21)
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc=1.0)
    v_main = np.abs(sim.z_main * sim.i_main)
    assert np.max(np.abs(v_main - 1.0)) < 5e-3  # constant at v_dc within 0.5%
    assert np.max(np.abs(sim.am_am_db)) < 1e-9  # ideal Doherty is linear
    assert np.max(np.abs(sim.am_pm_deg)) < 1e-9


def test_doherty_efficiency_peak_locations(proto_cfg, two_line_net):
    main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    grid = np.linspace(0.05, 1.0, 191)
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc=1.0)
    eta = sim.eta
    interior_max = [
        k
        for k in range(1, len(grid) - 1)
        if eta[k] >= eta[k - 1] and eta[k] >= eta[k + 1]
    ]
    peak_pbos = sorted(sim.pbo_db[k] for k in interior_max)
    assert any(abs(p - 6.02) < 0.05 for p in peak_pbos)
    assert eta[-1] == pytest.approx(math.pi / 4.0, abs=1e-3)


def test_sim_matches_closed_form_curve(proto_cfg, two_line_net):
    main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    grid = np.linspace(0.1, 1.0, 46)
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc=1.0)
    for k, v in enumerate(grid):
        want = ideal_efficiency("doherty", sim.pbo_db[k], alpha=1.0)
        assert sim.eta[k] == pytest.approx(want, abs=1e-3)


def test_power_bookkeeping_in_sim(proto_cfg):
    # lossy combiner: port input power minus passive loss equals load power
    net = to_netlist(synth_two_line(proto_cfg), q_l=25.0, q_c=50.0,
                     implementation="lumped-pi")
    main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    prof = drive_profile(proto_cfg, net, n_points=1, i_main_min=1.0)
    exc = peak_excitations(proto_cfg, prof)
    exc = {k: v * main.i_scale for k, v in exc.items()}
    r = solve(net, proto_cfg.f0, exc)
    assert power_balance_residual(r) < 1e-9


class PerPointCell:
    """Reference adapter: evaluates the wrapped cell one drive level at a
    time, the way simulate_pa did before cells took drive arrays."""

    def __init__(self, cell):
        self.cell, self.v_dc = cell, cell.v_dc

    def currents(self, v):
        points = [self.cell.currents(float(x)) for x in v]
        return np.array([p[0] for p in points]), np.array([p[1] for p in points], dtype=complex)


@pytest.mark.parametrize("cells", ["ideal", "conduction-angle"])
def test_simulate_pa_matches_per_point_cell_loop(cells, proto_cfg, two_line_net):
    if cells == "ideal":
        main, aux = ideal_doherty_cells(proto_cfg, v_dc=1.0)
    else:
        i_max = 2.0 / proto_cfg.r_opt
        main = ActiveCellModel.class_b(i_max=i_max, v_dc=1.0)
        aux = ActiveCellModel.class_c_turn_on(0.5, i_max=i_max, v_dc=1.0)
    grid = np.concatenate(([0.0], pa_drive_grid(proto_cfg.alpha, 41)))  # 0, turn-on 0.5 and 1
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc=1.0)
    ref = simulate_pa(PerPointCell(main), PerPointCell(aux), two_line_net, grid, v_dc=1.0)
    for field in dataclasses.fields(sim):
        got, want = getattr(sim, field.name), getattr(ref, field.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
    # at v = 0 neither port is driven: no output, no port impedance
    assert sim.p_out_w[0] == 0.0 and sim.v_load[0] == 0.0
    assert np.isnan(sim.z_main[0]) and np.isnan(sim.z_aux[0])
    assert sim.eta[0] == 0.0 and not sim.overdrive[0]


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.3])
def test_drive_profile_matches_per_point_closed_forms(alpha):
    cfg = DohertyConfig(alpha=alpha, r_opt=41.3, r_l=50.0, f0=37e9)
    for n_points in (5, 201):
        prof = drive_profile(cfg, n_points=n_points, main_phase_deg=0.0)
        want_aux = [current_profile(alpha, float(i)) for i in prof.i_main]
        want_pbo = [pbo_level(alpha, float(i)) for i in prof.i_main]
        assert prof.i_aux.tobytes() == np.array(want_aux).tobytes()
        assert prof.pbo_db.tobytes() == np.array(want_pbo).tobytes()


def test_overdrive_flagged():
    cfg = DohertyConfig(alpha=1.0, r_opt=50.0, r_l=50.0, f0=1e9)
    net = Netlist(f0=1e9)
    net.add("RL", Resistor(100.0), "main", "0")
    net.add("Raux", Resistor(1e9), "aux", "0")
    net.add_port("main", "main")
    net.add_port("aux", "aux")
    net.add_port("load", "main")
    net.load_port = "load"
    main = ActiveCellModel.class_b(i_max=0.1, v_dc=1.0)  # 0.1*100/2 = 5 V >> 1 V
    aux = ActiveCellModel.class_c_turn_on(0.999, i_max=1e-12, v_dc=1.0)
    sim = simulate_pa(main, aux, net, [1.0], 1.0, offset_deg=0.0)
    assert sim.overdrive[0]


# ----------------------------------------------------------------------
# inverter-ratio oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_itr_oracle_two_line(alpha):
    cfg = DohertyConfig(alpha=alpha, r_opt=41.3, r_l=50.0, f0=37e9)
    d = synth_two_line(cfg)
    grid = np.linspace(cfg.i_main_turn_on, cfg.i_main_max, 50)
    measured, formula = itr_inverter_oracle(d, grid)
    assert np.max(np.abs(measured - formula) / formula) < 5e-3
    assert formula[0] == pytest.approx((1.0 + alpha) ** 2, rel=1e-9)
    assert formula[-1] == pytest.approx(1.0, abs=1e-9)
    for i, f in zip(grid, formula):
        assert f == pytest.approx(itr_conv(alpha, i), rel=1e-12)


def test_itr_oracle_three_line_and_transformer(proto_cfg):
    grid = np.linspace(0.5, 1.0, 50)
    for design in (
        synth_three_line(proto_cfg),
        synth_transformer_combiner(proto_cfg),
    ):
        measured, formula = itr_inverter_oracle(design, grid)
        assert np.max(np.abs(measured - formula) / formula) < 5e-3
        assert formula[-1] == pytest.approx(2.4213, abs=5e-4)
        assert formula[0] == pytest.approx(1.652, abs=5e-4)
        for i, f in zip(grid, formula):
            assert f == pytest.approx(
                itr_intro(1.0, i, proto_cfg.r_opt, proto_cfg.r_l), rel=1e-12
            )


def _oracle_by_point(design, grid) -> np.ndarray:
    """The inverter oracle as a loop of single-point solves, one netlist
    per grid point: the reference for the one-sweep oracle."""
    cfg, f0 = design.cfg, design.cfg.f0
    if isinstance(design, TwoLineDesign):
        probe = Netlist(f0=f0)
        probe.add("TL2", TransmissionLine(design.z02, 90.0, f0), "x", "out")
        probe.add("RL", Resistor(cfg.r_l), "out", "0")
        probe.add_port("in", "x")
        r_base, face = solve(probe, f0, {"in": 1.0}).node_voltages["x"][0].real, "x"
    else:
        r_base, face = cfg.r_l, "out"
    measured = []
    for i in grid:
        net = Netlist(f0=f0)
        if isinstance(design, TransformerCombinerDesign):
            net.add("C1", Capacitor(design.c1), "main", "0")
            net.add("TF1", design.tf1(), "main", "0", "out", "0")
            net.add("C3", Capacitor(design.c3), "out", "0")
        else:
            net.add("TL1", TransmissionLine(design.z01, 90.0, f0), "main", face)
        net.add("Rnode", Resistor(r_base * (i + current_profile(cfg.alpha, i)) / i), face, "0")
        net.add_port("main", "main")
        r = solve(net, f0, {"main": 1.0})
        v1, v2 = r.node_voltages["main"][0], r.node_voltages[face][0]
        i = {name: [c[0] for c in currents] for name, currents in r.branch_currents.items()}
        if isinstance(design, TransformerCombinerDesign):
            (i_c1,), (i_c3,) = i["C1"], i["C3"]
            i_p, i_s = i["TF1"]
            z1, z2 = v1 / (i_p + i_c1), v2 / (-i_s - i_c3)
        else:
            i1, i2 = i["TL1"]
            z1, z2 = v1 / i1, v2 / (-i2)
        measured.append(max(z1.real / z2.real, z2.real / z1.real))
    return np.array(measured)


# the transformer combiner is synthesized for alpha = 1 only, so its
# cases vary the free parameters instead
_ORACLE_CASES = [(synth, alpha, {}) for synth in (synth_two_line, synth_three_line)
                 for alpha in (0.5, 1.0, 2.0)] + [
    (synth_transformer_combiner, 1.0, free)
    for free in ({}, {"n1": 0.6, "k1": 0.3, "n2": 1.8}, {"n1": 1.9, "k1": 0.9, "n2": 0.7})
]


@pytest.mark.parametrize("synth, alpha, free", _ORACLE_CASES)
def test_itr_oracle_sweep_matches_per_point_loop(synth, alpha, free):
    design = synth(DohertyConfig(alpha=alpha, r_opt=41.3, r_l=50.0, f0=37e9), **free)
    grid = np.linspace(design.cfg.i_main_turn_on, design.cfg.i_main_max, 21)
    measured, _ = itr_inverter_oracle(design, grid)
    want = _oracle_by_point(design, grid)
    assert np.abs(measured - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_asymmetric_doherty_matches_closed_form(alpha):
    # the two-segment closed-form efficiency curve agrees with the
    # behavioral oracle for asymmetric splits as well, including the
    # relocated second peak at 20*log10(1+alpha)
    cfg = DohertyConfig(alpha=alpha, r_opt=40.0, r_l=50.0, f0=5e9)
    net = to_netlist(synth_two_line(cfg))
    main, aux = ideal_doherty_cells(cfg, v_dc=1.0)
    second_peak_v = 1.0 / (1.0 + alpha)
    grid = np.sort(np.append(np.linspace(0.05, 1.0, 67), second_peak_v))
    sim = simulate_pa(main, aux, net, grid, v_dc=1.0)
    for k in range(len(grid)):
        want = ideal_efficiency("doherty", sim.pbo_db[k], alpha=alpha)
        assert sim.eta[k] == pytest.approx(want, abs=1e-9)
    pk2 = 20.0 * math.log10(1.0 + alpha)
    k2 = int(np.argmin(np.abs(sim.pbo_db - pk2)))
    assert sim.eta[k2] == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_conduction_angle_doherty_underdrive_and_enhancement(proto_cfg, two_line_net):
    """Truncated-sinusoid class-C auxiliary under-delivers relative to the
    ideal ramp, so the main overdrives at peak (flagged, not clipped);
    the 6 dB point is pure class-B on the modulated load and stays at
    pi/4, twice the plain class-B value."""
    v_dc = 1.0
    i_scale = v_dc / proto_cfg.r_opt
    main = ActiveCellModel.class_b(i_max=2.0 * i_scale, v_dc=v_dc)
    aux = ActiveCellModel.class_c_turn_on(0.5, i_max=2.0 * i_scale, v_dc=v_dc)

    assert aux.currents(1.0)[1].real < i_scale  # under-delivery at full drive
    # effective transconductance grows with drive after turn-on
    gains = [aux.currents(v)[1].real / v for v in (0.6, 0.8, 1.0)]
    assert gains[0] < gains[1] < gains[2]

    grid = np.sort(np.append(np.linspace(0.05, 1.0, 96), 0.5))
    sim = simulate_pa(main, aux, two_line_net, grid, v_dc)
    k6 = int(np.argmin(np.abs(sim.pbo_db - 6.02)))
    assert sim.eta[k6] == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert sim.eta[k6] > 1.9 * ideal_efficiency("class-b", sim.pbo_db[k6])
    assert sim.overdrive[int(np.argmin(sim.pbo_db))]


def test_drive_profile_needs_phase_source(proto_cfg):
    with pytest.raises(ValueError):
        drive_profile(proto_cfg)


def test_bandwidth_unknown_metric(two_line_net):
    with pytest.raises(ValueError):
        bandwidth_report(two_line_net, {"main": 1.0}, "gain-flatness")


def test_itr_oracle_rejects_unknown_design(proto_cfg):
    from dohertylab import pi_approx

    with pytest.raises(TypeError):
        itr_inverter_oracle(pi_approx(50.0, 1e9, "low-pass"), [0.6])


def test_simulate_pa_rejects_bad_drive(proto_cfg, two_line_net):
    main, aux = ideal_doherty_cells(proto_cfg, 1.0)
    with pytest.raises(ValueError):
        simulate_pa(main, aux, two_line_net, [0.5, 1.4], 1.0)


@pytest.mark.parametrize(
    "alpha,n_points,v_min",
    [
        (1.0, 41, 0.02),  # the CLI default: 0.5 falls between grid points
        (1.0, 99, 0.02),  # 0.5 is a grid point
        (1.0, 20, 0.05),  # a grid point lies within 1e-12 of 0.5: it is kept
        (2.0, 41, 0.02),
        (0.5, 3, 0.0),
    ],
)
def test_pa_drive_grid_holds_second_peak_once(alpha, n_points, v_min):
    grid = pa_drive_grid(alpha, n_points, v_min)
    peak = 1.0 / (1.0 + alpha)
    assert np.all(np.diff(grid) > 0)
    assert np.count_nonzero(np.abs(grid - peak) <= 1e-9) == 1
    linspace = np.linspace(v_min, 1.0, n_points)
    if np.abs(linspace - peak).min() <= 1e-12:
        np.testing.assert_array_equal(grid, linspace)
    else:
        assert np.count_nonzero(grid == peak) == 1
        assert len(grid) == n_points + 1
        assert grid[0] == v_min and grid[-1] == 1.0


def test_pa_drive_grid_peak_outside_range():
    grid = pa_drive_grid(1.0, 11, 0.6)
    np.testing.assert_array_equal(grid, np.linspace(0.6, 1.0, 11))


def test_combiner_study_reports_finite_evm(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    run = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "combiner_study.py"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    evms = re.findall(r"64QAM EVM at \d+ dB backoff: (\S+) % rms", run.stdout)
    assert len(evms) == 3, run.stdout
    assert all(math.isfinite(float(e)) for e in evms)
