"""Combiner synthesis: component values, identities, netlist emission."""

import dataclasses
import math

import numpy as np
import pytest

from dohertylab import (
    DohertyConfig,
    pi_approx,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
    transformer_combiner_explicit_netlist,
)
from dohertylab.netkit import s_parameters, solve


def test_two_line_values(proto_cfg):
    d = synth_two_line(proto_cfg)
    assert d.z01 == pytest.approx(41.3)
    assert d.z02 == pytest.approx(32.13, abs=0.005)
    assert max(d.identity_residuals.values()) < 1e-12


def test_two_line_collapses_when_r_opt_is_twice_load():
    d = synth_two_line(DohertyConfig(alpha=1.0, r_opt=100.0, r_l=50.0, f0=1e9))
    assert d.z01 == pytest.approx(100.0)
    assert d.z02 == pytest.approx(50.0)


def test_two_line_asymmetric():
    d = synth_two_line(DohertyConfig(alpha=2.0, r_opt=40.0, r_l=50.0, f0=1e9))
    assert d.z01 == pytest.approx(60.0)
    assert d.z02 == pytest.approx(31.62, abs=0.005)


def test_three_line_default_choice(proto_cfg):
    d = synth_three_line(proto_cfg)
    assert d.z01 == pytest.approx(64.27, abs=0.005)
    assert d.z02 == pytest.approx(d.z01)
    assert d.z03 == pytest.approx(100.0, rel=1e-9)  # (1+alpha)*r_l


def test_three_line_ratio_only_constraint():
    cfg = DohertyConfig(alpha=1.0, r_opt=100.0, r_l=50.0, f0=1e9)
    d = synth_three_line(cfg, z02=70.0)
    assert d.z03 / d.z02 == pytest.approx(1.0)
    assert d.z01 == pytest.approx(100.0)


def test_three_line_asymmetric_zero_itr_point():
    cfg = DohertyConfig(alpha=math.sqrt(8.0) - 1.0, r_opt=12.5, r_l=50.0, f0=1e9)
    d = synth_three_line(cfg)
    assert d.z03 == pytest.approx((1.0 + cfg.alpha) * 50.0, rel=1e-9)


def test_three_line_window_warning():
    cfg = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=1e9)
    d = synth_three_line(cfg, z02=200.0)
    assert any("window" in w for w in d.warnings)


def test_pi_approx_values():
    lp = pi_approx(50.0, 1e9, "low-pass")
    assert lp.series_value == pytest.approx(7.958e-9, rel=1e-3)
    assert lp.shunt_value == pytest.approx(3.183e-12, rel=1e-3)
    hp = pi_approx(50.0, 1e9, "high-pass")
    assert hp.series_value == pytest.approx(3.183e-12, rel=1e-3)
    assert hp.shunt_value == pytest.approx(7.958e-9, rel=1e-3)
    lp37 = pi_approx(64.27, 37e9, "low-pass")
    assert lp37.series_value == pytest.approx(0.2765e-9, rel=1e-3)
    assert lp37.shunt_value == pytest.approx(66.93e-15, rel=1e-3)
    with pytest.raises(ValueError):
        pi_approx(50.0, 1e9, "band-pass")


def test_transformer_synthesis_prototype(tf_design):
    d = tf_design
    assert d.k2 == pytest.approx(0.7290, abs=5e-4)
    assert 0.0 < d.k2 < 1.0
    assert max(d.identity_residuals.values()) < 1e-9
    assert len(d.identity_residuals) == 15
    assert d.l_p1 == d.l_p2  # n1 == n2, exact


def test_transformer_k2_special_case():
    # n2 = 1 and r_opt = 2*r_l puts k2 at the golden-ratio conjugate
    cfg = DohertyConfig(alpha=1.0, r_opt=100.0, r_l=50.0, f0=10e9)
    d = synth_transformer_combiner(cfg, n1=1.0, k1=0.7, n2=1.0)
    assert d.k2 == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)


@pytest.mark.parametrize("n2", [1e3, 1e6, 1e8, 1e9])
def test_transformer_k2_root_holds_for_large_n2(proto_cfg, n2):
    # the closed-form root of k2^2 + n2 s k2 = 1 must not cancel when n2 s is large
    d = synth_transformer_combiner(proto_cfg, n2=n2)
    s = math.sqrt(proto_cfg.r_opt / (2.0 * proto_cfg.r_l))
    assert 0.0 < d.k2 < 1.0
    assert d.k2 * d.k2 + n2 * s * d.k2 == pytest.approx(1.0, abs=1e-12)
    assert max(d.identity_residuals.values()) < 1e-9


def test_transformer_requires_symmetric_split():
    cfg = DohertyConfig(alpha=1.5, r_opt=40.0, r_l=50.0, f0=10e9)
    with pytest.raises(ValueError):
        synth_transformer_combiner(cfg)


@pytest.mark.parametrize(
    "free,name", [({"n1": 1e-300}, "n1"), ({"n1": 1e300}, "n1"), ({"k1": 1e-200}, "k1")]
)
def test_transformer_overflowing_parameter_rejected(free, name):
    # a squared ratio of these parameters leaves float range
    cfg = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)
    with pytest.raises(ValueError, match=f"^{name} = "):
        synth_transformer_combiner(cfg, **free)


def test_transformer_k2_in_unit_interval_randomized():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n2 = rng.uniform(0.2, 5.0)
        ratio = rng.uniform(0.05, 20.0)
        cfg = DohertyConfig(alpha=1.0, r_opt=50.0 * ratio, r_l=50.0, f0=10e9)
        d = synth_transformer_combiner(cfg, n1=1.0, k1=0.7, n2=n2)
        assert 0.0 < d.k2 < 1.0


def test_transformer_equal_turns_equal_primaries_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.uniform(0.3, 3.0)
        k1 = rng.uniform(0.25, 0.95)
        cfg = DohertyConfig(
            alpha=1.0, r_opt=rng.uniform(5.0, 200.0), r_l=rng.uniform(10.0, 100.0), f0=20e9
        )
        d = synth_transformer_combiner(cfg, n1=n, k1=k1, n2=n)
        assert d.l_p1 == d.l_p2


def test_transformer_ratio_identities_both_forms(tf_design):
    d = tf_design
    ratio = d.z0_hp_aux / d.z0_lp_aux
    assert ratio == pytest.approx(
        (d.n2 / d.k2) * math.sqrt(2.0 * 50.0 / 41.3), rel=1e-12
    )
    assert ratio == pytest.approx(d.n2**2 / (1.0 - d.k2**2), rel=1e-12)


def test_parasitic_absorption(proto_cfg):
    d = synth_transformer_combiner(proto_cfg, c_pad=2e-14)
    assert d.c3_external == pytest.approx(d.c3 - 2e-14)
    with pytest.raises(ValueError):
        synth_transformer_combiner(proto_cfg, c_pad=1e-12)


def test_transformer_realizability_warnings():
    cfg = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=0.5e9)
    d = synth_transformer_combiner(cfg)
    assert any("realizability" in w for w in d.warnings)


def test_netlist_ports_and_load(tf_net):
    assert set(tf_net.ports) == {"main", "aux", "load"}
    assert tf_net.load_port == "load"
    names = {e.name for e in tf_net.elements}
    assert {"C1", "C2", "C3", "C4", "C5", "TF1", "TF2", "RL"} <= names


@pytest.mark.parametrize(
    "synth,implementation,aux,layout",
    [
        (synth_two_line, "line", "aux_node", [("TL1", "main", "aux_node"), ("TL2", "aux_node", "out")]),
        (synth_two_line, "lumped-pi", "aux_node",
         [("TL1_cin", "main", "0"), ("TL1_l", "main", "aux_node"), ("TL1_cout", "aux_node", "0"),
          ("TL2_cin", "aux_node", "0"), ("TL2_l", "aux_node", "out"), ("TL2_cout", "out", "0")]),
        (synth_three_line, "line", "aux",
         [("TL1", "main", "out"), ("TL2", "aux", "mid"), ("TL3", "mid", "out")]),
        (synth_three_line, "lumped-pi", "aux",
         [("TL1_cin", "main", "0"), ("TL1_l", "main", "out"), ("TL1_cout", "out", "0"),
          ("TL2_cin", "aux", "0"), ("TL2_l", "aux", "mid"), ("TL2_cout", "mid", "0"),
          ("TL3_lin", "mid", "0"), ("TL3_c", "mid", "out"), ("TL3_lout", "out", "0")]),
    ],
)
def test_line_design_netlist_layout(proto_cfg, synth, implementation, aux, layout):
    net = to_netlist(synth(proto_cfg), implementation=implementation)
    assert [(e.name, *e.nodes) for e in net.elements] == layout + [("RL", "out", "0")]
    assert net.ports == {"main": ("main", "0"), "aux": (aux, "0"), "load": ("out", "0")}
    with pytest.raises(ValueError, match="unknown implementation 'coax'"):
        to_netlist(synth(proto_cfg), implementation="coax")


def test_two_line_netlist_maps_load_to_half_r_opt(proto_cfg):
    # output line alone: drive the combining node and read r_opt/2
    from dohertylab.netkit import Netlist, Resistor, TransmissionLine

    d = synth_two_line(proto_cfg)
    net = Netlist(f0=proto_cfg.f0)
    net.add("TL2", TransmissionLine(d.z02, 90.0, proto_cfg.f0), "x", "out")
    net.add("RL", Resistor(proto_cfg.r_l), "out", "0")
    net.add_port("in", "x")
    z = solve(net, proto_cfg.f0, {"in": 1.0}).node_voltages["x"][0]
    assert z.real == pytest.approx(proto_cfg.r_opt / 2.0, rel=1e-9)
    assert abs(z.imag) < 1e-9


def test_pi_fidelity_three_line_at_center(proto_cfg, three_line_net):
    # the high-pass section flips the auxiliary path phase, so each
    # implementation gets its own drive offset; the port impedances of the
    # two realizations then coincide exactly at center frequency
    from dohertylab.analysis import drive_profile, load_modulation

    lumped = to_netlist(synth_three_line(proto_cfg), implementation="lumped-pi")
    sweeps = {}
    for name, net in (("line", three_line_net), ("pi", lumped)):
        prof = drive_profile(proto_cfg, net, n_points=5, i_main_min=0.4)
        sweeps[name] = load_modulation(net, proto_cfg, prof)
    z_line, z_pi = sweeps["line"].z_main, sweeps["pi"].z_main
    assert np.max(np.abs(z_line - z_pi)) < 1e-9 * np.max(np.abs(z_line))
    on = sweeps["line"].profile.i_aux > 0
    assert np.max(np.abs(sweeps["line"].z_aux[on] - sweeps["pi"].z_aux[on])) < 1e-6


def test_pi_diverges_smoothly_off_center(proto_cfg, three_line_net):
    from dohertylab.analysis import drive_profile, load_modulation

    lumped = to_netlist(synth_three_line(proto_cfg), implementation="lumped-pi")
    diffs = []
    for f in (1.0, 1.05, 1.1, 1.2):
        zs = []
        for net in (three_line_net, lumped):
            prof = drive_profile(proto_cfg, net, n_points=1, i_main_min=1.0)
            cfg = dataclasses.replace(proto_cfg, f0=f * proto_cfg.f0)
            zs.append(load_modulation(net, cfg, prof).z_main[0])
        diffs.append(abs(zs[0] - zs[1]))
    assert diffs[0] < 1e-9
    assert all(a < b for a, b in zip(diffs, diffs[1:]))


@pytest.mark.parametrize("q_l,q_c", [(math.inf, math.inf), (20.0, 40.0)])
def test_absorption_equivalence_s_params(tf_design, q_l, q_c):
    """Coupled-pair network and its explicit leakage/magnetizing +
    ideal-transformer intermediate give identical 3-port S-parameters."""
    net_tf = to_netlist(tf_design, q_l=q_l, q_c=q_c, include_load=False)
    net_exp = transformer_combiner_explicit_netlist(
        tf_design, q_l=q_l, q_c=q_c, include_load=False
    )
    freqs = np.linspace(0.6 * tf_design.f0, 1.4 * tf_design.f0, 41)
    s_tf = s_parameters(net_tf, ["main", "aux", "load"], freqs, 50.0)
    s_exp = s_parameters(net_exp, ["main", "aux", "load"], freqs, 50.0)
    assert np.abs(s_tf - s_exp).max() < 1e-9


def test_random_configs_identities_hold():
    rng = np.random.default_rng(3)
    for _ in range(300):
        cfg = DohertyConfig(
            alpha=1.0,
            r_opt=rng.uniform(5.0, 200.0),
            r_l=rng.uniform(10.0, 100.0),
            f0=rng.uniform(0.5e9, 100e9),
        )
        d = synth_transformer_combiner(
            cfg,
            n1=rng.uniform(0.3, 3.0),
            k1=rng.uniform(0.25, 0.95),
            n2=rng.uniform(0.3, 3.0),
        )
        assert max(d.identity_residuals.values()) < 1e-9
