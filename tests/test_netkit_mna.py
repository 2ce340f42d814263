"""MNA solver: element stamps, power accounting, failure modes."""

import collections
import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from conftest import power_balance_residual
from hypothesis import given, settings
from hypothesis import strategies as st

from dohertylab import (
    DohertyConfig,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
)
from dohertylab.netkit import (
    Capacitor,
    Component,
    CoupledInductors,
    CurrentSource,
    IdealTransformer,
    Inductor,
    Netlist,
    NetworkTopologyError,
    Resistor,
    SingularSystemError,
    TransmissionLine,
    assemble,
    check_network,
    s_parameters,
    solve,
    solve_columns,
)
from dohertylab.netkit import mna
from dohertylab.netkit.elements import Element
from dohertylab.netkit.mna import CHUNK, ColumnsResult


def simple_load(r=50.0, f0=1e9):
    net = Netlist(f0=f0)
    net.add("R1", Resistor(r), "a", "0")
    net.add_port("in", "a")
    return net


def test_ohms_law():
    net = simple_load()
    r = solve(net, 1e9, {"in": 1.0})
    assert r.node_voltages["a"][0] == pytest.approx(50.0)
    assert r.backward_error[0] <= 1e-15


def test_quarter_wave_inversion_input_impedance():
    net = Netlist(f0=1e9)
    net.add("TL", TransmissionLine(50.0, 90.0, 1e9), "a", "b")
    net.add("RL", Resistor(100.0), "b", "0")
    net.add_port("in", "a")
    net.add_port("load", "b")
    net.load_port = "load"
    r = solve(net, 1e9, {"in": 1.0})
    zin = r.node_voltages["a"][0]
    assert zin.real == pytest.approx(25.0, rel=1e-9)
    assert abs(zin.imag) < 1e-9


def test_two_line_combiner_peak_load_pull(proto_cfg, two_line_net):
    # main driven 90 deg ahead of aux: both port resistances land on the
    # peak target (1+alpha)*r_opt/2
    i_main = 1.0 * np.exp(1j * np.pi / 2)
    r = solve(two_line_net, proto_cfg.f0, {"main": i_main, "aux": 1.0})
    z_main = r.port_voltages["main"][0] / i_main
    assert z_main.real == pytest.approx(41.3, rel=1e-3)
    assert abs(z_main.imag) < 1e-6


def test_power_conservation_lossless(two_line_net, proto_cfg):
    i_main = 0.7 * np.exp(1j * np.pi / 2)
    r = solve(two_line_net, proto_cfg.f0, {"main": i_main, "aux": 0.3})
    assert power_balance_residual(r) < 1e-9
    assert sum(p[0] for p in r.element_power.values()) == pytest.approx(0.0, abs=1e-12)
    assert r.load_power[0] > 0


def test_power_conservation_lossy():
    net = Netlist(f0=5e9)
    net.add("L1", Inductor(1e-9, q=12.0), "a", "b")
    net.add("C1", Capacitor(1e-12, q=25.0), "b", "0")
    net.add("RL", Resistor(30.0), "b", "0")
    net.add_port("in", "a")
    net.add_port("load", "b")
    net.load_port = "load"
    r = solve(net, 5e9, {"in": 1.0})
    assert power_balance_residual(r) < 1e-9
    assert all(p[0] >= -1e-15 for p in r.element_power.values())


def test_current_source_element():
    net = Netlist(f0=1e9)
    net.add("I1", CurrentSource(2.0 + 0j), "a", "0")
    net.add("R1", Resistor(10.0), "a", "0")
    r = solve(net, 1e9)
    assert r.node_voltages["a"][0] == pytest.approx(20.0)


def test_ideal_transformer_scales_impedance():
    net = Netlist(f0=1e9)
    net.add("X1", IdealTransformer(2.0), "a", "0", "b", "0")
    net.add("RL", Resistor(100.0), "b", "0")
    net.add_port("in", "a")
    r = solve(net, 1e9, {"in": 1.0})
    # load reflected to primary by 1/n^2
    assert r.node_voltages["a"][0] == pytest.approx(25.0)
    assert r.element_power["X1"][0] == pytest.approx(0.0, abs=1e-12)


def test_coupled_pair_k_near_one_still_solvable():
    net = Netlist(f0=1e9)
    net.add("T1", CoupledInductors(1e-9, n=1.0, k=0.999999), "a", "0", "b", "0")
    net.add("RL", Resistor(50.0), "b", "0")
    net.add_port("in", "a")
    r = solve(net, 1e9, {"in": 1.0})
    assert np.isfinite(r.node_voltages["a"][0].real)


def test_floating_node_rejected():
    net = Netlist(f0=1e9)
    net.add("R1", Resistor(50.0), "a", "0")
    net.add("T1", CoupledInductors(1e-9, 1.0, 0.8), "a", "0", "s1", "s2")
    net.add_port("in", "a")
    with pytest.raises(NetworkTopologyError) as exc:
        solve(net, 1e9, {"in": 1.0})
    assert exc.value.node in ("s1", "s2")

    # a port on a node that no element touches
    net = Netlist(f0=1e9)
    net.add("R1", Resistor(50.0), "a", "0")
    net.add_port("in", "a")
    net.add_port("out", "lone")
    with pytest.raises(NetworkTopologyError, match="'lone'") as exc:
        solve(net, 1e9, {"in": 1.0})
    assert exc.value.node == "lone"


def test_nonpositive_frequency_rejected(two_line_net):
    for freq in (-1e9, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            solve(two_line_net, freq, {"main": 1.0})
    drive = {"main": np.array([1.0])}
    # a sweep's frequencies are checked by the range rule the Touchstone files use
    for freqs, bad in (([1e9, math.nan], "nan"), ([1e9, math.inf], "inf"),
                       ([1e9, -1e9], "-1000000000.0"), ([0.0], "0.0")):
        with pytest.raises(ValueError, match=rf"^analysis frequency {bad} outside \[5e-324, "):
            solve_columns(two_line_net, np.array(freqs), drive)
    for freqs in ([], [[1e9, 2e9]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            solve_columns(two_line_net, np.array(freqs), drive)


def test_no_excitation_rejected(two_line_net):
    with pytest.raises(ValueError):
        solve(two_line_net, 1e9)


def test_singular_all_ideal_loop():
    # unity-ratio ideal transformer with both windings across the same
    # node pair: its branch current is unconstrained
    net = Netlist(f0=1e9)
    net.add("X1", IdealTransformer(1.0), "a", "0", "a", "0")
    net.add("R1", Resistor(50.0), "a", "0")
    net.add_port("in", "a")
    with pytest.raises(SingularSystemError):
        solve(net, 1e9, {"in": 1.0})


def test_duplicate_element_name_rejected():
    net = Netlist(f0=1e9)
    net.add("R1", Resistor(50.0), "a", "0")
    with pytest.raises(NetworkTopologyError):
        net.add("R1", Resistor(10.0), "a", "0")


def test_element_value_validation():
    with pytest.raises(ValueError):
        Resistor(-5.0)
    with pytest.raises(ValueError):
        Inductor(1e-9, q=-2.0)
    with pytest.raises(ValueError):
        CoupledInductors(1e-9, n=1.0, k=1.0)
    with pytest.raises(ValueError):
        CoupledInductors(1e-9, n=0.0, k=0.5)


def test_passive_efficiency_lossless_is_one(two_line_net, proto_cfg):
    r = solve(two_line_net, proto_cfg.f0, {"main": 1.0 * np.exp(1j * np.pi / 2), "aux": 1.0})
    assert r.passive_efficiency()[0] == pytest.approx(1.0, abs=1e-9)


def test_passive_efficiency_resistive_divider():
    net = Netlist(f0=1e9)
    net.add("Rs", Resistor(5.0), "a", "b")
    net.add("RL", Resistor(50.0), "b", "0")
    net.add_port("in", "a")
    net.add_port("load", "b")
    net.load_port = "load"
    eta = solve(net, 1e9, {"in": 1.0}).passive_efficiency()[0]
    assert eta == pytest.approx(50.0 / 55.0, rel=1e-12)


def test_passive_efficiency_higher_itr_is_lossier():
    # same finite-Q lumped quarter-wave section, terminated for ITR=4 vs
    # ITR=1: the stronger transformation burns more of the input power
    def lumped_quarter_wave(z0, r_load, f0=10e9, q=20.0):
        w0 = 2 * math.pi * f0
        net = Netlist(f0=f0)
        net.add("Cin", Capacitor(1.0 / (w0 * z0), q=q), "a", "0")
        net.add("L", Inductor(z0 / w0, q=q), "a", "b")
        net.add("Cout", Capacitor(1.0 / (w0 * z0), q=q), "b", "0")
        net.add("RL", Resistor(r_load), "b", "0")
        net.add_port("in", "a")
        net.add_port("load", "b")
        net.load_port = "load"
        return net

    eta_itr4 = solve(lumped_quarter_wave(50.0, 100.0), 10e9, {"in": 1.0}).passive_efficiency()[0]
    eta_itr1 = solve(lumped_quarter_wave(50.0, 50.0), 10e9, {"in": 1.0}).passive_efficiency()[0]
    assert eta_itr4 < eta_itr1


def test_passive_efficiency_undefined_without_power():
    net = simple_load()
    net.add_port("load", "a")
    net.load_port = "load"
    assert math.isnan(solve(net, 1e9, {"in": 0.0}).passive_efficiency()[0])


def test_solver_is_pure(two_line_net, proto_cfg):
    # repeated solves on a shared netlist are bit-identical and leave the
    # netlist untouched
    before = len(two_line_net.elements)
    r1 = solve(two_line_net, proto_cfg.f0, {"main": 1j, "aux": 1.0})
    r2 = solve(two_line_net, proto_cfg.f0, {"main": 1j, "aux": 1.0})
    assert len(two_line_net.elements) == before
    assert _bit_equal(_fields(r1), _fields(r2))


def test_netlist_json_round_trip(tf_net):
    doc = tf_net.to_json_dict()
    back = Netlist.from_json_dict(doc)
    assert back.to_json_dict() == doc
    r1 = solve(tf_net, tf_net.f0, {"main": 1.0})
    r2 = solve(back, back.f0, {"main": 1.0})
    for node, v in r1.node_voltages.items():
        assert v[0] == pytest.approx(r2.node_voltages[node][0])


def test_netlist_json_covers_every_element_kind():
    net = Netlist(f0=2e9)
    net.add("R1", Resistor(75.0), "a", "b")
    net.add("L1", Inductor(2e-9, q=18.0), "b", "0")
    net.add("C1", Capacitor(0.4e-12), "b", "c")
    net.add("T1", CoupledInductors(1e-9, n=1.2, k=0.66, q=30.0), "c", "0", "d", "0")
    net.add("X1", IdealTransformer(1.5), "d", "0", "e", "0")
    net.add("TL1", TransmissionLine(60.0, 45.0, 2e9, loss_db_per_quarter=0.3), "e", "f")
    net.add("I1", CurrentSource(0.5 - 0.25j), "a", "0")
    net.add("RL", Resistor(50.0), "f", "0")
    net.add_port("in", "a")
    net.add_port("load", "f")
    net.load_port = "load"
    doc = net.to_json_dict()
    back = Netlist.from_json_dict(doc)
    assert back.to_json_dict() == doc
    r1 = solve(net, 2.3e9, {"in": 0.1j})
    r2 = solve(back, 2.3e9, {"in": 0.1j})
    assert _bit_equal(r1.node_voltages, r2.node_voltages)
    assert power_balance_residual(r1) < 1e-9


# at least one instance of every element type, with every optional value
# both at and away from its default
DESCRIPTION_EXAMPLES = {
    Resistor: [Resistor(75.0)],
    Inductor: [Inductor(2e-9), Inductor(2e-9, q=18.0)],
    Capacitor: [Capacitor(0.4e-12), Capacitor(0.4e-12, q=25.0)],
    CoupledInductors: [
        CoupledInductors(1e-9, n=1.2, k=0.66),
        CoupledInductors(1e-9, n=1.2, k=0.66, q=30.0),
    ],
    IdealTransformer: [IdealTransformer(1.5)],
    TransmissionLine: [
        TransmissionLine(60.0, 45.0, 2e9),
        TransmissionLine(60.0, 45.0, 2e9, loss_db_per_quarter=0.3),
    ],
    CurrentSource: [CurrentSource(0.5 - 0.25j)],
}


@pytest.mark.parametrize("cls", typing.get_args(Component), ids=lambda cls: cls.__name__)
def test_element_description(cls):
    """Every element type describes itself fully, and its JSON form, stamp
    and readback round-trip through a solved netlist."""
    assert isinstance(cls.kind, str)
    kinds = [other.kind for other in typing.get_args(Component)]
    assert kinds.count(cls.kind) == 1
    assert sorted(cls.json_keys.values()) == sorted(f.name for f in dataclasses.fields(cls))
    assert cls.terminals in (2, 4)
    assert cls.aux in (0, 1, 2)
    assert cls.stamp is not Element.stamp
    assert cls.readback is not Element.readback

    for comp in DESCRIPTION_EXAMPLES[cls]:
        net = Netlist(f0=2e9)
        nodes = ("a", "b") if cls.terminals == 2 else ("a", "0", "b", "0")
        net.add("X", comp, *nodes)
        net.add("R1", Resistor(50.0), "a", "0")
        net.add("R2", Resistor(20.0), "b", "0")
        net.add_port("in", "a")
        net.add_port("load", "b")
        net.load_port = "load"
        back = Netlist.from_json_dict(json.loads(json.dumps(net.to_json_dict())))
        assert back == net
        r = solve(back, 2.3e9, {"in": 0.1j})
        assert r.backward_error[0] <= 1e-15
        assert power_balance_residual(r) < 1e-9
        assert all(np.isfinite(i[0]) for i in r.branch_currents["X"])


def test_concurrent_solves_bitwise_identical(tf_net, proto_cfg):
    # the solver is pure: threaded sweeps must equal the serial sweep
    from concurrent.futures import ThreadPoolExecutor

    freqs = [proto_cfg.f0 * f for f in (0.8, 0.9, 1.0, 1.1, 1.2)]
    exc = {"main": 1j, "aux": 0.5 + 0j}
    serial = [solve(tf_net, f, exc).x for f in freqs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda f: solve(tf_net, f, exc).x, freqs))
    assert all(map(np.array_equal, serial, threaded))


def test_mna_matches_two_port_chain_on_random_ladders():
    """Dual-route check: input impedance of a random terminated ladder via
    the MNA solve equals the value from the independent ABCD cascade."""
    from twoport import Series, Shunt, input_impedance, two_port_matrix

    rng = np.random.default_rng(42)
    freq = 3.7e9
    for trial in range(60):
        chain = []
        net = Netlist(f0=freq)
        node = "n0"
        for k in range(rng.integers(1, 6)):
            kind = rng.integers(0, 7)
            q = float(rng.uniform(5.0, 80.0)) if rng.random() < 0.5 else math.inf
            if kind == 0:
                comp = Resistor(float(rng.uniform(1.0, 200.0)))
                chain.append(Series(comp))
                nxt = f"n{k + 1}"
                net.add(f"E{k}", comp, node, nxt)
                node = nxt
            elif kind == 1:
                comp = Inductor(float(rng.uniform(0.05e-9, 5e-9)), q=q)
                chain.append(Series(comp))
                nxt = f"n{k + 1}"
                net.add(f"E{k}", comp, node, nxt)
                node = nxt
            elif kind == 2:
                comp = Capacitor(float(rng.uniform(10e-15, 5e-12)), q=q)
                chain.append(Series(comp))
                nxt = f"n{k + 1}"
                net.add(f"E{k}", comp, node, nxt)
                node = nxt
            elif kind == 3:
                comp = Inductor(float(rng.uniform(0.05e-9, 5e-9)), q=q)
                chain.append(Shunt(comp))
                net.add(f"E{k}", comp, node, "0")
            elif kind == 4:
                comp = Capacitor(float(rng.uniform(10e-15, 5e-12)), q=q)
                chain.append(Shunt(comp))
                net.add(f"E{k}", comp, node, "0")
            elif kind == 5:
                comp = TransmissionLine(
                    float(rng.uniform(15.0, 120.0)),
                    float(rng.uniform(10.0, 170.0)),
                    freq,
                    loss_db_per_quarter=float(rng.uniform(0.0, 0.5)),
                )
                chain.append(comp)
                nxt = f"n{k + 1}"
                net.add(f"E{k}", comp, node, nxt)
                node = nxt
            else:
                comp = CoupledInductors(
                    float(rng.uniform(0.1e-9, 2e-9)),
                    n=float(rng.uniform(0.5, 2.0)),
                    k=float(rng.uniform(0.3, 0.95)),
                    q=q,
                )
                chain.append(comp)
                nxt = f"n{k + 1}"
                net.add(f"E{k}", comp, node, "0", nxt, "0")
                node = nxt
        r_load = float(rng.uniform(5.0, 200.0))
        net.add("RL", Resistor(r_load), node, "0")
        net.add_port("in", "n0")
        net.add_port("load", node)
        net.load_port = "load"

        z_mna = solve(net, freq, {"in": 1.0}).node_voltages["n0"][0]
        z_chain = input_impedance(two_port_matrix(chain, freq), complex(r_load))
        assert abs(z_mna - z_chain) <= 1e-9 * max(abs(z_chain), 1.0), f"trial {trial}"


def test_unknown_excitation_port_rejected(two_line_net, proto_cfg):
    with pytest.raises(ValueError):
        solve(two_line_net, proto_cfg.f0, {"nope": 1.0})


def test_unknown_element_kind_in_json_rejected():
    doc = {
        "f0_hz": 1e9,
        "ports": {},
        "elements": [{"kind": "memristor", "name": "M1", "nodes": ["a", "0"]}],
    }
    with pytest.raises(NetworkTopologyError):
        Netlist.from_json_dict(doc)


# ----------------------------------------------------------------------
# multi-column solve
# ----------------------------------------------------------------------

_PROTO = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)
#: the three prototype combiners of the drive sweeps
DRIVE_NETS = {
    "two-line": to_netlist(synth_two_line(_PROTO)),
    "three-line": to_netlist(
        synth_three_line(_PROTO), q_l=20.0, q_c=20.0, implementation="lumped-pi"
    ),
    "transformer": to_netlist(synth_transformer_combiner(_PROTO, n1=1.0, k1=0.7, n2=1.0)),
}

_current = st.one_of(
    st.just(0.0),
    st.builds(
        lambda mag, deg: mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg))),
        st.floats(0.01, 2.0),
        st.floats(-180.0, 180.0),
    ),
)


def _close(a, b, scale=None, rel=1e-12):
    """Agreement of two arrays within ``rel`` of ``scale``, by default of
    the largest magnitude in ``b`` (NaN matches NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(b)
    if scale is None:
        scale = np.abs(b[ok]).max(initial=0.0)
    assert np.abs(a[ok] - b[ok]).max(initial=0.0) <= rel * scale


@pytest.mark.parametrize("name", list(DRIVE_NETS))
@settings(max_examples=25, deadline=None)
@given(columns=st.lists(st.tuples(_current, _current), min_size=1, max_size=8))
def test_solve_columns_matches_per_point_solve(name, columns):
    net = DRIVE_NETS[name]
    i_main = np.array([c[0] for c in columns], dtype=complex)
    i_aux = np.array([c[1] for c in columns], dtype=complex)
    batch = solve_columns(net, _PROTO.f0, {"main": i_main, "aux": i_aux})
    assert batch.x.shape == (batch.x.shape[0], len(columns))
    assert np.all(batch.x[-1] == 0)  # the ground row
    eta = batch.passive_efficiency()
    for k, (im, ia) in enumerate(columns):
        point = solve(net, _PROTO.f0, {"main": im, "aux": ia})
        _close(
            [batch.port_voltages[p][k] for p in net.ports],
            [point.port_voltages[p][0] for p in net.ports],
        )
        # powers relative to the column's apparent drive power: the real
        # powers of a column that drives the auxiliary port alone are roundoff
        apparent = 0.5 * sum(
            abs(point.port_voltages[p][0] * i) for p, i in (("main", im), ("aux", ia))
        )
        _close(batch.load_power[k], point.load_power[0], apparent)
        _close(batch.injected_power[k], point.injected_power[0], apparent)
        if point.injected_power[0] > 1e-9 * apparent:  # else the ratio is roundoff
            _close(eta[k], point.passive_efficiency()[0], 1.0)
        assert batch.backward_error[k] <= 1e-15


def test_solve_columns_counts_current_sources():
    net = Netlist(f0=1e9)
    net.add("I1", CurrentSource(0.5 + 0.1j), "a", "0")
    net.add("R1", Resistor(20.0), "a", "b")
    net.add("RL", Resistor(30.0), "b", "0")
    net.add_port("in", "a")
    net.add_port("load", "b")
    net.load_port = "load"
    drives = np.array([0.0, 1.0, -0.3j])
    batch = solve_columns(net, 1e9, {"in": drives})
    for k, i in enumerate(drives):
        point = solve(net, 1e9, {"in": i})
        _close(batch.load_power[k], point.load_power[0])
        _close(batch.injected_power[k], point.injected_power[0])
        _close(batch.passive_efficiency()[k], point.passive_efficiency()[0], 1.0)
    # sources alone drive every column
    alone = solve_columns(net, 1e9, {})
    _close(alone.load_power[0], solve(net, 1e9).load_power[0])


def _unconstrained_current_net():
    # unity-ratio ideal transformer across one node pair (no constraint on I(X1))
    net = Netlist(f0=1e9)
    net.add("X1", IdealTransformer(1.0), "a", "0", "a", "0")
    net.add("R1", Resistor(50.0), "a", "0")
    net.add_port("in", "a")
    return net


def _ideal_loop_net():
    # two ideal transformers in a loop: singular without an empty row or column
    net = Netlist(f0=1e9)
    net.add("X1", IdealTransformer(1.0), "a", "0", "b", "0")
    net.add("X2", IdealTransformer(1.0), "b", "0", "a", "0")
    net.add("R1", Resistor(50.0), "a", "0")
    net.add_port("in", "a")
    return net


@pytest.mark.parametrize("make", [_unconstrained_current_net, _ideal_loop_net])
def test_singular_error_same_through_both_entries(make):
    net = make()
    with pytest.raises(SingularSystemError) as single:
        solve(net, 1e9, {"in": 1.0})
    with pytest.raises(SingularSystemError) as batch:
        solve_columns(net, 1e9, {"in": np.array([1.0, 2.0j])})
    assert str(batch.value) == str(single.value)
    assert (batch.value.node, batch.value.element) == (single.value.node, single.value.element)


def test_solve_columns_rejects_bad_input(two_line_net, proto_cfg):
    f0 = proto_cfg.f0
    with pytest.raises(ValueError, match="unknown port"):
        solve_columns(two_line_net, f0, {"main": np.ones(3), "nope": np.ones(3)})
    with pytest.raises(ValueError, match="no excitation"):
        solve_columns(two_line_net, f0, {})
    with pytest.raises(ValueError):
        solve_columns(two_line_net, f0, {"main": np.ones(3), "aux": np.ones(2)})
    with pytest.raises(ValueError):
        solve_columns(two_line_net, f0, {"main": np.ones((2, 2))})
    with pytest.raises(ValueError):
        solve_columns(two_line_net, -f0, {"main": np.ones(3)})


def test_value_and_frequency_sweeps_need_one_length(two_line_net, proto_cfg):
    freqs = proto_cfg.f0 * np.linspace(0.9, 1.1, 3)
    with pytest.raises(ValueError, match="one nonzero length"):
        solve_columns(two_line_net, freqs, {"main": np.ones(3), "aux": np.ones(2)})


def test_one_bad_column_is_rejected(two_line_net, proto_cfg, monkeypatch):
    """The residual check is per column: a column off by far more than
    its own drive allows is rejected although it is tiny next to the
    largest drive of the batch, which a batch-wide check would accept."""
    drives = {"main": np.array([1e6, 1.0, 2.0]), "aux": np.array([1e6, 0.0, 1.0])}
    good = solve_columns(two_line_net, proto_cfg.f0, drives)
    assert good.backward_error.max() <= 1e-15

    exact = np.linalg.solve

    def off_in_column_1(a, b):
        x = exact(a, b)
        x[:, 1] *= 1.0 + 1e-4
        return x

    monkeypatch.setattr(np.linalg, "solve", off_in_column_1)
    with pytest.raises(SingularSystemError):
        solve_columns(two_line_net, proto_cfg.f0, drives)
    # column 1's residual is 1e-4 A, below 1e-9 of the batch's largest drive
    matrix = assemble(two_line_net, proto_cfg.f0).matrix
    assert np.abs(matrix @ (1e-4 * good.x[:-1, 1])).max() < 1e-9 * 1e6


def test_every_entry_rejects_the_same_perturbed_solution(two_line_net, proto_cfg, monkeypatch):
    """A solution scaled by 1 + 1e-8 has a backward error of about 1e-9,
    far above 1e-12: solve, solve_columns and s_parameters share one
    acceptance test and all reject it."""
    exact = np.linalg.solve

    def off_by_1e8(a, b):
        return exact(a, b) * (1.0 + 1e-8)

    monkeypatch.setattr(np.linalg, "solve", off_by_1e8)
    rejected = "solution rejected: backward error .* exceeds 1e-12"
    with pytest.raises(SingularSystemError, match=rejected):
        solve(two_line_net, proto_cfg.f0, {"main": 1.0})
    with pytest.raises(SingularSystemError, match=rejected):
        solve_columns(two_line_net, proto_cfg.f0, {"main": np.array([1.0, 2.0])})
    with pytest.raises(SingularSystemError, match=rejected):
        solve_columns(two_line_net, proto_cfg.f0 * np.array([0.9, 1.1]), {"main": np.ones(1)})
    with pytest.raises(SingularSystemError, match=rejected):
        s_parameters(two_line_net, ["main", "aux", "load"], [proto_cfg.f0], 50.0)


def test_check_network_judges_every_drive_and_the_rounding(tf_design, proto_cfg):
    """check_network returns the row-equilibrated condition number, and
    rejects what a solve for one drive may not show: a coupling so near 1
    that a unit drive into some row has a backward error above 1e-12, and
    a turn ratio so large that rounding the matrix may move a solution
    by more than 1e-3 (the condition number times 2^-53)."""
    net = to_netlist(tf_design)
    A = assemble(net, proto_cfg.f0).matrix
    scaled = A / np.abs(A).sum(axis=1)[:, None]
    kappa = check_network(net, proto_cfg.f0)
    assert kappa == pytest.approx(np.linalg.cond(scaled, np.inf), rel=1e-9)
    assert kappa < 1e4

    near_unity = to_netlist(synth_transformer_combiner(proto_cfg, k1=0.999999999))
    peak = solve(near_unity, proto_cfg.f0, {"main": 1.0, "aux": -1j})
    assert peak.backward_error[0] <= 1e-15  # this drive alone passes
    with pytest.raises(SingularSystemError, match="solution rejected: backward error"):
        check_network(near_unity, proto_cfg.f0)

    wide_but_held = to_netlist(synth_transformer_combiner(proto_cfg, n2=1e6))
    assert check_network(wide_but_held, proto_cfg.f0) < 9e12
    wide = to_netlist(synth_transformer_combiner(proto_cfg, n2=1e7))
    with pytest.raises(SingularSystemError, match="ill-conditioned network at 3.7e"):
        check_network(wide, proto_cfg.f0)


# ----------------------------------------------------------------------
# frequency sweeps
# ----------------------------------------------------------------------


def _every_kind_net(values) -> Netlist:
    """A ladder holding every element kind: finite-Q L and C, a coupled
    pair at finite Q, an ideal transformer, a lossy line and a current
    source, driven at "in" and loaded at "load"."""
    net = Netlist(f0=2e9)
    net.add("R1", Resistor(values["r_in"]), "in", "0")
    net.add("L1", Inductor(values["l"], q=values["q_l"]), "in", "a")
    net.add("C1", Capacitor(values["c"], q=values["q_c"]), "a", "0")
    net.add("I1", CurrentSource(values["amps"]), "a", "0")
    net.add("K1", CoupledInductors(values["l_p"], values["n"], values["k"], q=values["q_l"]),
            "a", "0", "b", "0")
    net.add("X1", IdealTransformer(values["n_x"]), "b", "0", "c", "0")
    net.add("T1", TransmissionLine(values["z0"], values["theta"], 2e9, values["loss"]), "c", "out")
    net.add("RL", Resistor(values["r_l"]), "out", "0")
    net.add_port("in", "in")
    net.add_port("load", "out")
    net.load_port = "load"
    return net


_every_kind_values = st.fixed_dictionaries(
    {
        "r_in": st.floats(10.0, 200.0),
        "l": st.floats(1e-9, 1e-8),
        "c": st.floats(1e-13, 1e-11),
        "q_l": st.floats(5.0, 100.0),
        "q_c": st.floats(5.0, 100.0),
        "amps": _current,
        "l_p": st.floats(1e-9, 1e-8),
        "n": st.floats(0.5, 2.0),
        "k": st.floats(0.3, 0.95),
        "n_x": st.floats(0.5, 2.0),
        "z0": st.floats(20.0, 100.0),
        "theta": st.floats(10.0, 170.0),
        "loss": st.floats(0.0, 0.5),
        "r_l": st.floats(10.0, 200.0),
    }
)


@pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@settings(max_examples=4, deadline=None)
@given(values=_every_kind_values, columns=st.lists(_current, min_size=1, max_size=3))
def test_frequency_sweep_matches_per_frequency_solves(length, values, columns):
    """A frequency sweep agrees within 1e-12 with a solve at each
    frequency: the K-column single-point entry for the port voltages and
    powers, and ``solve`` for each column's node voltages, branch
    currents and element powers."""
    net = _every_kind_net(values)
    names = [e.name for e in net.elements]
    freqs = np.linspace(1e9, 3e9, length)
    drives = {"in": np.array(columns, dtype=complex)}
    sweep = solve_columns(net, freqs, drives)
    n = assemble(net, freqs[0]).size
    assert sweep.x.shape == (n + 1, length, len(columns)) and sweep.freq.shape == (length,)
    assert np.all(sweep.x[-1] == 0)  # the ground row
    assert sweep.backward_error.shape == (length, len(columns))
    assert np.all(sweep.backward_error <= 1e-14)  # 1.6e-15 at worst in 300 draws
    assert set(sweep.branch_currents) == set(names)
    nodes = sorted(sweep.node_voltages)
    for i, f in enumerate(freqs):
        point = solve_columns(net, float(f), drives)
        for port in net.ports:
            _close(sweep.port_voltages[port][i], point.port_voltages[port])
        # powers relative to the apparent power the port and the source deliver
        v_in, v_a = point.port_voltages["in"], point.x[net.validate().index("a")]
        apparent = 0.5 * (np.abs(v_in * drives["in"]) + np.abs(v_a * values["amps"]))
        _close(sweep.load_power[i], point.load_power, apparent.max())
        _close(sweep.injected_power[i], point.injected_power, apparent.max())
        for k, current in enumerate(columns):
            single = solve(net, float(f), {"in": current})
            _close([sweep.node_voltages[nd][i, k] for nd in nodes],
                   [single.node_voltages[nd][0] for nd in nodes])
            for name in names:
                _close([c[i, k] for c in sweep.branch_currents[name]],
                       [c[0] for c in single.branch_currents[name]])
            _close([sweep.element_power[e][i, k] for e in sorted(single.element_power)],
                   [single.element_power[e][0] for e in sorted(single.element_power)],
                   apparent[k])


def _every_kind_fixed_net() -> Netlist:
    return _every_kind_net({
        "r_in": 50.0, "l": 3e-9, "c": 1e-12, "q_l": 30.0, "q_c": 40.0, "amps": 0.2 - 0.1j,
        "l_p": 2e-9, "n": 1.3, "k": 0.7, "n_x": 0.8, "z0": 60.0, "theta": 70.0, "loss": 0.1,
        "r_l": 75.0})


@pytest.mark.parametrize("freq", [2e9, np.linspace(1e9, 3e9, CHUNK + 1)])
def test_fields_read_alike_in_any_order(freq, monkeypatch):
    """Every field reads bit for bit alike whichever is read first, and
    each element is read back at most once per result."""
    net = _every_kind_fixed_net()
    drives = {"in": np.array([1.0, 0.5j, 0.0])}
    calls = collections.Counter()
    for cls in {type(e.component) for e in net.elements}:
        def counting(self, *args, _read=cls.readback):
            calls[id(self)] += 1
            return _read(self, *args)
        monkeypatch.setattr(cls, "readback", counting)
    forward = _fields(solve_columns(net, freq, drives))
    assert set(calls) == {id(e.component) for e in net.elements}
    assert max(calls.values()) == 1
    calls.clear()
    backward = _fields(solve_columns(net, freq, drives), READ_BACK[::-1])
    assert max(calls.values()) == 1
    assert _bit_equal(forward, backward)


def test_result_reads_every_element():
    """A plain ``solve_columns`` result reads back the node voltages,
    branch currents and powers of every element, each column bit for bit
    as ``solve`` reads it alone."""
    net = _every_kind_fixed_net()
    columns = [1.0, 0.5j, -0.25]
    res = solve_columns(net, 2e9, {"in": np.array(columns)})
    assert res.node_voltages.keys() == {nd for e in net.elements for nd in e.nodes}
    assert res.branch_currents.keys() == {e.name for e in net.elements}
    assert res.element_power.keys() == {e.name for e in net.elements} - {"RL"}
    for k, current in enumerate(columns):
        single = solve(net, 2e9, {"in": current})
        assert _bit_equal(_column(res, k), _column(single, 0))


def _column(res: ColumnsResult, k: int) -> dict:
    """Column ``k`` of a one-point result's node voltages, branch currents
    and element powers."""
    return {"nodes": {nd: v[k] for nd, v in res.node_voltages.items()},
            "currents": {name: tuple(c[k] for c in cs) for name, cs in res.branch_currents.items()},
            "powers": {name: p[k] for name, p in res.element_power.items()}}


def _tank_net() -> Netlist:
    """A lossless 1 H, 1 F tank at node "a": its row and column of the
    matrix vanish exactly at 1/(2 pi) Hz, where w = 1 rad/s."""
    net = Netlist(f0=1.0)
    net.add("R1", Resistor(50.0), "in", "0")
    net.add("L1", Inductor(1.0), "a", "0")
    net.add("C1", Capacitor(1.0), "a", "0")
    net.add_port("in", "in")
    return net


def test_singular_frequency_raises_as_the_single_point_solve():
    net = _tank_net()
    f_res = 1.0 / (2.0 * math.pi)
    freqs = f_res * (1.0 + 1e-3 * np.arange(-300, 100))
    assert freqs[300] == f_res
    with pytest.raises(SingularSystemError) as single:
        solve(net, f_res, {"in": 1.0})
    assert single.value.node == "a"
    with pytest.raises(SingularSystemError) as sweep:
        solve_columns(net, freqs, {"in": np.array([1.0, 2.0j])})
    assert str(sweep.value) == str(single.value)
    assert (sweep.value.node, sweep.value.element) == (single.value.node, single.value.element)
    # every other frequency of the grid solves
    solve_columns(net, np.delete(freqs, 300), {"in": np.array([1.0, 2.0j])})


def _empty_second_winding_net():
    # a secondary across one node at a frequency where the winding
    # impedances underflow to 0: nothing constrains the second current
    net = Netlist(f0=1e-300)
    net.add("K1", CoupledInductors(1e-300, n=1.0, k=0.5), "a", "0", "b", "b")
    net.add("R1", Resistor(50.0), "a", "0")
    net.add("R2", Resistor(50.0), "b", "0")
    net.add_port("in", "a")
    return net


@pytest.mark.parametrize("make, freq, label, node, element", [
    (_unconstrained_current_net, 1e9, "I(X1)", None, "X1"),
    (_empty_second_winding_net, 1e-300, "I(K1:2)", None, "K1"),
    (_tank_net, 1.0 / (2.0 * math.pi), "V(a)", "a", None),
])
def test_singular_error_names_the_unconstrained_unknown(make, freq, label, node, element):
    with pytest.raises(SingularSystemError) as err:
        solve(make(), freq, {"in": 1.0})
    assert str(err.value) == f"singular system: no constraints for unknown {label}"
    assert (err.value.node, err.value.element) == (node, element)


def test_sweep_rejects_the_first_bad_frequency(two_line_net, proto_cfg, monkeypatch):
    """The first rejected frequency raises, as a loop of single-point
    solves would: here one that misses the relative test, ahead of a
    later one that misses the absolute test."""
    exact = np.linalg.solve
    calls = []

    def off_in_second_chunk(a, b):
        calls.append(None)
        x = exact(a, b)
        if len(calls) == CHUNK + 3:
            return x * (1.0 + 1e-8)
        return x * math.nan if len(calls) == CHUNK + 5 else x

    monkeypatch.setattr(np.linalg, "solve", off_in_second_chunk)
    freqs = proto_cfg.f0 * np.linspace(0.9, 1.1, CHUNK + 10)
    drive = {"main": np.array([1.0])}
    with pytest.raises(SingularSystemError, match="solution rejected") as sweep:
        solve_columns(two_line_net, freqs, drive)
    assert len(calls) == CHUNK + 10  # the chunk is solved, then checked

    monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact(a, b) * (1.0 + 1e-8))
    with pytest.raises(SingularSystemError) as single:
        solve_columns(two_line_net, float(freqs[CHUNK + 2]), drive)
    assert str(sweep.value) == str(single.value)


def test_one_lapack_call_per_frequency(tf_net, proto_cfg, monkeypatch):
    """Each frequency of a sweep is one np.linalg.solve on that
    frequency's (n, K) right-hand side, the unit the benchmark counts."""
    exact = np.linalg.solve
    shapes = []

    def counting(a, b):
        shapes.append((a.shape, b.shape))
        return exact(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    freqs = proto_cfg.f0 * np.linspace(0.8, 1.2, CHUNK + 1)
    n = assemble(tf_net, proto_cfg.f0).size
    for columns in (1, 3):
        shapes.clear()
        drive = np.arange(1.0, columns + 1.0)
        solve_columns(tf_net, freqs, {"main": drive, "aux": 1j * drive})
        assert shapes == [((n, n), (n, columns))] * len(freqs)


#: the fields a result reads back from its solutions when first used
READ_BACK = ("port_voltages", "node_voltages", "branch_currents", "element_power", "load_power",
             "injected_power", "port_injected_power")


def _fields(res: ColumnsResult, order=READ_BACK) -> dict:
    stored = [f.name for f in dataclasses.fields(res) if f.name not in ("system", "_readbacks")]
    return {name: getattr(res, name) for name in [*stored, *order]}


def _bit_equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_bit_equal, a, b))
    if a is None or b is None:
        return a is b
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


def test_sweep_results_do_not_depend_on_chunking(monkeypatch):
    """A 600-point, two-column sweep with an element of every kind reads
    every field bit for bit alike whether it is stamped and solved one
    point at a time, 7 at a time or ``CHUNK`` at a time."""
    net = every_kind_net()
    freqs = np.linspace(0.5e9, 1.5e9, 600)
    drives = {"in": np.array([0.5 + 0.2j, -1j])}
    whole = _fields(solve_columns(net, freqs, drives))
    assert whole["backward_error"].shape == (600, 2)
    for chunk in (1, 7):
        monkeypatch.setattr(mna, "CHUNK", chunk)
        assert _bit_equal(_fields(solve_columns(net, freqs, drives)), whole)


def every_kind_net() -> Netlist:
    """One element of every kind, a current source and a terminated load port."""
    net = Netlist(f0=1e9)
    net.add("L1", Inductor(2e-9, q=30.0), "a", "b")
    net.add("C1", Capacitor(1e-12, q=50.0), "b", "0")
    net.add("I1", CurrentSource(0.05 + 0.2j), "b", "0")
    net.add("X1", IdealTransformer(1.5), "b", "0", "c", "0")
    net.add("R1", Resistor(200.0), "c", "0")
    net.add("K1", CoupledInductors(3e-9, n=1.2, k=0.8, q=40.0), "c", "0", "d", "0")
    net.add("TL1", TransmissionLine(50.0, 60.0, 1e9, loss_db_per_quarter=0.1), "d", "out")
    net.add("RL", Resistor(50.0), "out", "0")
    net.add_port("in", "a")
    net.add_port("load", "out")
    net.load_port = "load"
    return net


def test_solve_reads_every_element_kind():
    net = every_kind_net()
    r = solve(net, 1.1e9, {"in": 0.5 + 0.2j})
    assert power_balance_residual(r) <= 1e-12
    assert set(r.node_voltages) == {"a", "b", "c", "d", "out", "0"}
    assert set(r.branch_currents) == {"L1", "C1", "I1", "X1", "R1", "K1", "TL1", "RL"}
    assert set(r.element_power) == {"L1", "C1", "I1", "X1", "R1", "K1", "TL1"}
    assert set(r.port_injected_power) == {"in", "source:I1"}
    columns = solve_columns(net, 1.1e9, {"in": [0.5 + 0.2j]})
    assert r.passive_efficiency()[0] == columns.passive_efficiency()[0]
    assert 0 < r.passive_efficiency()[0] < 1
    values = [*r.node_voltages.values(), *r.element_power.values(), r.load_power]
    values += [i for currents in r.branch_currents.values() for i in currents]
    assert {v.shape for v in values} == {(1,)}  # one column, as from solve_columns


def test_result_keeps_the_ports_and_load_it_was_solved_with(tf_net):
    drives = {"main": [1.0, 0.5j], "aux": [0.0, 1.0]}
    want = solve_columns(tf_net, tf_net.f0, drives)
    net = tf_net.copy()
    got = solve_columns(net, net.f0, drives)
    net.load_port = None  # changed after the solve, before any field is read
    net.ports["load"] = net.ports["main"]
    for name in ("port_voltages", "node_voltages", "branch_currents", "element_power",
                 "port_injected_power"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.keys() == theirs.keys(), name
        assert all(np.array_equal(mine[k], theirs[k]) for k in mine), name
    assert np.array_equal(got.load_power, want.load_power)
    assert np.array_equal(got.injected_power, want.injected_power)
    assert np.array_equal(got.passive_efficiency(), want.passive_efficiency())


def test_solve_keeps_ground_reached_only_through_a_line():
    net = Netlist(f0=1e9)
    net.add("TL1", TransmissionLine(50.0, 30.0, 1e9), "a", "b")
    net.add("R1", Resistor(75.0), "a", "b")
    net.add_port("in", "a")
    r = solve(net, 1e9, {"in": 1.0})
    assert set(r.node_voltages) == {"a", "b"}
    assert r.x[r.system.node_index["0"], 0] == 0  # the ground row
    assert r.port_voltages["in"][0] == r.node_voltages["a"][0]
    assert power_balance_residual(r) <= 1e-12
