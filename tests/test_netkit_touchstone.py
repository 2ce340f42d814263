"""Touchstone writer/parser and MNA S-parameter extraction."""

import math

import numpy as np
import pytest

from dohertylab.errors import InputError
from dohertylab.netkit import (
    CurrentSource,
    Netlist,
    Resistor,
    TransmissionLine,
    read_touchstone,
    s_parameters,
    write_touchstone,
)


def through_line(f0=1e9):
    net = Netlist(f0=f0)
    net.add("TL", TransmissionLine(50.0, 90.0, f0), "a", "b")
    net.add_port("p1", "a")
    net.add_port("p2", "b")
    return net


def test_matched_through_line():
    net = through_line()
    freqs = np.linspace(0.5e9, 1.5e9, 11)
    s = s_parameters(net, ["p1", "p2"], freqs, 50.0)
    assert np.abs(s[:, 0, 0]).max() < 1e-12
    assert np.abs(np.abs(s[:, 1, 0]) - 1.0).max() < 1e-12
    # transfer phase at center is -90 degrees
    assert s[5, 1, 0] == pytest.approx(-1j, abs=1e-12)


def test_one_port_matched_termination():
    net = Netlist(f0=1e9)
    net.add("R1", Resistor(50.0), "a", "0")
    net.add_port("p1", "a")
    s = s_parameters(net, ["p1"], [1e9], 50.0)
    assert abs(s[0, 0, 0]) < 1e-12


@pytest.mark.parametrize("nepers", [700.5, 702.0, 705.0])
def test_line_lossy_near_float_range_looks_like_its_z0(nepers):
    # a line this lossy hides its 100 ohm load: the port sees z0 = 60 ohm;
    # 60 sinh(alpha l) stays below float range up to about 706 Np
    f0 = 1e9
    loss_db = nepers * 20.0 / math.log(10.0)
    net = Netlist(f0=f0)
    net.add("TL", TransmissionLine(60.0, 90.0, f0, loss_db_per_quarter=loss_db), "a", "b")
    net.add("RL", Resistor(100.0), "b", "0")
    net.add_port("p1", "a")
    s11 = s_parameters(net, ["p1"], [f0], 50.0)[0, 0, 0]
    assert abs(s11 - (60.0 - 50.0) / (60.0 + 50.0)) < 1e-12


def test_reciprocity_of_source_free_network(tf_design):
    from dohertylab import to_netlist

    net = to_netlist(tf_design, include_load=False)
    freqs = np.linspace(0.8 * net.f0, 1.2 * net.f0, 5)
    s = s_parameters(net, ["main", "aux", "load"], freqs, 50.0)
    assert np.abs(s - np.transpose(s, (0, 2, 1))).max() < 1e-9


def test_round_trip_two_port():
    net = through_line()
    freqs = np.linspace(0.5e9, 1.5e9, 7)
    s = s_parameters(net, ["p1", "p2"], freqs, 50.0)
    text = write_touchstone(freqs, s, 50.0)
    assert text.splitlines()[1].startswith("# GHz S RI R 50")
    back = read_touchstone(text)
    assert back.z_ref == 50.0
    assert np.abs(back.freqs_hz - freqs).max() < 1e-3
    assert np.abs(back.s - s).max() < 1e-9


def test_round_trip_three_port_byte_stable(tf_net, tf_design):
    from dohertylab import to_netlist

    net = to_netlist(tf_design, include_load=False)
    freqs = np.linspace(0.6 * net.f0, 1.4 * net.f0, 21)
    s = s_parameters(net, ["main", "aux", "load"], freqs, 50.0)
    text = write_touchstone(freqs, s, 50.0)
    back = read_touchstone(text)
    assert np.abs(back.s - s).max() < 1e-9
    # re-rendering the parsed data reproduces the file byte for byte
    assert write_touchstone(back.freqs_hz, back.s, back.z_ref) == text


def test_two_port_record_order_is_standard():
    # S11 S21 S12 S22 on each record line
    freqs = [1e9]
    s = np.array([[[0.1 + 0.2j, 0.3 + 0.4j], [0.5 + 0.6j, 0.7 + 0.8j]]])
    line = write_touchstone(freqs, s, 50.0).splitlines()[2].split()
    vals = [float(v) for v in line[1:]]
    assert vals == [0.1, 0.2, 0.5, 0.6, 0.3, 0.4, 0.7, 0.8]


def test_write_rejects_frequency_count_mismatch():
    s = np.zeros((3, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="frequencies"):
        write_touchstone([1e9, 2e9], s, 50.0)  # used to write a truncated file
    with pytest.raises(ValueError, match="frequencies"):
        write_touchstone([1e9, 2e9, 3e9, 4e9], s, 50.0)
    for bad in (0.5, np.zeros((2, 2)), np.zeros((1, 2, 3))):  # not (f, n, n)
        with pytest.raises(InputError, match="shape"):
            write_touchstone([1e9], bad, 50.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_extreme_values(n):
    # signed zero, subnormals and exponents near both ends of the range
    extremes = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300,
                -3.5e299, 1.7976931348623e308, 1.0, -123.456]
    rng = np.random.default_rng(n)
    freqs = np.array([1e3, 2.5e9, 3.7e10, 1e12, 9.99e14])
    parts = rng.choice(extremes, size=(len(freqs), n, n, 2))
    s = np.empty((len(freqs), n, n), dtype=complex)
    s.real, s.imag = parts[..., 0], parts[..., 1]  # keeps the sign of zeros
    text = write_touchstone(freqs, s, 50.0)
    per_line = 1 if n <= 2 else n * n // 4 + (n * n % 4 > 0)
    assert len(text.splitlines()) == 2 + per_line * len(freqs)
    back = read_touchstone(text)
    # every value comes back as the Python parse of its 13-digit token
    tokens = np.vectorize(lambda x: float(f"{x:.12e}"))
    assert back.s.real.tobytes() == tokens(s.real).tobytes()
    assert back.s.imag.tobytes() == tokens(s.imag).tobytes()
    assert back.freqs_hz.tobytes() == (tokens(freqs / 1e9) * 1e9).tobytes()
    assert write_touchstone(back.freqs_hz, back.s, 50.0) == text


def row_per_line(text, n):
    """The same Touchstone data laid out with one matrix row per line."""
    lines = text.splitlines()
    values = " ".join(lines[2:]).split()
    rec = 1 + 2 * n * n
    out = lines[:2]
    for k in range(0, len(values), rec):
        entries = values[k + 1 : k + rec]
        rows = [" ".join(entries[2 * n * i : 2 * n * (i + 1)]) for i in range(n)]
        out += [f"{values[k]} {rows[0]}"] + rows[1:]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("n_freq", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_every_port_count(n, n_freq):
    # S entries that increase like frequencies do, so no token count can tell n
    freqs = np.array([1e6, 5e8, 6e8])[:n_freq]
    parts = np.linspace(0.01, 0.99, n_freq * n * n * 2).reshape(n_freq, n, n, 2)
    s = parts[..., 0] + 1j * parts[..., 1]
    text = write_touchstone(freqs, s, 50.0)
    for layout in (text, row_per_line(text, n)):
        back = read_touchstone(layout)
        assert back.s.shape == (n_freq, n, n)
        assert np.abs(back.freqs_hz - freqs).max() < 1e-6
        assert np.abs(back.s - s).max() < 1e-12
        assert write_touchstone(back.freqs_hz, back.s, 50.0) == text


def test_nine_values_read_by_their_lines():
    s = np.array([[[0.1 + 0.2j, 0.5 + 0.6j], [0.5 + 0.7j, 0.3 + 0.4j]]])
    text = write_touchstone([1e6], s, 50.0)
    values = text.splitlines()[2].split()
    assert len(values) == 9
    one_record = read_touchstone(text)
    assert one_record.s.shape == (1, 2, 2)
    assert np.abs(one_record.s - s).max() < 1e-15
    # the same nine values on three lines are three 1-port records
    three = read_touchstone("# GHz S RI R 50\n" + "\n".join(
        " ".join(values[k : k + 3]) for k in (0, 3, 6)) + "\n")
    assert three.s.shape == (3, 1, 1)
    assert np.allclose(three.freqs_hz, [1e6, 5e8, 6e8], rtol=1e-12)
    assert np.allclose(three.s[:, 0, 0], [0.1 + 0.2j, 0.7 + 0.5j, 0.3 + 0.4j], rtol=1e-12)


@pytest.mark.parametrize(
    "body",
    ["1.0 0.1 0.2 0.3 0.4\n",  # 5 values: no port count
     "0.1 0.2\n1.0 0.1 0.2\n",  # a continuation line before any record
     "1.0 0.1 0.2\n2.0 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n",  # records of two sizes
     "2.0 0.1 0.2\n1.0 0.1 0.2\n",  # frequencies out of order
     "1.0 x 0.2\n",  # a value that is not a number
     "# GHz S RI R abc\n1.0 0.1 0.2\n"],  # a reference impedance that is not one
)
def test_malformed_records_rejected(body):
    with pytest.raises(InputError):
        read_touchstone("# GHz S RI R 50\n" + body)


def test_non_numeric_token_named():
    with pytest.raises(InputError, match="'x'"):
        read_touchstone("# GHz S RI R 50\n1.0 x 0.2\n")
    with pytest.raises(InputError, match="'abc'"):
        read_touchstone("# GHz S RI R abc\n1.0 0.1 0.2\n")


@pytest.mark.parametrize(
    "text, named",
    [("# GHz S RI R nan\n1.0 0.1 0.2\n", "nan"),
     ("# GHz S RI R -50\n1.0 0.1 0.2\n", "-50"),
     ("# GHz S RI R 0\n1.0 0.1 0.2\n", "got 0"),
     ("# GHz S RI R 50\nnan 0.5 inf\n", "'nan'"),
     ("# GHz S RI R 50\n1.0 0.1 0.2\n2.0 nan 0.2\n", "'nan'")],
    ids=["z_ref-nan", "z_ref-negative", "z_ref-zero", "record-nan-inf", "second-record-nan"],
)
def test_non_finite_numbers_rejected(text, named):
    with pytest.raises(InputError, match=named):
        read_touchstone(text)


@pytest.mark.parametrize("z_ref, s", [(math.nan, 0.1), (-50.0, 0.1), (0.0, 0.1), (50.0, math.inf)])
def test_writer_rejects_non_finite_numbers(z_ref, s):
    with pytest.raises(InputError):
        write_touchstone([1e9], np.full((1, 1, 1), s, dtype=complex), z_ref)


def test_read_rejects_non_positive_frequencies():
    with pytest.raises(InputError, match="touchstone frequency -1000000000.0 outside"):
        read_touchstone("# GHz S RI R 50\n-1 0.1 0.2\n0 0.1 0.2\n")
    with pytest.raises(InputError, match="touchstone frequency 0.0 outside"):
        read_touchstone("# Hz S RI R 50\n0 0.1 0.2\n1 0.1 0.2\n")


def test_write_rejects_non_positive_frequencies():
    with pytest.raises(InputError, match="touchstone frequency -1000000000.0 outside"):
        write_touchstone([-1e9, 0.0], np.zeros((2, 1, 1)), 50.0)
    with pytest.raises(InputError, match="touchstone frequency 0.0 outside"):
        write_touchstone([0.0, 1e9], np.zeros((2, 1, 1)), 50.0)


def test_case_insensitive_option_line():
    text = "# ghz s ri r 75\n1.0 0.0 0.0\n"
    data = read_touchstone(text)
    assert data.z_ref == 75.0
    assert data.freqs_hz[0] == pytest.approx(1e9)


def test_unsupported_port_count():
    with pytest.raises(ValueError):
        write_touchstone([1e9], np.zeros((1, 5, 5), dtype=complex), 50.0)
    net = through_line()
    with pytest.raises(ValueError):
        s_parameters(net, [], [1e9], 50.0)


def test_unknown_port_rejected():
    net = through_line()
    with pytest.raises(ValueError):
        s_parameters(net, ["nope"], [1e9], 50.0)


@pytest.mark.parametrize(
    "freqs, z_ref",
    [([], 50.0), ([[1e9]], 50.0), ([1e9, math.inf], 50.0), ([math.nan], 50.0),
     ([1e9], math.nan), ([1e9], math.inf), ([1e9], 0.0)],
)
def test_bad_sweep_input_rejected(freqs, z_ref):
    with pytest.raises(ValueError):
        s_parameters(through_line(), ["p1", "p2"], freqs, z_ref)


def test_magnitude_angle_format_rejected():
    with pytest.raises(ValueError):
        read_touchstone("# GHz S MA R 50\n1.0 1.0 0.0\n")


def test_export_touchstone_composition(tf_design):
    # the CLI's export: s_parameters over the grid, then write_touchstone
    from dohertylab import to_netlist

    net = to_netlist(tf_design, include_load=False)
    freqs = np.linspace(0.8 * net.f0, 1.2 * net.f0, 5)
    s = s_parameters(net, ["main", "aux", "load"], freqs, 50.0)
    back = read_touchstone(write_touchstone(freqs, s, 50.0))
    assert np.allclose(back.freqs_hz, freqs, rtol=1e-12, atol=0.0)
    assert np.abs(back.s - s).max() < 1e-12


@pytest.mark.parametrize(
    "freqs, message",
    [([2e9, 1e9], "frequency grid must be strictly increasing"),
     ([1e9, 1e9], "frequency grid must be strictly increasing"),
     ([999999999.9999999, 1e9], "frequency grid steps below Touchstone's 13 digits")],
    ids=["reversed", "repeated", "13-digit-collision"],
)
def test_write_refuses_a_grid_that_would_not_read_back(freqs, message):
    with pytest.raises(InputError, match=message):
        write_touchstone(freqs, np.zeros((2, 1, 1)), 50.0)


def resistor_pi(source: bool) -> Netlist:
    """50 ohm from port p1's node to ground, 25 ohm on to p2's node and 100
    ohm from there to ground; with ``source``, a 1 A current source into
    p1's node as well."""
    net = Netlist(f0=1e9)
    net.add("R1", Resistor(50.0), "a", "0")
    net.add("R2", Resistor(25.0), "a", "b")
    net.add("R3", Resistor(100.0), "b", "0")
    if source:
        net.add("I1", CurrentSource(1.0), "a", "0")
    net.add_port("p1", "a")
    net.add_port("p2", "b")
    return net


def test_current_source_is_open_in_s_parameters():
    # S is the response to the port drives alone: S11 -0.3, S21 = S12 0.4,
    # S22 -0.2 with the source or without it (a source once folded into
    # every column gave 0.4, 0.8, 1.1 and 0.2)
    freqs = [0.5e9, 1e9, 2e9]
    s = s_parameters(resistor_pi(source=True), ["p1", "p2"], freqs, 50.0)
    want = s_parameters(resistor_pi(source=False), ["p1", "p2"], freqs, 50.0)
    assert np.abs(s - want).max() <= 1e-12
    assert np.abs(want - [[-0.3, 0.4], [0.4, -0.2]]).max() <= 1e-12
    assert np.abs(s - np.transpose(s, (0, 2, 1))).max() <= 1e-12


def test_reciprocity_holds_with_loss():
    # mixed lossy network: coupled pair, finite-Q elements, lossy line
    from dohertylab.netkit import Capacitor, CoupledInductors, Inductor

    net = Netlist(f0=5e9)
    net.add("L1", Inductor(1.2e-9, q=15.0), "a", "m")
    net.add("T1", CoupledInductors(0.9e-9, n=1.3, k=0.72, q=22.0), "m", "0", "w", "0")
    net.add("C1", Capacitor(0.3e-12, q=45.0), "w", "b")
    net.add("TL", TransmissionLine(65.0, 70.0, 5e9, loss_db_per_quarter=0.4), "b", "c")
    net.add_port("p1", "a")
    net.add_port("p2", "c")
    freqs = np.linspace(3e9, 7e9, 7)
    s = s_parameters(net, ["p1", "p2"], freqs, 50.0)
    assert np.abs(s - np.transpose(s, (0, 2, 1))).max() < 1e-9


def test_empty_touchstone_rejected():
    with pytest.raises(ValueError):
        read_touchstone("# GHz S RI R 50\n")


def _s_per_frequency(net, ports, freqs, z_ref):
    """Reference: one assembly and one solve per frequency, the S-matrix
    built entry by entry."""
    from dohertylab.netkit import assemble

    terminated = net.copy()
    for p in ports:
        terminated.add(f"__sterm_{p}", Resistor(z_ref), *terminated.ports[p])
    n = len(ports)
    out = np.empty((len(freqs), n, n), dtype=complex)
    for fi, f in enumerate(freqs):
        system = assemble(terminated, float(f))
        rhs = system.rhs({p: np.eye(n)[k] for k, p in enumerate(ports)}, n)
        x = np.linalg.solve(system.matrix, rhs)
        x = np.vstack([x, np.zeros((1, n))])
        for j, pj in enumerate(ports):
            plus, minus = terminated.ports[pj]
            vj = x[system.node_index[plus]] - x[system.node_index[minus]]
            for k in range(n):
                out[fi, j, k] = 2.0 * vj[k] / z_ref - (1.0 if j == k else 0.0)
    return out


@pytest.mark.parametrize("q", [math.inf, 20.0])
def test_sweep_s_matrix_bit_equal_to_per_frequency(tf_design, q):
    from dohertylab import to_netlist
    from dohertylab.netkit.mna import CHUNK

    net = to_netlist(tf_design, q_l=q, q_c=q, include_load=False)
    ports = ["main", "aux", "load"]
    freqs = np.linspace(0.6 * net.f0, 1.4 * net.f0, CHUNK + 5)
    s = s_parameters(net, ports, freqs, 50.0)
    assert np.array_equal(s, _s_per_frequency(net, ports, freqs, 50.0))


def test_one_lapack_call_per_frequency(tf_design, monkeypatch):
    from dohertylab import to_netlist

    net = to_netlist(tf_design, include_load=False)
    exact = np.linalg.solve
    columns = []

    def counting(a, b):
        columns.append(b.shape[1])
        return exact(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    freqs = np.linspace(0.6 * net.f0, 1.4 * net.f0, 300)
    s_parameters(net, ["main", "aux", "load"], freqs, 50.0)
    assert columns == [3] * len(freqs)
