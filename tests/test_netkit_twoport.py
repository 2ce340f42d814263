"""Two-port cascades, conversions and the classic identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dohertylab.netkit import (
    Capacitor,
    CoupledInductors,
    IdealTransformer,
    Inductor,
    Resistor,
    TransmissionLine,
)
from twoport import Series, Shunt, input_impedance, two_port_matrix

F0 = 1e9
W0 = 2 * math.pi * F0


def lp_pi(z0):
    return [
        Shunt(Capacitor(1.0 / (W0 * z0))),
        Series(Inductor(z0 / W0)),
        Shunt(Capacitor(1.0 / (W0 * z0))),
    ]


def hp_pi(z0):
    return [
        Shunt(Inductor(z0 / W0)),
        Series(Capacitor(1.0 / (W0 * z0))),
        Shunt(Inductor(z0 / W0)),
    ]


def test_quarter_wave_abcd_textbook():
    m = two_port_matrix([TransmissionLine(50.0, 90.0, F0)], F0).m
    want = np.array([[0.0, 50j], [0.02j, 0.0]])
    assert np.abs(m - want).max() < 1e-12


def test_lp_pi_equals_quarter_wave_at_center():
    m_pi = two_port_matrix(lp_pi(50.0), F0).m
    m_line = two_port_matrix([TransmissionLine(50.0, 90.0, F0)], F0).m
    assert np.abs(m_pi - m_line).max() < 1e-12


def test_hp_pi_is_conjugate_quarter_wave():
    m = two_port_matrix(hp_pi(50.0), F0).m
    want = np.array([[0.0, -50j], [-0.02j, 0.0]])
    assert np.abs(m - want).max() < 1e-12
    # same matrix as a 270-degree line
    m_line = two_port_matrix([TransmissionLine(50.0, 270.0, F0)], F0).m
    assert np.abs(m - m_line).max() < 1e-9


def test_empty_chain_identity_with_warning():
    out = two_port_matrix([], F0)
    assert np.abs(out.m - np.eye(2)).max() == 0.0
    assert out.warnings


def test_reciprocity_determinant():
    chain = [
        Series(Inductor(2e-9, q=30)),
        Shunt(Capacitor(0.5e-12, q=60)),
        TransmissionLine(75.0, 40.0, F0, loss_db_per_quarter=0.2),
        CoupledInductors(1e-9, n=1.4, k=0.75, q=25),
        Shunt(Resistor(200.0)),
    ]
    out = two_port_matrix(chain, 1.3 * F0)
    assert abs(out.abcd_determinant() - 1.0) < 1e-9


def test_coupled_pair_matches_decomposition():
    ci = CoupledInductors(0.8e-9, n=1.3, k=0.7)
    direct = two_port_matrix([ci], 2.5 * F0).m
    decomp = two_port_matrix(
        [
            Series(Inductor(ci.l_leak)),
            Shunt(Inductor(ci.l_mag)),
            IdealTransformer(ci.ideal_ratio),
        ],
        2.5 * F0,
    ).m
    scale = np.abs(direct).max()
    assert np.abs(direct - decomp).max() / scale < 1e-12


def test_coupled_pair_matches_decomposition_with_loss():
    ci = CoupledInductors(0.8e-9, n=0.8, k=0.6, q=18.0)
    direct = two_port_matrix([ci], 1.7 * F0).m
    decomp = two_port_matrix(
        [
            Series(Inductor(ci.l_leak, q=18.0)),
            Shunt(Inductor(ci.l_mag, q=18.0)),
            IdealTransformer(ci.ideal_ratio),
        ],
        1.7 * F0,
    ).m
    scale = np.abs(direct).max()
    assert np.abs(direct - decomp).max() / scale < 1e-12


def test_conversions_mutually_inverse():
    chain = [Series(Inductor(1e-9)), Shunt(Capacitor(1e-12)), Series(Resistor(5.0))]
    abcd = two_port_matrix(chain, F0)
    back_z = abcd.to_z().to_abcd().m
    back_s = abcd.to_s(50.0).to_z().to_abcd().m
    assert np.abs(back_z - abcd.m).max() < 1e-9
    assert np.abs(back_s - abcd.m).max() < 1e-9


def test_s_of_matched_line():
    s = two_port_matrix([TransmissionLine(50.0, 90.0, F0)], F0, "s", z_ref=50.0).m
    assert abs(s[0, 0]) < 1e-12
    assert s[1, 0] == pytest.approx(-1j, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(min_value=1.0, max_value=500.0),
    im=st.floats(min_value=-200.0, max_value=200.0),
)
def test_quarter_wave_inversion_property(re, im):
    """Z_in * Z_L = Z0^2 for a lossless quarter-wave line, any load."""
    z_load = complex(re, im)
    abcd = two_port_matrix([TransmissionLine(50.0, 90.0, F0)], F0)
    z_in = input_impedance(abcd, z_load)
    assert abs(z_in * z_load - 2500.0) / 2500.0 < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    z0=st.floats(min_value=5.0, max_value=200.0),
    theta=st.floats(min_value=5.0, max_value=355.0),
)
def test_line_determinant_property(z0, theta):
    out = two_port_matrix([TransmissionLine(z0, theta, F0)], F0)
    assert abs(out.abcd_determinant() - 1.0) < 1e-9


def test_z_conversion_of_pure_series_is_singular():
    with pytest.raises(ValueError):
        two_port_matrix([Series(Resistor(10.0))], F0, "z")


def test_unknown_representation_rejected():
    from twoport import TwoPortMatrix

    with pytest.raises(ValueError):
        two_port_matrix([Series(Resistor(10.0))], F0, "h")
    with pytest.raises(ValueError):
        TwoPortMatrix("t", np.eye(2))


def test_s_reference_must_be_positive():
    abcd = two_port_matrix([Series(Resistor(10.0))], F0)
    with pytest.raises(ValueError):
        abcd.to_s(-5.0)
    with pytest.raises(ValueError):
        two_port_matrix([Series(Resistor(10.0))], F0, "s", z_ref=0.0)


def test_nonpositive_frequency_rejected_in_chain():
    with pytest.raises(ValueError):
        two_port_matrix([Series(Resistor(10.0))], -1.0)
