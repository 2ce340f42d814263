"""Conduction-angle cell model: Fourier anchors and class behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dohertylab.cells import ActiveCellModel, IdealAuxCell, IdealMainCell, ideal_doherty_cells
from dohertylab.errors import InputError
from dohertylab.ideal import DohertyConfig, current_profile


def test_class_b_full_drive_fourier():
    cell = ActiveCellModel(math.pi, i_max=1.0, v_dc=1.0)
    i_dc, i_fund = cell.currents(1.0)
    assert i_fund.real == pytest.approx(0.5, rel=1e-12)
    assert i_dc == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_class_b_scales_linearly():
    cell = ActiveCellModel(math.pi, i_max=1.0, v_dc=1.0)
    i_dc, i_fund = cell.currents(0.5)
    assert i_fund.real == pytest.approx(0.25, rel=1e-12)
    assert i_dc == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_class_c_turn_on_threshold():
    cell = ActiveCellModel.class_c_turn_on(0.5, i_max=1.0, v_dc=1.0)
    assert cell.phi_rad == pytest.approx(2.0 * math.pi / 3.0)
    i_q, i_p1 = cell._iq_ip
    assert -i_q / i_p1 == pytest.approx(0.5)  # the drive at which conduction starts
    assert cell.currents(0.49) == (0.0, 0j)
    assert abs(cell.currents(0.5)[1]) < 1e-15  # boundary, conduction just opening
    i_dc, i_fund = cell.currents(0.75)
    assert i_fund.real > 0.0 and i_dc > 0.0


def test_class_c_peak_matches_i_max():
    # waveform peak I_q + I_p at v=1 equals i_max by construction
    cell = ActiveCellModel.class_c_turn_on(0.4, i_max=2.0, v_dc=1.0)
    i_q, i_p1 = cell._iq_ip
    assert i_q + i_p1 == pytest.approx(2.0)


def test_class_ab_conducts_fully_at_small_drive():
    cell = ActiveCellModel(phi_rad=1.2 * math.pi, i_max=1.0, v_dc=1.0)
    i_dc_small, i_fund_small = cell.currents(1e-3)
    i_q, i_p1 = cell._iq_ip
    assert i_q > 0.0  # a quiescent current: conducts at zero drive
    assert i_dc_small == pytest.approx(i_q)  # no clipping yet
    assert i_fund_small.real == pytest.approx(1e-3 * i_p1, rel=1e-9)


def trapezoid(y, x):
    """Trapezoid rule over the samples ``y`` at ``x``."""
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def test_fourier_against_numerical_integration():
    cell = ActiveCellModel(phi_rad=0.7 * math.pi, i_max=1.3, v_dc=1.0)
    i_q, i_p1 = cell._iq_ip
    for v in (0.6, 0.85, 1.0):
        theta = np.linspace(-math.pi, math.pi, 400001)
        wave = np.maximum(0.0, i_q + v * i_p1 * np.cos(theta))
        i_dc_num = trapezoid(wave, theta) / (2.0 * math.pi)
        i_fund_num = trapezoid(wave * np.cos(theta), theta) / math.pi
        i_dc, i_fund = cell.currents(v)
        assert i_dc == pytest.approx(i_dc_num, abs=1e-9)
        assert i_fund.real == pytest.approx(i_fund_num, abs=1e-9)


def test_fundamental_monotone_in_drive():
    cell = ActiveCellModel.class_c_turn_on(0.3, i_max=1.0, v_dc=1.0)
    grid = np.linspace(0.0, 1.0, 101)
    vals = [cell.currents(v)[1].real for v in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ideal_cells_follow_profile():
    cfg = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)
    main, aux = ideal_doherty_cells(cfg, v_dc=1.0)
    assert isinstance(main, IdealMainCell) and isinstance(aux, IdealAuxCell)
    for v in (0.3, 0.5, 0.8, 1.0):
        i_dc_m, i_m = main.currents(v)
        i_dc_a, i_a = aux.currents(v)
        i_main_norm = v * 2.0 / (1.0 + cfg.alpha)
        assert i_m.real == pytest.approx(i_main_norm * main.i_scale)
        assert i_a.real == pytest.approx(
            current_profile(cfg.alpha, i_main_norm) * aux.i_scale
        )
        assert i_dc_m == pytest.approx(2.0 / math.pi * i_m.real)
        assert i_dc_a == pytest.approx(2.0 / math.pi * i_a.real)


def test_cell_validation():
    with pytest.raises(ValueError):
        ActiveCellModel(phi_rad=0.0, i_max=1.0, v_dc=1.0)
    with pytest.raises(ValueError):
        ActiveCellModel.class_c_turn_on(1.0, 1.0, 1.0)
    cell = ActiveCellModel(math.pi, 1.0, 1.0)
    with pytest.raises(ValueError):
        cell.currents(1.2)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(InputError, match="i_max must be positive and finite"):
            ActiveCellModel(math.pi, bad, 1.0)
        with pytest.raises(InputError, match="v_dc must be positive and finite"):
            ActiveCellModel(math.pi, 1.0, bad)


def test_class_c_fundamental_steeper_than_linear():
    # normalized transconductance I_fund/v rises with drive after turn-on
    cell = ActiveCellModel.class_c_turn_on(0.5, i_max=1.0, v_dc=1.0)
    ratios = [cell.currents(v)[1].real / v for v in (0.55, 0.7, 0.85, 1.0)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


drive_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
i_maxes = st.floats(min_value=0.01, max_value=10.0)


def assert_array_form_is_per_point(cell, drives):
    """``currents`` on an array equals the per-point scalar calls bit for bit."""
    v = np.asarray(drives, dtype=float)
    i_dc, i_fund = cell.currents(v)
    points = [cell.currents(float(x)) for x in v]
    assert i_dc.shape == i_fund.shape == v.shape
    assert i_fund.dtype == complex
    assert i_dc.tobytes() == np.array([p[0] for p in points], dtype=float).tobytes()
    assert i_fund.tobytes() == np.array([p[1] for p in points], dtype=complex).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    phi=st.one_of(
        st.just(math.pi),  # class-B
        st.floats(min_value=math.pi, max_value=2.0 * math.pi, exclude_min=True),  # class-AB
        st.floats(min_value=0.05, max_value=math.pi, exclude_max=True),  # class-C
    ),
    i_max=i_maxes,
    drives=drive_lists,
)
def test_active_cell_array_matches_scalar_calls(phi, i_max, drives):
    cell = ActiveCellModel(phi, i_max, 1.0)
    # the turn-on boundary and both ends of the drive range
    assert_array_form_is_per_point(cell, drives + [0.0, max(0.0, math.cos(phi / 2.0)), 1.0])


@settings(max_examples=100, deadline=None)
@given(turn_on=st.floats(min_value=0.01, max_value=0.99), i_max=i_maxes, drives=drive_lists)
def test_class_c_turn_on_array_matches_scalar_calls(turn_on, i_max, drives):
    cell = ActiveCellModel.class_c_turn_on(turn_on, i_max, 1.0)
    assert_array_form_is_per_point(cell, drives + [0.0, turn_on, 1.0])


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(min_value=0.1, max_value=4.0), drives=drive_lists)
def test_ideal_cells_array_matches_scalar_calls(alpha, drives):
    cfg = DohertyConfig(alpha=alpha, r_opt=41.3, r_l=50.0, f0=37e9)
    for cell in ideal_doherty_cells(cfg, v_dc=1.0):
        assert_array_form_is_per_point(cell, drives + [0.0, 1.0 / (1.0 + alpha), 1.0])


def test_scalar_drive_gives_scalars():
    cfg = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)
    for cell in (ActiveCellModel(math.pi, 1.0, 1.0), *ideal_doherty_cells(cfg, v_dc=1.0)):
        i_dc, i_fund = cell.currents(0.7)
        assert np.ndim(i_dc) == np.ndim(i_fund) == 0
        assert isinstance(i_dc, float) and isinstance(i_fund, complex)


@pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
def test_out_of_range_array_element_rejected(bad):
    cell = ActiveCellModel.class_c_turn_on(0.5, 1.0, 1.0)
    with pytest.raises(InputError, match=f"drive {bad} outside"):
        cell.currents(np.array([0.2, bad, 0.9]))
