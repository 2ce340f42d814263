"""Closed-form current split, back-off, ITR and efficiency math."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dohertylab import (
    DohertyConfig,
    current_profile,
    ideal_efficiency,
    itr_conv,
    itr_intro,
    pbo_level,
    zero_itr_alpha,
)
from dohertylab.errors import InputError

alphas = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)


def test_config_validation_and_targets():
    cfg = DohertyConfig(alpha=2.0, r_opt=40.0, r_l=50.0, f0=1e9)
    assert cfg.z_main_peak == pytest.approx(60.0)
    assert cfg.z_aux_peak == pytest.approx(30.0)
    assert cfg.i_main_max == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        DohertyConfig(alpha=0.0, r_opt=40.0, r_l=50.0, f0=1e9)


@pytest.mark.parametrize("field", ["alpha", "r_opt", "r_l", "f0"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_config_rejects_non_finite_and_non_positive(field, bad):
    values = {"alpha": 1.0, "r_opt": 50.0, "r_l": 50.0, "f0": 37e9, field: bad}
    # r_opt = inf used to construct and give an all-inf itr_intro column
    with pytest.raises(ValueError, match=field):
        DohertyConfig(**values)


def _ulps(a, b) -> np.ndarray:
    bits = [np.asarray(x, dtype=float).view(np.int64) for x in (a, b)]
    return np.abs(bits[0] - bits[1])


# normal floats only: below about 1e-308 the back-off 2/((1+alpha)*i_main)
# overflows to inf, which numpy reports as a RuntimeWarning
fractions = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False), min_size=1, max_size=12
)


@settings(max_examples=300, deadline=None)
@given(alpha=alphas, fractions=fractions)
def test_closed_forms_on_arrays_match_scalar_calls(alpha, fractions):
    top = 2.0 / (1.0 + alpha)
    # include the auxiliary turn-on point, the junction of the two branches
    i_main = np.array([f * top for f in fractions] + [2.0 / (1.0 + alpha) ** 2, top])
    aux = current_profile(alpha, i_main)
    assert aux.shape == i_main.shape
    assert aux.tobytes() == np.array([current_profile(alpha, float(i)) for i in i_main]).tobytes()
    positive = i_main[i_main > 0]
    pbo = pbo_level(alpha, positive)
    assert pbo.shape == positive.shape
    assert _ulps(pbo, [pbo_level(alpha, float(i)) for i in positive]).max() <= 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "name,call",
    [
        ("alpha", lambda x: current_profile(x, [0.5])),
        ("alpha", lambda x: pbo_level(x, [0.5])),
        ("alpha", lambda x: itr_conv(x, [0.5])),
        ("r_opt", lambda x: itr_intro(1.0, [0.5], x, 50.0)),
        ("r_l", lambda x: itr_intro(1.0, [0.5], 41.3, x)),
        ("r_opt", lambda x: zero_itr_alpha(x, 50.0)),
        ("r_l", lambda x: zero_itr_alpha(41.3, x)),
    ],
    ids=["current_profile", "pbo_level", "itr_conv", "itr_intro-r_opt", "itr_intro-r_l",
         "zero_itr_alpha-r_opt", "zero_itr_alpha-r_l"],
)
def test_closed_forms_refuse_non_finite_and_non_positive_arguments(name, call, bad):
    with pytest.raises(InputError, match=f"{name} must be positive and finite"):
        call(bad)


def test_closed_forms_reject_out_of_range_array_element():
    with pytest.raises(ValueError, match="outside"):
        current_profile(1.0, np.array([0.2, 1.5, 0.9]))
    with pytest.raises(ValueError, match="outside"):
        current_profile(1.0, np.array([0.2, -0.1]))
    with pytest.raises(InputError, match="i_main 0.0 outside"):
        pbo_level(1.0, np.array([0.5, 0.0, 1.0]))


def _aux_on_grid(alpha, fractions) -> list[float]:
    lo, hi = 2.0 / (1.0 + alpha) ** 2, 2.0 / (1.0 + alpha)
    return [lo + f * (hi - lo) for f in fractions] + [lo, hi]


@settings(max_examples=300, deadline=None)
@given(alpha=alphas, fractions=fractions, r_opt=st.floats(min_value=10.0, max_value=200.0))
def test_itr_closed_forms_on_arrays_match_scalar_calls(alpha, fractions, r_opt):
    i_main = np.array(_aux_on_grid(alpha, fractions))
    conv = itr_conv(alpha, i_main)
    intro = itr_intro(alpha, i_main, r_opt, 50.0)
    assert conv.shape == intro.shape == i_main.shape
    assert conv.tobytes() == np.array([itr_conv(alpha, float(i)) for i in i_main]).tobytes()
    scalar = [itr_intro(alpha, float(i), r_opt, 50.0) for i in i_main]
    assert intro.tobytes() == np.array(scalar).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    alpha=alphas,
    fractions=fractions,
    where=st.integers(min_value=0, max_value=20),
    bad=st.sampled_from(["below", "above", "nan"]),
)
def test_itr_closed_forms_reject_out_of_range_array_element(alpha, fractions, where, bad):
    i_main = _aux_on_grid(alpha, fractions)
    lo, hi = i_main[-2:]
    value = {"below": lo * (1.0 - 1e-9), "above": hi * (1.0 + 1e-9), "nan": math.nan}[bad]
    i_main.insert(where % (len(i_main) + 1), value)
    with pytest.raises(ValueError, match=f"i_main {value} outside"):
        itr_conv(alpha, np.array(i_main))
    with pytest.raises(ValueError, match=f"i_main {value} outside"):
        itr_intro(alpha, np.array(i_main), 41.3, 50.0)


def test_current_profile_anchors():
    assert current_profile(1.0, 1.0) == pytest.approx(1.0)
    assert current_profile(1.0, 0.25) == 0.0
    assert current_profile(2.0, 2.0 / 3.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        current_profile(1.0, 1.5)


@settings(max_examples=1000, deadline=None)
@given(alpha=alphas)
def test_current_profile_continuous_at_turn_on(alpha):
    t = 2.0 / (1.0 + alpha) ** 2
    eps = 1e-9 * t
    below = current_profile(alpha, t - eps)
    above = current_profile(alpha, t + eps)
    assert below == 0.0
    assert abs(above - below) < 1e-6


@settings(max_examples=300, deadline=None)
@given(alpha=alphas)
def test_peak_current_sum_independent_of_alpha(alpha):
    i_max = 2.0 / (1.0 + alpha)
    assert i_max + current_profile(alpha, i_max) == pytest.approx(2.0, abs=1e-12)


def test_pbo_anchors():
    assert pbo_level(1.0, 1.0) == 0.0
    assert pbo_level(1.0, 0.5) == pytest.approx(6.02, abs=0.005)
    assert pbo_level(1.0, 0.583) == pytest.approx(4.69, abs=0.005)
    with pytest.raises(ValueError):
        pbo_level(1.0, 0.0)


def test_itr_conv_anchors():
    assert itr_conv(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert itr_conv(1.0, 0.5) == pytest.approx(4.0, abs=1e-12)
    for alpha in (0.5, 1.0, 2.0):
        second_peak = 2.0 / (1.0 + alpha) ** 2
        assert itr_conv(alpha, second_peak) == pytest.approx(
            (1.0 + alpha) ** 2, rel=1e-12
        )
    with pytest.raises(ValueError):
        itr_conv(1.0, 0.4)  # auxiliary off


@settings(max_examples=200, deadline=None)
@given(alpha=alphas)
def test_itr_conv_monotone_decreasing_in_i_main(alpha):
    lo = 2.0 / (1.0 + alpha) ** 2
    hi = 2.0 / (1.0 + alpha)
    grid = np.linspace(lo * (1 + 1e-9), hi, 20)
    vals = [itr_conv(alpha, i) for i in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_itr_intro_prototype_anchors():
    assert itr_intro(1.0, 1.0, 41.3, 50.0) == pytest.approx(2.42, abs=0.005)
    assert itr_intro(1.0, 0.583, 41.3, 50.0) == pytest.approx(1.00, abs=0.005)
    assert itr_intro(1.0, 0.5, 41.3, 50.0) == pytest.approx(1.65, abs=0.005)


def test_itr_intro_unity_crossing_location():
    # the ratio-1 crossing sits between i_main 0.58 and 0.59
    lo = itr_intro(1.0, 0.58, 41.3, 50.0)
    hi = itr_intro(1.0, 0.59, 41.3, 50.0)
    beta = lambda i: 41.3 / 100.0 * itr_conv(1.0, i)  # noqa: E731
    assert (beta(0.58) - 1.0) * (beta(0.59) - 1.0) < 0
    assert lo >= 1.0 and hi >= 1.0


@settings(max_examples=300, deadline=None)
@given(
    alpha=alphas,
    frac=st.floats(min_value=1e-6, max_value=1.0),
    r_opt=st.floats(min_value=5.0, max_value=200.0),
    r_l=st.floats(min_value=10.0, max_value=100.0),
)
def test_itr_intro_factorization(alpha, frac, r_opt, r_l):
    lo = 2.0 / (1.0 + alpha) ** 2
    hi = 2.0 / (1.0 + alpha)
    i_main = lo + frac * (hi - lo)
    beta = r_opt / (2.0 * r_l) * itr_conv(alpha, i_main)
    assert itr_intro(alpha, i_main, r_opt, r_l) == pytest.approx(
        max(beta, 1.0 / beta), rel=1e-12
    )
    assert itr_intro(alpha, i_main, r_opt, r_l) >= 1.0


def test_zero_itr_alpha_anchors():
    assert zero_itr_alpha(25.0, 50.0).alpha == pytest.approx(1.0)
    res = zero_itr_alpha(12.5, 50.0)
    assert res.alpha == pytest.approx(math.sqrt(8.0) - 1.0)
    assert res.aux_stronger
    res = zero_itr_alpha(41.3, 50.0)
    assert res.alpha == pytest.approx(0.556, abs=0.001)
    assert not res.aux_stronger
    assert zero_itr_alpha(120.0, 50.0) is None


@settings(max_examples=200, deadline=None)
@given(
    r_opt=st.floats(min_value=1.0, max_value=99.0),
    r_l=st.floats(min_value=50.0, max_value=500.0),
)
def test_zero_itr_alpha_yields_unity_ratio(r_opt, r_l):
    res = zero_itr_alpha(r_opt, r_l)
    if res is None:
        return
    second_peak = 2.0 / (1.0 + res.alpha) ** 2
    beta = r_opt / (2.0 * r_l) * itr_conv(res.alpha, second_peak)
    assert abs(beta - 1.0) < 1e-12


def test_ideal_efficiency_anchors():
    assert ideal_efficiency("class-b", 0.0) == pytest.approx(math.pi / 4.0)
    assert ideal_efficiency("class-a", 20.0 * math.log10(2.0)) == pytest.approx(0.125)
    assert ideal_efficiency("doherty", 20.0 * math.log10(2.0), alpha=1.0) == pytest.approx(
        math.pi / 4.0
    )
    assert ideal_efficiency("doherty", 0.0, alpha=1.0) == pytest.approx(math.pi / 4.0)
    with pytest.raises(ValueError):
        ideal_efficiency("class-z", 0.0)
    with pytest.raises(ValueError):
        ideal_efficiency("class-b", -1.0)


@pytest.mark.parametrize(
    "tag, pbo_db, alpha, message",
    [
        ("class-b", math.nan, None, "back-off must be finite and >= 0 dB, got nan"),
        ("class-a", math.inf, None, "back-off must be finite and >= 0 dB, got inf"),
        ("doherty", 3.0, math.nan, "alpha must be positive and finite, got nan"),
    ],
    ids=["class-b-nan-backoff", "class-a-inf-backoff", "doherty-nan-alpha"],
)
def test_ideal_efficiency_refuses_non_finite_inputs(tag, pbo_db, alpha, message):
    with pytest.raises(InputError, match=message):
        ideal_efficiency(tag, pbo_db, alpha=alpha)


def test_doherty_efficiency_peaks_and_valley():
    # second peak at 20*log10(1+alpha); a valley strictly between the peaks
    for alpha in (0.5, 1.0, 2.0):
        pk2 = 20.0 * math.log10(1.0 + alpha)
        assert ideal_efficiency("doherty", pk2, alpha=alpha) == pytest.approx(math.pi / 4)
        mid = pk2 / 2.0
        assert ideal_efficiency("doherty", mid, alpha=alpha) < math.pi / 4


def test_class_ordering_everywhere():
    grid = np.linspace(0.0, 12.0, 121)
    for pbo in grid:
        d = ideal_efficiency("doherty", pbo, alpha=1.0)
        b = ideal_efficiency("class-b", pbo)
        a = ideal_efficiency("class-a", pbo)
        assert d >= b - 1e-12
        assert b >= a - 1e-12
        if pbo > 0.01:
            assert d > b


