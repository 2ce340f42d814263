import numpy as np
import pytest

from dohertylab import (
    DohertyConfig,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
)

# prototype operating point used throughout: symmetric split, 41.3 ohm
# device target into a 50 ohm system at 37 GHz
PROTO = DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)


@pytest.fixture(scope="session")
def proto_cfg():
    return PROTO


@pytest.fixture(scope="session")
def two_line_net():
    return to_netlist(synth_two_line(PROTO))


@pytest.fixture(scope="session")
def three_line_net():
    return to_netlist(synth_three_line(PROTO))


@pytest.fixture(scope="session")
def tf_design():
    return synth_transformer_combiner(PROTO, n1=1.0, k1=0.7, n2=1.0)


@pytest.fixture(scope="session")
def tf_net(tf_design):
    return to_netlist(tf_design)


def assert_close(actual, expected, rel=0.0, abs_=0.0, msg=""):
    actual = complex(actual) if np.iscomplexobj(actual) else float(actual)
    err = abs(actual - expected)
    tol = max(abs_, rel * abs(expected))
    assert err <= tol, f"{msg} got {actual}, want {expected} (err {err:.3e} > tol {tol:.3e})"


def power_balance_residual(res, scale=None) -> float:
    """The worst column's power imbalance of a solve that probes every
    element: |injected - (element powers + load power)| over ``scale``
    (per column), by default the larger side, which makes it relative."""
    out = sum(res.element_power.values(), res.load_power)
    gap = np.abs(res.injected_power - out)
    if scale is None:
        scale = np.maximum(np.maximum(np.abs(res.injected_power), np.abs(out)), 1e-300)
    return float(np.max(gap / scale))


def backward_norms(res) -> np.ndarray:
    """||x|| + ||Db|| per column of the one-point solve ``res`` in the
    infinity norm (D as in ``mna._accepted``): the scale of its backward
    error."""
    x = res.x[:-1]
    rows = np.abs(res.system.matrix).sum(axis=1)
    scaled_b = np.abs(res.system.rhs(res.drives, x.shape[1])) / rows[:, None]
    return np.abs(x).max(axis=0) + scaled_b.max(axis=0)


def forward_errors(res, kappa: float) -> np.ndarray:
    """Per column k of the one-point solve ``res``, a bound e_k on the
    error of each of its unknowns: with ||DA|| = 1 and kappa =
    ||(DA)^-1|| (``check_network``), a column of backward error eta lies
    within kappa eta (||x|| + ||Db||) of the exact solution of the stamped
    matrix, and rounding the element values into A (u per operation, at
    most n of them summed into an entry, n being the unknowns) moves that
    by at most n kappa u ||x||, so e_k = n kappa (u + eta_k) (||x|| + ||Db||)."""
    u = np.finfo(float).eps / 2
    return res.system.size * kappa * (u + res.backward_error) * backward_norms(res)
