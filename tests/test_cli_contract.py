"""The CLI contract on fuzzed input: every command exits 0, 2 or 3; a
failure prints exactly one JSON object on stderr, whose ``code`` is the
exit code, and writes no file; an exit-2 object names the input at
fault, as its ``key``, ``element`` or ``node`` or as a ``--flag`` in its
message; a successful export's Touchstone reads back within 1e-9.
Only the package's ``InputError`` exits 2: any other exception, a numpy
``ValueError`` among them, leaves ``main`` and fails the test.

Inputs start from plausible designs, netlists and flags and break up to
two of their values: an extreme or non-finite number, a value of the
wrong type, an unknown key.  The runs are derandomized, so a failure
reproduces anywhere.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

import numpy as np
from conftest import power_balance_residual
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dohertylab.cli import main
from dohertylab.errors import InputError
from dohertylab.netkit import (
    Netlist,
    SingularSystemError,
    check_network,
    read_touchstone,
    s_parameters,
    solve_columns,
)

CONTRACT = settings(derandomize=True, max_examples=100, deadline=None)

#: an extreme or non-finite number, or a value that is not a number
_BAD = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 10**400, math.inf, -math.inf, math.nan]),
    st.sampled_from([None, True, "1", [1.0], {"x": 1}]).map(copy.deepcopy),
)


def _near(base: float):
    """A plausible value: ``base`` scaled by 0.5 to 2."""
    return st.floats(0.5, 2.0).map(lambda f: base * f)


#: how many values of an input to break: half the inputs are left whole
_BREAKS = st.sampled_from([0, 0, 1, 2])


def _broken(doc: dict, paths: list[tuple]):
    """``doc`` with up to two of ``paths`` (section, key or None for the
    whole section) set to a bad value, or an unknown key added."""

    @st.composite
    def draw_broken(draw):
        for _ in range(draw(_BREAKS)):
            section, key = draw(st.sampled_from(paths))
            bad = draw(_BAD)
            if section is None:
                doc[key] = bad
            elif key is None or not isinstance(doc.get(section), dict):
                doc[section] = bad
            else:
                doc[section][key] = bad
        return doc

    return draw_broken()


_FREE = {
    "two-line": {},
    "three-line": {"z02_ohm": 60.0},
    "transformer": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
}


@st.composite
def _designs(draw):
    topology = draw(st.sampled_from(sorted(_FREE)))
    base = {
        "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37e9},
        "free_params": _FREE[topology],
        "q_budget": {"q_l": 20.0, "q_c": 20.0},
        # the transformer alone absorbs a pad capacitance
        "parasitics": {"c_pad_f": 1e-14} if topology == "transformer" else {},
    }
    doc = {"topology": topology}
    for section, values in base.items():
        keys = sorted(values)
        if section != "config" and keys:  # the other sections hold any of their keys
            keys = draw(st.lists(st.sampled_from(keys), unique=True))
        if keys:
            doc[section] = {k: draw(_near(values[k])) for k in keys}
    if topology == "transformer":  # it is defined for alpha = 1 and k1 < 1
        doc["config"]["alpha"] = 1.0
        if "k1" in doc.get("free_params", {}):
            doc["free_params"]["k1"] = draw(st.floats(0.05, 0.99))
    paths = [(s, k) for s, values in base.items() for k in [None, *values, "extra"]]
    return draw(_broken(doc, paths + [(None, "topology"), (None, "extra")]))


#: element kind -> plausible JSON values at 1 GHz (tens of ohms)
_ELEMENTS = {
    "resistor": {"ohms": 50.0},
    "inductor": {"henries": 1e-8, "q": 20.0},
    "capacitor": {"farads": 3e-12, "q": 20.0},
    "coupled_inductors": {"l_p_henries": 1e-8, "n": 1.0, "k": 0.5, "q": 20.0},
    "ideal_transformer": {"n": 1.0},
    "tline": {"z0_ohm": 50.0, "theta_deg": 90.0, "f_ref_hz": 1e9, "loss_db_per_quarter": 0.2},
    "current_source": {"amps": [1.0, 0.0]},
}
_TERMINALS = {"coupled_inductors": 4, "ideal_transformer": 4}
_NODES = ["a", "b", "c", "0"]


@st.composite
def _elements(draw, name: str):
    kind = draw(st.sampled_from(sorted(_ELEMENTS)))
    size = _TERMINALS.get(kind, 2)
    entry = {"kind": kind, "name": name,
             "nodes": draw(st.lists(st.sampled_from(_NODES), min_size=size, max_size=size))}
    for key, value in _ELEMENTS[kind].items():
        entry[key] = [draw(_near(v)) for v in value] if isinstance(value, list) else draw(
            _near(value))
    if kind == "coupled_inductors":
        entry["k"] = draw(st.floats(0.05, 0.95))
    return entry


@st.composite
def _netlists(draw):
    # a shunt resistor at every node, so that most netlists solve
    elements = [{"kind": "resistor", "name": f"R{nd}", "nodes": [nd, "0"], "ohms": 50.0}
                for nd in _NODES[:3]]
    count = draw(st.integers(1, 4))
    elements += [draw(_elements(f"E{j}")) for j in range(count)]
    ports = draw(st.sampled_from([("main", "aux", "load")] * 3 + [("main",), ("aux", "load")]))
    doc = {
        "f0_hz": draw(_near(1e9)),
        "ports": {p: [draw(st.sampled_from(_NODES[:3])), "0"] for p in ports},
        "elements": elements,
    }
    if "load" in ports:
        doc["load_port"] = "load"
    if draw(st.booleans()):  # one element value broken in place
        entry = draw(st.sampled_from(elements))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(_BAD)
    paths = [(None, k) for k in ("f0_hz", "ports", "elements", "load_port", "ground")]
    return draw(_broken(doc, paths + [("ports", p) for p in ports]))


_ANALYZE_FLAGS = {
    "--points": st.integers(1, 25).map(str),
    "--q-l": _near(20.0),
    "--q-c": _near(20.0),
    "--threshold-db": st.floats(-6.0, -1.0),
    "--window": st.floats(0.05, 0.5),
    "--main-phi-deg": st.floats(90.0, 300.0),
    "--aux-turn-on": st.floats(0.1, 0.9),
    "--v-min": st.floats(0.0, 0.5),
    "--alpha": _near(1.0),
    "--r-opt": _near(41.3),
    "--r-l": _near(50.0),
    "--f0": _near(1e9),
    "--metric": st.sampled_from(["passive-efficiency", "load-match"]),
    "--implementation": st.sampled_from(["line", "lumped-pi"]),
    "--compare": st.just("two-line"),
}
_MODES = ["load-mod", "pbo-eff", "bandwidth", "pa-sim", "itr-curves"]
#: a flag value that is extreme, non-finite or not of the flag's type
_BAD_FLAG = st.one_of(_BAD.map(str), st.sampled_from(["x", "1.5", "-3"]))


@st.composite
def _analyze_flags(draw):
    mode = draw(st.sampled_from(_MODES))
    flags = {"--v-dc": _near(1.0), "--i-max": _near(1.0)} if mode == "pa-sim" else {}
    for flag in draw(st.lists(st.sampled_from(sorted(_ANALYZE_FLAGS)), unique=True,
                              max_size=4)):
        flags[flag] = _ANALYZE_FLAGS[flag]
    values = {flag: str(draw(value)) for flag, value in flags.items()}
    for _ in range(draw(_BREAKS)):
        values[draw(st.sampled_from(sorted(_ANALYZE_FLAGS) + ["--v-dc", "--i-max"]))] = draw(
            _BAD_FLAG)
    argv = ["--mode", mode, *(item for pair in values.items() for item in pair)]
    return argv + ["--ideal-cells"] if draw(st.booleans()) else argv


def _files(root: str) -> set[str]:
    return {os.path.join(d, f) for d, _, names in os.walk(root) for f in names}


def _run(tmp: str, inputs: dict, argv: list[str]) -> int:
    """Exit code of ``main(argv)`` run on the JSON ``inputs`` (file name
    -> document) written to ``tmp``, once it has kept the contract."""
    for name, doc in inputs.items():
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(doc, fh)
    before = _files(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    event(f"{argv[0]} exit {code}")
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        doc = json.loads(lines[0])
        assert isinstance(doc, dict) and doc["code"] == code and doc["error"], doc
        if code == 2:  # the input at fault is named, so a program fault cannot pass as one
            named = doc.keys() & {"key", "element", "node"}
            assert named or re.search("--[a-z]", doc["error"]), doc
        assert _files(tmp) == before, "a failed command wrote a file"
    return code


@CONTRACT
@given(design=_designs(), command=st.sampled_from(["synth", "analyze"]), flags=_analyze_flags())
def test_design_commands_keep_the_contract(design, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        argv = [command, os.path.join(tmp, "design.json"), "--out-dir", out_dir]
        if command == "analyze":
            argv += flags
        _run(tmp, {"design.json": design}, argv)


@CONTRACT
@given(netlist=_netlists(), flags=_analyze_flags())
def test_netlist_analysis_keeps_the_contract(netlist, flags):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["analyze", os.path.join(tmp, "net.json"), "--out-dir", os.path.join(tmp, "out"),
                "--alpha", "1", "--r-opt", "41.3", "--r-l", "50"]
        _run(tmp, {"net.json": netlist}, argv + flags)


@st.composite
def _export_flags(draw):
    values = {"--f-start": draw(_near(0.5e9)), "--f-stop": draw(_near(2e9)),
              "--points": draw(st.integers(1, 12)), "--z-ref": draw(_near(50.0))}
    values = {flag: str(value) for flag, value in values.items()}
    ports = draw(st.lists(st.sampled_from(["main", "aux", "load", "x", ""]), max_size=5))
    if draw(st.booleans()):
        values["--ports"] = ",".join(ports)
    for _ in range(draw(_BREAKS)):
        values[draw(st.sampled_from(sorted(values)))] = draw(_BAD_FLAG)
    return values


@CONTRACT
@given(netlist=_netlists(), flags=_export_flags())
def test_export_keeps_the_contract_and_round_trips(netlist, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out", "x.snp")
        argv = ["export", os.path.join(tmp, "net.json"), "--touchstone", path]
        if _run(tmp, {"net.json": netlist}, argv + [v for f in flags.items() for v in f]):
            return
        with open(path) as fh:
            data = read_touchstone(fh.read())
    net = Netlist.from_json_dict(netlist)
    ports = flags.get("--ports")
    names = [p for p in ports.split(",") if p] if ports else list(net.ports)
    freqs = np.linspace(float(flags["--f-start"]), float(flags["--f-stop"]),
                        int(flags["--points"]))
    z_ref = float(flags["--z-ref"])
    s = s_parameters(net, names, freqs, z_ref=z_ref)
    assert np.allclose(data.freqs_hz, freqs, rtol=1e-9, atol=0.0)
    assert np.all(np.abs(data.s - s) <= 1e-9 * np.maximum(np.abs(s), 1.0))
    assert math.isclose(data.z_ref, z_ref, rel_tol=1e-9)


@CONTRACT
@given(netlist=_netlists())
def test_accepted_solves_balance_power(netlist):
    """Every column that a drawn netlist's solve accepts, a unit drive into
    each port at f0 with every element probed, books its power: the ports
    and current sources inject what the elements absorb and the load
    takes.  Summed over the node rows N, the power the elements absorb at
    any vector x is Re(x_N^H (Ax)_N) / 2 and the injected power
    Re(x_N^H b_N) / 2, so the imbalance is Re(x_N^H r_N) / 2 for the
    residual r = Ax - b, plus the rounding of the element values into A.  The residual is bounded by the column's
    backward error eta, the rounding by u <= kappa u (kappa from
    ``check_network``), each on the scale S = (||x|| + ||Db||) |x|^T |A| 1
    / 2 of the backward error (D as in ``mna._accepted``).  So each column
    must balance within n (kappa u + eta) S, n being the unknowns."""
    try:
        net = Netlist.from_json_dict(netlist)
        kappa = check_network(net, net.f0)
        drives = {p: np.eye(len(net.ports))[k] for k, p in enumerate(net.ports)}
        res = solve_columns(net, net.f0, drives)
    except (InputError, SingularSystemError):
        event("refused")
        return
    A, x = res.system.matrix, res.x[:-1]
    rows = np.abs(A).sum(axis=1)
    scaled_b = np.abs(res.system.rhs(drives, x.shape[1])) / rows[:, None]
    scale = 0.5 * (np.abs(x).max(axis=0) + scaled_b.max(axis=0)) * (rows @ np.abs(x))
    u = np.finfo(float).eps / 2
    bound = len(A) * (kappa * u + res.backward_error) * scale
    event("solved")
    assert power_balance_residual(res, scale=bound) <= 1.0
