"""The CLI contract on fuzzed input: every command exits 0, 2 or 3; a
failure prints exactly one JSON object on stderr, whose ``code`` is the
exit code, and writes no file; an exit-2 object names the input at
fault, as its ``key``, ``element`` or ``node`` or as a ``--flag`` in its
message, and each name an exit-3 object carries appears in its message;
a successful export's Touchstone reads back within 1e-9.
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
from conftest import backward_norms, forward_errors, power_balance_residual
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
    unit_columns,
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
    if draw(st.booleans()):  # one element value broken in place, or an unknown key added
        entry = draw(st.sampled_from(elements))
        entry[draw(st.sampled_from(sorted(entry) + ["extra"]))] = draw(_BAD)
    paths = [(None, k) for k in ("f0_hz", "ports", "elements", "load_port", "ground", "extra")]
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
        named = doc.keys() & {"key", "element", "node"}
        if code == 2:  # the input at fault is named, so a program fault cannot pass as one
            assert named or re.search("--[a-z]", doc["error"]), doc
        else:  # a name the solver gives is the one its message shows
            assert all(doc[field] in doc["error"] for field in named), doc
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


def _solved_at_f0(netlist: dict, drives):
    """kappa from ``check_network`` and the solves at f0 of the drawn
    ``netlist`` for each of the drive maps ``drives(net)`` gives, or None
    where any of them refuses it."""
    try:
        net = Netlist.from_json_dict(netlist)
        kappa = check_network(net, net.f0)
        return kappa, [solve_columns(net, net.f0, d) for d in drives(net)]
    except (InputError, SingularSystemError):
        event("refused")
        return None


def _unit_drives_at_f0(netlist: dict):
    """kappa from ``check_network`` and the solve of a unit drive into each
    port of the drawn ``netlist`` at its f0, or None where either refuses it."""
    solved = _solved_at_f0(netlist, lambda net: [
        {p: np.eye(len(net.ports))[k] for k, p in enumerate(net.ports)}])
    return solved and (solved[0], solved[1][0])


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
    if (solved := _unit_drives_at_f0(netlist)) is None:
        return
    kappa, res = solved
    A, x = res.system.matrix, res.x[:-1]
    scale = 0.5 * backward_norms(res) * (np.abs(A).sum(axis=1) @ np.abs(x))
    u = np.finfo(float).eps / 2
    bound = len(A) * (kappa * u + res.backward_error) * scale
    event("solved")
    assert power_balance_residual(res, scale=bound) <= 1.0


def _open_circuit_z(netlist: dict):
    """The open-circuit Z of ``netlist`` at f0, its current sources zeroed,
    Z[j, k] being port j's voltage for a unit drive into port k alone
    (``ColumnsResult.unit_response``), a bound e_k on the error of each
    unknown of column k, and the solve; None where it is refused.  A
    solved column k is within its ``forward_errors`` e_k of the exact one.
    With current sources, column k of Z is unit column k less the sources'
    column s, and the exact Z the same difference of the exact columns, so
    each unknown of it is within e_k + e_s: the bound adds the subtracted
    column's own forward error e_s, and nothing for a source-free draw."""
    try:
        net = Netlist.from_json_dict(netlist)
        kappa, res = check_network(net, net.f0), unit_columns(net, list(net.ports), net.f0)
    except (InputError, SingularSystemError):
        event("refused")
        return None
    e, ports = forward_errors(res, kappa), list(res.drives)
    if len(e) > len(ports):
        event("current source")
        e = e[:-1] + e[-1]
    z = np.array([res.unit_response(p) for p in ports])
    event("solved")
    return z, e, res


# 500 draws hold enough transformers and coupled pairs between two driven
# ports that a one-sided fault in their stamps fails here; 100 do not
@settings(CONTRACT, max_examples=500)
@given(netlist=_netlists())
def test_source_free_solves_are_reciprocal(netlist):
    """Every element kind but the current source is reciprocal, so a unit
    drive into each port at f0, the sources zeroed, gives an open-circuit Z
    equal to its transpose, Z[j, k] being port j's voltage in column k.
    Each unknown of column k is within e_k (conftest's ``forward_errors``,
    plus the sources column's where it is subtracted) of the exact one,
    and a port voltage, the difference of two unknowns, within 2 e_k:
    |Z - Z^T|[j, k] stays within 2 (e_j + e_k)."""
    if (solved := _open_circuit_z(netlist)) is None:
        return
    z, e, _ = solved
    assert np.all(np.abs(z - z.T) <= 2 * (e[:, None] + e[None, :]))


def _is_lossless(component) -> bool:
    return (not component.resistive and getattr(component, "q", math.inf) == math.inf
            and getattr(component, "loss_db_per_quarter", 0.0) == 0.0)


def _reactive(doc: dict, lossless: bool) -> dict:
    """``doc`` with every resistor a 3 pF capacitor of Q 20 (lossless when
    ``lossless``, every other Q and line loss dropped with it), so that
    the network's loss, if any, is the elements' own."""
    if isinstance(doc.get("elements"), list):
        for entry in doc["elements"]:
            if not isinstance(entry, dict):
                continue
            if entry.get("kind") == "resistor":
                entry["kind"] = "capacitor"
                entry["farads"] = 3e-12
                entry["q"] = 20.0
                entry.pop("ohms", None)
            if lossless:
                entry.pop("q", None)
                entry.pop("loss_db_per_quarter", None)
    return doc


@settings(CONTRACT, max_examples=500)
@given(netlist=_netlists(), lossless=st.sampled_from([None, False, True]))
def test_source_free_solves_are_passive(netlist, lossless):
    """Every element kind but the current source absorbs power, so the
    open-circuit Z's (sources zeroed) Hermitian part H = (Z + Z^H) / 2 has
    no negative eigenvalue.  Each entry of column k of Z is within 2 e_k of the exact
    one (see the reciprocity test), so each entry of H within e_j + e_k,
    and its eigenvalues move by at most the 2-norm of that error matrix,
    at most its largest row sum: lambda_min(H) >= -max_j sum_k (e_j + e_k).
    The shunt resistors stay as drawn (``lossless`` None) or become
    capacitors, lossy or lossless, so that no resistor hides a fault."""
    if lossless is not None:
        netlist = _reactive(netlist, lossless)
    if (solved := _open_circuit_z(netlist)) is None:
        return
    z, e, _ = solved
    bound = (e[:, None] + e[None, :]).sum(axis=1).max()
    assert np.linalg.eigvalsh((z + z.conj().T) / 2).min() >= -bound


def test_lossless_solves_are_lossless():
    """A network of lossless elements (no resistor, every Q infinite, no
    line loss) absorbs no power at any drive, so its open-circuit Z
    satisfies Z + Z^H = 0; as in the reciprocity test, each entry of
    |Z + Z^H| stays within 2 (e_j + e_k).  Enough of the draws must be
    lossless and solved for the property to be exercised."""
    lossless = []

    @settings(CONTRACT, max_examples=300)
    @given(netlist=_netlists().map(lambda doc: _reactive(doc, lossless=True)))
    def check(netlist):
        if (solved := _open_circuit_z(netlist)) is None:
            return
        z, e, res = solved
        if not all(_is_lossless(el.component) for el, _, _ in res.system.slots):
            return
        lossless.append(len(z))
        assert np.all(np.abs(z + z.conj().T) <= 2 * (e[:, None] + e[None, :]))

    check()
    assert len(lossless) >= 100, len(lossless)


_WEIGHTS = st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3)


@settings(CONTRACT, max_examples=300)
@given(netlist=_netlists(), weights=_WEIGHTS)
def test_solves_superpose(netlist, weights):
    """The network is linear, so ``ColumnsResult.combined`` of a unit drive
    into each port and, when the netlist has current sources, the sources
    alone equals a direct solve of the weighted drives with the sources
    held once.  Each unknown of column k is within e_k of the exact one
    (conftest's ``forward_errors``), so each unknown of the combination is
    within sum_k |w_k| e_k, the sources column weighted by 1 minus the
    drives, and the direct column's within its own e."""

    def drives(net):
        ports = list(net.ports)
        columns = np.eye(len(ports) + any(e.component.source for e in net.elements))
        w = dict(zip(ports, weights))
        return [{p: columns[j] for j, p in enumerate(ports)}, {p: [w[p]] for p in ports}]

    if (solved := _solved_at_f0(netlist, drives)) is None:
        return
    kappa, (units, direct) = solved
    combined = units.combined(direct.drives)
    w = np.array([direct.drives[p][0] for p in units.drives])
    if units.x.shape[1] > len(w):
        event("current source")
        w = np.append(w, 1.0 - w.sum())
    bound = np.abs(w) @ forward_errors(units, kappa) + forward_errors(direct, kappa)
    event("solved")
    assert np.all(np.abs(combined.x - direct.x) <= bound)


#: the JSON keys of a value that scales with the impedance level, by power
_IMPEDANCE_KEYS = {"ohms": 1, "henries": 1, "l_p_henries": 1, "z0_ohm": 1, "farads": -1}


def _scaled(doc: dict, c: float) -> dict | None:
    """``doc`` at c times its impedance level: every resistance,
    inductance and line impedance times c, every capacitance over c; None
    where such a value is not a float."""
    doc = copy.deepcopy(doc)
    for entry in doc.get("elements") if isinstance(doc.get("elements"), list) else []:
        for key, power in _IMPEDANCE_KEYS.items():
            if isinstance(entry, dict) and key in entry:
                if type(entry[key]) is not float:
                    return None
                entry[key] *= c**power
    return doc


@settings(CONTRACT, max_examples=300)
@given(netlist=_netlists(), log2_c=st.integers(-30, 30))
def test_impedance_scaling_scales_z(netlist, log2_c):
    """Scaling every resistance, inductance and line impedance by c and
    every capacitance by 1/c scales every impedance of the network, and so
    its open-circuit Z at f0, by c; a Q, a coupling and a turns ratio do
    not change.  A power of two c scales the element
    values exactly, so each entry of column k of the scaled Z is within
    2 e'_k of c times the exact Z, and c Z within 2 c e_k of it."""
    c = 2.0**log2_c
    if (scaled := _scaled(netlist, c)) is None:
        return
    solved = [_open_circuit_z(doc) for doc in (netlist, scaled)]
    if None in solved:
        return
    (z, e, _), (z_c, e_c, _) = solved
    assert np.all(np.abs(z_c - c * z) <= 2 * (e_c + c * e)[None, :])
