"""CLI contract: outputs, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from dohertylab import (
    DohertyConfig,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
)
from dohertylab.cli import main
from dohertylab.netkit import (
    Netlist,
    Resistor,
    SingularSystemError,
    read_touchstone,
    s_parameters,
    solve_columns,
)

PROTO_DESIGN = {
    "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37.0e9},
    "topology": "transformer",
    "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
}


@pytest.fixture()
def design_path(tmp_path):
    p = tmp_path / "design.json"
    p.write_text(json.dumps(PROTO_DESIGN))
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_outputs(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, _, _ = run(["synth", design_path, "--out-dir", out_dir], capsys)
    assert code == 0
    report = json.loads(open(os.path.join(out_dir, "report.json")).read())
    assert report["topology"] == "transformer"
    assert 0.0 < report["components"]["k2"] < 1.0
    assert len(report["identities"]) == 15
    assert all(i["pass"] for i in report["identities"])
    assert all(i["residual"] < 1e-9 for i in report["identities"])
    names = [i["name"] for i in report["identities"]]
    assert len(names) == len(set(names))  # each identity appears exactly once
    # netlist and touchstone files exist and load
    net = Netlist.from_json_dict(
        json.loads(open(os.path.join(out_dir, "netlist.json")).read())
    )
    assert set(net.ports) == {"main", "aux", "load"}
    ts = read_touchstone(open(os.path.join(out_dir, "combiner.s3p")).read())
    assert ts.s.shape[1:] == (3, 3)


def test_synth_two_line_report_values(tmp_path, capsys):
    doc = {
        "config": PROTO_DESIGN["config"],
        "topology": "two-line",
    }
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    out_dir = str(tmp_path / "out")
    code, _, _ = run(["synth", str(p), "--out-dir", out_dir], capsys)
    assert code == 0
    report = json.loads(open(os.path.join(out_dir, "report.json")).read())
    assert report["components"]["z01_ohm"] == pytest.approx(41.3)
    assert report["components"]["z02_ohm"] == pytest.approx(32.13, abs=0.005)


#: report key -> design field, per topology
_COMPONENTS = {
    "two-line": {"z01_ohm": "z01", "z02_ohm": "z02"},
    "three-line": {"z01_ohm": "z01", "z02_ohm": "z02", "z03_ohm": "z03"},
    "transformer": {
        "l_p1_h": "l_p1", "n1": "n1", "k1": "k1", "l_p2_h": "l_p2", "n2": "n2", "k2": "k2",
        "l_m1_h": "l_m1", "l_m2_h": "l_m2", "c1_f": "c1", "c2_f": "c2", "c3_f": "c3",
        "c3_external_f": "c3_external", "c4_f": "c4", "c5_f": "c5",
        "z0_lp_main_ohm": "z0_lp_main", "z0_lp_aux_ohm": "z0_lp_aux",
        "z0_hp_aux_ohm": "z0_hp_aux",
    },
}


@pytest.mark.parametrize(
    "topology,free,synth",
    [
        ("two-line", {}, synth_two_line),
        ("three-line", {"z02_ohm": 60.0}, lambda cfg: synth_three_line(cfg, z02=60.0)),
        ("transformer", {"n1": 1.2, "k1": 0.6, "n2": 0.8},
         lambda cfg: synth_transformer_combiner(cfg, n1=1.2, k1=0.6, n2=0.8, c_pad=1e-14)),
    ],
    ids=["two-line", "three-line", "transformer"],
)
def test_synth_reports_the_topology_components(topology, free, synth, tmp_path, capsys):
    doc = {"config": PROTO_DESIGN["config"], "topology": topology, "free_params": free}
    if topology == "transformer":
        doc["parasitics"] = {"c_pad_f": 1e-14}
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run(["synth", str(p), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 0
    components = json.loads((tmp_path / "out" / "report.json").read_text())["components"]
    c = PROTO_DESIGN["config"]
    design = synth(DohertyConfig(c["alpha"], c["r_opt_ohm"], c["r_l_ohm"], c["f0_hz"]))
    # the report holds each value at 9 significant digits
    want = {key: float(f"{getattr(design, f):.9g}") for key, f in _COMPONENTS[topology].items()}
    assert components == want
    if topology == "three-line":  # the free choice, not the default z02 = z01
        assert components["z02_ohm"] == 60.0 != design.z01


def test_zero_pad_capacitance_is_the_default(design_path, tmp_path, capsys):
    p = tmp_path / "zero_pad.json"
    p.write_text(json.dumps({**PROTO_DESIGN, "parasitics": {"c_pad_f": 0}}))
    default, zero = tmp_path / "default", tmp_path / "zero"
    for path, out in ((design_path, default), (str(p), zero)):
        assert run(["synth", path, "--out-dir", str(out)], capsys)[0] == 0
    for name in ("report.json", "netlist.json", "combiner.s3p"):
        assert (default / name).read_bytes() == (zero / name).read_bytes()


def test_synth_deterministic_bytes(design_path, tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["synth", design_path, "--out-dir", out_a], capsys)[0] == 0
    assert run(["synth", design_path, "--out-dir", out_b], capsys)[0] == 0
    for name in ("report.json", "netlist.json", "combiner.s3p"):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


#: each mutation of the prototype design returns the key its error names
@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update({"topology": "ring"}) or "topology",
        lambda d: d.update({"surprise": 1}) or "surprise",
        lambda d: d["config"].pop("r_opt_ohm") and "r_opt_ohm",
        lambda d: d["config"].update({"alpha": -1.0}) or "alpha",
        lambda d: d["config"].update({"f0_hz": "fast"}) or "f0_hz",
        lambda d: d.update({"free_params": {"k1": 2.0}}) or "k1",
        lambda d: d.update({"parasitics": {"c_pad_f": 1.0e-9}}) or "c_pad_f",
        # a closed form underflows to zero and divides by it
        lambda d: d["config"].update({"r_opt_ohm": 1e-300, "r_l_ohm": 1e-300}) or "r_opt_ohm",
        lambda d: d["free_params"].update({"n1": 1e-300, "k1": 1e-300}) or "n1",
        # a line topology has no pad capacitance to absorb it
        lambda d: d.update({"topology": "two-line", "free_params": {},
                            "parasitics": {"c_pad_f": 5e-12}}) or "c_pad_f",
        # a lumped pi section of a line leaves float range
        lambda d: d.update({"topology": "two-line", "free_params": {},
                            "config": {"alpha": 1.0, "r_opt_ohm": 1e-160, "r_l_ohm": 1e-160,
                                       "f0_hz": 1e-160},
                            "q_budget": {"q_l": 20.0, "q_c": 20.0}}) or "r_opt_ohm",
        # a pad capacitance may be 0, not below
        lambda d: d.update({"parasitics": {"c_pad_f": -1e-15}}) or "c_pad_f",
    ],
)
def test_malformed_design_corpus_exits_2(mutate, tmp_path, capsys):
    doc = json.loads(json.dumps(PROTO_DESIGN))
    key = mutate(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    # synth emits ideal lines; analyze realizes a line design's Q budget in pi sections
    command = ["analyze", "--mode", "load-mod"] if "q_budget" in doc else ["synth"]
    code, _, err = run([*command, str(p), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.count("\n") == 1  # exactly one JSON object
    payload = json.loads(err)
    assert payload["code"] == 2
    assert payload["error"]
    assert payload["key"] == key


def test_unparseable_json_exits_2_naming_problem(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(["synth", str(p), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "JSON" in json.loads(err)["error"]


def test_unknown_key_named_in_error(tmp_path, capsys):
    doc = json.loads(json.dumps(PROTO_DESIGN))
    doc["config"]["r_opt"] = 41.3  # wrong key name (missing unit suffix)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["synth", str(p), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert json.loads(err)["key"] == "r_opt"


@pytest.mark.parametrize(
    "element",
    [
        '{"kind": "current_source", "name": "I1", "nodes": ["a", "0"], "amps": 5}',
        '{"kind": "resistor", "name": "R2", "nodes": "a0", "ohms": 50.0}',
        '{"kind": "resistor", "name": "R2", "nodes": ["a", "0"], "ohms": 1e400}',
        # an overflowing Q is not the lossless default, which leaves the key out
        '{"kind": "inductor", "name": "L2", "nodes": ["a", "0"], "henries": 1e-9, "q": 1e400}',
    ],
    ids=["amps-not-a-pair", "nodes-not-a-list", "ohms-not-finite", "q-not-finite"],
)
def test_malformed_netlist_exits_2(element, tmp_path, capsys):
    p = tmp_path / "net.json"
    p.write_text(
        '{"f0_hz": 1e9, "ports": {"in": ["a", "0"]}, "elements": ['
        '{"kind": "resistor", "name": "R1", "nodes": ["a", "0"], "ohms": 50.0}, '
        + element
        + "]}"
    )
    code, _, err = run(["export", str(p), "--touchstone", str(tmp_path / "x.s1p")], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == 2
    assert json.loads(element)["name"] in payload["error"]
    assert payload["element"] == json.loads(element)["name"]


@pytest.mark.parametrize(
    "change, named",
    [
        ({"f0_hz": "1e9"}, {"key": "f0_hz"}),
        ({"ports": ["a", "0"]}, {"key": "ports"}),
        ({"ports": {"in": "a"}}, {"key": "in"}),
        ({"elements": {"R1": {}}}, {"key": "elements"}),
        ({"ports": {"in": ["a", "0"], "out": ["c", "0"]}}, {"node": "c"}),
    ],
    ids=["f0-not-a-number", "ports-not-an-object", "port-not-a-pair", "elements-not-a-list",
         "floating-port-node"],
)
def test_malformed_netlist_error_names_its_input(change, named, tmp_path, capsys):
    doc = {"f0_hz": 1e9, "ports": {"in": ["a", "0"]},
           "elements": [{"kind": "resistor", "name": "R1", "nodes": ["a", "0"], "ohms": 50.0}]}
    p = tmp_path / "net.json"
    p.write_text(json.dumps({**doc, **change}))
    code, _, err = run(["export", str(p), "--touchstone", str(tmp_path / "x.s1p")], capsys)
    assert code == 2
    payload = json.loads(err)
    assert {name: payload.get(name) for name in named} == named


#: the netlist ``synth`` writes for the README prototype
REFERENCE_NETLIST = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference",
                                 "synth", "netlist.json")


def _rename_tf1_q(doc):
    (tf1,) = [e for e in doc["elements"] if e["name"] == "TF1"]
    tf1["Q"] = tf1.pop("q")


@pytest.mark.parametrize(
    "argv",
    [["export", "--touchstone", "x.s3p"],
     ["analyze", "--mode", "load-mod", "--alpha", "1", "--r-opt", "41.3", "--r-l", "50"]],
    ids=["export", "analyze"],
)
@pytest.mark.parametrize(
    "change, named",
    [
        (_rename_tf1_q, {"key": "Q", "element": "TF1"}),
        (lambda doc: doc.update(elementz=[]), {"key": "elementz", "element": None}),
        (lambda doc: doc.update(ground=None), {"key": "ground", "element": None}),
    ],
    ids=["tf1-q-as-Q", "extra-top-level-key", "ground-null"],
)
def test_netlist_key_outside_its_schema_exits_2(change, named, argv, tmp_path, capsys,
                                                monkeypatch):
    """A netlist is read as a design file is: a key outside its schema is
    refused by name, not dropped (TF1's ``q`` spelt ``Q`` would leave its
    windings lossless), and ``ground`` must be a node name."""
    with open(REFERENCE_NETLIST) as fh:
        doc = json.load(fh)
    change(doc)
    (tmp_path / "net.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, _, err = run([argv[0], "net.json", *argv[1:]], capsys)
    assert code == 2
    payload = json.loads(err)
    assert {name: payload.get(name) for name in named} == named
    assert os.listdir(tmp_path) == ["net.json"]


def test_itr_curves_refuses_a_netlist_input_by_name(tmp_path, capsys):
    """The flags alone give itr-curves its config: the netlist input is
    what it refuses, not a missing flag."""
    code, _, err = run(["analyze", REFERENCE_NETLIST, "--mode", "itr-curves", "--alpha", "1",
                        "--r-opt", "41.3", "--r-l", "50", "--out-dir", str(tmp_path / "out")],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == (
        "itr-curves takes no netlist input: give --alpha/--r-opt/--r-l alone, or a design file")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "topology,key,literal",
    [
        ("two-line", "r_opt_ohm", "1e400"),
        ("three-line", "r_opt_ohm", "Infinity"),
        ("three-line", "f0_hz", "1e400"),
        ("two-line", "r_l_ohm", "1" + "0" * 400),  # an integer beyond float range
    ],
    ids=["two-line-r_opt-1e400", "three-line-r_opt-Infinity", "three-line-f0-1e400",
         "two-line-r_l-huge-int"],
)
def test_non_finite_design_number_exits_2(topology, key, literal, tmp_path, capsys):
    doc = {"config": dict(PROTO_DESIGN["config"], **{key: "@"}), "topology": topology}
    p = tmp_path / "design.json"
    p.write_text(json.dumps(doc).replace('"@"', literal))
    code, _, err = run(["synth", str(p), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.count("\n") == 1  # exactly one JSON object
    payload = json.loads(err)
    assert payload["code"] == 2
    assert payload["key"] == key


def test_boolean_design_number_exits_2(tmp_path, capsys):
    doc = {"config": dict(PROTO_DESIGN["config"], alpha=True), "topology": "two-line"}
    p = tmp_path / "design.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["synth", str(p), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["key"] == "alpha"
    assert payload["error"] == "key 'alpha' in config must be a number"
    assert not (tmp_path / "out").exists()


def test_analyze_parses_design_file_once(design_path, tmp_path, capsys, monkeypatch):
    parsed = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: parsed.append(fh.name) or load(fh))
    code, _, _ = run(["analyze", design_path, "--mode", "load-mod", "--points", "3",
                      "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 0
    assert parsed == [design_path]


def test_transformer_with_large_n2_synthesizes(tmp_path, capsys):
    # k2 ~ 1/(n2 s) is solved without cancellation, so the identities hold
    doc = dict(PROTO_DESIGN, free_params={"n1": 1.0, "k1": 0.7, "n2": 1e6})
    p = tmp_path / "design.json"
    p.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, _ = run(["synth", str(p), "--out-dir", str(out_dir)], capsys)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert all(i["pass"] for i in report["identities"])


@pytest.mark.parametrize("n2", [1e7, 1e8, 1e9])
@pytest.mark.parametrize(
    "argv", [["synth"], ["analyze", "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1"]]
)
def test_transformer_too_wide_for_double_precision_exits_3(n2, argv, tmp_path, capsys):
    # TF2's primary is l_p1/n2^2: the network's matrix loses the other
    # elements at that node, and at n2 = 1e9 pa-sim would read a 2.7 kOhm
    # reactance in z_main where the design has none
    doc = dict(PROTO_DESIGN, free_params={"n1": 1.0, "k1": 0.7, "n2": n2})
    p = tmp_path / "design.json"
    p.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run([argv[0], str(p), *argv[1:], "--out-dir", str(out_dir)], capsys)
    assert_one_json_error_exit_3(code, err)
    assert json.loads(err)["error"].startswith("ill-conditioned network at 3.7e+10 Hz")
    assert not out_dir.exists()


def test_internal_consistency_failure_exits_3(design_path, tmp_path, capsys, monkeypatch):
    from dohertylab import cli as cli_mod
    from dohertylab.synth import DesignConsistencyError

    def boom(spec):
        raise DesignConsistencyError("identity residual 1e-3 above tolerance")

    monkeypatch.setattr(cli_mod, "synthesize", boom)
    code, _, err = run(["synth", design_path, "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert json.loads(err)["code"] == 3


def test_synth_failing_on_its_last_output_writes_nothing(design_path, tmp_path, monkeypatch):
    from dohertylab import report

    json_text = report.json_text

    def failing_report(doc):
        if "identities" in doc:  # the report document, rendered after the other outputs
            raise RuntimeError("report rendering failed")
        return json_text(doc)

    monkeypatch.setattr(report, "json_text", failing_report)
    out_dir = tmp_path / "out"
    with pytest.raises(RuntimeError, match="report rendering failed"):
        main(["synth", design_path, "--out-dir", str(out_dir)])
    assert not out_dir.exists()


def assert_one_json_error_exit_3(code, err):
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == 3


#: a near-unity coupling leaves the transformer combiner's system too
#: ill-conditioned to solve to a backward error of 1e-12 for every drive
SINGULAR_DESIGN = {**PROTO_DESIGN, "free_params": {"n1": 1.0, "k1": 0.999999999, "n2": 1.0}}


@pytest.mark.parametrize(
    "argv",
    [
        ["synth"],
        ["analyze", "--mode", "load-mod"],
        ["analyze", "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1"],
        ["analyze", "--mode", "bandwidth"],
        ["analyze", "--mode", "pbo-eff", "--q-l", "20"],
    ],
)
def test_solver_rejected_design_exits_3_without_output(argv, tmp_path, capsys):
    p = tmp_path / "singular.json"
    p.write_text(json.dumps(SINGULAR_DESIGN))
    out_dir = tmp_path / "out"
    code, _, err = run([argv[0], str(p), *argv[1:], "--out-dir", str(out_dir)], capsys)
    assert_one_json_error_exit_3(code, err)
    assert json.loads(err)["error"].startswith("solution rejected: backward error ")
    assert not out_dir.exists()


def test_degenerate_transfer_exits_3(design_path, tmp_path, capsys, monkeypatch):
    from dohertylab import analysis

    def degenerate(*args, **kwargs):
        raise analysis.DegenerateTransferError("transfer from port 'main' to 'load' is degenerate")

    monkeypatch.setattr(analysis, "required_phase_offset", degenerate)
    out_dir = tmp_path / "out"
    code, _, err = run(
        ["analyze", design_path, "--mode", "load-mod", "--out-dir", str(out_dir)], capsys
    )
    assert_one_json_error_exit_3(code, err)
    assert not out_dir.exists()


#: netlists the solver finds an unknown unconstrained in, by the field and
#: name the exit-3 object carries for it
_UNCONSTRAINED = {
    ("node", "b"): [
        {"kind": "current_source", "name": "I1", "nodes": ["b", "0"], "amps": [1.0, 0.0]},
    ],
    ("element", "T1"): [
        {"kind": "resistor", "name": "Rb", "nodes": ["b", "0"], "ohms": 50.0},
        {"kind": "ideal_transformer", "name": "T1", "nodes": ["a", "a", "b", "b"], "n": 1.0},
    ],
}


@pytest.mark.parametrize("field, name", sorted(_UNCONSTRAINED))
def test_unconstrained_unknown_exits_3_naming_it(field, name, tmp_path, capsys):
    ra = {"kind": "resistor", "name": "Ra", "nodes": ["a", "0"], "ohms": 50.0}
    p = tmp_path / "net.json"
    p.write_text(json.dumps({"f0_hz": 1e9, "ports": {"main": ["a", "0"]},
                             "elements": [ra, *_UNCONSTRAINED[field, name]]}))
    out = tmp_path / "out" / "x.s1p"
    code, _, err = run(["export", str(p), "--touchstone", str(out)], capsys)
    assert_one_json_error_exit_3(code, err)
    doc = json.loads(err)
    assert doc[field] == name and name in doc["error"]
    assert not out.parent.exists()


def test_itr_curves_contains_prototype_anchor_rows(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, _, _ = run(
        [
            "analyze",
            "--mode",
            "itr-curves",
            "--alpha",
            "1",
            "--r-opt",
            "41.3",
            "--r-l",
            "50",
            "--out-dir",
            out_dir,
        ],
        capsys,
    )
    assert code == 0
    rows = [
        line.split(",")
        for line in open(os.path.join(out_dir, "itr_curves.csv")).read().splitlines()[1:]
    ]
    table = [(float(r[0]), float(r[3]), float(r[4])) for r in rows]

    def lookup(pbo):
        return min(table, key=lambda t: abs(t[0] - pbo))

    assert lookup(0.0)[2] == pytest.approx(2.42, abs=0.01)
    assert lookup(4.69)[2] == pytest.approx(1.00, abs=0.01)
    assert lookup(6.02)[2] == pytest.approx(1.65, abs=0.01)
    assert lookup(6.02)[1] == pytest.approx(4.0, abs=0.01)


@pytest.mark.parametrize("alpha", ["1", "2", "1e150"])
def test_itr_curves_end_at_the_turn_on_ratio(alpha, tmp_path, capsys):
    """The conventional ratio reaches (1+alpha)^2 at the auxiliary turn-on
    point, also where (1+alpha)^2 is near the top of float range."""
    code, _, err = run(
        ["analyze", "--mode", "itr-curves", "--alpha", alpha, "--r-opt", "41.3", "--r-l", "50",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0 and err == ""
    last = (tmp_path / "itr_curves.csv").read_text().splitlines()[-1].split(",")
    assert float(last[3]) == pytest.approx((1.0 + float(alpha)) ** 2, rel=1e-8)


def test_load_mod_csv_schema_and_anchor(design_path, tmp_path, capsys):
    doc = json.loads(json.dumps(PROTO_DESIGN))
    doc["topology"] = "two-line"
    doc.pop("free_params")
    p = tmp_path / "two.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run(
        ["analyze", str(p), "--mode", "load-mod", "--out-dir", str(tmp_path), "--points", "41"],
        capsys,
    )
    assert code == 0
    lines = open(os.path.join(tmp_path, "load_mod.csv")).read().splitlines()
    assert lines[0] == (
        "pbo_db,i_main,i_aux,re_z_main,im_z_main,re_z_aux,im_z_aux,"
        "eta_passive,eta_drain,am_am_db,am_pm_deg"
    )
    rows = [line.split(",") for line in lines[1:]]
    six_db = min(rows, key=lambda r: abs(float(r[0]) - 6.02))
    assert float(six_db[3]) == pytest.approx(82.6, rel=1e-3)


def test_pa_sim_csv_efficiency_peaks(design_path, tmp_path, capsys):
    code, _, _ = run(
        [
            "analyze",
            design_path,
            "--mode",
            "pa-sim",
            "--ideal-cells",
            "--v-dc",
            "1.0",
            "--out-dir",
            str(tmp_path),
            "--points",
            "96",
        ],
        capsys,
    )
    assert code == 0
    lines = open(os.path.join(tmp_path, "pa_sim.csv")).read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    eta = {float(r[0]): float(r[8]) for r in rows}
    assert min(eta.keys()) == pytest.approx(0.0, abs=1e-9)
    assert eta[min(eta.keys())] == pytest.approx(math.pi / 4.0, abs=1e-3)
    near_six = min(eta.keys(), key=lambda p: abs(p - 6.02))
    assert eta[near_six] == pytest.approx(math.pi / 4.0, abs=2e-3)


def test_pbo_eff_compare_emits_paired_columns(design_path, tmp_path, capsys):
    code, _, _ = run(
        [
            "analyze",
            design_path,
            "--mode",
            "pbo-eff",
            "--q-l",
            "20",
            "--q-c",
            "20",
            "--compare",
            "two-line",
            "--points",
            "5",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    lines = open(os.path.join(tmp_path, "pbo_eff.csv")).read().splitlines()
    assert lines[0] == "pbo_db,i_main,i_aux,eta_passive,eta_passive_ref"
    first = lines[1].split(",")  # deepest back-off row
    assert float(first[3]) > float(first[4])  # transformer beats two-line


def test_pa_sim_missing_flags_exit_2(design_path, tmp_path, capsys):
    code, _, err = run(
        ["analyze", design_path, "--mode", "pa-sim", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "v-dc" in json.loads(err)["error"]


def test_pbo_eff_without_q_exit_2(design_path, tmp_path, capsys):
    code, _, _ = run(
        ["analyze", design_path, "--mode", "pbo-eff", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    # a finite capacitor Q alone is a finite Q, from a flag or from a q_budget
    code, _, _ = run(["analyze", design_path, "--mode", "pbo-eff", "--q-c", "20",
                      "--points", "3", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    p = tmp_path / "q_c_only.json"
    p.write_text(json.dumps({**PROTO_DESIGN, "q_budget": {"q_c": 20.0}}))
    code, _, _ = run(["analyze", str(p), "--mode", "pbo-eff", "--points", "3",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0


def test_export_round_trip(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    netlist_path = os.path.join(out_dir, "netlist.json")
    ts_path = str(tmp_path / "export.s3p")
    code, _, _ = run(
        [
            "export",
            netlist_path,
            "--touchstone",
            ts_path,
            "--points",
            "41",
            "--z-ref",
            "50",
        ],
        capsys,
    )
    assert code == 0
    data = read_touchstone(open(ts_path).read())
    net = Netlist.from_json_dict(json.loads(open(netlist_path).read()))
    s = s_parameters(net, list(net.ports), data.freqs_hz, 50.0)
    assert np.abs(s - data.s).max() < 1e-9


def test_export_header_has_z_ref(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    ts_path = str(tmp_path / "e.s3p")
    code, _, _ = run(
        ["export", os.path.join(out_dir, "netlist.json"), "--touchstone", ts_path,
         "--points", "3"],
        capsys,
    )
    assert code == 0
    assert "# GHz S RI R 50" in open(ts_path).read()


def test_export_five_ports_exit_2(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    code, _, err = run(
        [
            "export",
            os.path.join(out_dir, "netlist.json"),
            "--touchstone",
            str(tmp_path / "x.s5p"),
            "--ports",
            "a,b,c,d,e",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "--ports must name 1 to 4 ports, got 5"


def test_export_empty_port_list_exit_2(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    code, _, err = run(
        ["export", os.path.join(out_dir, "netlist.json"), "--touchstone",
         str(tmp_path / "x.s1p"), "--ports", ",,"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "--ports must name 1 to 4 ports, got 0"


def test_export_grid_finer_than_touchstone_digits_exit_2(design_path, tmp_path, capsys):
    # the two frequencies print alike in a record's 13 digits, so the file
    # would not read back
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    ts_path = tmp_path / "x.s3p"
    code, _, err = run(
        ["export", os.path.join(out_dir, "netlist.json"), "--touchstone", str(ts_path),
         "--f-start", "999999999.9999999", "--f-stop", "1e9", "--points", "2"],
        capsys,
    )
    assert_one_json_error(code, err, "frequency grid")
    # the two frequencies print as Python floats, not as numpy scalars
    assert json.loads(err)["error"] == (
        "frequency grid steps below Touchstone's 13 digits: "
        "999999999.9999999 and 1000000000.0 Hz print alike"
    )
    assert not ts_path.exists()


def test_export_repeated_port_exit_2(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    ts_path = tmp_path / "o.s3p"
    code, _, err = run(
        ["export", os.path.join(out_dir, "netlist.json"), "--touchstone", str(ts_path),
         "--ports", "main,main"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "--ports must name distinct netlist ports, got main,main"
    assert not ts_path.exists()


def test_precision_env_override(tmp_path, capsys, monkeypatch):
    """No environment variable sets the digit count: DOHERTYLAB_PRECISION=4
    writes the same bytes as an unset environment."""
    monkeypatch.delenv("DOHERTYLAB_PRECISION", raising=False)
    written = []
    for precision in (None, "4"):
        if precision:
            monkeypatch.setenv("DOHERTYLAB_PRECISION", precision)
        out_dir = tmp_path / str(precision)
        code, _, _ = run(
            ["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "41.3",
             "--r-l", "50", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        written.append((out_dir / "itr_curves.csv").read_bytes())
    assert written[0] == written[1]
    assert b"2.42130751" in written[0].splitlines()[1]


def test_bandwidth_mode_outputs(design_path, tmp_path, capsys):
    code, _, _ = run(
        [
            "analyze",
            design_path,
            "--mode",
            "bandwidth",
            "--q-l",
            "20",
            "--q-c",
            "20",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(open(os.path.join(tmp_path, "bandwidth.json")).read())
    assert doc["metric"] == "passive-efficiency"
    assert doc["met_at_center"] is True
    assert 0.0 < doc["fractional_bandwidth"] <= 0.8
    lines = open(os.path.join(tmp_path, "bandwidth.csv")).read().splitlines()
    assert lines[0] == "freq_hz,metric_db"
    assert len(lines) == 202


@pytest.mark.parametrize("points", [2, 200])
def test_bandwidth_center_is_f0_on_even_grid(design_path, tmp_path, points, capsys):
    # an even grid has no point at f0; the band must still be centered
    # on f0, not on the grid point nearest it
    code, _, _ = run(
        ["analyze", design_path, "--mode", "bandwidth", "--metric", "load-match",
         "--points", str(points), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(open(os.path.join(tmp_path, "bandwidth.json")).read())
    f0 = PROTO_DESIGN["config"]["f0_hz"]
    assert doc["met_at_center"] is True
    assert doc["f_lo_hz"] <= f0 <= doc["f_hi_hz"]
    freqs = [float(line.split(",")[0])
             for line in open(os.path.join(tmp_path, "bandwidth.csv")).read().splitlines()[1:]]
    assert len(freqs) == points + 1 and f0 in freqs


def test_analyze_netlist_input_with_flags(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "s")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    netlist_path = os.path.join(out_dir, "netlist.json")
    code, _, _ = run(
        [
            "analyze",
            netlist_path,
            "--mode",
            "load-mod",
            "--alpha",
            "1",
            "--r-opt",
            "41.3",
            "--r-l",
            "50",
            "--points",
            "5",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = open(os.path.join(tmp_path, "load_mod.csv")).read().splitlines()[1:]
    last = rows[-1].split(",")
    assert float(last[3]) == pytest.approx(41.3, rel=1e-6)  # peak drive row


def test_analyze_netlist_input_missing_flags_exit_2(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "s")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    code, _, err = run(
        [
            "analyze",
            os.path.join(out_dir, "netlist.json"),
            "--mode",
            "load-mod",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "--alpha" in json.loads(err)["error"]


@pytest.mark.parametrize("load_port", [None, "main"])
@pytest.mark.parametrize("mode", [
    ["load-mod"], ["pbo-eff"], ["bandwidth"], ["pa-sim", "--ideal-cells", "--v-dc", "1"],
], ids=lambda mode: mode[0])
def test_analyze_netlist_without_load_as_load_port_exit_2(load_port, mode, design_path,
                                                          tmp_path, capsys):
    """The phase offset terminates the ``load`` port while the analyses
    book load power across ``load_port``: another port, or none, would
    book the power of the wrong port, or none at all."""
    run(["synth", design_path, "--out-dir", str(tmp_path / "s")], capsys)
    doc = json.loads((tmp_path / "s" / "netlist.json").read_text())
    doc.pop("load_port")
    if load_port is not None:
        doc["load_port"] = load_port
    p = tmp_path / "net.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["analyze", str(p), "--mode", *mode, "--alpha", "1", "--r-opt", "41.3",
                        "--r-l", "50", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert json.loads(err)["key"] == "load_port"
    assert not (tmp_path / "out").exists()


def test_export_design_input_exit_2(design_path, tmp_path, capsys):
    code, _, _ = run(
        ["export", design_path, "--touchstone", str(tmp_path / "x.s3p")], capsys
    )
    assert code == 2


def test_pbo_eff_line_design_auto_lumped(tmp_path, capsys):
    # a line topology with a finite Q budget is realized as lumped pi, so
    # the efficiency actually reflects the losses
    doc = {"config": PROTO_DESIGN["config"], "topology": "two-line"}
    p = tmp_path / "two.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run(
        ["analyze", str(p), "--mode", "pbo-eff", "--q-l", "20", "--q-c", "20",
         "--points", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = open(os.path.join(tmp_path, "pbo_eff.csv")).read().splitlines()[1:]
    etas = [float(r.split(",")[3]) for r in rows]
    assert all(e < 0.999 for e in etas)


def test_analyze_without_input_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["analyze", "--mode", "load-mod", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "input" in json.loads(err)["error"]


def test_itr_curves_netlist_input_exit_2(design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "s")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    code, _, _ = run(
        [
            "analyze",
            os.path.join(out_dir, "netlist.json"),
            "--mode",
            "itr-curves",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 2


def assert_one_json_error(code, err, flag):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["code"] == 2 and flag in doc["error"]


@pytest.mark.parametrize("v_min", ["2", "1", "-0.1", "nan"])
def test_pa_sim_v_min_outside_unit_interval_exit_2(v_min, design_path, tmp_path, capsys):
    code, _, err = run(
        ["analyze", design_path, "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1.0",
         "--v-min", v_min, "--out-dir", str(tmp_path)],
        capsys,
    )
    assert_one_json_error(code, err, "--v-min")


@pytest.mark.parametrize("flag, value", [
    ("--main-phi-deg", "400"), ("--main-phi-deg", "0"), ("--main-phi-deg", "-90"),
    ("--aux-turn-on", "1.5"), ("--aux-turn-on", "1"), ("--aux-turn-on", "0"),
])
def test_pa_sim_cell_flag_outside_its_domain_exit_2(flag, value, design_path, tmp_path, capsys):
    """The conduction angle lies in (0, 360] degrees and the auxiliary
    turn-on drive in (0, 1): the error names the flag and its own units."""
    code, _, err = run(
        ["analyze", design_path, "--mode", "pa-sim", "--v-dc", "1", "--i-max", "1",
         flag, value, "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert_one_json_error(code, err, flag)
    assert f"got {float(value)}" in json.loads(err)["error"]
    assert not (tmp_path / "out").exists()


def test_pa_sim_aux_peak_current_overflow_names_i_max(tmp_path, capsys):
    """The auxiliary cell's peak current is --i-max times alpha: when that
    product leaves float range the error names the flag, not a key."""
    p = tmp_path / "design.json"
    config = {**PROTO_DESIGN["config"], "alpha": 10.0}
    p.write_text(json.dumps({"config": config, "topology": "two-line"}))
    code, _, err = run(
        ["analyze", str(p), "--mode", "pa-sim", "--v-dc", "1", "--i-max", "1e308",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert_one_json_error(code, err, "--i-max")
    assert "key" not in json.loads(err)


def test_pa_sim_near_subnormal_drive_runs_without_warning(tmp_path, capsys):
    """A first drive level near the smallest normal float overflows the
    impedance division: the run exits 0 with nothing on stderr and leaves
    that row's impedance cells empty."""
    p = tmp_path / "design.json"
    p.write_text(json.dumps({**PROTO_DESIGN, "topology": "two-line", "free_params": {}}))
    code, _, err = run(
        ["analyze", str(p), "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1.0",
         "--i-max", "1.0", "--alpha", "1.0", "--v-min", "1.1125369292536007e-308",
         "--aux-turn-on", "0.5", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert (code, err) == (0, "")
    first = (tmp_path / "pa_sim.csv").read_text().splitlines()[1].split(",")
    assert first[3:7] == ["", "", "", ""]


@pytest.mark.parametrize("window", ["1.5", "1", "-0.2", "nan"])
def test_bandwidth_window_outside_unit_interval_exit_2(window, design_path, tmp_path, capsys):
    code, _, err = run(
        ["analyze", design_path, "--mode", "bandwidth", "--window", window,
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert_one_json_error(code, err, "--window")


@pytest.mark.parametrize(
    "points", ["0", "-3", "1000001", pytest.param("1" + "0" * 400, id="10**400")]
)
def test_export_points_below_one_exit_2(points, design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    ts_path = tmp_path / "x.s3p"
    code, _, err = run(
        ["export", os.path.join(out_dir, "netlist.json"), "--touchstone", str(ts_path),
         "--points", points],
        capsys,
    )
    assert_one_json_error(code, err, "--points")
    assert not ts_path.exists()


_FLAGS = ["--alpha", "1", "--r-opt", "41.3", "--r-l", "50"]


def test_solution_near_float_range_is_judged_without_warning(tmp_path, capsys):
    # at 1e-300 Hz the line's branch currents are near float range, so the
    # backward error's scale overflows: the judgement stands, silently
    p = tmp_path / "net.json"
    p.write_text(json.dumps({
        "f0_hz": 1e-300, "ports": {"main": ["a", "0"], "aux": ["a", "0"], "load": ["a", "0"]},
        "load_port": "load", "elements": [
            {"kind": "resistor", "name": "R1", "nodes": ["a", "0"], "ohms": 50.0},
            {"kind": "tline", "name": "T1", "nodes": ["a", "a"], "z0_ohm": 25.0,
             "theta_deg": 45.0, "f_ref_hz": 2e9, "loss_db_per_quarter": 0.2},
        ],
    }))
    code, _, err = run(["analyze", str(p), "--mode", "load-mod", *_FLAGS,
                        "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")


#: an element whose values are valid but whose stamp leaves float range
#: at and around the netlist f0 it comes with
_OUT_OF_RANGE = {
    "capacitor-1e300": ({"kind": "capacitor", "farads": 1e300, "q": 20.0}, 1e9),
    "inductor-1e300": ({"kind": "inductor", "henries": 1e300, "q": 20.0}, 1e9),
    "tline-f_ref-1e-300": ({"kind": "tline", "nodes": ["a", "b"], "z0_ohm": 50.0,
                            "theta_deg": 90.0, "f_ref_hz": 1e-300}, 1e9),
    # (n/k)^2 overflows and k^2 underflows: z22 is inf * 0
    "coupled-k-1e-300": ({"kind": "coupled_inductors", "nodes": ["a", "0", "b", "0"],
                          "l_p_henries": 1e-8, "n": 1.0, "k": 1e-300, "q": 20.0}, 1e9),
    # w L underflows to 0 at the 1e-300 Hz f0
    "inductor-1e-300-at-1e-300-hz": ({"kind": "inductor", "henries": 1e-300, "q": 20.0}, 1e-300),
    # lines too lossy for double precision (cosh leaves float range at
    # 710 Np): at f_ref = f0/4, 5000 dB a quarter wave is 1151 Np already
    # at f0/2; analyze's one point makes cmath overflow
    "tline-loss-1e300-db": ({"kind": "tline", "nodes": ["a", "b"], "z0_ohm": 50.0,
                             "theta_deg": 90.0, "f_ref_hz": 1e9,
                             "loss_db_per_quarter": 1e300}, 1e9),
    "tline-loss-5000-db": ({"kind": "tline", "nodes": ["a", "b"], "z0_ohm": 50.0,
                            "theta_deg": 90.0, "f_ref_hz": 2.5e8,
                            "loss_db_per_quarter": 5000.0}, 1e9),
}


@pytest.mark.parametrize("command", ["export", "analyze"])
@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_element_beyond_float_range_exits_2_naming_it(case, command, tmp_path, capsys):
    # export stamps a frequency sweep, analyze one point at f0
    element, f0 = _OUT_OF_RANGE[case]
    p = tmp_path / "net.json"
    p.write_text(json.dumps({
        "f0_hz": f0, "ports": {"main": ["a", "0"], "aux": ["a", "0"], "load": ["b", "0"]},
        "load_port": "load", "elements": [
            {"kind": "resistor", "name": "Ra", "nodes": ["a", "0"], "ohms": 50.0},
            {"name": "E0", "nodes": ["a", "0"], **element},
            {"kind": "resistor", "name": "Rb", "nodes": ["b", "0"], "ohms": 50.0},
        ],
    }))
    out = tmp_path / "out"
    argv = {
        "export": ["export", str(p), "--touchstone", str(out / "x.s3p"),
                   "--f-start", str(f0 / 2), "--f-stop", str(f0 * 2), "--points", "3"],
        "analyze": ["analyze", str(p), "--mode", "load-mod", *_FLAGS, "--out-dir", str(out)],
    }[command]
    code, _, err = run(argv, capsys)
    assert_one_json_error(code, err, "a value of element 'E0' leaves float range")
    assert not out.exists()


@pytest.mark.parametrize("nepers", [700.5, 706.0])
def test_line_short_of_float_range_is_solved_or_judged(nepers, tmp_path, capsys):
    # a 60 ohm line hides its 100 ohm load: export writes S11 = 10/110;
    # analyze refuses the network on its condition number, which at
    # 706 Np leaves float range, without a warning
    line = {"kind": "tline", "name": "T1", "nodes": ["a", "b"], "z0_ohm": 60.0,
            "theta_deg": 90.0, "f_ref_hz": 1e9,
            "loss_db_per_quarter": nepers * 20.0 / math.log(10.0)}
    load = {"kind": "resistor", "name": "Rb", "nodes": ["b", "0"], "ohms": 100.0}
    one_port = tmp_path / "one_port.json"
    one_port.write_text(json.dumps({"f0_hz": 1e9, "ports": {"in": ["a", "0"]},
                                    "elements": [line, load]}))
    ts_path = tmp_path / "x.s1p"
    code, _, _ = run(["export", str(one_port), "--touchstone", str(ts_path), "--f-start", "0.999e9",
                      "--f-stop", "1e9", "--points", "2"], capsys)
    assert code == 0
    s11 = read_touchstone(ts_path.read_text()).s[:, 0, 0]
    assert np.abs(s11 - 10.0 / 110.0).max() < 1e-12
    combiner = tmp_path / "combiner.json"
    combiner.write_text(json.dumps({
        "f0_hz": 1e9, "ports": {"main": ["a", "0"], "aux": ["a", "0"], "load": ["b", "0"]},
        "load_port": "load", "elements": [line, load]}))
    code, _, err = run(["analyze", str(combiner), "--mode", "load-mod", *_FLAGS,
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert_one_json_error_exit_3(code, err)
    assert "ill-conditioned network" in err


def test_lossy_line_into_the_load_node_is_refused_on_its_far_end_column(tmp_path, capsys):
    """A known exit 3 for the numerics corpus: a 60 ohm line of 700 Np at
    f0 from ``a`` to the load node ``b``, 100 ohm at ``b``.  ``export`` of
    the main/aux/load netlist exits 3, while the one-port netlist of the
    same line solves to its closed form, S11 = 10/110.

    The rejected column of the export's sweep is the drive into ``load``,
    at the line's far end (backward error 0.96 here, 2e-2 to 6e-2 at 699,
    702 and 705 Np); the drives into ``main`` and ``aux`` pass at about
    1e-23.  The reject is not false: in that column V(a) reads 2e283,
    where the network gives 1.2e-303, and the exact solution of the
    stamped matrix reads 5e287.  The line's chain-form stamp holds cosh
    and sinh of 700 Np, each rounded near 5e303, whose difference of
    1e-304 it cannot keep, so no refinement of the solve clears this
    exit 3."""
    f0, nepers = 1e9, 700.0
    line = {"kind": "tline", "name": "T1", "nodes": ["a", "b"], "z0_ohm": 60.0,
            "theta_deg": 90.0, "f_ref_hz": f0,
            "loss_db_per_quarter": nepers * 20.0 / math.log(10.0)}
    load = {"kind": "resistor", "name": "Rb", "nodes": ["b", "0"], "ohms": 100.0}
    doc = {"f0_hz": f0, "ports": {"main": ["a", "0"], "aux": ["a", "0"], "load": ["b", "0"]},
           "load_port": "load", "elements": [line, load]}
    combiner = tmp_path / "combiner.json"
    combiner.write_text(json.dumps(doc))
    ts_path = tmp_path / "x.s3p"
    code, _, err = run(["export", str(combiner), "--touchstone", str(ts_path), "--points", "1",
                        "--f-start", str(f0), "--f-stop", str(2 * f0)], capsys)
    assert_one_json_error_exit_3(code, err)
    assert "solution rejected: backward error" in err and not ts_path.exists()

    terminated = Netlist.from_json_dict(doc)  # as s_parameters terminates it
    for port, (plus, minus) in doc["ports"].items():
        terminated.add(f"Z_{port}", Resistor(50.0), plus, minus)
    assert solve_columns(terminated, f0, {"main": [1.0]}).backward_error[0] < 1e-20
    with pytest.raises(SingularSystemError, match="solution rejected: backward error"):
        solve_columns(terminated, f0, {"load": [1.0]})

    one_port = tmp_path / "one_port.json"
    one_port.write_text(json.dumps({"f0_hz": f0, "ports": {"in": ["a", "0"]},
                                    "elements": [line, load]}))
    code, _, _ = run(["export", str(one_port), "--touchstone", str(tmp_path / "x.s1p"),
                      "--points", "1", "--f-start", str(f0), "--f-stop", str(2 * f0)], capsys)
    assert code == 0
    s11 = read_touchstone((tmp_path / "x.s1p").read_text()).s[0, 0, 0]
    assert abs(s11 - 10.0 / 110.0) < 1e-12


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "NET", "--mode", "load-mod", "--alpha", "nan", "--r-opt", "41.3",
          "--r-l", "50"], "--alpha"),
        (["analyze", "NET", "--mode", "load-mod", "--alpha", "1", "--r-opt", "41.3",
          "--r-l", "-5"], "--r-l"),
        (["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "inf", "--r-l", "50"],
         "--r-opt"),
        (["export", "NET", "--z-ref", "nan"], "--z-ref"),
        (["export", "NET", "--f-stop", "inf"], "--f-stop"),
        (["analyze", "DESIGN", "--mode", "bandwidth", "--threshold-db", "nan"], "--threshold-db"),
        (["analyze", "DESIGN", "--mode", "pa-sim", "--ideal-cells", "--v-dc", "inf"], "--v-dc"),
        (["analyze", "DESIGN", "--mode", "pa-sim", "--v-dc", "1", "--i-max", "1",
          "--main-phi-deg", "400"], "--main-phi-deg"),
        # (1 + alpha)^2 leaves float range
        (["analyze", "--mode", "itr-curves", "--alpha", "1e300", "--r-opt", "41.3",
          "--r-l", "50"], "alpha = 1e+300 overflows"),
    ],
    ids=["alpha-nan", "r-l-negative", "r-opt-inf", "z-ref-nan", "f-stop-inf",
         "threshold-nan", "v-dc-inf", "phi-out-of-range", "alpha-1e300-itr-curves"],
)
def test_numeric_flag_outside_domain_exit_2(argv, flag, design_path, tmp_path, capsys):
    out_dir = str(tmp_path / "s")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    paths = {"NET": os.path.join(out_dir, "netlist.json"), "DESIGN": design_path}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] == "export":
        argv += ["--touchstone", str(tmp_path / "x.s3p")]
    else:
        argv += ["--out-dir", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert_one_json_error(code, err, flag)
    assert not (tmp_path / "x.s3p").exists()


@pytest.mark.parametrize("input_", ["DESIGN", "NET", None])
def test_f0_flag_is_refused(input_, design_path, tmp_path, capsys):
    # every analysis runs at the design's or netlist's f0_hz
    out_dir = str(tmp_path / "s")
    run(["synth", design_path, "--out-dir", out_dir], capsys)
    paths = {"NET": os.path.join(out_dir, "netlist.json"), "DESIGN": design_path}
    argv = ["analyze", "--mode", "itr-curves", *_FLAGS] if input_ is None else [
        "analyze", paths[input_], "--mode", "load-mod", *_FLAGS]
    code, _, err = run(argv + ["--f0", "30e9", "--out-dir", str(tmp_path / "out")], capsys)
    assert_one_json_error(code, err, "--f0")
    assert not (tmp_path / "out").exists()


def test_output_dir_that_is_a_file_exits_2(design_path, tmp_path, capsys):
    code, out, err = run(["analyze", "--mode", "itr-curves", *_FLAGS, "--out-dir", design_path],
                         capsys)
    assert_one_json_error(code, err, "--out-dir")
    assert design_path in json.loads(err)["error"] and not out
    assert json.loads(open(design_path).read()) == PROTO_DESIGN


def test_failed_write_removes_the_files_already_written(design_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "combiner.s3p").mkdir(parents=True)
    code, out, err = run(["synth", design_path, "--out-dir", str(out_dir)], capsys)
    assert_one_json_error(code, err, "--out-dir")
    assert str(out_dir / "combiner.s3p") in json.loads(err)["error"] and not out
    assert os.listdir(out_dir) == ["combiner.s3p"] and not os.listdir(out_dir / "combiner.s3p")


@pytest.mark.parametrize("points", ["0", "-3"])
@pytest.mark.parametrize("mode", ["load-mod", "pbo-eff", "bandwidth", "pa-sim", "itr-curves"])
def test_analyze_points_below_one_exit_2(mode, points, design_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(
        ["analyze", design_path, "--mode", mode, "--q-l", "20", "--ideal-cells", "--v-dc", "1",
         "--points", points, "--out-dir", str(out_dir)],
        capsys,
    )
    assert_one_json_error(code, err, "--points")
    assert not out_dir.exists()


def test_analyze_input_error_leaves_no_output_dir(design_path, tmp_path, capsys):
    out_dir = tmp_path / "new"
    code, _, err = run(
        ["analyze", design_path, "--mode", "pa-sim", "--v-dc", "1", "--out-dir", str(out_dir)],
        capsys,
    )
    assert_one_json_error(code, err, "--i-max")
    assert not out_dir.exists()


def test_commands_create_nested_output_dir(design_path, tmp_path, capsys):
    out_dir = tmp_path / "a" / "b"
    code, _, _ = run(["analyze", design_path, "--mode", "itr-curves", "--out-dir", str(out_dir)],
                     capsys)
    assert code == 0 and (out_dir / "itr_curves.csv").exists()


@pytest.mark.parametrize("argv", [["synth"], ["analyze", "--mode", "load-mod"]])
@pytest.mark.parametrize(
    "section,value",
    [("config", 5), ("config", None), ("free_params", 5), ("q_budget", None), ("parasitics", [1])],
    ids=["config-5", "config-null", "free_params-5", "q_budget-null", "parasitics-list"],
)
def test_non_object_design_section_exits_2(section, value, argv, tmp_path, capsys):
    p = tmp_path / "design.json"
    p.write_text(json.dumps({**PROTO_DESIGN, section: value}))
    out_dir = tmp_path / "out"
    code, _, err = run([argv[0], str(p), *argv[1:], "--out-dir", str(out_dir)], capsys)
    assert_one_json_error(code, err, f"key '{section}' in design must be an object")
    assert json.loads(err)["key"] == section
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["synth"], ["analyze", "--mode", "load-mod"]])
@pytest.mark.parametrize("key,value", [("n1", 1e-300), ("n1", 1e300), ("k1", 1e-200)])
def test_overflowing_transformer_parameter_exits_2(key, value, argv, tmp_path, capsys):
    doc = {**PROTO_DESIGN, "free_params": {**PROTO_DESIGN["free_params"], key: value}}
    p = tmp_path / "design.json"
    p.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run([argv[0], str(p), *argv[1:], "--out-dir", str(out_dir)], capsys)
    assert_one_json_error(code, err, f"{key} = {value} overflows")
    assert not out_dir.exists()
