"""CLI contract: outputs, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from dohertylab.cli import main
from dohertylab.netkit import Netlist, read_touchstone, s_parameters

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


def test_synth_deterministic_bytes(design_path, tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["synth", design_path, "--out-dir", out_a], capsys)[0] == 0
    assert run(["synth", design_path, "--out-dir", out_b], capsys)[0] == 0
    for name in ("report.json", "netlist.json", "combiner.s3p"):
        with open(os.path.join(out_a, name), "rb") as fa, open(
            os.path.join(out_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update({"topology": "ring"}),
        lambda d: d.update({"surprise": 1}),
        lambda d: d["config"].pop("r_opt_ohm"),
        lambda d: d["config"].update({"alpha": -1.0}),
        lambda d: d["config"].update({"f0_hz": "fast"}),
        lambda d: d.update({"free_params": {"k1": 2.0}}),
        lambda d: d.update({"parasitics": {"c_pad_f": 1.0e-9}}),
    ],
)
def test_malformed_design_corpus_exits_2(mutate, tmp_path, capsys):
    doc = json.loads(json.dumps(PROTO_DESIGN))
    mutate(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["synth", str(p), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == 2
    assert payload["error"]


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
    ],
    ids=["amps-not-a-pair", "nodes-not-a-list", "ohms-not-finite"],
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


def test_internal_consistency_failure_exits_3(design_path, tmp_path, capsys, monkeypatch):
    from dohertylab import cli as cli_mod
    from dohertylab.synth import DesignConsistencyError

    def boom(spec):
        raise DesignConsistencyError("identity residual 1e-3 above tolerance")

    monkeypatch.setattr(cli_mod, "synthesize", boom)
    code, _, err = run(["synth", design_path, "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert json.loads(err)["code"] == 3


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
    code, _, _ = run(
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


def test_precision_env_override(design_path, tmp_path, capsys, monkeypatch):
    out_dir = str(tmp_path)
    monkeypatch.setenv("DOHERTYLAB_PRECISION", "4")
    run(
        ["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "41.3",
         "--r-l", "50", "--out-dir", out_dir],
        capsys,
    )
    first_data = open(os.path.join(out_dir, "itr_curves.csv")).read().splitlines()[1]
    assert "2.421" in first_data and "2.42130751" not in first_data


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


@pytest.mark.parametrize("window", ["1.5", "1", "-0.2", "nan"])
def test_bandwidth_window_outside_unit_interval_exit_2(window, design_path, tmp_path, capsys):
    code, _, err = run(
        ["analyze", design_path, "--mode", "bandwidth", "--window", window,
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert_one_json_error(code, err, "--window")


@pytest.mark.parametrize("points", ["0", "-3"])
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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "NET", "--mode", "load-mod", "--alpha", "nan", "--r-opt", "41.3",
          "--r-l", "50"], "--alpha"),
        (["analyze", "NET", "--mode", "load-mod", "--alpha", "1", "--r-opt", "41.3",
          "--r-l", "-5"], "--r-l"),
        (["analyze", "NET", "--mode", "load-mod", *_FLAGS, "--f0", "nan"], "--f0"),
        (["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "inf", "--r-l", "50"],
         "--r-opt"),
        (["export", "NET", "--z-ref", "nan"], "--z-ref"),
        (["export", "NET", "--f-stop", "inf"], "--f-stop"),
        (["analyze", "DESIGN", "--mode", "bandwidth", "--threshold-db", "nan"], "--threshold-db"),
        (["analyze", "DESIGN", "--mode", "pa-sim", "--ideal-cells", "--v-dc", "inf"], "--v-dc"),
        (["analyze", "DESIGN", "--mode", "pa-sim", "--v-dc", "1", "--i-max", "1",
          "--main-phi-deg", "400"], "conduction angle"),
    ],
    ids=["alpha-nan", "r-l-negative", "f0-nan", "r-opt-inf", "z-ref-nan", "f-stop-inf",
         "threshold-nan", "v-dc-inf", "phi-out-of-range"],
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
