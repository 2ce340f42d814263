"""The README prototype commands reproduce perfbench/reference/ byte for byte."""

import json
import os
import shutil

import pytest

from dohertylab.cli import main

REFERENCE_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference")

DESIGN_DOC = {
    "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37.0e9},
    "topology": "transformer",
    "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
    "q_budget": {"q_l": 20.0, "q_c": 20.0},
    "parasitics": {"c_pad_f": 10.0e-15},
}

#: command name -> (argv run inside the command's own directory, files it writes);
#: synth comes first because export reads the netlist.json it writes
COMMANDS = {
    "synth": (["synth", "../design.json", "--out-dir", "."],
              ["report.json", "netlist.json", "combiner.s3p"]),
    "load-mod": (["analyze", "../design.json", "--mode", "load-mod", "--out-dir", "."],
                 ["load_mod.csv"]),
    "pbo-eff": (["analyze", "../design.json", "--mode", "pbo-eff", "--q-l", "20", "--q-c", "20",
                 "--compare", "two-line", "--out-dir", "."],
                ["pbo_eff.csv"]),
    "bandwidth": (["analyze", "../design.json", "--mode", "bandwidth", "--out-dir", "."],
                  ["bandwidth.csv", "bandwidth.json"]),
    "pa-sim": (["analyze", "../design.json", "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1.0",
                "--out-dir", "."],
               ["pa_sim.csv"]),
    "itr-curves": (["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "41.3",
                    "--r-l", "50", "--out-dir", "."],
                   ["itr_curves.csv"]),
    "export": (["export", "../netlist.json", "--touchstone", "combiner.s3p"], ["combiner.s3p"]),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Directory with one subdirectory of outputs per command."""
    work = tmp_path_factory.mktemp("prototype")
    (work / "design.json").write_text(json.dumps(DESIGN_DOC, indent=2))
    with pytest.MonkeyPatch.context() as mp:
        for cmd, (argv, _) in COMMANDS.items():
            (work / cmd).mkdir()
            mp.chdir(work / cmd)
            assert main(list(argv)) == 0, cmd
            if cmd == "synth":
                shutil.copyfile(work / "synth" / "netlist.json", work / "netlist.json")
    return work


@pytest.mark.parametrize(
    "cmd,name", [(cmd, name) for cmd, (_, files) in COMMANDS.items() for name in files]
)
def test_output_matches_reference_bytes(outputs, cmd, name):
    with open(os.path.join(REFERENCE_DIR, cmd, name), "rb") as fh:
        want = fh.read()
    assert (outputs / cmd / name).read_bytes() == want
