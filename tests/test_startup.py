"""What a fresh CLI process imports: each command loads only the modules
it runs, so a call does not pay to compile and build the rest."""

import json
import os
import subprocess
import sys

import pytest

from dohertylab import analysis, errors, synth
from dohertylab.cli import main
from dohertylab.netkit import mna

SRC = os.path.dirname(os.path.dirname(os.path.abspath(errors.__file__)))

DESIGN = {
    "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37.0e9},
    "topology": "transformer",
    "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
    "q_budget": {"q_l": 20.0, "q_c": 20.0},
}

# runs dohertylab.cli as __main__ with the argv in sys.argv[1]; at exit
# prints the dohertylab modules it loaded as the last stdout line
MAIN_PROBE = """
import atexit, json, runpy, sys
sys.argv = ["dohertylab"] + json.loads(sys.argv[1])
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules
                                                if m.startswith("dohertylab")))))
try:
    runpy.run_module("dohertylab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def loaded_modules(code: str, *args: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A design file and the netlist its ``synth`` writes."""
    root = tmp_path_factory.mktemp("startup")
    design = root / "design.json"
    design.write_text(json.dumps(DESIGN))
    assert main(["synth", str(design), "--out-dir", str(root)]) == 0
    return {"root": str(root), "design": str(design), "netlist": str(root / "netlist.json")}


def imported_by(module: str) -> set[str]:
    return loaded_modules(
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dohertylab'))))"
    )


def test_importing_the_package_loads_no_submodule():
    assert imported_by("dohertylab") == {"dohertylab"}


def test_importing_the_cli_loads_no_command_module():
    assert imported_by("dohertylab.cli") == {
        "dohertylab", "dohertylab.cli", "dohertylab.errors", "dohertylab.report"
    }


@pytest.mark.parametrize("command", ["synth", "export", "itr-curves"])
def test_commands_without_analysis_do_not_load_it(command, files):
    out = os.path.join(files["root"], command)
    argv = {
        "synth": ["synth", files["design"], "--out-dir", out],
        "export": ["export", files["netlist"], "--touchstone", os.path.join(out, "x.s3p")],
        "itr-curves": ["analyze", files["design"], "--mode", "itr-curves", "--out-dir", out],
    }[command]
    loaded = loaded_modules(MAIN_PROBE, json.dumps(argv))
    # export reads a netlist: it runs neither synthesis nor the closed forms
    for name in ("synth", "ideal"):
        assert (f"dohertylab.{name}" in loaded) == (command != "export")
    assert "dohertylab.analysis" not in loaded
    assert "dohertylab.cells" not in loaded


def test_itr_curves_from_flags_loads_no_solver(files):
    argv = ["analyze", "--mode", "itr-curves", "--alpha", "1", "--r-opt", "41.3", "--r-l", "50",
            "--out-dir", os.path.join(files["root"], "itr-flags")]
    loaded = loaded_modules(MAIN_PROBE, json.dumps(argv))
    assert "dohertylab.ideal" in loaded
    assert not any(m == "dohertylab.synth" or m.startswith("dohertylab.netkit") for m in loaded)


def test_pa_sim_loads_cells(files):
    argv = ["analyze", files["design"], "--mode", "pa-sim", "--ideal-cells", "--v-dc", "1",
            "--points", "5", "--out-dir", os.path.join(files["root"], "pa")]
    loaded = loaded_modules(MAIN_PROBE, json.dumps(argv))
    assert {"dohertylab.analysis", "dohertylab.cells"} <= loaded


def test_degenerate_transfer_error_lives_in_errors():
    assert analysis.DegenerateTransferError is errors.DegenerateTransferError


def test_design_and_solver_errors_live_in_errors():
    """The CLI maps these to exit 3 without importing the modules that raise them."""
    assert synth.DesignConsistencyError is errors.DesignConsistencyError
    assert mna.SingularSystemError is errors.SingularSystemError
