"""The CLI as a process: ``python -m dohertylab.cli`` with stdout and
stderr on pipes keeps the exit-code contract of ``main``, writes what an
in-process call writes, flushes its output before the process ends and
runs the ``atexit`` handlers registered before it."""

import json
import os
import subprocess
import sys

import pytest

from dohertylab import errors
from dohertylab.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(errors.__file__)))

DESIGN = {
    "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37.0e9},
    "topology": "transformer",
    "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
    "q_budget": {"q_l": 20.0, "q_c": 20.0},
}

# runs dohertylab.cli as __main__ with the argv in sys.argv[1], after a
# wrapper has registered an atexit handler
WRAPPER = """
import atexit, json, runpy, sys
sys.argv = ["dohertylab"] + json.loads(sys.argv[1])
atexit.register(lambda: print("wrapper handler ran"))
runpy.run_module("dohertylab.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """The finished ``python -m dohertylab.cli args`` process, or with
    ``code`` the process of ``python -c code args``; its stdout to the
    pipe is block-buffered, so output it does not flush is lost."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    entry = ["-m", "dohertylab.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *args], env=env,
                          capture_output=True, text=True)


def assert_one_json_error(proc, code: int) -> None:
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["code"] == code


@pytest.fixture()
def design(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(DESIGN))
    return str(path)


def test_synth_process_writes_what_main_writes(design, tmp_path, capsys):
    proc = run_cli("synth", design, "--out-dir", str(tmp_path / "proc"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == str(tmp_path / "proc" / "report.json") + "\n"
    assert main(["synth", design, "--out-dir", str(tmp_path / "main")]) == 0
    capsys.readouterr()
    for name in ("report.json", "netlist.json", "combiner.s3p"):
        assert (tmp_path / "proc" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_bad_mode_exits_2(design):
    assert_one_json_error(run_cli("analyze", design, "--mode", "bogus"), 2)


def test_solver_rejected_design_exits_3(tmp_path):
    path = tmp_path / "near_unity.json"
    path.write_text(json.dumps({**DESIGN, "free_params": {"n1": 1.0, "k1": 0.999999, "n2": 1.0}}))
    assert_one_json_error(run_cli("synth", str(path), "--out-dir", str(tmp_path / "out")), 3)
    assert not (tmp_path / "out").exists()


def test_handler_registered_before_the_cli_runs(design, tmp_path):
    report = str(tmp_path / "out" / "report.json")
    proc = run_cli(json.dumps(["synth", design, "--out-dir", str(tmp_path / "out")]),
                   code=WRAPPER)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [report, "wrapper handler ran"]
