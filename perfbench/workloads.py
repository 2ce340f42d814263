"""The four benchmark workloads, their inputs and their output checks.

Every workload has the same shape:

* ``build(seed, sizes, workdir)`` makes the inputs (designs, netlists,
  drive grids, files) and returns a state object;
* ``call(state, i)`` runs user-level call number ``i`` and returns its
  output;
* ``check(state, out)`` returns a list of failure messages, empty when
  the output is correct;
* the output's ``"points"`` entry is the number of operating points the
  call solved: one frequency times one excitation vector.

The library is reached only through module attributes
(``analysis.load_modulation``, ``touchstone.s_parameters``, ...), so the
tracer in ``tracing.py`` sees every call when it replaces those names.
The tolerances of the checks are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from dohertylab import analysis, cells, evm, ideal, report, synth
from dohertylab.netkit import netlist as netlist_mod
from dohertylab.netkit import touchstone

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

PROTO = ideal.DohertyConfig(alpha=1.0, r_opt=41.3, r_l=50.0, f0=37e9)
Q = 20.0
C_PAD_F = 10e-15
SIX_DB = 20.0 * math.log10(2.0)
PORTS = ["main", "aux", "load"]


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of one benchmark configuration."""

    drive_points: int = 2001  # load_modulation drive grid per combiner
    pa_levels: int = 2001  # simulate_pa drive levels per combiner
    bw_eff_points: int = 20001  # passive-efficiency bandwidth grid
    bw_match_points: int = 4001  # load-match bandwidth grid
    sparam_points: int = 2001  # 3-port S-parameter grid
    design_pool: int = 50000  # distinct designs drawn per run
    design_load_mod_points: int = 5
    design_itr_points: int = 21
    repeats: int = 3  # set-up repetitions and import probes per run
    trace_calls: dict | None = None  # calls per traced phase, by workload


FULL = Sizes(
    trace_calls={"cli_prototype": 2, "drive_sweep": 2, "freq_sweep": 2, "design_sweep": 600}
)
TINY = Sizes(
    drive_points=21,
    pa_levels=21,
    bw_eff_points=41,
    bw_match_points=21,
    sparam_points=11,
    design_pool=30,
    repeats=1,
    trace_calls={"cli_prototype": 1, "drive_sweep": 1, "freq_sweep": 1, "design_sweep": 6},
)
SIZES = {"full": FULL, "tiny": TINY}


@contextlib.contextmanager
def work_dir(root: str):
    """A fresh directory under ``<root>/.perfbench_work``, removed on exit."""
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=base) as path:
            yield path
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(base)


def max_rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def transformer_design():
    """The README prototype: transformer, n1 = 1, k1 = 0.7, n2 = 1, 10 fF pad."""
    return synth.synth_transformer_combiner(PROTO, n1=1.0, k1=0.7, n2=1.0, c_pad=C_PAD_F)


# ----------------------------------------------------------------------
# drive_sweep
# ----------------------------------------------------------------------


class DriveSweep:
    """All three prototype combiners at f0: load modulation, PA sweep with
    ideal cells, 64QAM EVM and CSV rendering.  Every point of a combiner
    shares one matrix.

    The transformer is lossless here: the acceptance check that its
    z_main tracks r_opt/i_main within 0.5% holds for the lossless network
    only (at Q = 20 the real part departs by about 10%).  Q changes the
    element values, not the size or structure of the system.
    """

    name = "drive_sweep"

    def build(self, seed: int, sizes: Sizes, workdir: str):
        tf = transformer_design()
        nets = {
            "two-line": synth.to_netlist(synth.synth_two_line(PROTO)),
            "three-line": synth.to_netlist(
                synth.synth_three_line(PROTO), q_l=Q, q_c=Q, implementation="lumped-pi"
            ),
            "transformer": synth.to_netlist(tf),
        }
        grid = np.linspace(0.02, 1.0, sizes.pa_levels)
        v_second_peak = 1.0 / (1.0 + PROTO.alpha)
        if np.abs(grid - v_second_peak).min() > 1e-12:
            grid = np.sort(np.append(grid, v_second_peak))
        order = list(nets)
        random.Random(seed).shuffle(order)
        return {
            "nets": nets,
            "order": order,
            "cells": cells.ideal_doherty_cells(PROTO, 1.0),
            "grid": grid,
            "sizes": sizes,
        }

    def call(self, state, i: int):
        sizes = state["sizes"]
        main_cell, aux_cell = state["cells"]
        out = {"points": 0}
        for name in state["order"]:
            net = state["nets"][name]
            prof = analysis.drive_profile(PROTO, net, sizes.drive_points)
            sweep = analysis.load_modulation(net, PROTO, prof)
            sim = analysis.simulate_pa(main_cell, aux_cell, net, state["grid"], 1.0)
            evms = [
                evm.evm_64qam((sim.v, sim.am_am_db), (sim.v, sim.am_pm_deg), b)
                for b in (6.0, 8.0, 10.0)
            ]
            lm_csv = report.csv_text(report.SWEEP_COLUMNS, report.load_mod_rows(sweep))
            pa_csv = report.csv_text(report.SWEEP_COLUMNS, report.pa_sim_rows(sim))
            solved = int(np.count_nonzero((sim.i_main > 0) | (sim.i_aux > 0)))
            # two required_phase_offset solves each in drive_profile and simulate_pa
            out["points"] += 2 + len(prof) + 2 + solved
            out[name] = (prof, sweep, sim, evms, lm_csv, pa_csv)
        return out

    def check(self, state, out) -> list[str]:
        fails = []
        for name in state["nets"]:
            prof, sweep, sim, evms, lm_csv, pa_csv = out[name]
            if lm_csv.count("\n") != len(prof) + 1 or pa_csv.count("\n") != len(sim.v) + 1:
                fails.append(f"{name}: CSV row count")
            if not all(math.isfinite(e) and e >= 0 for e in evms):
                fails.append(f"{name}: EVM not finite: {evms}")
        _, _, sim, _, _, _ = out["two-line"]
        for label, eta in (("0 dB", sim.eta[-1]), ("6.02 dB", sim.eta_at_pbo(SIX_DB))):
            if not abs(eta - math.pi / 4.0) <= 0.001:
                fails.append(f"two-line ideal-cell eta at {label} is {eta}, want pi/4 +- 0.001")
        prof, sweep, _, _, _, _ = out["transformer"]
        on = prof.i_main >= PROTO.i_main_turn_on - 1e-12
        target = PROTO.r_opt / prof.i_main[on]
        err = max_rel(sweep.z_main.real[on], target)
        if not err < 0.005:
            fails.append(f"transformer z_main departs from r_opt/i_main by {err:.3%}")
        return fails


# ----------------------------------------------------------------------
# freq_sweep
# ----------------------------------------------------------------------


class FreqSweep:
    """Dense frequency grids: every point needs a new matrix."""

    name = "freq_sweep"

    def build(self, seed: int, sizes: Sizes, workdir: str):
        tf = transformer_design()
        net_tf = synth.to_netlist(tf, q_l=Q, q_c=Q)
        net_3l = synth.to_netlist(
            synth.synth_three_line(PROTO), q_l=Q, q_c=Q, implementation="lumped-pi"
        )
        steps = ["bw_eff", "bw_match", "sparams"]
        random.Random(seed).shuffle(steps)
        return {
            "net_tf": net_tf,
            "exc_tf": analysis.peak_excitations(PROTO, analysis.drive_profile(PROTO, net_tf, 2)),
            "net_3l": net_3l,
            "exc_3l": analysis.peak_excitations(PROTO, analysis.drive_profile(PROTO, net_3l, 2)),
            "export": synth.to_netlist(tf, include_load=False),
            "freqs": np.linspace(0.6 * PROTO.f0, 1.4 * PROTO.f0, sizes.sparam_points),
            "steps": steps,
            "sizes": sizes,
        }

    def call(self, state, i: int):
        sizes = state["sizes"]
        out = {}
        for step in state["steps"]:
            if step == "bw_eff":
                out[step] = analysis.bandwidth_report(
                    state["net_tf"], state["exc_tf"], "passive-efficiency",
                    n_points=sizes.bw_eff_points,
                )
            elif step == "bw_match":
                out[step] = analysis.bandwidth_report(
                    state["net_3l"], state["exc_3l"], "load-match",
                    n_points=sizes.bw_match_points,
                )
            else:
                s = touchstone.s_parameters(state["export"], PORTS, state["freqs"], 50.0)
                text = touchstone.write_touchstone(state["freqs"], s, 50.0)
                out[step] = (s, text, touchstone.read_touchstone(text))
        s = out["sparams"][0]
        out["points"] = (
            len(out["bw_eff"].freqs) + len(out["bw_match"].freqs) + s.shape[0] * s.shape[2]
        )
        return out

    def check(self, state, out) -> list[str]:
        fails = []
        for step in ("bw_eff", "bw_match"):
            bw = out[step]
            if not (bw.met_at_center and bw.fractional > 0):
                fails.append(f"{step}: criterion not met at center")
        s, text, back = out["sparams"]
        recip = float(np.abs(s - s.transpose(0, 2, 1)).max())
        unit = float(np.abs(np.einsum("fji,fjk->fik", s.conj(), s) - np.eye(s.shape[1])).max())
        if not recip <= 1e-9:
            fails.append(f"S-matrix not reciprocal: {recip:.2e}")
        if not unit <= 1e-9:
            fails.append(f"lossless S-matrix not unitary: {unit:.2e}")
        trip = float(np.abs(back.s - s).max())
        if not trip <= 1e-9 or not np.allclose(back.freqs_hz, state["freqs"], rtol=1e-9, atol=0):
            fails.append(f"Touchstone round trip off by {trip:.2e}")
        return fails


# ----------------------------------------------------------------------
# design_sweep
# ----------------------------------------------------------------------


def draw_designs(seed: int, n: int) -> dict[str, np.ndarray]:
    """Design parameters in the windows of acceptance criterion 3, one
    row per design; the topology rotates through the three families and
    the transformer rows have alpha = 1."""
    rng = np.random.default_rng(seed)
    topology = np.arange(n) % 3  # 0 two-line, 1 three-line, 2 transformer
    return {
        "topology": topology,
        "alpha": np.where(topology == 2, 1.0, rng.uniform(0.5, 2.0, n)),
        "r_opt": rng.uniform(20.0, 80.0, n),
        "f0": rng.uniform(10e9, 100e9, n),
        "n1": rng.uniform(0.5, 2.0, n),
        "k1": rng.uniform(0.3, 0.9, n),
        "n2": rng.uniform(0.5, 2.0, n),
    }


class DesignSweep:
    """Many small, distinct systems with few solves each."""

    name = "design_sweep"

    def build(self, seed: int, sizes: Sizes, workdir: str):
        return {"designs": draw_designs(seed, sizes.design_pool), "sizes": sizes}

    def call(self, state, i: int):
        sizes = state["sizes"]
        k = i % sizes.design_pool
        d = {key: col[k].item() for key, col in state["designs"].items()}
        cfg = ideal.DohertyConfig(alpha=d["alpha"], r_opt=d["r_opt"], r_l=50.0, f0=d["f0"])
        if d["topology"] == 0:
            design = synth.synth_two_line(cfg)
            net = synth.to_netlist(design, q_l=Q, q_c=Q, implementation="lumped-pi")
        elif d["topology"] == 1:
            design = synth.synth_three_line(cfg)
            net = synth.to_netlist(design, q_l=Q, q_c=Q, implementation="lumped-pi")
        else:
            design = synth.synth_transformer_combiner(cfg, n1=d["n1"], k1=d["k1"], n2=d["n2"])
            net = synth.to_netlist(design, q_l=Q, q_c=Q)
        doc = net.to_json_dict()
        rebuilt = netlist_mod.Netlist.from_json_dict(json.loads(json.dumps(doc)))
        offset = analysis.required_phase_offset(net)
        prof = analysis.drive_profile(cfg, net, sizes.design_load_mod_points, main_phase_deg=offset)
        sweep = analysis.load_modulation(net, cfg, prof)
        grid = np.linspace(cfg.i_main_turn_on, cfg.i_main_max, sizes.design_itr_points)
        measured, formula = analysis.itr_inverter_oracle(design, grid)
        # the two-line oracle measures its base node resistance with one more solve
        probe = 1 if d["topology"] == 0 else 0
        return {
            "design": design,
            "net": net,
            "doc": doc,
            "rebuilt": rebuilt,
            "sweep": sweep,
            "measured": measured,
            "formula": formula,
            "points": 2 + len(prof) + len(grid) + probe,
        }

    def check(self, state, out) -> list[str]:
        fails = []
        err = max_rel(out["measured"], out["formula"])
        if not err < 0.005:
            fails.append(f"ITR oracle departs from the closed form by {err:.3%}")
        worst = max(out["design"].identity_residuals.values())
        if not worst < synth.IDENTITY_TOL:
            fails.append(f"identity residual {worst:.2e} >= {synth.IDENTITY_TOL}")
        if out["rebuilt"] != out["net"] or out["rebuilt"].to_json_dict() != out["doc"]:
            fails.append("netlist JSON round trip does not rebuild an equal netlist")
        if not np.all(np.isfinite(out["sweep"].z_main)):
            fails.append("load modulation gave a non-finite z_main")
        return fails


# ----------------------------------------------------------------------
# cli_prototype
# ----------------------------------------------------------------------

DESIGN_DOC = {
    "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0, "f0_hz": 37.0e9},
    "topology": "transformer",
    "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
    "q_budget": {"q_l": 20.0, "q_c": 20.0},
    "parasitics": {"c_pad_f": 10.0e-15},
}

#: command name -> (argv run inside the command's own directory, files it writes)
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


def prepare_cli_dir(workdir: str, netlist_json: str | None) -> None:
    """Write the design file, the export input (when given) and one
    directory per command."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "design.json"), "w", encoding="utf-8") as fh:
        json.dump(DESIGN_DOC, fh, indent=2)
    if netlist_json is not None:
        shutil.copyfile(netlist_json, os.path.join(workdir, "netlist.json"))
    for cmd in COMMANDS:
        os.makedirs(os.path.join(workdir, cmd), exist_ok=True)


def _numeric_tokens(path: str) -> tuple[list[str], list[float]]:
    """(non-numeric tokens, numeric values) of a CSV, JSON or Touchstone file.

    Raises ValueError when the file does not parse."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    words: list[str] = []
    nums: list[float] = []
    if path.endswith(".json"):
        def walk(obj, key=""):
            if isinstance(obj, bool) or obj is None or isinstance(obj, str):
                words.append(f"{key}={obj!r}")
            elif isinstance(obj, (int, float)):
                words.append(key)
                nums.append(float(obj))
            elif isinstance(obj, dict):
                for k in sorted(obj):
                    walk(obj[k], f"{key}/{k}")
            else:
                for k, v in enumerate(obj):
                    walk(v, f"{key}[{k}]")
        walk(json.loads(text))
    elif path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty CSV")
        words.extend(rows[0])
        for row in rows[1:]:
            if len(row) != len(rows[0]):
                raise ValueError(f"row of {len(row)} cells under a {len(rows[0])}-column header")
            for cell in row:
                if cell == "":
                    words.append("")
                else:
                    nums.append(float(cell))
    else:  # Touchstone: comment and option lines are words, the rest numbers
        for line in text.splitlines():
            if line.startswith(("!", "#")):
                words.append(line)
            else:
                nums.extend(float(t) for t in line.split())
    return words, nums


def ninth_digit_equal(a: float, b: float) -> bool:
    """True when a and b agree to one unit in the 9th significant digit."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= 10.0 ** (math.floor(math.log10(scale)) - 8)


def compare_output(path: str, ref_path: str) -> str | None:
    """None when ``path`` parses and matches the reference, else why not."""
    try:
        words, nums = _numeric_tokens(path)
    except (OSError, ValueError) as exc:
        return f"{os.path.basename(path)} does not parse: {exc}"
    ref_words, ref_nums = _numeric_tokens(ref_path)
    if words != ref_words or len(nums) != len(ref_nums):
        return f"{os.path.basename(path)} differs in structure from the reference"
    for k, (a, b) in enumerate(zip(nums, ref_nums)):
        if not ninth_digit_equal(a, b):
            return f"{os.path.basename(path)} value {k} is {a!r}, reference {b!r}"
    return None


def check_command_dir(cmd: str, cmd_dir: str) -> tuple[list[str], int, int]:
    """(failures, byte-identical file count, output bytes) of one command.

    Each output is removed once checked, so a later run of the command
    that stops writing it fails instead of passing on a stale file."""
    fails, identical, size = [], 0, 0
    for fname in COMMANDS[cmd][1]:
        path = os.path.join(cmd_dir, fname)
        ref = os.path.join(REFERENCE_DIR, cmd, fname)
        why = compare_output(path, ref)
        if why is not None:
            fails.append(f"{cmd}: {why}")
            continue
        with open(path, "rb") as fa, open(ref, "rb") as fb:
            data = fa.read()
            identical += data == fb.read()
            size += len(data)
        os.remove(path)
    return fails, identical, size


def cli_env(root: str) -> dict:
    """Environment of a CLI subprocess: the checkout's sources, default precision."""
    env = dict(os.environ)
    env.pop("DOHERTYLAB_PRECISION", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliPrototype:
    """Every CLI command as a fresh subprocess on the README prototype.

    Timed calls come in rounds of all commands, each round in an order
    shuffled from the seed, and a run ends on a whole round so that every
    command weighs the same in its metrics."""

    name = "cli_prototype"
    round_len = len(COMMANDS)
    in_process = False  # a call waits on a subprocess

    def __init__(self, root: str):
        self.root = root

    def inprocess_pass(self, workdir: str, tracer=None) -> dict:
        """Run every command once through ``dohertylab.cli.main(argv)`` in
        this process.  Per command: wall ms, failures, byte-identical
        files, output bytes, and with a tracer the solved points and the
        required_phase_offset calls."""
        cli = importlib.import_module("dohertylab.cli")
        out = {}
        for cmd, (argv, _) in COMMANDS.items():
            before = dict(tracer.counts) if tracer else {}
            offsets = tracer.calls["analysis.required_phase_offset"] if tracer else 0
            cwd = os.getcwd()
            os.chdir(os.path.join(workdir, cmd))
            try:
                with contextlib.redirect_stdout(io.StringIO()) as buf, \
                        contextlib.redirect_stderr(buf):
                    t0 = time.perf_counter()
                    code = cli.main(list(argv))
                    ms = (time.perf_counter() - t0) * 1e3
            finally:
                os.chdir(cwd)
            if code == 0:
                fails, identical, size = check_command_dir(cmd, os.path.join(workdir, cmd))
            else:
                fails = [f"{cmd}: exit code {code}: {buf.getvalue()[-300:]!r}"]
                identical, size = 0, 0
            out[cmd] = {"ms": ms, "fails": fails, "identical": identical, "bytes": size}
            if tracer:
                solved = tracer.counts["rhs_columns"] - before.get("rhs_columns", 0)
                out[cmd]["points"] = int(solved)
                out[cmd]["phase_offsets"] = tracer.calls["analysis.required_phase_offset"] - offsets
        return out

    def build(self, seed: int, sizes: Sizes, workdir: str):
        from tracing import Tracer

        prepare_cli_dir(workdir, os.path.join(REFERENCE_DIR, "synth", "netlist.json"))
        # the solved points of each command, counted once in process
        tracer = Tracer().install()
        try:
            counted = self.inprocess_pass(workdir, tracer)
        finally:
            tracer.uninstall()
        return {
            "workdir": workdir,
            "seed": seed,
            "points": {cmd: r["points"] for cmd, r in counted.items()},
        }

    def call(self, state, i: int):
        # call 0 is the warm-up; calls 1, 2, ... make up the rounds
        rnd, pos = divmod(max(i - 1, 0), self.round_len)
        order = list(COMMANDS)
        random.Random(f"{state['seed']}/{rnd}").shuffle(order)
        cmd = order[pos]
        proc = subprocess.run(
            [sys.executable, "-m", "dohertylab.cli", *COMMANDS[cmd][0]],
            cwd=os.path.join(state["workdir"], cmd),
            env=cli_env(self.root),
            capture_output=True,
            timeout=120,
        )
        return {
            "cmd": cmd,
            "returncode": proc.returncode,
            "stderr": proc.stderr,
            "points": state["points"][cmd],
        }

    def check(self, state, out) -> list[str]:
        if out["returncode"] != 0:
            return [f"{out['cmd']}: exit code {out['returncode']}: {out['stderr'][-300:]!r}"]
        cmd_dir = os.path.join(state["workdir"], out["cmd"])
        fails, identical, _ = check_command_dir(out["cmd"], cmd_dir)
        state.setdefault("identical", {})[out["cmd"]] = identical
        return fails


def make(name: str, root: str):
    if name == "cli_prototype":
        return CliPrototype(root)
    return {"drive_sweep": DriveSweep, "freq_sweep": FreqSweep, "design_sweep": DesignSweep}[name]()


WORKLOADS = ("cli_prototype", "drive_sweep", "freq_sweep", "design_sweep")
