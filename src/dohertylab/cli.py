"""Command-line front end: synthesize designs, run sweeps, export files.

Subcommands
-----------
synth    design.json -> report.json + netlist.json + 3-port Touchstone
analyze  design/netlist -> CSV sweeps (load-mod, pbo-eff, bandwidth,
         pa-sim, itr-curves)
export   netlist.json -> Touchstone over a frequency grid

Each command returns its files' texts by path; :func:`main` writes them once
all are computed, then prints the last path: a failing command writes nothing.

Exit codes, mapped from errors in :func:`main` alone: 0 success; 2 bad
input (:class:`~dohertylab.errors.InputError`) or an output that cannot
be written, whose files already written are removed; 3 internal-consistency
failure (a synthesized design that fails its identities, a network the
solver rejects, or a degenerate transfer).  Errors are emitted as one
JSON object on stderr, naming at exit 2 the ``key``, ``element``, ``node``
or ``--flag`` at fault; any other error is a fault of the program and keeps
its traceback.  Every analysis runs at the ``f0_hz`` of its design or
netlist, and ``synth`` and ``analyze`` first judge the network there for
every drive (:func:`~dohertylab.netkit.check_network`), so a network that
double precision cannot hold exits 3 whatever the mode.

Design file schema (all units in the key names)::

    {
      "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0,
                 "f0_hz": 37.0e9},
      "topology": "two-line" | "three-line" | "transformer",
      "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0},
      "q_budget": {"q_l": 20.0, "q_c": 20.0},
      "parasitics": {"c_pad_f": 10.0e-15}
    }

The topology's design class (``dohertylab.synth.TOPOLOGIES``) names the
``free_params`` and ``parasitics`` keys it accepts; the defaults are those
of its synthesis function:

* ``two-line``: none;
* ``three-line``: ``z02_ohm`` (default z01; z03 follows);
* ``transformer``: ``n1`` (1), ``k1`` (0.7, inside (0, 1)), ``n2`` (1)
  and ``c_pad_f`` (0, at most C3); ``alpha`` must be 1.

Other keys are rejected, and an exit-2 error about a design-file value
names its key, also where a closed form leaves float range (``r_opt_ohm``
and ``r_l_ohm`` of 1e-300, say): it names the input farthest from 1.

Netlist JSON schema (produced by ``Netlist.to_json_dict``)::

    {
      "f0_hz": 37.0e9,
      "ground": "0",
      "ports": {"main": ["main", "0"], "aux": ["aux", "0"],
                "load": ["out", "0"]},
      "load_port": "load",
      "elements": [
        {"kind": "resistor", "name": "RL", "nodes": ["out", "0"],
         "ohms": 50.0},
        {"kind": "inductor", "name": "L1", "nodes": ["a", "0"],
         "henries": 1.0e-9, "q": 20.0},
        {"kind": "capacitor", "name": "C1", "nodes": ["a", "0"],
         "farads": 1.0e-13, "q": 20.0},
        {"kind": "coupled_inductors", "name": "TF1",
         "nodes": ["p1", "p2", "s1", "s2"],
         "l_p_henries": 4.0e-10, "n": 1.0, "k": 0.7, "q": 20.0},
        {"kind": "ideal_transformer", "name": "X1",
         "nodes": ["p1", "p2", "s1", "s2"], "n": 1.4},
        {"kind": "tline", "name": "TL1", "nodes": ["a", "b"],
         "z0_ohm": 50.0, "theta_deg": 90.0, "f_ref_hz": 37.0e9,
         "loss_db_per_quarter": 0.2},
        {"kind": "current_source", "name": "I1", "nodes": ["a", "0"],
         "amps": [1.0, 0.0]}
      ]
    }

``q`` and ``loss_db_per_quarter`` are omitted when lossless.  Node lists
are lists of names and every value is a finite number (``amps`` a
[re, im] pair).
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import math
import os
import sys
from collections.abc import Container
from typing import TYPE_CHECKING

import numpy as np

from . import report
from .errors import (
    DegenerateTransferError,
    DesignConsistencyError,
    InputError,
    SingularSystemError,
    json_number,
)

if TYPE_CHECKING:  # annotations only: each command imports the modules it runs
    from .ideal import DohertyConfig
    from .netkit import Netlist

__all__ = ["main", "run"]

#: names ``perfbench/tracing.py`` patches here, each resolved from the module
#: that defines it; the commands call them through that module, which the
#: tracer patches too, so each traced call is counted once
_REEXPORTS = {
    **dict.fromkeys(("synth_two_line", "synth_three_line", "synth_transformer_combiner",
                     "to_netlist"), "synth"),
    **dict.fromkeys(("s_parameters", "write_touchstone"), "netkit.touchstone"),
}


def __getattr__(name: str):
    if name not in _REEXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_REEXPORTS[name]}", __package__), name)

#: the values each numeric flag accepts (by argparse dest), checked
#: before any command runs
_FLAG_DOMAINS = {
    **dict.fromkeys(
        ("alpha", "r_opt", "r_l", "z_ref", "v_dc", "i_max", "f_start", "f_stop"),
        (lambda v: 0 < v < math.inf, "be positive and finite"),
    ),
    **dict.fromkeys(("q_l", "q_c"), (lambda v: v > 0, "be positive (inf for lossless)")),
    "threshold_db": (math.isfinite, "be finite"),
    "main_phi_deg": (lambda v: 0.0 < v <= 360.0, "lie in (0, 360]"),
    "points": (lambda v: 1 <= v <= 10**6, "lie in [1, 1000000]"),
    **dict.fromkeys(("window", "aux_turn_on"), (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    "v_min": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
}


def _check_flags(args) -> None:
    """Reject a numeric flag outside its domain with exit code 2."""
    for dest, val in vars(args).items():
        if dest in _FLAG_DOMAINS and val is not None:
            accepts, rule = _FLAG_DOMAINS[dest]
            if not accepts(val):
                flag = "--" + dest.replace("_", "-")
                raise InputError(f"{flag} must {rule}, got {val}")


# ----------------------------------------------------------------------
# Design-file validation
# ----------------------------------------------------------------------

def _check_keys(doc: dict, allowed: Container[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise InputError(f"unknown key '{key}' in {where}", key=key)


def _section(doc: dict, name: str, allowed: Container[str]) -> dict:
    """The design's ``name`` section, empty when absent; it must be a JSON
    object of ``allowed`` keys."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise InputError(f"key '{name}' in design must be an object", key=name)
    _check_keys(section, allowed, name)
    return section


def _num(doc: dict, key: str, where: str, positive: bool = True) -> float:
    """``doc[key]`` as a finite float, also positive unless ``positive`` is
    false, else exit code 2."""
    if key not in doc:
        raise InputError(f"missing key '{key}' in {where}", key=key)
    val = json_number(doc[key])
    if val is None:
        raise InputError(f"key '{key}' in {where} must be a number", key=key)
    if not math.isfinite(val):
        raise InputError(f"key '{key}' in {where} must be finite", key=key)
    if positive and not val > 0:
        raise InputError(f"key '{key}' in {where} must be positive", key=key)
    return val


def _read_json(path: str, what: str):
    """The JSON document in the ``what`` file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")


def design_spec(doc) -> dict:
    """The checked design spec of a parsed design file: its config, its
    topology's design class, the synthesis keywords it sets and its Q
    budget."""
    from .ideal import DohertyConfig
    from .synth import TOPOLOGIES

    if not isinstance(doc, dict):
        raise InputError("design file must hold a JSON object")
    _check_keys(doc, {"config", "topology", "free_params", "q_budget", "parasitics"}, "design")

    if "config" not in doc:
        raise InputError("missing key 'config' in design", key="config")
    cfg_doc = _section(doc, "config", DohertyConfig.keys)
    config = DohertyConfig(
        **{name: _num(cfg_doc, key, "config") for key, name in DohertyConfig.keys.items()}
    )

    topology = doc.get("topology")
    design = TOPOLOGIES.get(topology) if isinstance(topology, str) else None
    if design is None:
        raise InputError(
            f"topology must be one of {tuple(TOPOLOGIES)}, got {topology!r}", key="topology"
        )
    params = {}
    for name in ("free_params", "parasitics"):
        keys = design.keys.get(name, {})
        section = _section(doc, name, keys)
        # a pad capacitance may be 0; the synthesis checks its domain by key
        params.update((keys[key], _num(section, key, name, name != "parasitics"))
                      for key in section)

    q_doc = _section(doc, "q_budget", {"q_l", "q_c"})
    q_l = _num(q_doc, "q_l", "q_budget") if "q_l" in q_doc else math.inf
    q_c = _num(q_doc, "q_c", "q_budget") if "q_c" in q_doc else math.inf
    return {"config": config, "design": design, "params": params, "q_l": q_l, "q_c": q_c}


def synthesize(spec: dict):
    return spec["design"].synthesize(spec["config"], **spec["params"])


def cmd_synth(args) -> dict[str, str]:
    from . import synth
    from .netkit import check_network, touchstone

    spec = design_spec(_read_json(args.design, "design"))
    design = synthesize(spec)
    cfg = spec["config"]

    netlist = synth.to_netlist(design, q_l=spec["q_l"], q_c=spec["q_c"])
    export_net = synth.to_netlist(design, include_load=False)
    freqs = np.linspace(0.6 * cfg.f0, 1.4 * cfg.f0, 201)
    check_network(netlist, cfg.f0)
    s = touchstone.s_parameters(export_net, ["main", "aux", "load"], freqs, z_ref=args.z_ref)

    identities = [
        {"name": name, "residual": res, "pass": bool(res < synth.IDENTITY_TOL)}
        for name, res in sorted(design.identity_residuals.items())
    ]
    doc = {
        "config": cfg.inputs,
        "topology": design.topology,
        "components": design.components(),
        "identities": identities,
        "warnings": list(design.warnings),
        # names are relative to the report's own directory
        "outputs": {"netlist_json": "netlist.json", "touchstone": "combiner.s3p"},
    }
    return {
        os.path.join(args.out_dir, "netlist.json"): report.json_text(netlist.to_json_dict()),
        os.path.join(args.out_dir, "combiner.s3p"):
            touchstone.write_touchstone(freqs, s, z_ref=args.z_ref),
        os.path.join(args.out_dir, "report.json"): report.json_text(doc),
    }


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _load_input(args) -> tuple[dict | None, Netlist | None]:
    """(design spec, netlist) from the input path; exactly one is set."""
    doc = _read_json(args.input, "input")
    if isinstance(doc, dict) and "topology" in doc:
        return design_spec(doc), None
    if isinstance(doc, dict) and "elements" in doc:
        from .netkit import Netlist

        return None, Netlist.from_json_dict(doc)
    raise InputError("input is neither a design file (topology) nor a netlist (elements)")


def _config_from_flags(args, f0: float) -> DohertyConfig:
    from .ideal import DohertyConfig

    flags = {"--alpha": args.alpha, "--r-opt": args.r_opt, "--r-l": args.r_l}
    missing = [flag for flag, val in flags.items() if val is None]
    if missing:
        raise InputError(f"netlist input needs {', '.join(missing)}")
    return DohertyConfig(alpha=args.alpha, r_opt=args.r_opt, r_l=args.r_l, f0=f0)


def cmd_analyze(args) -> dict[str, str]:
    if args.mode == "itr-curves":
        if args.input is not None:
            spec, _ = _load_input(args)
            if spec is None:
                raise InputError("itr-curves needs a design file or --alpha/--r-opt/--r-l flags")
            cfg = spec["config"]
        else:
            cfg = _config_from_flags(args, 1e9)  # the ITR curves do not depend on f0
        rows = report.itr_curve_rows(cfg.alpha, cfg.r_opt, cfg.r_l, args.points or 121)
        path = os.path.join(args.out_dir, "itr_curves.csv")
        return {path: report.csv_text(report.ITR_COLUMNS, rows)}

    # here, not at the top: synth, export and itr-curves never run analysis
    from . import analysis, synth
    from .netkit import check_network

    if args.input is None:
        raise InputError("this mode needs a design or netlist input path")
    spec, netlist = _load_input(args)
    if spec is not None:
        cfg = spec["config"]
        q_l = args.q_l if args.q_l is not None else spec["q_l"]
        q_c = args.q_c if args.q_c is not None else spec["q_c"]
        design = synthesize(spec)
        # a finite Q budget only bites line topologies in lumped form
        lossy = math.isfinite(q_l) or math.isfinite(q_c)
        impl = args.implementation or ("lumped-pi" if lossy else "line")
        netlist = synth.to_netlist(design, q_l=q_l, q_c=q_c, implementation=impl)
    else:
        if missing := [p for p in ("main", "aux", "load") if p not in netlist.ports]:
            raise InputError(f"netlist input needs ports main, aux and load; missing {missing}",
                             key="ports")
        cfg = _config_from_flags(args, netlist.f0)
        q_l = args.q_l
        q_c = args.q_c
    check_network(netlist, netlist.f0)

    n_points = args.points or 41

    if args.mode == "load-mod":
        prof = analysis.drive_profile(cfg, netlist, n_points)
        sweep = analysis.load_modulation(netlist, cfg, prof)
        path = os.path.join(args.out_dir, "load_mod.csv")
        return {path: report.csv_text(report.SWEEP_COLUMNS, report.load_mod_rows(sweep))}

    if args.mode == "pbo-eff":
        if spec is not None and math.isinf(q_l) and math.isinf(q_c):
            raise InputError("pbo-eff needs a finite Q: pass --q-l/--q-c or a q_budget")
        if args.compare == "two-line" and spec is None:
            raise InputError("--compare two-line needs a design-file input")
        header = ["pbo_db", "i_main", "i_aux", "eta_passive"]
        prof = analysis.drive_profile(cfg, netlist, n_points, cfg.i_main_turn_on)
        pbo, eta = analysis.passive_eff_vs_pbo(netlist, cfg, prof)
        columns = [pbo, prof.i_main, prof.i_aux, eta]
        if args.compare == "two-line":
            # the reference gets its own phase offset on the same drive grid
            ref = synth.to_netlist(synth.synth_two_line(cfg), q_l=q_l, q_c=q_c,
                                   implementation="lumped-pi")
            ref_prof = analysis.drive_profile(cfg, ref, n_points, cfg.i_main_turn_on)
            header.append("eta_passive_ref")
            columns.append(analysis.passive_eff_vs_pbo(ref, cfg, ref_prof)[1])
        path = os.path.join(args.out_dir, "pbo_eff.csv")
        return {path: report.csv_text(header, np.column_stack(columns))}

    if args.mode == "bandwidth":
        prof = analysis.drive_profile(cfg, netlist, 2)
        exc = analysis.peak_excitations(cfg, prof)
        bw = analysis.bandwidth_report(
            netlist,
            exc,
            metric=args.metric,
            threshold_db=args.threshold_db,
            window=args.window,
            n_points=args.points or 201,
        )
        csv_path = os.path.join(args.out_dir, "bandwidth.csv")
        rows = np.column_stack([bw.freqs, bw.values_db])
        doc = {
            "metric": bw.metric,
            "threshold_db": bw.threshold_db,
            "f_lo_hz": bw.f_lo,
            "f_hi_hz": bw.f_hi,
            "fractional_bandwidth": bw.fractional,
            "met_at_center": bw.met_at_center,
            "csv": csv_path,
        }
        return {
            csv_path: report.csv_text(["freq_hz", "metric_db"], rows),
            os.path.join(args.out_dir, "bandwidth.json"): report.json_text(doc),
        }

    if args.mode == "pa-sim":
        if args.v_dc is None:
            raise InputError("pa-sim needs --v-dc (and --i-max unless --ideal-cells)")
        from . import cells  # here, not at the top: pa-sim is its one command

        if args.ideal_cells:
            main_cell, aux_cell = cells.ideal_doherty_cells(cfg, args.v_dc)
        else:
            if args.i_max is None:
                raise InputError("pa-sim with conduction-angle cells needs --i-max")
            turn_on = args.aux_turn_on if args.aux_turn_on is not None else cfg.i_main_turn_on * (
                1.0 + cfg.alpha
            ) / 2.0
            phi = math.radians(args.main_phi_deg)
            main_cell = cells.ActiveCellModel(phi, args.i_max, args.v_dc)
            aux_i_max = args.i_max * cfg.alpha
            if not 0 < aux_i_max < math.inf:
                raise InputError(f"--i-max {args.i_max} times alpha {cfg.alpha} leaves float "
                                 f"range as the auxiliary cell's peak current")
            aux_cell = cells.ActiveCellModel.class_c_turn_on(turn_on, aux_i_max, args.v_dc)
        grid = analysis.pa_drive_grid(cfg.alpha, n_points, args.v_min)
        sim = analysis.simulate_pa(main_cell, aux_cell, netlist, grid, args.v_dc)
        path = os.path.join(args.out_dir, "pa_sim.csv")
        return {path: report.csv_text(report.SWEEP_COLUMNS, report.pa_sim_rows(sim))}

    raise InputError(f"unknown mode '{args.mode}'")


def cmd_export(args) -> dict[str, str]:
    from .netkit import touchstone

    _, netlist = _load_input(args)
    if netlist is None:
        raise InputError("export needs a netlist JSON input")
    ports = [p for p in (args.ports.split(",") if args.ports else netlist.ports) if p]
    if not 1 <= len(ports) <= 4:
        raise InputError(f"--ports must name 1 to 4 ports, got {len(ports)}")
    if not set(ports) <= netlist.ports.keys() or len(set(ports)) < len(ports):
        raise InputError(f"--ports must name distinct netlist ports, got {args.ports}")
    f0 = netlist.f0
    f_start = args.f_start if args.f_start is not None else 0.6 * f0
    f_stop = args.f_stop if args.f_stop is not None else 1.4 * f0
    if not 0 < f_start < f_stop:
        raise InputError("need 0 < --f-start < --f-stop")
    freqs = np.linspace(f_start, f_stop, args.points)
    s = touchstone.s_parameters(netlist, ports, freqs, args.z_ref)
    return {args.touchstone: touchstone.write_touchstone(freqs, s, args.z_ref)}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an :class:`InputError` instead of exiting."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="dohertylab",
        description="Doherty power-combiner synthesis and verification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a combiner from a design file")
    ps.add_argument("design", help="design JSON path")
    ps.add_argument("--out-dir", default=".", help="output directory")
    ps.add_argument("--z-ref", type=float, default=50.0, help="Touchstone reference ohms")
    ps.set_defaults(func=cmd_synth)

    pa = sub.add_parser("analyze", help="run a sweep and write CSV")
    pa.add_argument("input", nargs="?", default=None, help="design or netlist JSON path")
    pa.add_argument(
        "--mode",
        required=True,
        choices=["load-mod", "pbo-eff", "bandwidth", "pa-sim", "itr-curves"],
    )
    pa.add_argument("--out-dir", default=".")
    pa.add_argument("--points", type=int, default=None, help="grid points")
    pa.add_argument("--q-l", type=float, default=None, help="inductor Q")
    pa.add_argument("--q-c", type=float, default=None, help="capacitor Q")
    pa.add_argument("--compare", choices=["two-line"], default=None)
    pa.add_argument(
        "--implementation", choices=["line", "lumped-pi"], default=None,
        help="realization for line-based topologies (default: lines when "
        "lossless, lumped pi when a finite Q budget is in effect)",
    )
    pa.add_argument("--metric", choices=["passive-efficiency", "load-match"],
                    default="passive-efficiency")
    pa.add_argument("--threshold-db", type=float, default=None)
    pa.add_argument("--window", type=float, default=0.4, help="half-width as fraction of f0")
    pa.add_argument("--v-dc", type=float, default=None, help="supply volts (pa-sim)")
    pa.add_argument("--i-max", type=float, default=None, help="cell peak amps (pa-sim)")
    pa.add_argument("--main-phi-deg", type=float, default=180.0)
    pa.add_argument("--aux-turn-on", type=float, default=None)
    pa.add_argument("--ideal-cells", action="store_true")
    pa.add_argument("--v-min", type=float, default=0.02)
    pa.add_argument("--alpha", type=float, default=None)
    pa.add_argument("--r-opt", type=float, default=None)
    pa.add_argument("--r-l", type=float, default=None)
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("export", help="export Touchstone from a netlist")
    pe.add_argument("input", help="netlist JSON path")
    pe.add_argument("--touchstone", required=True, help="output .sNp path")
    pe.add_argument("--ports", default=None, help="comma-separated port names")
    pe.add_argument("--f-start", type=float, default=None)
    pe.add_argument("--f-stop", type=float, default=None)
    pe.add_argument("--points", type=int, default=201)
    pe.add_argument("--z-ref", type=float, default=50.0)
    pe.set_defaults(func=cmd_export)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        outputs = args.func(args)
    except InputError as exc:  # NetworkTopologyError among them
        names = {"key": exc.key, "element": exc.element, "node": exc.node}
        doc = {"error": str(exc), "code": 2, **{k: v for k, v in names.items() if v is not None}}
    except (DesignConsistencyError, SingularSystemError, DegenerateTransferError) as exc:
        doc = {"error": str(exc), "code": 3}
    else:
        try:
            for k, (path, text) in enumerate(outputs.items()):
                report.write_text(path, text)
        except OSError as exc:
            for done in list(outputs)[:k]:  # the files this call already wrote
                os.remove(done)
            flag = "--touchstone" if args.command == "export" else "--out-dir"
            doc = {"error": f"cannot write {path} ({flag}): {exc}", "code": 2}
        else:
            print(path)
            return 0
    print(json.dumps(doc), file=sys.stderr)
    return doc["code"]


def run() -> None:
    """The process entry of ``python -m dohertylab.cli`` and of the
    ``dohertylab`` script: :func:`main` on ``sys.argv``, then end the
    process without tearing the interpreter down.  Every output file is
    closed by then; an exception from :func:`main` leaves the normal way."""
    code = main()
    atexit._run_exitfuncs()  # the handlers interpreter exit runs (coverage, site hooks)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
