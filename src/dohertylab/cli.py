"""Command-line front end: synthesize designs, run sweeps, export files.

Subcommands
-----------
synth    design.json -> report.json + netlist.json + 3-port Touchstone
analyze  design/netlist -> CSV sweeps (load-mod, pbo-eff, bandwidth,
         pa-sim, itr-curves)
export   netlist.json -> Touchstone over a frequency grid

Exit codes: 0 success, 2 input/validation failure, 3 internal-consistency
failure.  Errors are emitted as one JSON object on stderr.

Design file schema (all units in the key names)::

    {
      "config": {"alpha": 1.0, "r_opt_ohm": 41.3, "r_l_ohm": 50.0,
                 "f0_hz": 37.0e9},
      "topology": "two-line" | "three-line" | "transformer",
      "free_params": {"n1": 1.0, "k1": 0.7, "n2": 1.0} | {"z02_ohm": 60.0},
      "q_budget": {"q_l": 20.0, "q_c": 20.0},
      "parasitics": {"c_pad_f": 10.0e-15}
    }

Unknown keys are rejected.

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
import json
import math
import os
import sys

import numpy as np

from . import analysis, cells, report
from .ideal import DohertyConfig
from .netkit import Netlist, s_parameters, write_touchstone
from .synth import (
    IDENTITY_TOL,
    DesignConsistencyError,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
)

__all__ = ["main"]


class CliError(Exception):
    def __init__(self, message: str, key: str | None = None, code: int = 2):
        super().__init__(message)
        self.key = key
        self.code = code


def _fail(message: str, key: str | None = None, code: int = 2) -> CliError:
    return CliError(message, key, code)


#: the values each numeric flag accepts (by argparse dest), checked
#: before any command runs
_FLAG_DOMAINS = {
    **dict.fromkeys(
        ("alpha", "r_opt", "r_l", "f0", "z_ref", "v_dc", "i_max", "f_start", "f_stop"),
        (lambda v: 0 < v < math.inf, "be positive and finite"),
    ),
    **dict.fromkeys(("q_l", "q_c"), (lambda v: v > 0, "be positive (inf for lossless)")),
    **dict.fromkeys(("threshold_db", "main_phi_deg", "aux_turn_on"), (math.isfinite, "be finite")),
    "points": (lambda v: v >= 1, "be at least 1"),
    "window": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "v_min": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
}


def _check_flags(args) -> None:
    """Reject a numeric flag outside its domain with exit code 2."""
    for dest, val in vars(args).items():
        if dest in _FLAG_DOMAINS and val is not None:
            accepts, rule = _FLAG_DOMAINS[dest]
            if not accepts(val):
                flag = "--" + dest.replace("_", "-")
                raise _fail(f"{flag} must {rule}, got {val}")


# ----------------------------------------------------------------------
# Design-file validation
# ----------------------------------------------------------------------

_TOPOLOGIES = ("two-line", "three-line", "transformer")


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise _fail(f"unknown key '{key}' in {where}", key=key)


def _num(doc: dict, key: str, where: str, positive: bool = True) -> float:
    if key not in doc:
        raise _fail(f"missing key '{key}' in {where}", key=key)
    val = doc[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise _fail(f"key '{key}' in {where} must be a number", key=key)
    try:
        val = float(val)
    except OverflowError:  # an integer beyond float range
        val = math.inf
    if not math.isfinite(val):
        raise _fail(f"key '{key}' in {where} must be finite", key=key)
    if positive and not val > 0:
        raise _fail(f"key '{key}' in {where} must be positive", key=key)
    return val


def load_design_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise _fail(f"design file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _fail(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise _fail("design file must hold a JSON object")
    _check_keys(doc, {"config", "topology", "free_params", "q_budget", "parasitics"}, "design")

    if "config" not in doc:
        raise _fail("missing key 'config' in design", key="config")
    cfg_doc = doc["config"]
    _check_keys(cfg_doc, {"alpha", "r_opt_ohm", "r_l_ohm", "f0_hz"}, "config")
    config = DohertyConfig(
        alpha=_num(cfg_doc, "alpha", "config"),
        r_opt=_num(cfg_doc, "r_opt_ohm", "config"),
        r_l=_num(cfg_doc, "r_l_ohm", "config"),
        f0=_num(cfg_doc, "f0_hz", "config"),
    )

    topology = doc.get("topology")
    if topology not in _TOPOLOGIES:
        raise _fail(
            f"topology must be one of {_TOPOLOGIES}, got {topology!r}", key="topology"
        )

    free = doc.get("free_params", {})
    allowed_free = {"z02_ohm"} if topology == "three-line" else {"n1", "k1", "n2"}
    if topology == "two-line":
        allowed_free = set()
    _check_keys(free, allowed_free, "free_params")
    free_vals = {k: _num(free, k, "free_params") for k in free}

    q_doc = doc.get("q_budget", {})
    _check_keys(q_doc, {"q_l", "q_c"}, "q_budget")
    q_l = _num(q_doc, "q_l", "q_budget") if "q_l" in q_doc else math.inf
    q_c = _num(q_doc, "q_c", "q_budget") if "q_c" in q_doc else math.inf

    par_doc = doc.get("parasitics", {})
    _check_keys(par_doc, {"c_pad_f"}, "parasitics")
    c_pad = _num(par_doc, "c_pad_f", "parasitics") if "c_pad_f" in par_doc else 0.0

    return {
        "config": config,
        "topology": topology,
        "free_params": free_vals,
        "q_l": q_l,
        "q_c": q_c,
        "c_pad": c_pad,
    }


def synthesize(spec: dict):
    cfg = spec["config"]
    topo = spec["topology"]
    free = spec["free_params"]
    try:
        if topo == "two-line":
            return synth_two_line(cfg)
        if topo == "three-line":
            return synth_three_line(cfg, z02=free.get("z02_ohm"))
        return synth_transformer_combiner(
            cfg,
            n1=free.get("n1", 1.0),
            k1=free.get("k1", 0.7),
            n2=free.get("n2", 1.0),
            c_pad=spec["c_pad"],
        )
    except ValueError as exc:
        raise _fail(str(exc))


def _components_dict(design) -> dict:
    from .synth import ThreeLineDesign, TransformerCombinerDesign, TwoLineDesign

    if isinstance(design, TwoLineDesign):
        return {"z01_ohm": design.z01, "z02_ohm": design.z02}
    if isinstance(design, ThreeLineDesign):
        return {"z01_ohm": design.z01, "z02_ohm": design.z02, "z03_ohm": design.z03}
    if isinstance(design, TransformerCombinerDesign):
        return {
            "l_p1_h": design.l_p1,
            "n1": design.n1,
            "k1": design.k1,
            "l_p2_h": design.l_p2,
            "n2": design.n2,
            "k2": design.k2,
            "l_m1_h": design.l_m1,
            "l_m2_h": design.l_m2,
            "c1_f": design.c1,
            "c2_f": design.c2,
            "c3_f": design.c3,
            "c3_external_f": design.c3_external,
            "c4_f": design.c4,
            "c5_f": design.c5,
            "z0_lp_main_ohm": design.z0_lp_main,
            "z0_lp_aux_ohm": design.z0_lp_aux,
            "z0_hp_aux_ohm": design.z0_hp_aux,
        }
    raise TypeError(type(design).__name__)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_synth(args) -> int:
    spec = load_design_file(args.design)
    design = synthesize(spec)
    cfg = spec["config"]
    os.makedirs(args.out_dir, exist_ok=True)

    netlist = to_netlist(design, q_l=spec["q_l"], q_c=spec["q_c"])
    netlist_path = os.path.join(args.out_dir, "netlist.json")
    _write(netlist_path, report.json_text(netlist.to_json_dict()))

    ts_path = os.path.join(args.out_dir, "combiner.s3p")
    export_net = to_netlist(design, include_load=False)
    freqs = np.linspace(0.6 * cfg.f0, 1.4 * cfg.f0, 201)
    s = s_parameters(export_net, ["main", "aux", "load"], freqs, z_ref=args.z_ref)
    _write(ts_path, write_touchstone(freqs, s, z_ref=args.z_ref))

    identities = [
        {"name": name, "residual": res, "pass": bool(res < IDENTITY_TOL)}
        for name, res in sorted(design.identity_residuals.items())
    ]
    doc = {
        "config": {
            "alpha": cfg.alpha,
            "r_opt_ohm": cfg.r_opt,
            "r_l_ohm": cfg.r_l,
            "f0_hz": cfg.f0,
        },
        "topology": spec["topology"],
        "components": _components_dict(design),
        "identities": identities,
        "warnings": list(design.warnings),
        # names are relative to the report's own directory
        "outputs": {
            "netlist_json": os.path.basename(netlist_path),
            "touchstone": os.path.basename(ts_path),
        },
    }
    report_path = os.path.join(args.out_dir, "report.json")
    _write(report_path, report.json_text(doc))
    print(report_path)
    return 0


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _load_input(args) -> tuple[dict | None, Netlist | None]:
    """(design spec, netlist) from the input path; exactly one is set."""
    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise _fail(f"input file not found: {args.input}")
    except json.JSONDecodeError as exc:
        raise _fail(f"malformed JSON in {args.input}: {exc}")
    if isinstance(doc, dict) and "topology" in doc:
        return load_design_file(args.input), None
    if isinstance(doc, dict) and "elements" in doc:
        try:
            return None, Netlist.from_json_dict(doc)
        except (KeyError, ValueError) as exc:
            raise _fail(f"invalid netlist JSON: {exc}")
    raise _fail("input is neither a design file (topology) nor a netlist (elements)")


def _config_from_flags(args, fallback_f0: float | None = None) -> DohertyConfig:
    missing = [
        name
        for name, val in (("--alpha", args.alpha), ("--r-opt", args.r_opt), ("--r-l", args.r_l))
        if val is None
    ]
    if missing:
        raise _fail(f"netlist input needs {', '.join(missing)}")
    f0 = args.f0 if args.f0 is not None else fallback_f0
    if f0 is None:
        raise _fail("missing --f0")
    return DohertyConfig(alpha=args.alpha, r_opt=args.r_opt, r_l=args.r_l, f0=f0)


def cmd_analyze(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)

    if args.mode == "itr-curves":
        if args.input is not None:
            spec, _ = _load_input(args)
            if spec is None:
                raise _fail("itr-curves needs a design file or --alpha/--r-opt/--r-l flags")
            cfg = spec["config"]
        else:
            cfg = _config_from_flags(args, fallback_f0=1e9)
        rows = report.itr_curve_rows(cfg.alpha, cfg.r_opt, cfg.r_l, args.points or 121)
        path = os.path.join(args.out_dir, "itr_curves.csv")
        _write(path, report.csv_text(report.ITR_COLUMNS, rows))
        print(path)
        return 0

    if args.input is None:
        raise _fail("this mode needs a design or netlist input path")
    spec, netlist = _load_input(args)
    if spec is not None:
        cfg = spec["config"]
        q_l = args.q_l if args.q_l is not None else spec["q_l"]
        q_c = args.q_c if args.q_c is not None else spec["q_c"]
        design = synthesize(spec)
        # a finite Q budget only bites line topologies in lumped form
        lossy = math.isfinite(q_l) or math.isfinite(q_c)
        impl = args.implementation or ("lumped-pi" if lossy else "line")
        netlist = to_netlist(design, q_l=q_l, q_c=q_c, implementation=impl)
    else:
        cfg = _config_from_flags(args, fallback_f0=netlist.f0)
        q_l = args.q_l
        q_c = args.q_c

    n_points = args.points or 41

    if args.mode == "load-mod":
        prof = analysis.drive_profile(cfg, netlist, n_points)
        sweep = analysis.load_modulation(netlist, cfg, prof)
        path = os.path.join(args.out_dir, "load_mod.csv")
        _write(path, report.csv_text(report.SWEEP_COLUMNS, report.load_mod_rows(sweep)))
        print(path)
        return 0

    if args.mode == "pbo-eff":
        if args.q_l is None and spec is not None and math.isinf(spec["q_l"]):
            raise _fail("pbo-eff needs a finite Q: pass --q-l/--q-c or a q_budget")
        if args.compare == "two-line" and spec is None:
            raise _fail("--compare two-line needs a design-file input")
        header = ["pbo_db", "i_main", "i_aux", "eta_passive"]
        prof = analysis.drive_profile(cfg, netlist, n_points, cfg.i_main_turn_on)
        pbo, eta = analysis.passive_eff_vs_pbo(netlist, cfg, prof)
        columns = [pbo, prof.i_main, prof.i_aux, eta]
        if args.compare == "two-line":
            # the reference gets its own phase offset on the same drive grid
            ref = to_netlist(synth_two_line(cfg), q_l=q_l, q_c=q_c, implementation="lumped-pi")
            ref_prof = analysis.drive_profile(cfg, ref, n_points, cfg.i_main_turn_on)
            header.append("eta_passive_ref")
            columns.append(analysis.passive_eff_vs_pbo(ref, cfg, ref_prof)[1])
        path = os.path.join(args.out_dir, "pbo_eff.csv")
        _write(path, report.csv_text(header, np.column_stack(columns)))
        print(path)
        return 0

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
        _write(csv_path, report.csv_text(["freq_hz", "metric_db"], rows))
        doc = {
            "metric": bw.metric,
            "threshold_db": bw.threshold_db,
            "f_lo_hz": bw.f_lo,
            "f_hi_hz": bw.f_hi,
            "fractional_bandwidth": bw.fractional,
            "met_at_center": bw.met_at_center,
            "csv": csv_path,
        }
        json_path = os.path.join(args.out_dir, "bandwidth.json")
        _write(json_path, report.json_text(doc))
        print(json_path)
        return 0

    if args.mode == "pa-sim":
        if args.v_dc is None:
            raise _fail("pa-sim needs --v-dc (and --i-max unless --ideal-cells)")
        if args.ideal_cells:
            main_cell, aux_cell = cells.ideal_doherty_cells(cfg, args.v_dc)
        else:
            if args.i_max is None:
                raise _fail("pa-sim with conduction-angle cells needs --i-max")
            turn_on = args.aux_turn_on if args.aux_turn_on is not None else cfg.i_main_turn_on * (
                1.0 + cfg.alpha
            ) / 2.0
            try:
                main_cell = cells.ActiveCellModel(
                    math.radians(args.main_phi_deg), args.i_max, args.v_dc
                )
                aux_cell = cells.ActiveCellModel.class_c_turn_on(
                    turn_on, args.i_max * cfg.alpha, args.v_dc
                )
            except ValueError as exc:
                raise _fail(str(exc))
        grid = analysis.pa_drive_grid(cfg.alpha, n_points, args.v_min)
        sim = analysis.simulate_pa(main_cell, aux_cell, netlist, grid, args.v_dc)
        path = os.path.join(args.out_dir, "pa_sim.csv")
        _write(path, report.csv_text(report.SWEEP_COLUMNS, report.pa_sim_rows(sim)))
        print(path)
        return 0

    raise _fail(f"unknown mode '{args.mode}'")


def cmd_export(args) -> int:
    _, netlist = _load_input(args)
    if netlist is None:
        raise _fail("export needs a netlist JSON input")
    ports = args.ports.split(",") if args.ports else list(netlist.ports)
    ports = [p for p in ports if p]
    if not 1 <= len(ports) <= 4:
        raise _fail(f"supported port counts are 1..4, got {len(ports)}")
    for p in ports:
        if p not in netlist.ports:
            raise _fail(f"unknown port '{p}'")
    f0 = netlist.f0
    f_start = args.f_start if args.f_start is not None else 0.6 * f0
    f_stop = args.f_stop if args.f_stop is not None else 1.4 * f0
    if not 0 < f_start < f_stop:
        raise _fail("need 0 < f-start < f-stop")
    freqs = np.linspace(f_start, f_stop, args.points)
    s = s_parameters(netlist, ports, freqs, z_ref=args.z_ref)
    _write(args.touchstone, write_touchstone(freqs, s, z_ref=args.z_ref))
    print(args.touchstone)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    pa.add_argument("--f0", type=float, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except CliError as exc:
        doc = {"error": str(exc), "code": exc.code}
        if exc.key is not None:
            doc["key"] = exc.key
        print(json.dumps(doc), file=sys.stderr)
        return exc.code
    except DesignConsistencyError as exc:
        print(json.dumps({"error": str(exc), "code": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
