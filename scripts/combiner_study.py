#!/usr/bin/env python3
"""End-to-end combiner study at the prototype operating point.

Synthesizes the two-line, three-line and transformer combiners for one
configuration, then sweeps load modulation at center frequency, passive
efficiency versus back-off under a finite Q budget, efficiency-defined
bandwidth at peak drive, a behavioral Doherty PA simulation, and a 64QAM
EVM figure from the simulated AM-AM/AM-PM. CSV outputs land in --out-dir.
"""

import argparse
import os

import numpy as np

from dohertylab import (
    DohertyConfig,
    synth_three_line,
    synth_transformer_combiner,
    synth_two_line,
    to_netlist,
)
from dohertylab.analysis import (
    bandwidth_report,
    drive_profile,
    load_modulation,
    pa_drive_grid,
    peak_excitations,
    simulate_pa,
)
from dohertylab.cells import ideal_doherty_cells
from dohertylab.evm import evm_64qam
from dohertylab.report import SWEEP_COLUMNS, csv_text, load_mod_rows, pa_sim_rows, write_text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/combiner_study")
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--r-opt", type=float, default=41.3)
    ap.add_argument("--r-l", type=float, default=50.0)
    ap.add_argument("--f0", type=float, default=37e9)
    ap.add_argument("--q-l", type=float, default=20.0)
    ap.add_argument("--q-c", type=float, default=20.0)
    ap.add_argument("--n1", type=float, default=1.0)
    ap.add_argument("--k1", type=float, default=0.7)
    ap.add_argument("--n2", type=float, default=1.0)
    args = ap.parse_args()
    cfg = DohertyConfig(alpha=args.alpha, r_opt=args.r_opt, r_l=args.r_l, f0=args.f0)

    designs = {
        "two_line": synth_two_line(cfg),
        "three_line": synth_three_line(cfg),
    }
    if abs(cfg.alpha - 1.0) < 1e-12:
        designs["transformer"] = synth_transformer_combiner(
            cfg, n1=args.n1, k1=args.k1, n2=args.n2
        )
    else:
        print("transformer topology skipped: synthesis is defined for alpha = 1")

    def emit(name, text):
        path = os.path.join(args.out_dir, name)
        write_text(path, text)
        print(path)

    # lossless load modulation at center frequency
    for name, design in designs.items():
        net = to_netlist(design)
        prof = drive_profile(cfg, net, n_points=41, i_main_min=cfg.i_main_turn_on / 2)
        sweep = load_modulation(net, cfg, prof)
        emit(f"load_mod_{name}.csv", csv_text(SWEEP_COLUMNS, load_mod_rows(sweep)))

    # passive efficiency vs back-off under the Q budget
    lossy = {
        name: to_netlist(
            design,
            q_l=args.q_l,
            q_c=args.q_c,
            implementation="line" if name == "transformer" else "lumped-pi",
        )
        for name, design in designs.items()
    }
    profs = {
        name: drive_profile(cfg, net, 21, i_main_min=cfg.i_main_turn_on)
        for name, net in lossy.items()
    }
    sweeps = {name: load_modulation(net, cfg, profs[name]) for name, net in lossy.items()}
    any_prof = next(iter(profs.values()))
    eff_rows = np.column_stack([any_prof.pbo_db] + [sweeps[name].eta_passive for name in lossy])
    emit(
        "pbo_efficiency.csv",
        csv_text(["pbo_db"] + [f"eta_{name}" for name in lossy], eff_rows),
    )

    # efficiency-defined fractional bandwidth at peak drive
    bw_rows = []
    for name, net in lossy.items():
        exc = peak_excitations(cfg, profs[name])
        bw = bandwidth_report(net, exc, "passive-efficiency", 1.0)
        bw_rows.append([name, bw.f_lo, bw.f_hi, bw.fractional])
        print(f"{name}: -1 dB efficiency bandwidth {bw.fractional:.3f} of f0")
    emit("bandwidth.csv", csv_text(["design", "f_lo_hz", "f_hi_hz", "fractional"], bw_rows))

    # behavioral PA simulation on the transformer combiner (or two-line)
    target = lossy.get("transformer", lossy["two_line"])
    v_dc = 1.0
    main_cell, aux_cell = ideal_doherty_cells(cfg, v_dc)
    grid = pa_drive_grid(cfg.alpha, 99)
    sim = simulate_pa(main_cell, aux_cell, target, grid, v_dc)
    emit("pa_sim.csv", csv_text(SWEEP_COLUMNS, pa_sim_rows(sim)))

    for backoff in (6.0, 8.0, 10.0):
        try:
            evm = evm_64qam((sim.v, sim.am_am_db), (sim.v, sim.am_pm_deg), backoff)
        except ValueError as exc:
            print(f"64QAM EVM at {backoff:.0f} dB backoff: n/a ({exc})")
            continue
        print(f"64QAM EVM at {backoff:.0f} dB backoff: {evm:.3f} % rms")


if __name__ == "__main__":
    main()
