#!/usr/bin/env python3
"""Closed-form ITR study.

Writes per-alpha CSV curves of the inverter impedance-transformation
ratio for the conventional and output-side-transforming combiners, and a
table of the asymmetry that zeroes the ITR at the second efficiency peak
as a function of r_opt/r_l.
"""

import argparse
import os

import numpy as np

from dohertylab import itr_intro, zero_itr_alpha
from dohertylab.report import ITR_COLUMNS, csv_text, itr_curve_rows, write_text


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/itr_study")
    ap.add_argument("--r-opt", type=float, default=41.3)
    ap.add_argument("--r-l", type=float, default=50.0)
    ap.add_argument("--alphas", default="0.5,1.0,2.0")
    args = ap.parse_args()

    for alpha in (float(a) for a in args.alphas.split(",")):
        rows = itr_curve_rows(alpha, args.r_opt, args.r_l, n_points=241)
        path = os.path.join(args.out_dir, f"itr_alpha_{alpha:g}.csv")
        write_text(path, csv_text(ITR_COLUMNS, rows))
        print(path)

    rows = []
    for ratio in np.linspace(0.1, 2.0, 39):
        r_opt = ratio * args.r_l
        res = zero_itr_alpha(r_opt, args.r_l)
        if res is None:
            rows.append([ratio, None, None, None])
            continue
        second_peak_i = 2.0 / (1.0 + res.alpha) ** 2
        rows.append(
            [
                ratio,
                res.alpha,
                1.0 if res.aux_stronger else 0.0,
                itr_intro(res.alpha, second_peak_i, r_opt, args.r_l),
            ]
        )
    path = os.path.join(args.out_dir, "zero_itr_asymmetry.csv")
    header = ["r_opt_over_r_l", "alpha", "aux_stronger", "itr_at_second_peak"]
    write_text(path, csv_text(header, rows))
    print(path)


if __name__ == "__main__":
    main()
