#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/aa.py --runs 5                # every workload, 2 x 5 runs
    python3 perfbench/aa.py --runs 5 --workloads freq_sweep --seconds 10
    python3 perfbench/aa.py --traced                # counts of two traced runs

Run from the root of a checkout.  Sides A and B run the same benchmark
with distinct seeds, alternating which side goes first.  For every
end-to-end metric of every workload it prints each side's median and
quartiles (``statistics.quantiles(n=4)``) and a verdict:

* ``unresolved``: a side's quartile spread, as a share of its median, is
  wider than the metric's bound (setup_s is exempt from this rule);
* ``agree``: the medians differ by no more than the bound;
* ``disagree``: they differ by more.

It also prints the spread over all runs of both sides, the figure the
bench is tuned to keep below a third of each bound.  With ``--traced`` it
instead makes two traced runs per workload with one seed and checks that
every count repeats exactly.  The last line is a JSON summary; the exit
code is 1 when any metric disagrees, is unresolved, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def verdict(name: str, bound: float, a: dict, b: dict) -> str:
    if name != "setup_s" and max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    return "agree" if abs(b["median"] - a["median"]) <= bound * a["median"] else "disagree"


def aa(spec: dict, workloads: list[str], runs: int, seconds: int) -> tuple[dict, bool]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for wl in workloads:
        sides: dict[str, list[dict]] = {"A": [], "B": []}
        for r in range(runs):
            for side in ("AB" if r % 2 == 0 else "BA"):
                seed = 1 + 2 * r + (side == "B")
                sides[side].append(run_once(spec, wl, seed, seconds, 0))
                print(f"  {wl} {side} seed {seed} done", file=sys.stderr, flush=True)
        report[wl] = {}
        for name, bound in bounds.items():
            a = summary([m[name] for m in sides["A"]])
            b = summary([m[name] for m in sides["B"]])
            pooled = summary([m[name] for m in sides["A"] + sides["B"]])
            v = verdict(name, bound, a, b)
            ok &= v == "agree"
            report[wl][name] = {
                "A": a, "B": b, "all": pooled, "bound": bound, "verdict": v,
                "runs": {side: [m[name] for m in sides[side]] for side in sides},
            }
            print(f"{wl:14s} {name:13s} A {a['median']:12.5g} [{a['q1']:.5g}, {a['q3']:.5g}]  "
                  f"B {b['median']:12.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
                  f"spread(all) {pooled['spread']:6.2%} of bound {bound:.0%}  {v}")
    return report, ok


def traced_counts(spec: dict, workloads: list[str], seconds: int) -> tuple[dict, bool]:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report, ok = {}, True
    for wl in workloads:
        first, second = (run_once(spec, wl, 1, seconds, 1) for _ in range(2))
        diff = {k: (first[k], second[k]) for k in first
                if units.get(k) in ("count", "bytes") and first[k] != second[k]}
        ok &= not diff
        report[wl] = {"differing_counts": diff, "overhead_ratio": second["trace.overhead_ratio"],
                      "coverage": second["trace.coverage"]}
        print(f"{wl:14s} counts {'repeat exactly' if not diff else f'differ: {diff}'}; "
              f"overhead ratio {second['trace.overhead_ratio']:.3f}, "
              f"coverage {second['trace.coverage']:.3f}")
    return report, ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="A/A agreement check of the benchmark")
    p.add_argument("--runs", type=int, default=10, help="runs per side")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true", help="check that traced counts repeat")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2: quartiles need two values per side")
    workloads = [w for w in args.workloads.split(",") if w]
    if args.traced:
        report, ok = traced_counts(spec, workloads, args.seconds)
    else:
        report, ok = aa(spec, workloads, args.runs, args.seconds)
    print(json.dumps({"ok": ok, "report": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
