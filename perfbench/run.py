#!/usr/bin/env python3
"""dohertylab benchmark: one workload, one run.

    python3 perfbench/run.py --workload drive_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported from
``src/`` of that checkout.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
object; the lines before it record the environment and the details
(tail percentile and sample count, fail ratio, set-up parts, failures,
layer self times and the traced call tree).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cli_prototype", "drive_sweep", "freq_sweep", "design_sweep")

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import dohertylab.cli, dohertylab.evm; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="grid sizes; 'tiny' is for the smoke tests")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc in this process and its children."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cap:
            os.environ[var] = str(cap)


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of every file under src/, which names the code when the
    checkout is not a git work tree."""
    import hashlib

    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def import_probe(repeats: int, clock) -> dict:
    """Medians over fresh interpreters: whole wall time (raw and scaled by
    ``clock``), numpy import, dohertylab import, and the rest (interpreter
    start and exit)."""
    from workloads import cli_env

    rows = []
    for _ in range(repeats):
        mark = clock.mark(in_process=False)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=cli_env(ROOT),
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall, scaled = clock.since(mark, in_process=False)
        numpy_s, dohertylab_s = (float(t) for t in proc.stdout.split())
        rows.append((wall, scaled, numpy_s, dohertylab_s, wall - numpy_s - dohertylab_s))
    wall, scaled, numpy_s, dohertylab_s, interp = (statistics.median(col) for col in zip(*rows))
    return {"wall_s": wall, "scaled_s": scaled, "numpy_s": numpy_s,
            "dohertylab_s": dohertylab_s, "interpreter_s": interp}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    with at least ten samples beyond it.  Below 21 samples that percentile
    would not lie above the median, so the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


class Run:
    """Calls, failures and latencies of one phase, timed by ``clock``."""

    def __init__(self, wl, state, clock):
        self.wl, self.state, self.clock = wl, state, clock
        self.latencies: list[float] = []  # scaled to the reference speed
        self.raw_latencies: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one(self, i: int) -> tuple[float, float]:
        """Run and check call ``i``; returns its (raw, scaled) latency in seconds."""
        self.attempted += 1
        in_process = getattr(self.wl, "in_process", True)
        mark = self.clock.mark(in_process)
        try:
            out = self.wl.call(self.state, i)
        except Exception as exc:  # a raising call is a failed call
            dt = self.clock.since(mark, in_process)
            self.fail([f"call {i} raised {type(exc).__name__}: {exc}"])
            return dt
        dt = self.clock.since(mark, in_process)
        fails = self.wl.check(self.state, out)
        if fails:
            self.fail(fails)
        else:
            self.raw_latencies.append(dt[0])
            self.latencies.append(dt[1])
            self.points += out["points"]
        return dt

    def record(self, fails: list[str]) -> None:
        """Count a call made elsewhere, failed when ``fails`` is not empty."""
        self.attempted += 1
        if fails:
            self.fail(fails)

    def fail(self, messages: list[str]) -> None:
        """Count one failed call and keep its first messages."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.extend(messages[:3])


def set_up(wl, args, sizes, workdir: str, clock):
    """Build the workload ``sizes.repeats`` times and make one warm-up call.

    setup_s = median fresh-interpreter import + median build + warm-up
    call, each scaled by ``clock``.
    """
    probe = import_probe(sizes.repeats, clock)
    builds = []
    for _ in range(sizes.repeats):
        mark = clock.mark()
        state = wl.build(args.seed, sizes, workdir)
        builds.append(clock.since(mark))
    run = Run(wl, state, clock)
    warm = run.one(0)
    build_raw, build_scaled = (statistics.median(col) for col in zip(*builds))
    parts = {"import_s": probe["wall_s"], "build_s": build_raw, "warmup_s": warm[0]}
    scaled = {"import_s": probe["scaled_s"], "build_s": build_scaled, "warmup_s": warm[1]}
    return state, run, probe, parts, scaled


def measure(run: Run, seconds: float) -> float:
    """Call until ``seconds`` have passed; a call starts only while at least
    half of the previous call's latency is left, and a workload made of
    rounds of ``round_len`` calls ends on a whole round.  Returns the wall
    time."""
    round_len = getattr(run.wl, "round_len", 1)
    t_begin = time.perf_counter()
    last = 0.0
    i = 1
    while time.perf_counter() - t_begin + 0.5 * last < seconds or (i - 1) % round_len:
        last = run.one(i)[0]
        i += 1
    return time.perf_counter() - t_begin


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_prototype" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, wl, sizes, workdir: str) -> tuple[dict, dict, Run]:
    from speed import SpeedProbe

    with SpeedProbe() as clock:
        state, run, probe, parts, scaled = set_up(wl, args, sizes, workdir, clock)
        setup_literal = time.perf_counter() - T_START
        timed = Run(wl, state, clock)
        t_timed = time.perf_counter()
        wall = measure(timed, args.seconds)
        # a total is scaled by the mean sample of the whole phase: scaling each
        # call by its own few samples lets a few stray samples move the sum
        kernel = clock.solve if getattr(wl, "in_process", True) else clock.startup
        phase_scale = kernel.scale(t_timed, time.perf_counter())
    lat = timed.latencies or [float("nan")]
    raw = timed.raw_latencies or [float("nan")]
    tail_v, tail_pct, beyond = tail(lat)
    busy = sum(timed.raw_latencies) * phase_scale
    metrics = {
        "setup_s": (sum(scaled.values()), "s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "points_per_s": (timed.points / busy if busy > 0 else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    # the warm-up call counts as an attempted call too
    timed.attempted += run.attempted
    timed.failed += run.failed
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "calls": len(timed.latencies),
        "timed_wall_s": wall,
        # reported, not gated: too unsteady from run to run (see README)
        "call_tail_ms": {"value": tail_v * 1e3, "unit": "ms", "percentile": tail_pct,
                         "samples": len(lat), "samples_beyond": beyond},
        "fail_ratio": {"value": timed.failed / timed.attempted, "unit": "ratio"},
        "points": timed.points,
        "setup_parts_s": scaled,
        "raw": {"setup_parts_s": parts, "setup_in_process_s": setup_literal,
                "call_p50_ms": statistics.median(raw) * 1e3,
                "points_per_s": timed.points / sum(raw) if sum(raw) > 0 else 0.0,
                "phase_scale": phase_scale},
        "speed_probe": {
            name: {"samples": len(k.samples), "median_ms": statistics.median(k.samples) * 1e3,
                   "reference_ms": k.ref_s * 1e3,
                   "share_of_wall": sum(k.samples) / (time.perf_counter() - T_START)}
            for name, k in (("solve", clock.solve), ("startup", clock.startup))},
        "failures": run.failures + timed.failures,
    }
    if args.workload == "cli_prototype":
        detail["cli.outputs_byte_identical"] = sum(state.get("identical", {}).values())
    return metrics, detail, timed


def cli_probe(wl_cli, workdir: str, tracer_cls, run: Run) -> dict:
    """Per-command in-process CLI metrics: one untraced pass for the times,
    one traced pass for the phase-offset count.  Each pass counts as a
    call of ``run``."""
    plain = wl_cli.inprocess_pass(workdir)
    tracer = tracer_cls().install()
    try:
        traced = wl_cli.inprocess_pass(workdir, tracer)
    finally:
        tracer.uninstall()
    m = {f"cli.{cmd.replace('-', '_')}_ms": (r["ms"], "ms") for cmd, r in plain.items()}
    m["cli.phase_offset_solves"] = (traced["pbo-eff"]["phase_offsets"], "count")
    m["cli.output_bytes"] = (sum(r["bytes"] for r in plain.values()), "bytes")
    m["cli.outputs_byte_identical"] = (sum(r["identical"] for r in plain.values()), "count")
    for passed in (plain, traced):
        run.record([f for r in passed.values() for f in r["fails"]])
    return m


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def traced_run(args, wl, sizes, workdir: str) -> tuple[dict, dict, Run]:
    """Untraced and traced phases of the same fixed calls, then the import
    and CLI probes."""
    import workloads
    from speed import WallClock
    from tracing import Tracer

    state, run, probe, _, _ = set_up(wl, args, sizes, workdir, WallClock())
    k = sizes.trace_calls[args.workload]
    is_cli = args.workload == "cli_prototype"
    cli = wl if is_cli else workloads.CliPrototype(ROOT)
    cli_dir = workdir if is_cli else os.path.join(workdir, "cli")
    if not is_cli:
        workloads.prepare_cli_dir(
            cli_dir, os.path.join(workloads.REFERENCE_DIR, "synth", "netlist.json"))

    def phase(tracer) -> float:
        """Wall time of the k calls; those of cli_prototype are in-process
        passes over the commands, since a subprocess cannot be traced."""
        t0 = time.perf_counter()
        for i in range(1, k + 1):
            if tracer is not None:
                tracer.new_request()
            if is_cli:
                run.record([f for r in cli.inprocess_pass(cli_dir, tracer).values()
                            for f in r["fails"]])
            else:
                run.one(i)
        return time.perf_counter() - t0

    untraced = phase(None)
    tracer = Tracer().install()
    try:
        traced = phase(tracer)
    finally:
        tracer.uninstall()

    metrics = {name: (v, unit_of(name)) for name, v in tracer.metrics(traced, untraced).items()}
    metrics["import.interpreter_s"] = (probe["interpreter_s"], "s")
    metrics["import.numpy_s"] = (probe["numpy_s"], "s")
    metrics["import.dohertylab_s"] = (probe["dohertylab_s"], "s")
    metrics.update(cli_probe(cli, cli_dir, Tracer, run))
    layers = tracer.layer_self()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_calls": k,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "tracing_overhead_s": traced - untraced,
        "layer_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "unattributed_s": traced - sum(layers.values()),
        "call_tree": tracer.tree()[:40],
        "failures": run.failures,
    }
    return metrics, detail, run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dohertylab", "__init__.py")):
        print(f"error: no dohertylab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    os.environ.pop("DOHERTYLAB_PRECISION", None)
    sys.path.insert(0, SRC)
    import workloads

    sizes = workloads.SIZES[args.size]
    wl = workloads.make(args.workload, ROOT)
    print(json.dumps({"env": environment()}), flush=True)
    with workloads.work_dir(ROOT) as workdir:
        try:
            if args.trace:
                metrics, detail, run = traced_run(args, wl, sizes, workdir)
            else:
                metrics, detail, run = end_to_end(args, wl, sizes, workdir)
        except Exception:
            traceback.print_exc()
            return 1
    print(json.dumps({"detail": detail}), flush=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
