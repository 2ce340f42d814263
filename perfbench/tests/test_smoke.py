"""Smoke tests of the benchmark at tiny grid sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced; every metric named in
BENCHMARK.json must come out with its unit.  Corrupted outputs must be
counted as failed calls.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(str(tmp_path), NAMES[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def corrupt_drive_sweep(out):
    out["two-line"][2].eta[-1] *= 1.01


def corrupt_freq_sweep(out):
    out["sparams"][0][0, 0, 1] += 1e-6


def corrupt_design_sweep(out):
    out["measured"][0] *= 1.01


@pytest.mark.parametrize("name, corrupt", [
    ("drive_sweep", corrupt_drive_sweep),
    ("freq_sweep", corrupt_freq_sweep),
    ("design_sweep", corrupt_design_sweep),
])
def test_corrupted_output_is_counted_as_a_failure(name, corrupt, tmp_path):
    wl = workloads.make(name, ROOT)
    state = wl.build(7, workloads.TINY, str(tmp_path))
    phase = run.Run(wl, state, speed.WallClock())
    phase.one(1)
    assert (phase.attempted, phase.failed) == (1, 0), phase.failures

    real_call = wl.call

    def corrupted_call(state, i):
        out = real_call(state, i)
        corrupt(out)
        return out

    wl.call = corrupted_call
    phase.one(2)
    assert (phase.attempted, phase.failed) == (2, 1)
    assert len(phase.latencies) == 1


def test_corrupted_or_missing_cli_output_is_counted_as_a_failure(tmp_path):
    wl = workloads.make("cli_prototype", ROOT)
    state = wl.build(7, workloads.TINY, str(tmp_path))
    out = wl.call(state, 1)
    assert wl.check(state, out) == []
    # the check removed what it read: a command that stops writing a file fails
    assert wl.check(state, out) != []

    out = wl.call(state, 2)
    path = tmp_path / out["cmd"] / workloads.COMMANDS[out["cmd"]][1][0]
    text = path.read_text()
    digit = next(i for i, ch in enumerate(text) if ch in "123456789" and i > text.index("\n"))
    path.write_text(text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:])
    assert wl.check(state, out) != []


def test_ninth_digit_tolerance():
    assert workloads.ninth_digit_equal(1.234567891e-3, 1.234567899e-3)
    assert not workloads.ninth_digit_equal(1.23456789e-3, 1.23456791e-3)
    assert workloads.ninth_digit_equal(0.0, 0.0)
    assert not workloads.ninth_digit_equal(0.0, 1e-30)


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail(list(np.arange(30.0)))
    assert (value, beyond) == (19.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_scaled_time_takes_the_kernel_speed_of_its_window():
    kernel = speed.Kernel(lambda: None, ref_s=2.0)
    kernel.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    kernel.samples = [9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0]
    # a short span takes at least the last MIN_SAMPLES samples
    assert speed.MIN_SAMPLES == 5
    assert kernel.scale(6.9, 7.1) == pytest.approx(2.0 / 1.6)
    # a long span takes every sample taken during it
    assert kernel.scale(0.5, 7.1) == pytest.approx(2.0 / 18.0 * 7)


def test_probe_takes_its_own_time_off_and_stops_its_timer():
    import signal
    import time

    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        t0 = time.perf_counter()
        time.sleep(0.35)
        raw, scaled = probe.since(mark)
        wall = time.perf_counter() - t0
    assert len(probe.solve.samples) >= 3
    assert raw < wall - 0.9 * sum(probe.solve.samples[1:])
    assert scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
