"""Speed probe: times measured on a shared host, scaled to one host speed.

On a shared host the speed the benchmark gets changes by up to a factor
of two within seconds, and CPU time changes with wall time, so the cause
is the host, not lost time slices.  A workload timed in seconds then
measures the host as much as the program.

A probe runs a fixed kernel, written here and independent of dohertylab,
while a phase is timed, and keeps the kernel's times as samples.  A span
of the program is then reported twice:

* raw: its wall time, minus the time the probe itself ran inside it;
* scaled: raw x the kernel's reference time / the mean of the samples
  of the span and of the ``WINDOW_S`` seconds before its end, and at
  least of the last ``MIN_SAMPLES``, that is the time the span would
  have taken on a host where the kernel takes its reference time.

There are two kernels, one for each kind of work:

* solve, for in-process work: admittance stamps into a small complex
  matrix from a Python element list, one LAPACK solve with two
  right-hand sides and Python work on the result, the shape of the
  program's inner loop.  It runs from a SIGALRM timer every
  ``PERIOD_S`` seconds, inside the spans it measures, and its time is
  taken off theirs.
* startup, for work in fresh processes: a fresh interpreter that
  imports numpy.  Process start-up and imports slowed by up to 75% while
  the solve kernel slowed by 30%, so the solve kernel does not track
  them.  It runs just before each span that waits on a subprocess,
  with the timer stopped until the span ends: the solve kernel would
  otherwise run beside the subprocess and measure how the two contend.

The program cannot speed up or slow down a kernel by changes to its own
code, so a change to the program moves the scaled time as it moves the
raw time.  A program that leaves threads or processes running between
its calls would slow the kernel and so read faster than it is; the raw
times stay in the detail line to compare.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.1  # one solve-kernel run per period of wall time
WINDOW_S = 1.0  # samples of this much time before the end of a span count
MIN_SAMPLES = 5  # and at least this many

# (kind, node, node or -1 for ground, value) of a 7-node ladder
LADDER = [("R", 0, -1, 50.0), ("L", 0, 1, 2e-10), ("C", 1, -1, 1e-13), ("L", 1, 2, 3e-10),
          ("C", 2, -1, 2e-13), ("R", 2, 3, 1.0), ("L", 3, 4, 1e-10), ("C", 4, -1, 1e-13),
          ("R", 4, 5, 2.0), ("L", 5, -1, 5e-10), ("C", 5, 6, 3e-14), ("R", 6, -1, 41.3)]


def solve_kernel() -> None:
    """Solve the ladder at 100 frequencies."""
    for i in range(100):
        w = 2.0 * math.pi * (30e9 + 1e7 * i)
        a = np.zeros((7, 7), dtype=complex)
        for kind, p, q, v in LADDER:
            y = 1.0 / v if kind == "R" else (1j * w * v if kind == "C" else 1.0 / (1j * w * v))
            a[p, p] += y
            if q >= 0:
                a[q, q] += y
                a[p, q] -= y
                a[q, p] -= y
        b = np.zeros((7, 2), dtype=complex)
        b[0, 0] = b[6, 1] = 1.0
        x = np.linalg.solve(a, b)
        volts = {f"n{k}": complex(x[k, 0]) for k in range(7)}
        sum(abs(v) ** 2 for v in volts.values()) + float(np.abs(a @ x - b).max())


def startup_kernel() -> None:
    """Start a fresh interpreter that imports numpy, and wait for it.

    Its output is captured: ``subprocess.run`` with a timeout and no pipe
    polls the child in sleeps of up to 50 ms, which would round the
    sample up to the next 50 ms."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120,
                   capture_output=True)


class Kernel:
    """One kernel, its reference time and its samples."""

    def __init__(self, run, ref_s: float):
        self.run, self.ref_s = run, ref_s
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # kernel seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.run()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def scale(self, t0: float, now: float) -> float:
        """Reference time over the mean sample of a span from ``t0`` to
        ``now`` and of the ``WINDOW_S`` seconds before ``now``, and at
        least of the last ``MIN_SAMPLES``."""
        first = bisect.bisect_left(self.times, min(t0, now - WINDOW_S))
        first = max(0, min(first, len(self.samples) - MIN_SAMPLES))
        return self.ref_s / statistics.fmean(self.samples[first:])


class SpeedProbe:
    """Both kernels, sampled while the probe is running.

    The reference times are about the medians of each kernel on a 2-core
    Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31)."""

    def __init__(self):
        self.solve = Kernel(solve_kernel, 4.5e-3)
        self.startup = Kernel(startup_kernel, 0.2)
        self.stolen_s = 0.0  # wall time spent in the timer handler
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.solve.sample()
        finally:
            self.stolen_s += time.perf_counter() - t0
            self._busy = False

    def _timer(self, on: bool) -> None:
        period = PERIOD_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        self.solve.sample()
        self._timer(True)
        return self

    def __exit__(self, *exc) -> None:
        self._timer(False)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self, in_process: bool = True) -> tuple[float, float]:
        """The start of a span; ``in_process`` is False for a span spent
        waiting on a subprocess."""
        if not in_process:
            self._timer(False)
            self.startup.sample()
        return time.perf_counter(), self.stolen_s

    def since(self, mark, in_process: bool = True) -> tuple[float, float]:
        """(raw, scaled) seconds of the span that began at ``mark``, made
        with the same ``in_process``."""
        t0, stolen0 = mark
        now = time.perf_counter()
        raw = now - t0 - (self.stolen_s - stolen0)
        if in_process:
            return raw, raw * self.solve.scale(t0, now)
        self._timer(True)
        return raw, raw * self.startup.scale(t0, now)


class WallClock:
    """Stands in for a probe where none runs: raw and scaled are the wall time."""

    def mark(self, in_process: bool = True) -> float:
        return time.perf_counter()

    def since(self, mark, in_process: bool = True) -> tuple[float, float]:
        dt = time.perf_counter() - mark
        return dt, dt
