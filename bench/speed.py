"""Machine-speed calibration for the end-to-end times.

The speed of a shared host drifts by a quarter and more within seconds, in
CPU time as much as in wall time, and differs between its CPUs; the
benchmark changes no machine or cgroup setting and only keeps itself and
its children on one CPU.  So it times a fixed reference task next to the
work it measures and reports each time at the machine speed at which that
task takes its reference time:

* work in this process is scaled by a reference task timed before and
  after it, chosen to resemble the workload's own work (``TASKS``): a
  pure-Python RK4 loop for the integrator, complex array arithmetic for the
  root search.  On a 2-core host, a bare float loop narrowed the quartile
  spreads of analysis-scan's throughput and latencies over six seeds of
  25-second runs only from 16-20% raw to 9-13%, where the array task gave
  5-7%; over 100 noisy seconds of sim-grid items, it narrowed the spread of
  single item times from 45-53% raw to 17-21%, where the RK4 loop gave
  12-15%.  Over six 20-second runs of each in-process workload, taking
  the fastest of five runs of the task at each mark, in place of a single
  run, narrowed the range of scaled throughput across runs from 12% to 9%
  on sim-continuation, from 7% to 4% on sim-grid and from 5% to 3% on
  analysis-scan;
* a child process is scaled by an interpreter that only imports numpy,
  started just before it, which should take STARTUP_REF seconds.  Process
  start-up (exec, page faults, loading shared libraries) drifts unlike the
  in-process tasks, which did not track it; over six 25-second runs of the CLI items on
  a 2-core host, the median item time spread by 10% raw, 5% scaled by a bare
  interpreter start and 2% scaled by the numpy import.
"""
from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import time

import numpy as np

CAL_EVERY = 0.1   # seconds between marks taken along a measured phase
# runs of the reference task per mark; the mark is the fastest, which drops
# runs that a preemption or another tenant slowed
CAL_SAMPLES = 5
STARTUP_REF = 0.2
_Z = np.linspace(-1.0, 1.0, 256) * (1.0 + 2.0j)


_HISTORY = [0.0] * 1001


def rk4_task() -> float:
    """Wall time of a fixed RK4 loop over a scalar delay equation."""
    t0 = time.perf_counter()
    xs = _HISTORY

    def f(x: float, xd: float) -> float:
        return -0.5 * x + 0.9 * xd - 0.1 * x * x * x

    x, h = 1.0, 0.01
    for i in range(1000):
        xd = xs[i // 2]
        k1 = f(x, xd)
        k2 = f(x + 0.5 * h * k1, xd)
        k3 = f(x + 0.5 * h * k2, xd)
        k4 = f(x + h * k3, xd)
        x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        xs[i + 1] = x
    return time.perf_counter() - t0


def array_task() -> float:
    """Wall time of a fixed winding-number-like pass over a complex array."""
    t0 = time.perf_counter()
    for _ in range(4):
        g = _Z + 0.3 + 1.7 * np.exp(-_Z * 0.9)
        float(np.sum(np.angle(g / np.roll(g, 1))))
    return time.perf_counter() - t0


# task and its time at the reference speed; the two reference times were
# measured side by side, so both tasks scale to the same machine
TASKS = {"rk4": (rk4_task, 6.0e-4), "array": (array_task, 1.0e-4)}


class Speed:
    """Calibration marks (time, task seconds) taken along a measured phase."""

    def __init__(self, task: str):
        self.task, self.ref = TASKS[task]
        self.marks: list[tuple[float, float]] = []

    def mark(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.marks or now - self.marks[-1][0] >= CAL_EVERY:
            self.marks.append((now, min(self.task() for _ in range(CAL_SAMPLES))))

    def scale(self, start: float, end: float) -> float:
        """Factor to the reference speed for work done between start and end:
        from the last mark before start and the first mark after end."""
        times = [t for t, _ in self.marks]
        before = self.marks[max(bisect.bisect_right(times, start) - 1, 0)][1]
        after = self.marks[min(bisect.bisect_left(times, end), len(times) - 1)][1]
        return self.ref / (0.5 * (before + after))


def run_child(args: list, timeout: float, **popen) -> tuple[int, bytes]:
    """Run a child process to its end: (exit code, standard output if piped).

    It waits on a pidfd, because ``Popen.wait`` with a timeout polls with
    sleeps of up to 50 ms, which put every timed child in 50 ms steps.  A
    child still running after ``timeout`` seconds is killed.
    """
    with subprocess.Popen(args, **popen) as proc:
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                proc.kill()
        finally:
            os.close(fd)
        out = proc.stdout.read() if proc.stdout else b""
        return proc.wait(), out


def startup_scale() -> float:
    """Factor to the reference speed for a child process started next."""
    t0 = time.perf_counter()
    code, _ = run_child([sys.executable, "-c", "import numpy"], 60)
    if code:
        raise RuntimeError(f"a bare numpy import exited with {code}")
    return STARTUP_REF / (time.perf_counter() - t0)
