"""Host-speed calibration, so that timings taken minutes apart compare.

On a two-vCPU Xeon virtual machine (Python 3.11, numpy 2.4, OpenBLAS
0.3.31) the host's speed swings by up to 2x within minutes, and its two
CPUs differ: the same ``design`` took 0.49 to 0.95 s, the same 30 s
``simulate`` 5 to 15 s, and the loop below 16 to 41 ms.  Raw per-run
medians of one workload spread 28-30 % (quartile distance over median,
five seeds).  An operation's time correlates with the loop time on the CPU
its thread ran on, not with that on the other CPU, so `SpeedSampler`
weights each CPU's loop time by the share of the operation spent on it.

`calibrate` times a fixed mix of interpreter, small-array numpy and small
LAPACK work (the three kinds of work oscdamp does) that uses no oscdamp code,
so no change to the program moves it.  Times are rescaled to seconds on a
reference host on which the loop takes REFERENCE_CAL_S, which is what it
took on that machine in its fast state.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from collections import Counter

import numpy as np

REFERENCE_CAL_S = 0.0165
SAMPLE_INTERVAL_S = 0.05
CALIBRATE_EVERY = 10

_rng = np.random.default_rng(0)
_SPD = _rng.standard_normal((36, 36))
_SPD = _SPD @ _SPD.T
_VEC = _rng.standard_normal(38)


def calibrate() -> dict[int, float]:
    """Seconds for the fixed calibration mix on each CPU this thread may run
    on: the program's threads may run on any of them, and on a virtual
    machine their speeds differ."""
    cpus = os.sched_getaffinity(0)
    try:
        times = {}
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _calibrate_here()
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _state_and_cpu(stat_path: str) -> tuple[str, int]:
    with open(stat_path) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return fields[0], int(fields[36])       # fields 3 and 39 of proc(5)


def _other_running_cpus() -> list[int]:
    """The CPU of each running thread of this process but the calling one."""
    me = str(threading.get_native_id())
    cpus = []
    for tid in os.listdir("/proc/self/task"):
        if tid == me:
            continue
        try:
            state, cpu = _state_and_cpu(f"/proc/self/task/{tid}/stat")
        except OSError:
            continue                        # the thread has ended
        if state == "R":
            cpus.append(cpu)
    return cpus


def _calibrate_here() -> float:
    t0 = time.perf_counter()
    acc = 0
    for k in range(60000):
        acc += k * k % 7
    v = _VEC
    for _ in range(1200):
        v = np.sin(v) * 0.5 + np.cos(v[::-1]) * 0.1
    for _ in range(100):
        np.linalg.eigvalsh(_SPD)
        np.linalg.solve(_SPD, _SPD[:, 0])
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed where the program runs, from a SIGALRM
    handler every SAMPLE_INTERVAL_S inside the `with` block (main thread
    only); `rescale` works without the block too.

    Each tick records the CPU of every running program thread.  When the
    program runs on the interrupted thread alone, every CALIBRATE_EVERY-th
    tick also runs the calibration loop there, on the program's CPU.  While
    another thread is alive (a worker pool, or the management thread of a
    process pool) the loop does not run: it would compete with the program
    for the interpreter and the CPUs, and its time would include the
    program's progress.  With `calibrate_inside` off the ticks only record
    CPUs, which keeps the loop out of timings taken inside the operation.
    """

    def __init__(self, cal_before: dict[int, float], calibrate_inside: bool = True):
        self.calibrate_inside = calibrate_inside
        self.cals = {cpu: [t] for cpu, t in cal_before.items()}
        self.occupancy: Counter[int] = Counter()
        self.spent_s = 0.0
        self._ticks = 0

    def _tick(self, signum, frame) -> None:
        self._ticks += 1
        if threading.active_count() > 1:
            self.occupancy.update(_other_running_cpus())
            return
        _, cpu = _state_and_cpu("/proc/thread-self/stat")
        self.occupancy[cpu] += 1
        if self.calibrate_inside and self._ticks % CALIBRATE_EVERY == 0:
            t0 = time.perf_counter()
            self.cals.setdefault(cpu, []).append(_calibrate_here())
            self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall_s: float, cal_after: dict[int, float]) -> float:
        """Wall time less the handler's, on the reference host.

        Each CPU's loop time is the median of those taken on it before,
        during and after the operation (the median, because a neighbour can
        throw a single loop time far off); they are averaged with the share
        of ticks the program ran on each CPU, or evenly without ticks.
        """
        cals = {cpu: list(ts) for cpu, ts in self.cals.items()}
        for cpu, t in cal_after.items():
            cals.setdefault(cpu, []).append(t)
        every = statistics.median(t for ts in cals.values() for t in ts)
        weights = self.occupancy or Counter(cals.keys())
        cal = sum(n * (statistics.median(cals[cpu]) if cpu in cals else every)
                  for cpu, n in weights.items()) / weights.total()
        return (wall_s - self.spent_s) * REFERENCE_CAL_S / cal
