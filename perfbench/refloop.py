"""Drift normalization: a frozen reference loop, an idle guard, and the
order statistics every reported timing goes through.

The machine's speed drifts by tens of percent within a minute, and CPU
time drifts with it, so raw wall times of identical code do not repeat.
Every timing is therefore reported in *reference seconds*::

    wall * (R_NOMINAL / R_adjacent) ** sensitivity

where ``R_adjacent`` is the mean duration of :func:`ref_work` timed just
before and just after the measured interval, and ``R_NOMINAL`` is a
constant.  ``sensitivity`` is how strongly the measured work follows
the loop, the slope of log(wall) on log(R_adjacent) for that work; it
is a constant of the benchmark, below 1 where the work is less
interpreter-bound than the loop.

The loop is only trusted when nothing else ran while it did:
:class:`Reference` checks that neither the server process's CPU time
(``/proc/<pid>/stat``) nor this process's other threads
(``process_time - thread_time``) advanced, re-runs the loop when one
did, and counts each such violation.

This module imports nothing from the program under test.
"""
from __future__ import annotations

import math
import os
import time
from typing import List, Optional, Sequence, Tuple

#: Iterations of :func:`ref_work`; frozen so that a reference second
#: means the same amount of interpreter work in every run.
REF_ITERS = 48_000
#: The nominal duration of one reference loop (seconds): a reference
#: second is the time this machine takes for ``REF_ITERS / R_NOMINAL``
#: iterations, whatever its momentary speed.
R_NOMINAL = 0.010
#: Candidate percentiles for the tail, highest first: every whole
#: percentile down to the median, so the tail of a mixed stream lands
#: as far out as its sample count allows rather than on a coarse rung.
TAIL_LADDER = (99.9, 99.5) + tuple(float(p) for p in range(99, 49, -1))
#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10
#: Guard violations tolerated in a row before a loop reading is kept.
GUARD_RETRIES = 3
#: CPU time other threads of this process may use during one loop
#: (seconds).  ``process_time`` and ``thread_time`` are read one after
#: the other, so their difference moves by microseconds on its own.
OTHER_THREADS_SLACK_S = 5e-4

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def ref_work(n: int = REF_ITERS) -> int:
    """The frozen reference workload: integer arithmetic, dict traffic."""
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


def proc_cpu_s(pid: int) -> float:
    """utime + stime of every thread of *pid*, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime, stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def other_threads_cpu_s() -> float:
    """CPU time of this process's threads other than the calling one."""
    return time.process_time() - time.thread_time()


def normalize(wall: float, r_before: float, r_after: float,
              sensitivity: float) -> float:
    """*wall* in reference seconds, given the adjacent loop durations and
    the work's *sensitivity* to the loop."""
    return wall * (R_NOMINAL / ((r_before + r_after) / 2.0)) ** sensitivity


class Reference:
    """Runs guarded reference loops and keeps their raw durations.

    *server_pid* is the process that must be idle while the loop runs
    (``None`` when no server is alive).  ``violations`` counts loop
    readings discarded because the server or another thread of this
    process used CPU during them.
    """

    def __init__(self, server_pid: Optional[int] = None) -> None:
        self.server_pid = server_pid
        self.violations = 0
        self.readings: List[float] = []

    def _server_cpu(self) -> float:
        return 0.0 if self.server_pid is None else proc_cpu_s(self.server_pid)

    def measure(self) -> float:
        """One guarded loop duration (seconds)."""
        for _ in range(GUARD_RETRIES + 1):
            srv0 = self._server_cpu()
            oth0 = other_threads_cpu_s()
            t0 = time.perf_counter()
            ref_work()
            dt = time.perf_counter() - t0
            busy = (self._server_cpu() != srv0
                    or other_threads_cpu_s() - oth0 > OTHER_THREADS_SLACK_S)
            if not busy:
                break
            self.violations += 1
        self.readings.append(dt)
        return dt


def median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of *values* and the count strictly beyond
    its rank: rank ``k = ceil(pct/100 * n)`` (1-based), value ``s[k-1]``,
    ``n - k`` samples beyond."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("percentile of no samples")
    k = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return s[k - 1], n - k


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(pct, value, beyond)`` for the highest percentile in
    :data:`TAIL_LADDER` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it; the median when even that has fewer."""
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    value, beyond = nearest_rank(values, 50.0)
    return 50.0, value, beyond
