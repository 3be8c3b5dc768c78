"""Tests of the normalization helper: rank rule, arithmetic, idle guard.

Run with ``python3 -m pytest perfbench/test_refloop.py``.
"""
import itertools
import subprocess

import pytest

import refloop


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert refloop.nearest_rank(values, 90) == (90, 10)
    assert refloop.nearest_rank(values, 50) == (50, 50)
    assert refloop.nearest_rank(values, 99.9) == (100, 0)
    assert refloop.nearest_rank([7.0], 50) == (7.0, 0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert refloop.tail(list(range(1, 101))) == (90.0, 90, 10)
    assert refloop.tail(list(range(1, 1001))) == (99.0, 990, 10)
    assert refloop.tail(list(range(1, 21))) == (50.0, 10, 10)
    # Whole-percentile rungs: 90 samples put the tail at p88.
    assert refloop.tail(list(range(1, 91))) == (88.0, 80, 10)
    # Too few samples for any rung: the median, with its true count.
    assert refloop.tail(list(range(1, 16))) == (50.0, 8, 7)


def test_tail_ignores_input_order():
    values = [5, 1, 9, 3, 7] * 10
    assert refloop.tail(values) == refloop.tail(sorted(values))


def test_median():
    assert refloop.median([3, 1, 2]) == 2
    assert refloop.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        refloop.median([])


def test_normalize_divides_by_mean_adjacent_loop():
    r = refloop.R_NOMINAL
    assert refloop.normalize(0.2, r, r, 1.0) == pytest.approx(0.2)
    assert refloop.normalize(0.2, 2 * r, 2 * r, 1.0) == pytest.approx(0.1)
    assert refloop.normalize(1.0, r, 3 * r, 1.0) == pytest.approx(0.5)


def test_normalize_sensitivity_is_an_exponent_on_the_loop_ratio():
    r = refloop.R_NOMINAL
    assert refloop.normalize(0.2, 4 * r, 4 * r, 0.5) == pytest.approx(0.1)
    assert refloop.normalize(0.2, 4 * r, 4 * r, 0.0) == pytest.approx(0.2)
    assert refloop.normalize(0.3, r, r, 0.7) == pytest.approx(0.3)
    assert refloop.normalize(1.0, r / 2, 3 * r / 2, 0.9) == pytest.approx(1.0)


def test_guard_passes_when_server_sleeps():
    sleeper = subprocess.Popen(["sleep", "30"])
    try:
        ref = refloop.Reference(sleeper.pid)
        for _ in range(3):
            assert ref.measure() > 0
        assert ref.violations == 0
        assert len(ref.readings) == 3
    finally:
        sleeper.kill()
        sleeper.wait()


def test_guard_counts_server_cpu_and_retries(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(refloop, "proc_cpu_s", lambda pid: next(ticks) * 0.01)
    ref = refloop.Reference(server_pid=12345)
    ref.measure()
    assert ref.violations == refloop.GUARD_RETRIES + 1
    assert len(ref.readings) == 1


def test_guard_counts_other_thread_cpu(monkeypatch):
    steps = iter([0.0, 0.002, 0.002, 0.002])
    monkeypatch.setattr(refloop, "other_threads_cpu_s", lambda: next(steps))
    ref = refloop.Reference(None)
    ref.measure()
    assert ref.violations == 1
    assert len(ref.readings) == 1


def test_guard_tolerates_clock_read_jitter(monkeypatch):
    jitter = iter([0.0, refloop.OTHER_THREADS_SLACK_S / 2])
    monkeypatch.setattr(refloop, "other_threads_cpu_s", lambda: next(jitter))
    ref = refloop.Reference(None)
    ref.measure()
    assert ref.violations == 0


def test_proc_readers_see_a_live_process():
    sleeper = subprocess.Popen(["sleep", "30"])
    try:
        assert refloop.proc_cpu_s(sleeper.pid) >= 0.0
        assert refloop.proc_hwm_mb(sleeper.pid) > 0.0
    finally:
        sleeper.kill()
        sleeper.wait()
