"""Tests for :func:`repro.runtime.units.run_units`, the one pool/retry
loop under ATPG jobs and sweep shards: rounds, crash charging, backoff
and the pool-start fallback."""

import errno
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import FlakyWorkerError, WorkerCrashError
from repro.runtime import units
from repro.runtime.units import run_units


def double(task, attempt, in_pool):
    return 2 * task


def crash_first(task, attempt, in_pool):
    """Kill the pool worker (or fail inline) on every unit's first attempt."""
    if attempt == 0:
        if in_pool:
            os._exit(1)
        raise WorkerCrashError("injected crash")
    return 2 * task


def flaky_first(task, attempt, in_pool):
    if attempt == 0:
        raise FlakyWorkerError("injected flake")
    return 2 * task


def run(fn, n, workers, max_attempts=3, backoff=lambda r: 0.0):
    """Run ``n`` units of ``fn``; return per-unit results and attempts."""
    results, attempts, failures = {}, {}, {}

    def on_attempt(index, count, outcome):
        attempts[index] = count
        if isinstance(outcome, Exception):
            failures.setdefault(index, []).append(type(outcome).__name__)
            return index if count < max_attempts else None
        results[index] = outcome
        return None

    processes = run_units(fn, [(i, i) for i in range(n)], workers, on_attempt, backoff)
    return results, attempts, failures, processes


class TestRunUnits:
    def test_inline_and_pool_agree(self):
        inline = run(double, 10, workers=1)
        pooled = run(double, 10, workers=2)
        assert inline[:3] == pooled[:3]
        assert inline[0] == {i: 2 * i for i in range(10)}
        assert (inline[3], pooled[3]) == (1, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_storm_wider_than_window_recovers(self, workers):
        # 40 units overflow the 4-per-worker window, so fresh first
        # attempts (each killing its worker) are in flight long after
        # the first crash retries are due.  Rounds keep them apart:
        # every unit is charged exactly once, for its own first attempt,
        # and succeeds on the second.
        results, attempts, failures, _ = run(crash_first, 40, workers)
        assert results == {i: 2 * i for i in range(40)}
        assert attempts == {i: 2 for i in range(40)}
        assert failures == {i: ["WorkerCrashError"] for i in range(40)}

    def test_backoff_sleeps_once_per_retry_round(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(units.time, "sleep", sleeps.append)
        results, attempts, _, _ = run(
            flaky_first, 6, workers=1, backoff=lambda r: 0.5 * r
        )
        assert results == {i: 2 * i for i in range(6)}
        assert sleeps == [0.5]

    def test_rounds_run_in_input_order(self):
        order = []

        def on_attempt(index, count, outcome):
            order.append((index, count))
            return "again" if count == 1 and index % 2 else None

        def fn(task, attempt, in_pool):
            return task

        run_units(fn, [(i, i) for i in (3, 1, 2, 0)], 1, on_attempt, lambda r: 0.0)
        assert order == [(3, 1), (1, 1), (2, 1), (0, 1), (3, 2), (1, 2)]

    def test_workers_that_cannot_fork_fall_back_inline(self, monkeypatch):
        # The workers fork on the pool's first submit; when that fails
        # nothing has run yet, so every unit runs inline instead.
        class NoFork(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(units, "ProcessPoolExecutor", NoFork)
        results, attempts, _, processes = run(double, 5, workers=2)
        assert results == {i: 2 * i for i in range(5)}
        assert attempts == {i: 1 for i in range(5)}
        assert processes == 1

    def test_oserror_from_on_attempt_propagates(self):
        calls = []

        def on_attempt(index, count, outcome):
            calls.append(index)
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError):
            run_units(double, [(i, i) for i in range(5)], 2, on_attempt, lambda r: 0)
        assert calls == [calls[0]]
