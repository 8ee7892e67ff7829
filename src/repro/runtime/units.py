"""The one pool/retry loop: ATPG jobs and sweep shards both run here.

:func:`run_units` runs independent units (one ATPG job, one sweep
shard) and hands each attempt's outcome to the caller, who owns the
accounting and decides whether the unit gets another try.  The rules:

* **Rounds.** Round ``r`` runs, in input order, every unfinished unit
  on its attempt ``r`` (0-based); the retries it asks for form round
  ``r + 1``, which starts after one ``backoff(r + 1)`` sleep.
* **Inline** when ``workers == 1`` or there is one unit; otherwise a
  pool of ``min(workers, units)`` processes, at most four attempts per
  process in flight.
* **Failures are values.** A :class:`~repro.errors.JobFailure` raised
  by an attempt reaches ``on_attempt`` as its outcome.  Any other
  exception, from an attempt or from ``on_attempt`` (``OSError``
  included), propagates at once and nothing is re-run.
* **Crash charging.** A dead worker breaks the whole pool: every
  attempt whose future it fails (the crasher and any innocents in
  flight beside it) is charged as a
  :class:`~repro.errors.WorkerCrashError`, and the pool is rebuilt once
  they drain.  All of them belong to one round, so a unit is charged at
  most once per round.
* **Fallback.** Only failing to *start* a pool (creating it, or forking
  its workers, which the pool does before any unit is submitted) runs
  the units not yet attempted inline.

Imports only the stdlib and :mod:`repro.errors`, so :mod:`repro.sweeps`
can use it without loading the ATPG stack.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from itertools import chain
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, Optional, Tuple

from ..errors import JobFailure, WorkerCrashError

Unit = Tuple[int, Any]


def run_units(
    fn: Callable[[Any, int, bool], Any],
    tasks: Iterable[Unit],
    workers: int,
    on_attempt: Callable[[int, int, Any], Optional[Any]],
    backoff: Callable[[int], float],
) -> int:
    """Attempt every ``(index, task)`` unit until ``on_attempt`` is done.

    ``fn(task, attempt, in_pool)`` runs one attempt (picklable;
    ``in_pool`` tells chaos hooks whether a hard exit is survivable).
    ``on_attempt(index, attempts, outcome)`` runs here after every
    attempt and returns the unit's next task, or None when it is done.
    Returns how many worker processes ran units (1: all inline).
    """
    wave = list(tasks)
    size = min(workers, len(wave))
    pool = _Pool(size) if size > 1 else None
    attempt = 0
    try:
        while wave:
            if attempt:
                time.sleep(backoff(attempt))
            queue: Deque[Unit] = deque(wave)
            pooled = pool.run(fn, queue, attempt) if pool is not None else ()
            retries: Dict[int, Any] = {}
            # The inline generator runs whatever the pool left queued.
            for index, outcome in chain(pooled, _run_inline(fn, queue, attempt)):
                task = on_attempt(index, attempt + 1, outcome)
                if task is not None:
                    retries[index] = task
            wave = [(index, retries[index]) for index, _ in wave if index in retries]
            attempt += 1
        return size if pool is not None and pool.executor is not None else 1
    finally:
        if pool is not None:
            pool.close()


def _run_inline(fn, queue: Deque[Unit], attempt: int) -> Iterator[Tuple[int, Any]]:
    while queue:
        index, task = queue.popleft()
        try:
            outcome = fn(task, attempt, False)
        except JobFailure as exc:
            outcome = exc
        yield index, outcome


def _start_pool(size: int) -> Optional[ProcessPoolExecutor]:
    """A pool whose workers are up, or None where none can start."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=size)
        pool.submit(int).result()  # forks the workers now, before any unit
        return pool
    except (OSError, BrokenExecutor):  # sandboxed or process-limited hosts
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None


class _Pool:
    """A process pool of fixed size, rebuilt whenever a worker dies."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.executor = _start_pool(size)

    def run(self, fn, queue: Deque[Unit], attempt: int) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, outcome)`` per attempt as the workers finish;
        units left in ``queue`` when no pool can start run inline."""
        in_flight: Dict[Any, int] = {}
        broken = False
        while self.executor is not None and (queue or in_flight):
            while queue and not broken and len(in_flight) < 4 * self.size:
                try:
                    future = self.executor.submit(fn, queue[0][1], attempt, True)
                except BrokenExecutor:
                    broken = True
                    break
                in_flight[future] = queue.popleft()[0]
            if in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=in_flight.get):
                    index = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        broken = True
                        outcome = WorkerCrashError(
                            f"worker died running unit {index} (attempt {attempt})"
                        )
                    except JobFailure as exc:
                        outcome = exc
                    yield index, outcome
            if broken and not in_flight:
                self.executor.shutdown(wait=False)
                self.executor = _start_pool(self.size)
                broken = False

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = None
