"""The generic sweep engine: spec in, streamed aggregates out.

:class:`SweepEngine` expands a :class:`~repro.sweeps.spec.SweepSpec`
into point evaluations and runs them with the execution machinery the
:class:`~repro.runtime.session.Runtime` already provides — worker
fan-out, chaos injection, retry policy, per-shard checkpoint/resume,
and observability counters — without knowing anything about what a
point *computes*.  The evaluator is any picklable module-level callable
``evaluate(point: SweepPointSpec) -> dict`` returning a JSON-able
record; everything downstream (journaling, aggregation, the JSONL
sink) consumes those records uniformly.

Determinism contract: point seeds are derived, not drawn, and records
are journaled at shard granularity but **aggregated strictly in shard
order**, so serial, parallel, and killed-and-resumed runs all produce
byte-identical aggregate statistics.  Worker processes only ever see
whole shards, fanned out by :func:`~repro.runtime.units.run_units` (the
loop ATPG jobs use too); a failed shard is retried with the same points
and seeds up to ``policy.max_attempts``, whatever the runtime's
``on_error``.

The engine stays off the ATPG stack — beyond :mod:`repro.errors` and
:mod:`repro.observability` it imports only the chaos, policy and units
modules of :mod:`repro.runtime` — so low layers like
:mod:`repro.core.sweep` can build on it without import cycles.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Union

from ..errors import ConfigError, JobFailure, JobRetriesExhaustedError
from ..observability import get_tracer, register_counter
from ..runtime.chaos import ChaosConfig
from ..runtime.policy import ExecutionPolicy
from ..runtime.units import run_units
from .aggregate import Aggregator
from .spec import SweepPointSpec, SweepSpec
from .store import ShardStore

SWEEP_POINTS = register_counter("sweeps.points", "sweep points evaluated")
SWEEP_SHARDS = register_counter("sweeps.shards", "sweep shards executed")
SWEEP_RETRIES = register_counter("sweeps.retries", "sweep shard retry attempts")

Evaluator = Callable[[SweepPointSpec], Dict[str, Any]]


class _ShardTask(NamedTuple):
    """Everything one shard attempt needs on the far side of a pickle."""

    index: int
    evaluate: Evaluator
    points: List[SweepPointSpec]
    chaos: ChaosConfig


def _evaluate_shard(
    task: _ShardTask, attempt: int, in_pool: bool
) -> List[Dict[str, Any]]:
    """Worker entry point (module-level so it pickles).

    The chaos hook fires before the first evaluation, with the shard as
    the job — so an injected hang/crash/flake hits sweeps exactly the
    way it hits ATPG jobs, and the same retry policy recovers it.
    """
    task.chaos.on_job_start(f"shard-{task.index}", attempt, in_pool)
    return [dict(task.evaluate(point)) for point in task.points]


@dataclass
class SweepRunResult:
    """What one :meth:`SweepEngine.run` did, and what it measured."""

    spec_name: str
    point_count: int
    shard_count: int
    executed_shards: int
    resumed_shards: int
    workers: int
    aggregates: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: Optional[List[Dict[str, Any]]] = None  # only with collect=True

    def summary(self) -> str:
        return (
            f"{self.spec_name}: {self.point_count} points in "
            f"{self.shard_count} shards ({self.executed_shards} executed, "
            f"{self.resumed_shards} resumed, workers={self.workers})"
        )


class _NeutralRuntime:
    """The do-nothing stand-in when no Runtime was given: serial,
    unjournaled, ambient tracer, default policy."""

    workers = 1
    policy = ExecutionPolicy()
    journal = None

    def activate(self):
        return nullcontext(get_tracer())


class SweepEngine:
    """Runs sweep specs through the runtime's execution machinery.

    ``runtime`` supplies the worker count, the retry/chaos policy, the
    tracer, and — when it journals to a run directory — the shard
    store location (``RUN_DIR/sweeps/<spec name>/``) and the resume
    flag.  ``shard_size`` balances journal granularity against fan-out
    overhead: a killed run loses at most one shard of work per worker.
    """

    def __init__(self, runtime: Optional[Any] = None, shard_size: int = 64):
        if shard_size < 1:
            raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
        self.runtime = runtime if runtime is not None else _NeutralRuntime()
        self.shard_size = shard_size

    # -- store resolution ------------------------------------------------

    def _store_for(
        self,
        spec: SweepSpec,
        store_dir: Optional[Union[str, Any]],
        resume: bool,
    ) -> Optional[ShardStore]:
        if store_dir is None:
            journal = self.runtime.journal
            if journal is None:
                return None
            store_dir = journal.directory / "sweeps" / spec.name
            resume = journal.resume
        return ShardStore(store_dir, spec.fingerprint(), resume=resume)

    # -- execution -------------------------------------------------------

    def run(
        self,
        spec: SweepSpec,
        evaluate: Evaluator,
        aggregators: Sequence[Aggregator] = (),
        collect: bool = False,
        store_dir: Optional[Union[str, Any]] = None,
        resume: bool = False,
    ) -> SweepRunResult:
        """Evaluate every point; stream records through the aggregators.

        Records reach the aggregators strictly in point order no matter
        how execution interleaves.  With ``collect=True`` the records
        also come back as a list (small sweeps); leave it off for
        population-scale runs so nothing accumulates in memory beyond
        the aggregator state.  ``store_dir``/``resume`` override the
        runtime journal's shard directory (used by tests and
        benchmarks); normally the run directory provides both.
        """
        points = list(spec.points())
        shards = [
            points[start:start + self.shard_size]
            for start in range(0, len(points), self.shard_size)
        ]
        store = self._store_for(spec, store_dir, resume)
        policy = self.runtime.policy
        workers = self.runtime.workers

        recalled: Dict[int, List[Dict[str, Any]]] = {}
        if store is not None:
            for index in range(len(shards)):
                records = store.get(index)
                if records is not None:
                    recalled[index] = records
        pending = [index for index in range(len(shards)) if index not in recalled]

        result = SweepRunResult(
            spec_name=spec.name,
            point_count=len(points),
            shard_count=len(shards),
            executed_shards=len(pending),
            resumed_shards=len(recalled),
            workers=workers,
            records=[] if collect else None,
        )

        with self.runtime.activate() as tracer:
            with tracer.span(
                "sweep", name=spec.name, points=len(points), shards=len(shards)
            ):
                ready = dict(recalled)
                flushed = 0

                def flush() -> None:
                    """Feed aggregators every shard that is next in order."""
                    nonlocal flushed
                    while flushed in ready:
                        records = ready.pop(flushed)
                        for record in records:
                            for aggregator in aggregators:
                                aggregator.add(record)
                        if collect:
                            result.records.extend(records)
                        if store is not None:
                            store.note(flushed, len(records))
                            store.write_manifest(spec.describe())
                        flushed += 1

                flush()

                tasks = {
                    index: _ShardTask(index, evaluate, shards[index], policy.chaos)
                    for index in pending
                }

                def on_attempt(index: int, attempts: int, outcome):
                    if isinstance(outcome, JobFailure):
                        if attempts >= policy.max_attempts:
                            raise JobRetriesExhaustedError(
                                f"sweep shard {index} still failing after "
                                f"{attempts} attempts: "
                                f"{type(outcome).__name__}: {outcome}"
                            ) from outcome
                        tracer.count(SWEEP_RETRIES)
                        return tasks[index]
                    # Journal-first: the shard is durable before its
                    # records influence any aggregate, so a kill between
                    # the two replays identically on resume.
                    if store is not None:
                        store.record(index, outcome)
                    tracer.count(SWEEP_SHARDS)
                    tracer.count(SWEEP_POINTS, len(outcome))
                    ready[index] = outcome
                    flush()
                    return None

                run_units(
                    _evaluate_shard,
                    tasks.items(),
                    workers,
                    on_attempt,
                    policy.backoff_for_round,
                )

                if flushed != len(shards):
                    raise RuntimeError(
                        f"sweep {spec.name!r}: only {flushed} of "
                        f"{len(shards)} shards flushed"
                    )
                for aggregator in aggregators:
                    aggregator.close()
                if store is not None:
                    store.write_manifest(spec.describe())
                    result.resumed_shards = store.resumed_shards

        result.aggregates = {
            aggregator.name: aggregator.result() for aggregator in aggregators
        }
        return result

