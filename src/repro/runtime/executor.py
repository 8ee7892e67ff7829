"""Parallel, cache-aware, failure-hardened execution of ATPG jobs.

Per-core ATPG is embarrassingly parallel — the modularity argument of
the paper, applied to its own reproduction.  :func:`run_jobs` fans a
list of :class:`AtpgJob` values across worker processes through
:func:`~repro.runtime.units.run_units` (the one pool/retry loop, shared
with the sweep engine), consults the result cache (and, on resume, the
run journal) first, and returns results **in job order regardless of
worker count or completion order**, so serial and parallel runs are
bit-identical.  ``workers=1`` (the default) runs jobs inline and never
touches multiprocessing; pool sizing, crash charging and the serial
fallback are :mod:`repro.runtime.units`' rules.

Failure handling is policy, not fate (:class:`ExecutionPolicy`):

* Workers run under a cooperative :class:`~repro.runtime.abort.AbortToken`
  — a per-job wall-clock deadline and/or total backtrack budget checked
  inside the engine loops.  Tripping one raises the typed
  :class:`~repro.errors.JobTimeoutError` / :class:`~repro.errors.AbortedError`.
* ``on_error`` picks the degradation: ``"raise"`` (default — the first
  failure propagates, the historical behavior), ``"skip"`` (failed jobs
  yield ``None`` results and a ``timeout``/``failed``
  :class:`JobOutcome` in the manifest), or ``"retry"`` (failed jobs are
  re-attempted up to ``policy.max_attempts`` times with exponential
  backoff; deterministic failures retry under a perturbed seed; jobs
  still failing raise :class:`~repro.errors.JobRetriesExhaustedError`).
  ``"raise"`` and ``"skip"`` give every job exactly one attempt.

Every run produces a :class:`RunManifest` — one :class:`JobRecord` per
job with wall-clock time, attempt count, and a :class:`JobOutcome` —
so callers can report hit rates, failures, and where the time went.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..atpg.engine import AtpgResult, generate_tests
from ..circuit.netlist import Netlist
from ..core.serialization import atpg_result_json
from ..errors import (
    ConfigError,
    JobFailure,
    JobRetriesExhaustedError,
    JobTimeoutError,
    WorkerCrashError,
)
from ..observability import (
    Tracer,
    get_tracer,
    phase_breakdown,
    register_counter,
    register_gauge,
    use_tracer,
)
from .abort import NULL_ABORT, AbortToken, use_abort
# result_key stays bound here: perfbench's traced run wraps it by name.
from .cache import AtpgResultCache, fingerprint_key, netlist_fingerprint
from .cache import result_key  # noqa: F401
from .chaos import use_chaos
from .config import AtpgConfig
from .journal import RunJournal
from .policy import ExecutionPolicy, validate_on_error
from .units import run_units

EXECUTOR_JOBS = register_counter("executor.jobs", "ATPG jobs submitted")
EXECUTOR_EXECUTED = register_counter(
    "executor.executed", "ATPG jobs actually run (cache misses)"
)
EXECUTOR_TIMEOUTS = register_counter(
    "executor.timeouts", "job attempts that hit the deadline or budget"
)
EXECUTOR_CRASHES = register_counter(
    "executor.crashes", "job attempts lost to a dead worker process"
)
EXECUTOR_RETRIES = register_counter("executor.retries", "job retry attempts")
EXECUTOR_FAILURES = register_counter(
    "executor.failures", "jobs that exhausted every recovery path"
)
EXECUTOR_UTILIZATION = register_gauge(
    "executor.utilization",
    "busy worker-seconds / (workers x fan-out wall-clock) of the last parallel run",
)


@dataclass(frozen=True)
class AtpgJob:
    """One unit of ATPG work: a netlist under a specific configuration."""

    name: str
    netlist: Netlist
    config: AtpgConfig = AtpgConfig()


class JobOutcome(enum.Enum):
    """What ultimately happened to one job."""

    OK = "ok"
    CACHE_HIT = "cache_hit"  # cache or (on resume) journal hit
    RETRIED_OK = "retried_ok"  # succeeded after at least one failed attempt
    TIMEOUT = "timeout"  # deadline/budget tripped and no retry saved it
    FAILED = "failed"  # crashed/flaked/exhausted and no retry saved it

    @property
    def is_ok(self) -> bool:
        return self in (JobOutcome.OK, JobOutcome.CACHE_HIT, JobOutcome.RETRIED_OK)


@dataclass
class JobRecord:
    """What happened to one job: where it ran, what it cost, how it ended."""

    name: str
    circuit: str
    cache_hit: bool
    seconds: float
    pattern_count: int
    phases: Dict[str, float] = field(default_factory=dict)
    outcome: JobOutcome = JobOutcome.OK
    attempts: int = 0  # worker attempts consumed (0 for cache hits)
    error: Optional[str] = None  # final failure, as "Type: message"


@dataclass
class RunManifest:
    """Per-job accounting for one or more :func:`run_jobs` calls."""

    workers: int = 1
    records: List[JobRecord] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    @property
    def executed(self) -> int:
        return self.job_count - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.job_count if self.records else 0.0

    @property
    def atpg_seconds(self) -> float:
        """Wall-clock spent in actual ATPG (cache hits cost ~nothing)."""
        return sum(r.seconds for r in self.records if not r.cache_hit)

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """How many jobs ended in each :class:`JobOutcome` (zero-free)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.outcome.value] = counts.get(record.outcome.value, 0) + 1
        return counts

    @property
    def failed_jobs(self) -> List[JobRecord]:
        return [r for r in self.records if not r.outcome.is_ok]

    @property
    def retry_attempts(self) -> int:
        """Extra worker attempts beyond the first, over all jobs."""
        return sum(max(0, r.attempts - 1) for r in self.records)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Traced seconds per engine phase, summed over executed jobs.

        Empty when no job ran under an active tracer — phase timing is
        observability data, only collected when asked for.
        """
        totals: Dict[str, float] = {}
        for record in self.records:
            for name, seconds in record.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def extend(self, other: "RunManifest") -> None:
        self.records.extend(other.records)

    def summary(self) -> str:
        text = (
            f"{self.job_count} ATPG jobs: {self.executed} executed "
            f"(workers={self.workers}), {self.cache_hits} cache hits "
            f"({100 * self.hit_rate:.0f}%), {self.atpg_seconds:.2f}s ATPG time"
        )
        failed = self.failed_jobs
        if failed:
            timeouts = sum(1 for r in failed if r.outcome is JobOutcome.TIMEOUT)
            text += f"; {len(failed)} NOT ok ({timeouts} timeout)"
        retries = self.retry_attempts
        if retries:
            text += f"; {retries} retries"
        phases = self.phase_seconds
        if phases:
            breakdown = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1])
            )
            text += f"; phases: {breakdown}"
        return text


class _WorkerPayload(NamedTuple):
    """Everything one job attempt needs on the far side of a pickle."""

    job: AtpgJob
    config: AtpgConfig  # the job's, or its perturbed retry config
    traced: bool
    policy: ExecutionPolicy


class _AttemptResult(NamedTuple):
    """What one job attempt produced — success or a typed failure,
    returned as a value so a failed attempt still delivers its partial
    trace and timing to the parent."""

    error: Optional[JobFailure]
    result: Optional[AtpgResult]
    seconds: float
    export: Optional[Dict[str, Any]]


def _execute(payload: _WorkerPayload, attempt: int, in_pool: bool) -> _AttemptResult:
    """Worker entry point (module-level so it pickles).

    When tracing is requested the job runs under its *own* fresh
    :class:`Tracer` — in a pool worker the fork-inherited global would
    otherwise alias the parent's (useless to mutate in a child), and in
    the serial path a private tracer keeps span depths and merge
    semantics identical to the pool path.  The exported trace rides
    back with the result for the parent to merge — on failures too, so
    a timed-out job's spans (with their ``status`` attribute) are not
    lost.

    The abort token is armed *before* the chaos hook runs: an injected
    hang burns deadline exactly like a real one, and the engine's first
    cooperative check converts it into a timeout.
    """
    policy = payload.policy
    token = (
        AbortToken(policy.deadline_seconds, policy.backtrack_budget)
        if policy.deadline_seconds is not None or policy.backtrack_budget is not None
        else NULL_ABORT
    )
    tracer = Tracer() if payload.traced else None
    error: Optional[JobFailure] = None
    result: Optional[AtpgResult] = None
    start = time.perf_counter()
    try:
        # Untraced, use_tracer(None) keeps the (null) ambient tracer.
        with use_abort(token), use_tracer(tracer):
            policy.chaos.on_job_start(payload.job.name, attempt, in_pool)
            result = generate_tests(payload.job.netlist, config=payload.config)
    except JobFailure as exc:
        error = exc
    seconds = time.perf_counter() - start
    return _AttemptResult(
        error, result, seconds, tracer.export() if tracer is not None else None
    )


def run_jobs(
    jobs: Sequence[AtpgJob],
    workers: int = 1,
    cache: Optional[AtpgResultCache] = None,
    policy: Optional[ExecutionPolicy] = None,
    on_error: str = "raise",
    journal: Optional[RunJournal] = None,
) -> Tuple[List[Optional[AtpgResult]], RunManifest]:
    """Run every job; results come back aligned with the input order.

    Journal hits (on resume) and cache hits are resolved up front and
    only the misses are fanned out; fresh results are journaled and
    stored back into the cache in job order.  Failed jobs leave a
    ``None`` in their result slot — which only a caller opting into
    ``on_error="skip"`` ever observes, since ``"raise"`` propagates the
    first failure and ``"retry"`` raises
    :class:`~repro.errors.JobRetriesExhaustedError` rather than return
    a partial batch.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    validate_on_error(on_error)
    policy = policy if policy is not None else ExecutionPolicy()
    tracer = get_tracer()
    manifest = RunManifest(workers=workers)
    results: List[Optional[AtpgResult]] = [None] * len(jobs)
    timings: List[float] = [0.0] * len(jobs)
    hits: List[bool] = [False] * len(jobs)
    phases: List[Dict[str, float]] = [{} for _ in jobs]
    attempts: List[int] = [0] * len(jobs)
    errors: List[Optional[JobFailure]] = [None] * len(jobs)
    configs: List[AtpgConfig] = [job.config for job in jobs]
    # One netlist hash per job: retries under a perturbed config key
    # their results from the same fingerprint.
    fingerprints: List[str] = []
    for job in jobs:
        with tracer.span("runtime.key"):
            fingerprints.append(netlist_fingerprint(job.netlist))
    keys = [fingerprint_key(fp, job.config) for fp, job in zip(fingerprints, jobs)]

    pending: List[int] = []
    for index, job in enumerate(jobs):
        recalled = journal.get(keys[index]) if journal is not None else None
        if recalled is None and cache is not None:
            recalled = cache.get(job.netlist, job.config, keys[index])
        if recalled is not None:
            results[index] = recalled
            hits[index] = True
        else:
            pending.append(index)

    if pending:
        max_attempts = policy.max_attempts if on_error == "retry" else 1

        def payload(index: int) -> _WorkerPayload:
            return _WorkerPayload(jobs[index], configs[index], tracer.enabled, policy)

        def on_attempt(index: int, count: int, outcome) -> Optional[_WorkerPayload]:
            if isinstance(outcome, JobFailure):  # the pool lost the worker
                outcome = _AttemptResult(outcome, None, 0.0, None)
            attempts[index] = count
            timings[index] += outcome.seconds
            if outcome.export is not None:
                tracer.merge(outcome.export, job=jobs[index].name)
                phases[index] = phase_breakdown(outcome.export)
            results[index], errors[index] = outcome.result, outcome.error
            error = outcome.error
            if error is None:
                tracer.count(EXECUTOR_EXECUTED)
                return None
            if isinstance(error, JobTimeoutError):
                tracer.count(EXECUTOR_TIMEOUTS)
            elif isinstance(error, WorkerCrashError):
                tracer.count(EXECUTOR_CRASHES)
            if count >= max_attempts:
                return None
            configs[index] = policy.retry_config(jobs[index].config, count, error)
            tracer.count(EXECUTOR_RETRIES)
            return payload(index)

        with use_chaos(policy.chaos):
            fan_out_start = time.perf_counter()
            processes = run_units(
                _execute,
                [(index, payload(index)) for index in pending],
                workers,
                on_attempt,
                policy.backoff_for_round,
            )
            fan_out_wall = time.perf_counter() - fan_out_start
            if tracer.enabled and processes > 1 and fan_out_wall > 0:
                busy = sum(timings[index] for index in pending)
                tracer.gauge(EXECUTOR_UTILIZATION, busy / (processes * fan_out_wall))
            # Store-back happens inside the chaos scope so injected
            # cache-file corruption (corrupt_stores) lands on these
            # writes.  Each fresh result is encoded once, for both.
            for index in pending:
                result = results[index]
                if result is None or (journal is None and cache is None):
                    continue
                with tracer.span("runtime.encode"):
                    text = atpg_result_json(result)
                if journal is not None:
                    journal.record(
                        keys[index], jobs[index].name, configs[index], result, text
                    )
                if cache is not None:
                    # Content-addressed: keyed by the config the result
                    # was actually produced with (perturbed on timeout
                    # retries).
                    key = fingerprint_key(fingerprints[index], configs[index])
                    cache.put(jobs[index].netlist, configs[index], result, key, text)

    if tracer.enabled and jobs:
        tracer.count(EXECUTOR_JOBS, len(jobs))

    first_error: Optional[Tuple[int, JobFailure]] = None
    for index, job in enumerate(jobs):
        result = results[index]
        error = errors[index]
        if result is not None:
            if hits[index]:
                outcome = JobOutcome.CACHE_HIT
            elif attempts[index] > 1:
                outcome = JobOutcome.RETRIED_OK
            else:
                outcome = JobOutcome.OK
        elif isinstance(error, JobTimeoutError):
            outcome = JobOutcome.TIMEOUT
        else:
            outcome = JobOutcome.FAILED
        if error is not None and first_error is None:
            first_error = (index, error)
        manifest.records.append(
            JobRecord(
                name=job.name,
                circuit=result.circuit_name if result is not None else job.netlist.name,
                cache_hit=hits[index],
                seconds=timings[index],
                pattern_count=result.pattern_count if result is not None else 0,
                phases=phases[index],
                outcome=outcome,
                attempts=attempts[index],
                error=f"{type(error).__name__}: {error}" if error is not None else None,
            )
        )
        if journal is not None:
            journal.note(
                name=job.name,
                circuit=manifest.records[-1].circuit,
                key=keys[index],
                pattern_count=manifest.records[-1].pattern_count
                if result is not None
                else None,
                status="ok" if result is not None else outcome.value,
            )

    if journal is not None:
        journal.write_manifest()

    if first_error is not None:
        index, error = first_error
        if tracer.enabled:
            tracer.count(EXECUTOR_FAILURES, sum(1 for e in errors if e is not None))
        if on_error == "raise":
            raise error
        if on_error == "retry":
            raise JobRetriesExhaustedError(
                f"job {jobs[index].name!r} still failing after "
                f"{attempts[index]} attempts: {type(error).__name__}: {error}"
            ) from error
        # on_error == "skip": the manifest carries the failures.

    return list(results), manifest

