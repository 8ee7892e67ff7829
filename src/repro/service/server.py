"""ATPG-as-a-service: the long-lived async job server.

One :class:`JobServer` wraps the whole runtime stack — fair-share
queue, retry executor, content-addressed result cache, run journal —
behind a small JSON-over-HTTP API served by a single ``asyncio`` event
loop (stdlib only; the HTTP/1.1 framing is hand-rolled over
``asyncio.start_server`` streams):

========  ==========================  ====================================
POST      ``/v1/jobs``                submit one ATPG job
GET       ``/v1/jobs``                list jobs (``?tenant=`` filter)
GET       ``/v1/jobs/<id>``           job status
GET       ``/v1/jobs/<id>/result``    the finished AtpgResult (JSON)
GET       ``/v1/jobs/<id>/stream``    state transitions as JSON lines
POST      ``/v1/jobs/<id>/cancel``    withdraw a queued job
GET       ``/v1/health``              queue depths, state counts, config
GET       ``/v1/metrics``             telemetry summary (when traced)
POST      ``/v1/admin/pause``         hold the dispatcher (jobs still accepted)
POST      ``/v1/admin/resume``        release the dispatcher
POST      ``/v1/admin/shutdown``      graceful stop
========  ==========================  ====================================

Execution model: a single dispatcher coroutine drains up to
``batch_size`` jobs per round from the :class:`FairShareQueue` (which
interleaves tenants round-robin) and runs the batch through the
existing retry executor (:func:`repro.runtime.executor.run_jobs`) in a
worker thread, so the event loop keeps accepting submissions and
serving status while ATPG runs.  Identical in-flight submissions — same
netlist fingerprint, same :class:`AtpgConfig` fingerprint — are
**single-flighted**: the first becomes the leader, later ones attach as
followers and share its one execution.  Completed results land in the
shared content-addressed cache (every tenant benefits) and, when a
``journal_dir`` is configured, in the crash-safe run journal; admitted
jobs are spooled durably *before* the submit response, so a SIGKILLed
server restarted with ``resume=True`` drains exactly the jobs it owed —
no duplicates, no losses — and writes a byte-identical
``service-manifest.json``.

Failure handling stays policy: batches run ``on_error="skip"`` so one
bad job never poisons its neighbors, and failed jobs are re-queued up
to ``config.retries`` times at the service level.  Fault injection
follows the runtime convention: the ``REPRO_CHAOS`` environment
variable configures the chaos harness of the *execution policy* —
deployment identity (:class:`ServiceConfig`) itself has no environment
side channels.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    ConfigError,
    JobStateError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
    ServiceError,
    UnknownJobError,
)
from ..observability import (
    JsonlSink,
    Tracer,
    get_tracer,
    register_counter,
    register_gauge,
    use_tracer,
)
from ..runtime.cache import AtpgResultCache, default_cache_dir
from ..runtime.chaos import ChaosConfig
from ..runtime.executor import AtpgJob, run_jobs
from ..runtime.journal import RunJournal
from ..runtime.policy import ExecutionPolicy
from ..runtime.records import write_record
from ..core.serialization import atpg_result_to_dict
from .config import ServiceConfig
from .jobs import (
    JobState,
    ServiceJob,
    job_from_spool,
    job_from_submission,
)
from .queue import FairShareQueue, TokenBucket
from .spool import SubmissionSpool

SERVICE_SUBMITTED = register_counter("service.submitted", "jobs accepted")
SERVICE_DEDUPED = register_counter(
    "service.deduped", "submissions single-flighted onto an identical in-flight job"
)
SERVICE_REJECTED = register_counter(
    "service.rejected", "submissions rejected (rate limit, quota, bad input)"
)
SERVICE_COMPLETED = register_counter("service.completed", "jobs finished ok")
SERVICE_FAILED = register_counter("service.failed", "jobs finished failed")
SERVICE_CANCELLED = register_counter("service.cancelled", "jobs cancelled")
SERVICE_RETRIED = register_counter(
    "service.retried", "failed jobs re-queued by the service retry policy"
)
SERVICE_RESUMED = register_counter(
    "service.resumed", "spooled jobs reloaded on server resume"
)
SERVICE_QUEUE_DEPTH = register_gauge(
    "service.queue_depth", "fair-share queue depth after the last change"
)

MANIFEST_NAME = "service-manifest.json"
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _error_status(error: Exception) -> int:
    if isinstance(error, RateLimitedError):
        return 429
    if isinstance(error, QuotaExceededError):
        return 403
    if isinstance(error, UnknownJobError):
        return 404
    if isinstance(error, JobStateError):
        return 409
    if isinstance(error, (ConfigError, ValueError)):
        return 400
    return 500


class JobServer:
    """The long-lived multi-tenant ATPG job service."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self.cache: Optional[AtpgResultCache] = None
        if not self.config.no_cache:
            self.cache = AtpgResultCache(
                self.config.cache_dir
                if self.config.cache_dir
                else default_cache_dir()
            )
        self.journal: Optional[RunJournal] = None
        if self.config.journal_dir:
            self.journal = RunJournal(
                self.config.journal_dir, resume=self.config.resume
            )
        self.spool = SubmissionSpool(self.config.journal_dir)
        self.policy = ExecutionPolicy(
            deadline_seconds=self.config.deadline_seconds,
            chaos=ChaosConfig.from_env(),
        )
        self.tracer: Optional[Tracer] = None
        if self.config.trace or self.config.metrics:
            self.tracer = Tracer()
            if self.config.trace:
                self.tracer.sinks.append(JsonlSink(self.config.trace))

        self.queue = FairShareQueue()
        self.jobs: Dict[int, ServiceJob] = {}
        self._inflight: Dict[str, ServiceJob] = {}  # key -> leader job
        self._followers: Dict[int, List[ServiceJob]] = {}  # leader seq -> jobs
        self._retries_used: Dict[int, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._subscribers: Dict[int, List[asyncio.Queue]] = {}
        self._seq = 0
        self._done_seq = 0
        self.paused = self.config.start_paused
        self.port: Optional[int] = None
        self._running_batch = False
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -------------------------------------------------------

    async def serve(self, ready: Optional[asyncio.Event] = None) -> None:
        """Bind, load any spooled backlog, and serve until shut down."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        if self._stopping:  # shut down before the loop existed
            self._stopped.set()
        with use_tracer(self.tracer) if self.tracer is not None else _nullcontext():
            self._load_spool()
            self._server = await asyncio.start_server(
                self._handle_client, self.config.host, self.config.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            print(
                f"repro-service listening on "
                f"http://{self.config.host}:{self.port}",
                flush=True,
            )
            if ready is not None:
                ready.set()
            dispatcher = asyncio.ensure_future(self._dispatch_loop())
            try:
                await self._stopped.wait()
            finally:
                self._stopping = True
                self._wake.set()
                await dispatcher
                self._server.close()
                await self._server.wait_closed()
                self._write_service_manifest()
                if self.tracer is not None:
                    self.tracer.flush()

    def run(self) -> int:
        """Blocking entry point (``repro serve``)."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:
            pass
        return 0

    def shutdown(self) -> None:
        """Stop serving; safe to call from any thread.

        The loop's events are only set on the loop's own thread:
        ``asyncio.Event`` is not thread-safe, and setting it from
        another thread never wakes the loop.
        """
        self._stopping = True
        if self._loop is None:
            return  # serve() sees _stopping when it starts
        try:
            self._loop.call_soon_threadsafe(self._signal_stop)
        except RuntimeError:  # the loop has already closed
            pass

    def _signal_stop(self) -> None:
        assert self._stopped is not None and self._wake is not None
        self._stopped.set()
        self._wake.set()

    # -- resume ----------------------------------------------------------

    def _load_spool(self) -> None:
        """Reload the durable backlog of a previous server process."""
        records = self.spool.load()
        if not records:
            return
        if not self.config.resume:
            raise ConfigError(
                f"journal directory {self.config.journal_dir} already holds "
                f"{len(records)} spooled submissions; pass resume=True "
                f"(--resume) to drain them, or choose a fresh directory"
            )
        tracer = get_tracer()
        now = time.time()
        for record in records:
            job = job_from_spool(record, now)
            self.jobs[job.seq] = job
            if job.state.terminal:
                continue
            # Anything admitted but not finished — queued *or* mid-batch
            # when the server died — goes back through the executor; the
            # run journal turns already-completed work into instant hits.
            job.state = JobState.QUEUED
            tracer.count(SERVICE_RESUMED)
            if job.key in self._inflight:
                job.deduped = True
                leader = self._inflight[job.key]
                self._followers.setdefault(leader.seq, []).append(job)
            else:
                self._inflight[job.key] = job
                self.queue.put(job)
        self._seq = records[-1]["seq"] + 1
        tracer.gauge(SERVICE_QUEUE_DEPTH, len(self.queue))

    # -- submission ------------------------------------------------------

    def submit(self, payload: Any) -> Tuple[ServiceJob, bool]:
        """Admit one submission; returns (job, deduped).

        Raises the typed service errors on rejection; the HTTP layer
        maps them onto status codes.
        """
        tracer = get_tracer()
        with tracer.span("service.accept"):
            tenant_raw = payload.get("tenant", "default") if isinstance(
                payload, dict
            ) else "default"
            tenant = str(tenant_raw)
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.config.rate_limit_per_second,
                    self.config.rate_limit_burst,
                )
            if not bucket.try_take():
                tracer.count(SERVICE_REJECTED)
                raise RateLimitedError(
                    f"tenant {tenant!r} exceeded its submission rate "
                    f"({self.config.rate_limit_per_second}/s, burst "
                    f"{self.config.rate_limit_burst})"
                )
            live = sum(
                1
                for job in self.jobs.values()
                if job.tenant == tenant and not job.state.terminal
            )
            if live >= self.config.max_queued_per_tenant:
                tracer.count(SERVICE_REJECTED)
                raise QuotaExceededError(
                    f"tenant {tenant!r} already has {live} live jobs "
                    f"(quota {self.config.max_queued_per_tenant})"
                )
            try:
                job = job_from_submission(payload, self._seq, time.time())
            except ReproError:
                tracer.count(SERVICE_REJECTED)
                raise
            if self.config.backend is not None and job.config.backend is None:
                # Deployment default, applied before the key was used
                # anywhere: backend is fingerprint-excluded anyway.
                from dataclasses import replace

                job.config = replace(job.config, backend=self.config.backend)
            self._seq += 1
            self.jobs[job.seq] = job
            tracer.count(SERVICE_SUBMITTED)

            deduped = False
            leader = self._inflight.get(job.key)
            if leader is not None and not leader.state.terminal:
                job.deduped = True
                deduped = True
                self._followers.setdefault(leader.seq, []).append(job)
                tracer.count(SERVICE_DEDUPED)
            else:
                self._inflight[job.key] = job
                self.queue.put(job)
            self.spool.append(job.spool_record())
            tracer.gauge(SERVICE_QUEUE_DEPTH, len(self.queue))
            if self._wake is not None:
                self._wake.set()
            return job, deduped

    def cancel(self, job: ServiceJob) -> ServiceJob:
        """Withdraw a queued job; running/terminal jobs are conflicts."""
        if job.state.terminal:
            raise JobStateError(
                f"job {job.job_id} already {job.state.value}; nothing to cancel"
            )
        if job.state is JobState.RUNNING:
            raise JobStateError(
                f"job {job.job_id} is running; in-flight batches cannot "
                f"be cancelled"
            )
        if job.deduped:
            # A follower never entered the queue; just detach it.
            for followers in self._followers.values():
                if job in followers:
                    followers.remove(job)
                    break
        else:
            self.queue.remove(job)
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            # Promote the first follower (if any) into the queue so the
            # leader's cancellation doesn't strand identical jobs.
            followers = self._followers.pop(job.seq, [])
            if followers:
                new_leader = followers[0]
                new_leader.deduped = False
                self._inflight[new_leader.key] = new_leader
                self.queue.put(new_leader)
                self._followers[new_leader.seq] = followers[1:]
                self.spool.update(new_leader.spool_record())
        self._finish(job, JobState.CANCELLED, outcome="cancelled")
        get_tracer().count(SERVICE_CANCELLED)
        get_tracer().gauge(SERVICE_QUEUE_DEPTH, len(self.queue))
        return job

    # -- the dispatcher --------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._wake is not None and self._stopped is not None
        while True:
            while not self._stopping and (self.paused or not self.queue):
                if (
                    self.config.exit_when_idle
                    and not self.paused
                    and not self.queue
                ):
                    self.shutdown()
                    break
                self._wake.clear()
                await self._wake.wait()
            if self._stopping:
                return
            batch = self.queue.take_batch(self.config.batch_size)
            if not batch:
                continue
            tracer = get_tracer()
            started = time.time()
            for job in batch:
                job.state = JobState.RUNNING
                job.started_at = started
                self.spool.update(job.spool_record())
                self._notify(job)
            tracer.gauge(SERVICE_QUEUE_DEPTH, len(self.queue))
            self._running_batch = True
            try:
                with tracer.span("service.batch", jobs=len(batch)):
                    results, manifest = await loop.run_in_executor(
                        None, self._run_batch, batch
                    )
            except Exception:
                # A bug, not a job failure (run_jobs runs on_error="skip").
                # Fail the batch's jobs rather than killing the service.
                traceback.print_exc()
                for job in batch:
                    self._finish(job, JobState.FAILED, outcome="failed",
                                 error="internal executor error")
                continue
            finally:
                self._running_batch = False
            self._apply_batch(batch, results, manifest)
            self._write_service_manifest()

    def _run_batch(self, batch: List[ServiceJob]):
        """Worker-thread body: one executor round for one batch."""
        atpg_jobs = [
            AtpgJob(name=job.name, netlist=job.netlist, config=job.config)
            for job in batch
        ]
        return run_jobs(
            atpg_jobs,
            workers=self.config.workers,
            cache=self.cache,
            policy=self.policy,
            on_error="skip",
            journal=self.journal,
        )

    def _apply_batch(self, batch, results, manifest) -> None:
        tracer = get_tracer()
        for job, result, record in zip(batch, results, manifest.records):
            if result is not None:
                job.result = result
                job.pattern_count = result.pattern_count
                self._finish(job, JobState.DONE, outcome=record.outcome.value)
                tracer.count(SERVICE_COMPLETED)
                continue
            used = self._retries_used.get(job.seq, 0)
            if used < self.config.retries:
                self._retries_used[job.seq] = used + 1
                job.state = JobState.QUEUED
                job.error = record.error
                self.queue.put(job)
                self.spool.update(job.spool_record())
                self._notify(job)
                tracer.count(SERVICE_RETRIED)
                continue
            tracer.count(SERVICE_FAILED)
            self._finish(
                job,
                JobState.FAILED,
                outcome=record.outcome.value,
                error=record.error,
            )
        tracer.gauge(SERVICE_QUEUE_DEPTH, len(self.queue))

    def _finish(
        self,
        job: ServiceJob,
        state: JobState,
        outcome: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move one job (and its followers) into a terminal state."""
        job.state = state
        job.outcome = outcome
        if error is not None:
            job.error = error
        job.finished_at = time.time()
        job.done_seq = self._done_seq
        self._done_seq += 1
        self._retries_used.pop(job.seq, None)
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self.spool.update(job.spool_record())
        self._notify(job)
        for follower in self._followers.pop(job.seq, []):
            follower.result = job.result
            follower.pattern_count = job.pattern_count
            follower.started_at = job.started_at
            self._finish(follower, state, outcome=outcome, error=error)

    # -- durable reporting -----------------------------------------------

    def _write_service_manifest(self) -> None:
        """The deterministic run record: every job, in submission order.

        No clocks and no completion order, so an uninterrupted drain
        and a killed-and-resumed drain of the same submissions produce
        byte-identical manifests (the run journal's own ``manifest.json``
        intentionally records per-process batch order instead).
        """
        if not self.config.journal_dir:
            return
        rows = [
            self.jobs[seq].manifest_row() for seq in sorted(self.jobs)
        ]
        write_record(
            Path(self.config.journal_dir) / MANIFEST_NAME,
            {"schema": 1, "jobs": rows},
            indent=1,
        )

    # -- job lookup ------------------------------------------------------

    def lookup(self, job_id: str) -> ServiceJob:
        try:
            seq = int(job_id[1:]) if job_id.startswith("j") else int(job_id)
        except ValueError:
            raise UnknownJobError(f"malformed job id {job_id!r}")
        job = self.jobs.get(seq)
        if job is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return job

    def result_payload(self, job: ServiceJob) -> Dict[str, Any]:
        if job.state in (JobState.FAILED, JobState.CANCELLED):
            raise JobStateError(
                f"job {job.job_id} {job.state.value}"
                + (f": {job.error}" if job.error else "")
            )
        if job.state is not JobState.DONE:
            raise JobStateError(
                f"job {job.job_id} is {job.state.value}; result not ready"
            )
        result = job.result
        if result is None and self.journal is not None:
            # Reloaded on resume: the result lives in the journal.
            result = self.journal.get(job.key)
            job.result = result
        if result is None and self.cache is not None:
            result = self.cache.get(job.netlist, job.config)
            job.result = result
        if result is None:
            raise JobStateError(
                f"job {job.job_id} finished in a previous server process "
                f"and no journal/cache holds its result"
            )
        return {
            "id": job.job_id,
            "key": job.key,
            "result": atpg_result_to_dict(result),
        }

    def health_payload(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "status": "ok",
            "paused": self.paused,
            "jobs": states,
            "queued": len(self.queue),
            "tenants": self.queue.tenant_depths(),
            "submitted": self._seq,
            "config": self.config.to_dict(),
        }

    # -- event streams ---------------------------------------------------

    def _notify(self, job: ServiceJob) -> None:
        for subscriber in self._subscribers.get(job.seq, []):
            subscriber.put_nowait(job.info())

    # -- HTTP ------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(method, path, query, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # bugs become 500s, not dead connections
            if not isinstance(exc, ReproError):
                traceback.print_exc()
            try:
                await self._send_json(
                    writer,
                    _error_status(exc),
                    {
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                        }
                    },
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise ConfigError(f"malformed request line {line!r}")
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length > MAX_BODY_BYTES:
            raise ConfigError(f"request body of {length} bytes is too large")
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = {
            name: values[0] for name, values in parse_qs(parts.query).items()
        }
        return method.upper(), parts.path, query, body

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        segments = [part for part in path.split("/") if part]
        if len(segments) < 2 or segments[0] != "v1":
            raise UnknownJobError(f"no such endpoint {path!r}")

        if segments[1] == "health" and method == "GET":
            await self._send_json(writer, 200, self.health_payload())
            return
        if segments[1] == "metrics" and method == "GET":
            summary = self.tracer.summary() if self.tracer is not None else None
            await self._send_json(
                writer,
                200,
                {"enabled": self.tracer is not None, "summary": summary},
            )
            return
        if segments[1] == "admin" and method == "POST" and len(segments) == 3:
            await self._admin(segments[2], writer)
            return
        if segments[1] != "jobs":
            raise UnknownJobError(f"no such endpoint {path!r}")

        if len(segments) == 2:
            if method == "POST":
                payload = json.loads(body.decode("utf-8")) if body else {}
                job, deduped = self.submit(payload)
                await self._send_json(
                    writer, 202, {"job": job.info(), "deduped": deduped}
                )
                return
            if method == "GET":
                tenant = query.get("tenant")
                jobs = [
                    self.jobs[seq].info()
                    for seq in sorted(self.jobs)
                    if tenant is None or self.jobs[seq].tenant == tenant
                ]
                await self._send_json(writer, 200, {"jobs": jobs})
                return
            raise JobStateError(f"{method} not supported on /v1/jobs")

        job = self.lookup(segments[2])
        action = segments[3] if len(segments) > 3 else None
        if action is None and method == "GET":
            await self._send_json(writer, 200, {"job": job.info()})
        elif action == "result" and method == "GET":
            await self._send_json(writer, 200, self.result_payload(job))
        elif action == "cancel" and method == "POST":
            self.cancel(job)
            await self._send_json(writer, 200, {"job": job.info()})
        elif action == "stream" and method == "GET":
            await self._stream(job, writer)
        else:
            raise UnknownJobError(f"no such endpoint {path!r}")

    async def _admin(self, verb: str, writer: asyncio.StreamWriter) -> None:
        if verb == "pause":
            self.paused = True
        elif verb == "resume":
            self.paused = False
            if self._wake is not None:
                self._wake.set()
        elif verb == "shutdown":
            await self._send_json(writer, 200, {"status": "stopping"})
            self.shutdown()
            return
        else:
            raise UnknownJobError(f"no such admin verb {verb!r}")
        await self._send_json(writer, 200, self.health_payload())

    async def _stream(
        self, job: ServiceJob, writer: asyncio.StreamWriter
    ) -> None:
        """Job state transitions as JSON lines until a terminal state.

        The response has no Content-Length — the connection closing is
        the end of the stream — so any HTTP client can consume it line
        by line.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/jsonl\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))

        def emit(info: Dict[str, Any]) -> None:
            writer.write(json.dumps(info, sort_keys=True).encode() + b"\n")

        emit(job.info())
        await writer.drain()
        if job.state.terminal:
            return
        subscriber: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job.seq, []).append(subscriber)
        try:
            while True:
                info = await subscriber.get()
                emit(info)
                await writer.drain()
                if JobState(info["state"]).terminal:
                    return
        finally:
            subscribers = self._subscribers.get(job.seq, [])
            if subscriber in subscribers:
                subscribers.remove(subscriber)
            if not subscribers:
                self._subscribers.pop(job.seq, None)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
