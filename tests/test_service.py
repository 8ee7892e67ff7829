"""ATPG-as-a-service: queue, spool, server, client, kill-and-resume.

The in-process tests run a real :class:`JobServer` on an ephemeral
port inside a thread and drive it through the real
:class:`ServiceClient` — HTTP framing, typed error transport, fair
scheduling, single-flight dedupe, cancellation, streaming.  The
subprocess tests SIGKILL a journaled server mid-drain and assert the
resumed drain is **byte-identical** to an uninterrupted one: same
``service-manifest.json`` bytes, same ``jobs/*.json`` bytes, no
duplicated and no lost jobs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigError,
    JobStateError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
    UnknownJobError,
)
from repro.runtime.config import AtpgConfig
from repro.runtime.journal import RunJournal
from repro.service import (
    FairShareQueue,
    JobServer,
    JobState,
    ServiceClient,
    ServiceConfig,
    TokenBucket,
    job_from_submission,
    submission_payload,
)
from repro.service.loadtest import (
    LoadPlan,
    build_payloads,
    kill_server,
    max_prefix_imbalance,
    spawn_server,
)
from repro.service.spool import SubmissionSpool
from repro.synth.generator import GeneratorSpec, generate_circuit


def tiny_netlist(index: int = 0):
    return generate_circuit(
        GeneratorSpec(
            name=f"svct{index}",
            inputs=8,
            outputs=2,
            target_gates=18,
            seed=300 + index,
        )
    )


# -- pure components ----------------------------------------------------


class TestTokenBucket:
    def test_unlimited_always_admits(self):
        bucket = TokenBucket(None, 1)
        assert all(bucket.try_take() for _ in range(1000))

    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]
        now[0] += 1.0  # 2 tokens refill
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2, clock=lambda: now[0])
        now[0] += 60.0
        assert [bucket.try_take() for _ in range(3)] == [True, True, False]


def _job(seq, tenant, netlist):
    return job_from_submission(
        submission_payload(netlist, AtpgConfig(seed=seq), tenant=tenant),
        seq,
        0.0,
    )


class TestFairShareQueue:
    def test_round_robin_interleaves_tenants(self):
        queue = FairShareQueue()
        netlist = tiny_netlist()
        for seq in range(4):
            queue.put(_job(seq, "a", netlist))
        for seq in range(4, 6):
            queue.put(_job(seq, "b", netlist))
        batch = queue.take_batch(6)
        assert [job.tenant for job in batch] == ["a", "b", "a", "b", "a", "a"]
        # FIFO within each tenant:
        assert [job.seq for job in batch if job.tenant == "a"] == [0, 1, 2, 3]

    def test_emptied_tenant_reenters_at_back(self):
        queue = FairShareQueue()
        netlist = tiny_netlist()
        queue.put(_job(0, "a", netlist))
        queue.put(_job(1, "b", netlist))
        assert [job.tenant for job in queue.take_batch(1)] == ["a"]
        queue.put(_job(2, "a", netlist))
        # b kept its slot; a re-entered behind it.
        assert [job.tenant for job in queue.take_batch(2)] == ["b", "a"]

    def test_remove_and_depths(self):
        queue = FairShareQueue()
        netlist = tiny_netlist()
        jobs = [_job(seq, "a", netlist) for seq in range(3)]
        for job in jobs:
            queue.put(job)
        assert queue.remove(jobs[1])
        assert not queue.remove(jobs[1])
        assert queue.depth("a") == 2 and len(queue) == 2
        assert [job.seq for job in queue.take_batch(10)] == [0, 2]
        assert not queue


class TestServiceConfig:
    def test_frozen_and_validated(self):
        config = ServiceConfig()
        with pytest.raises(Exception):
            config.port = 1  # type: ignore[misc]
        with pytest.raises(ConfigError):
            ServiceConfig(port=70000)
        with pytest.raises(ConfigError):
            ServiceConfig(batch_size=0)
        with pytest.raises(ConfigError):
            ServiceConfig(rate_limit_per_second=0.0)
        with pytest.raises(ConfigError):
            ServiceConfig(resume=True)  # needs journal_dir

    def test_submission_validation_is_typed(self):
        with pytest.raises(ConfigError):
            job_from_submission({"netlist": "nope"}, 0, 0.0)
        with pytest.raises(ConfigError):
            job_from_submission(
                {"tenant": "bad tenant!", "netlist": {"text": "INPUT(a)\nOUTPUT(a)\n"}},
                0,
                0.0,
            )


class TestSpool:
    def test_append_is_exclusive_and_update_atomic(self, tmp_path):
        spool = SubmissionSpool(tmp_path)
        record = {"seq": 1, "state": "queued"}
        spool.append(record)
        with pytest.raises(FileExistsError):
            spool.append(record)
        record["state"] = "done"
        spool.update(record)
        assert spool.load() == [{"seq": 1, "state": "done"}]

    def test_corrupt_entries_quarantined(self, tmp_path):
        spool = SubmissionSpool(tmp_path)
        spool.append({"seq": 0, "state": "queued"})
        (tmp_path / "queue" / "q00000007.json").write_text("{torn")
        assert [record["seq"] for record in spool.load()] == [0]
        assert not (tmp_path / "queue" / "q00000007.json").exists()

    def test_disabled_spool_is_noop(self):
        spool = SubmissionSpool(None)
        spool.append({"seq": 0})
        assert spool.load() == [] and not spool.enabled


# -- the live server ----------------------------------------------------


@pytest.fixture
def live_server():
    """A real JobServer on an ephemeral port, in a daemon thread."""
    servers = []

    def boot(**overrides) -> ServiceClient:
        overrides.setdefault("port", 0)
        overrides.setdefault("no_cache", True)
        server = JobServer(ServiceConfig(**overrides))
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while server.port is None:
            if time.monotonic() > deadline:
                raise RuntimeError("server did not bind")
            time.sleep(0.01)
        servers.append((server, thread))
        return ServiceClient(port=server.port)

    yield boot
    for server, thread in servers:
        server.shutdown()
        thread.join(timeout=10)


class TestInProcessShutdown:
    def test_shutdown_from_another_thread_is_prompt(self, tmp_path):
        """shutdown() from a foreign thread wakes the loop at once and
        the server writes its manifest on the way out."""
        server = JobServer(
            ServiceConfig(port=0, no_cache=True, journal_dir=str(tmp_path))
        )
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while server.port is None:
            assert time.monotonic() < deadline, "server did not bind"
            time.sleep(0.01)
        started = time.monotonic()
        server.shutdown()
        thread.join(timeout=10)
        elapsed = time.monotonic() - started
        assert not thread.is_alive()
        assert elapsed < 1.0, f"shutdown took {elapsed:.2f}s"
        manifest = json.loads((tmp_path / "service-manifest.json").read_text())
        assert manifest == {"schema": 1, "jobs": []}

    def test_shutdown_before_serving_stops_at_once(self):
        server = JobServer(ServiceConfig(port=0, no_cache=True))
        server.shutdown()
        thread = threading.Thread(target=server.run, daemon=True)
        started = time.monotonic()
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0


class TestServerRoundTrip:
    def test_submit_poll_result(self, live_server):
        client = live_server()
        netlist = tiny_netlist()
        info = client.submit(netlist, AtpgConfig(seed=3), tenant="team-a")
        assert info["id"].startswith("j") and info["state"] in (
            "queued", "running", "done",
        )
        final = client.wait(info["id"], timeout=60)
        assert final["state"] == "done" and final["outcome"] == "ok"
        result = client.result(info["id"])
        assert result.pattern_count == final["pattern_count"] > 0

    def test_result_matches_direct_runtime_bytes(self, live_server):
        from repro.core.serialization import atpg_result_to_dict
        from repro.runtime.session import Runtime

        client = live_server()
        netlist = tiny_netlist(1)
        config = AtpgConfig(seed=7)
        info = client.submit(netlist, config)
        client.wait(info["id"], timeout=60)
        remote = client.result(info["id"])
        local = Runtime(cache=None).generate(netlist, config=config)
        assert (
            json.dumps(atpg_result_to_dict(remote), sort_keys=True)
            == json.dumps(atpg_result_to_dict(local), sort_keys=True)
        )

    def test_health_lists_and_unknown_job(self, live_server):
        client = live_server()
        health = client.health()
        assert health["status"] == "ok" and health["queued"] == 0
        assert client.jobs() == []
        with pytest.raises(UnknownJobError):
            client.job("j999")
        with pytest.raises(UnknownJobError):
            client._request("GET", "/v1/nonsense")

    def test_stream_reaches_terminal_state(self, live_server):
        client = live_server(start_paused=True)
        info = client.submit(tiny_netlist(2), AtpgConfig(seed=1))
        events = []
        done = threading.Event()

        def consume():
            for event in client.stream(info["id"]):
                events.append(event["state"])
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.2)
        client.resume()
        assert done.wait(timeout=60)
        assert events[0] in ("queued", "running")
        assert events[-1] == "done"


class TestFairShare:
    def test_two_tenant_completion_interleaves(self, live_server):
        client = live_server(start_paused=True, batch_size=100)
        netlists = [tiny_netlist(index) for index in range(4)]
        # Tenant a bursts 6 jobs first, then b submits 3: a plain FIFO
        # would finish all of a before any of b.
        for seq, netlist in enumerate(netlists + netlists[:2]):
            client.submit(netlist, AtpgConfig(seed=seq), tenant="a")
        for seq, netlist in enumerate(netlists[:3]):
            client.submit(netlist, AtpgConfig(seed=10 + seq), tenant="b")
        client.resume()
        for info in client.jobs():
            client.wait(info["id"], timeout=120)
        done = client.jobs()
        assert all(info["state"] == "done" for info in done)
        order = [
            info["tenant"]
            for info in sorted(done, key=lambda info: info["done_seq"])
        ]
        # Round-robin: while b has work, completions alternate.
        assert order[:6] == ["a", "b", "a", "b", "a", "b"]
        assert max_prefix_imbalance(done) <= 1

    def test_quota_rejection_is_typed(self, live_server):
        client = live_server(start_paused=True, max_queued_per_tenant=2)
        netlist = tiny_netlist(3)
        client.submit(netlist, AtpgConfig(seed=0), tenant="q")
        client.submit(netlist, AtpgConfig(seed=1), tenant="q")
        with pytest.raises(QuotaExceededError):
            client.submit(netlist, AtpgConfig(seed=2), tenant="q")
        # Another tenant is unaffected: quotas are per-tenant.
        client.submit(netlist, AtpgConfig(seed=3), tenant="other")

    def test_rate_limit_rejection_is_typed(self, live_server):
        client = live_server(
            start_paused=True,
            rate_limit_per_second=0.001,
            rate_limit_burst=2,
        )
        netlist = tiny_netlist(3)
        client.submit(netlist, AtpgConfig(seed=0), tenant="r")
        client.submit(netlist, AtpgConfig(seed=1), tenant="r")
        with pytest.raises(RateLimitedError):
            client.submit(netlist, AtpgConfig(seed=2), tenant="r")


class TestSingleFlight:
    def test_identical_submissions_share_one_execution(
        self, live_server, tmp_path
    ):
        journal_dir = tmp_path / "svc"
        client = live_server(
            start_paused=True, journal_dir=str(journal_dir)
        )
        netlist = tiny_netlist(4)
        config = AtpgConfig(seed=5)
        first = client.submit(netlist, config, tenant="a")
        second = client.submit(netlist, config, tenant="b")
        third = client.submit(netlist, config, tenant="a")
        assert not first["deduped"]
        assert second["deduped"] and third["deduped"]
        client.resume()
        infos = [client.wait(info["id"], timeout=60)
                 for info in (first, second, third)]
        assert {info["state"] for info in infos} == {"done"}
        assert len({info["pattern_count"] for info in infos}) == 1
        # One shared key -> exactly one journaled execution.
        assert len(list((journal_dir / "jobs").glob("*.json"))) == 1
        # Every submission resolves to the same bytes.
        payloads = [
            client._request("GET", f"/v1/jobs/{info['id']}/result")["result"]
            for info in infos
        ]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_different_configs_do_not_dedupe(self, live_server):
        client = live_server(start_paused=True)
        netlist = tiny_netlist(4)
        first = client.submit(netlist, AtpgConfig(seed=1))
        second = client.submit(netlist, AtpgConfig(seed=2))
        assert not first["deduped"] and not second["deduped"]


class TestCancel:
    def test_cancel_queued_job(self, live_server):
        client = live_server(start_paused=True)
        info = client.submit(tiny_netlist(5), AtpgConfig(seed=0))
        cancelled = client.cancel(info["id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(JobStateError):
            client.result(info["id"])
        with pytest.raises(JobStateError):
            client.cancel(info["id"])

    def test_cancelling_leader_promotes_follower(self, live_server):
        client = live_server(start_paused=True)
        netlist = tiny_netlist(5)
        config = AtpgConfig(seed=8)
        leader = client.submit(netlist, config, tenant="a")
        follower = client.submit(netlist, config, tenant="b")
        assert follower["deduped"]
        client.cancel(leader["id"])
        client.resume()
        final = client.wait(follower["id"], timeout=60)
        assert final["state"] == "done"
        assert client.job(leader["id"])["state"] == "cancelled"


# -- kill-and-resume (subprocess) ---------------------------------------


@pytest.fixture(scope="module")
def resume_payloads():
    plan = LoadPlan(jobs=10, tenants=2, circuits=2, seeds=2,
                    inputs=8, outputs=2, target_gates=18)
    return build_payloads(plan)


def _drain_via_server(journal_dir: Path, payloads, kill_mid: bool) -> None:
    """Submit everything; either drain cleanly or SIGKILL + resume."""
    base = ["--no-cache", "--batch-size", "2",
            "--journal-dir", str(journal_dir)]
    process, port = spawn_server(base)
    try:
        client = ServiceClient(port=port)
        client.pause()
        for payload in payloads:
            client.submit_payload(payload)
        client.resume()
        if kill_mid:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(info["state"] == "done" for info in client.jobs()):
                    break
                time.sleep(0.02)
            kill_server(process, hard=True)  # SIGKILL, mid-queue
            resumed, _port = spawn_server(
                base + ["--resume", "--exit-when-idle"]
            )
            assert resumed.wait(timeout=300) == 0
        else:
            deadline = time.monotonic() + 300
            while True:
                health = client.health()
                live = (health["jobs"].get("queued", 0)
                        + health["jobs"].get("running", 0))
                if live == 0:
                    break
                assert time.monotonic() < deadline, "drain timed out"
                time.sleep(0.05)
            client.shutdown_server()
            process.wait(timeout=30)
    finally:
        kill_server(process)


def _journal_bytes(journal_dir: Path):
    manifest = (journal_dir / "service-manifest.json").read_bytes()
    jobs = {
        path.name: path.read_bytes()
        for path in (journal_dir / "jobs").glob("*.json")
    }
    return manifest, jobs


class TestKillAndResume:
    def test_sigkilled_server_resumes_byte_identically(
        self, tmp_path, resume_payloads
    ):
        reference_dir = tmp_path / "reference"
        killed_dir = tmp_path / "killed"
        _drain_via_server(reference_dir, resume_payloads, kill_mid=False)
        _drain_via_server(killed_dir, resume_payloads, kill_mid=True)

        ref_manifest, ref_jobs = _journal_bytes(reference_dir)
        kil_manifest, kil_jobs = _journal_bytes(killed_dir)
        assert kil_manifest == ref_manifest
        assert kil_jobs == ref_jobs

        manifest = json.loads(ref_manifest)
        rows = manifest["jobs"]
        # No lost jobs, no duplicated jobs, everything terminal-done.
        assert len(rows) == len(resume_payloads)
        assert [row["seq"] for row in rows] == list(range(len(rows)))
        assert {row["status"] for row in rows} == {"done"}

    def test_fresh_server_refuses_dirty_journal_dir(self, tmp_path):
        spool = SubmissionSpool(tmp_path)
        spool.append({"seq": 0, "state": "queued",
                      "netlist": {"text": "INPUT(a)\nOUTPUT(a)\n"},
                      "config": {}})
        with pytest.raises(ConfigError):
            JobServer(
                ServiceConfig(
                    port=0, journal_dir=str(tmp_path), no_cache=True
                )
            )._load_spool()


# -- RunJournal concurrent writers --------------------------------------


class TestJournalConcurrency:
    def test_concurrent_record_same_key_never_tears(self, tmp_path, c17):
        from repro.atpg.engine import generate_tests

        config = AtpgConfig(seed=1)
        result = generate_tests(c17, seed=1)
        journals = [RunJournal(tmp_path, resume=bool(i)) for i in range(2)]
        errors = []

        def hammer(journal):
            try:
                for _ in range(50):
                    journal.record("k" * 16, "c17", config, result)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(journal,))
            for journal in journals
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The final file is a complete, valid record (never a torn mix).
        payload = json.loads((tmp_path / "jobs" / ("k" * 16 + ".json")).read_text())
        assert payload["key"] == "k" * 16
        reader = RunJournal(tmp_path, resume=True)
        assert reader.get("k" * 16) is not None
        # No tmp litter left behind.
        assert not list((tmp_path / "jobs").glob("*.tmp"))
