"""The one-pass ATPG result encoder and the bytes it puts on disk.

``atpg_result_json`` must render exactly what
``json.dumps(atpg_result_to_dict(r), sort_keys=True)`` renders: the
cache and the run journal store that text, and both layouts are pinned
byte for byte.
"""

import json

import pytest

from repro.atpg import generate_tests
from repro.atpg.engine import AtpgResult
from repro.atpg.faults import Fault
from repro.atpg.patterns import TestPattern, TestSet
from repro.core.serialization import (
    SCHEMA_VERSION,
    atpg_result_json,
    atpg_result_to_dict,
)
from repro.runtime import cache as cache_module
from repro.runtime import executor as executor_module
from repro.runtime.cache import (
    AtpgResultCache,
    fingerprint_key,
    keyed_result,
    netlist_fingerprint,
    result_key,
)
from repro.runtime.chaos import ChaosConfig
from repro.runtime.config import AtpgConfig
from repro.runtime.executor import AtpgJob, run_jobs
from repro.runtime.journal import RunJournal
from repro.runtime.policy import ExecutionPolicy
from repro.runtime.records import read_record, write_record
from repro.synth import profile

from .test_runtime import assert_same_result
from .test_streams import small_scale_netlist


def oracle(result) -> str:
    return json.dumps(atpg_result_to_dict(result), sort_keys=True)


def hand_built(patterns, untestable=(), aborted=()) -> AtpgResult:
    return AtpgResult(
        circuit_name="hand",
        test_set=TestSet("hand", [TestPattern(p) for p in patterns]),
        fault_count=7,
        detected_count=5,
        untestable=list(untestable),
        aborted=list(aborted),
        random_pattern_count=3,
        deterministic_pattern_count=2,
        pre_compaction_count=4,
    )


@pytest.fixture(scope="module")
def synth_core():
    return profile("s713").generate("core", seed=1)


class TestEncoderOracle:
    @pytest.mark.parametrize("stream", [1, 2])
    @pytest.mark.parametrize("dynamic_compaction", [0, 8])
    @pytest.mark.parametrize("circuit", ["c17", "small_scale", "synth"])
    def test_generated_results(
        self, circuit, stream, dynamic_compaction, c17, synth_core
    ):
        netlist = {
            "c17": c17,
            "small_scale": small_scale_netlist(),
            "synth": synth_core,
        }[circuit]
        result = generate_tests(
            netlist, seed=5, stream=stream, dynamic_compaction=dynamic_compaction
        )
        assert result.pattern_count > 0
        assert atpg_result_json(result) == oracle(result)

    def test_empty_test_set(self):
        result = hand_built([])
        assert atpg_result_json(result) == oracle(result)

    def test_key_sets_differ_between_patterns(self):
        result = hand_built(
            [{1: 0, 3: 1}, {3: 0, 1: 1}, {2: 1}, {}, {1: 1, 2: 0, 3: 1}, {2: 0}]
        )
        assert atpg_result_json(result) == oracle(result)

    def test_string_order_differs_from_integer_order(self):
        result = hand_built([{2: 1, 10: 0, 100: 1}, {100: 0, 2: 0, 10: 1}])
        text = atpg_result_json(result)
        assert text == oracle(result)
        assert '{"10": 0, "100": 1, "2": 1}' in text

    def test_untestable_and_aborted_faults(self):
        untestable = [Fault(4, 0), Fault(5, 1, gate_index=2, pin=1)]
        aborted = [Fault(6, 1, gate_index=0, pin=0), Fault(7, 0)]
        result = hand_built([{1: 0}], untestable, aborted)
        assert atpg_result_json(result) == oracle(result)

    @pytest.mark.parametrize("odd", [True, False, 2, 1.0])
    def test_non_bit_values_fall_back_to_json(self, odd):
        result = hand_built([{1: 0, 2: 1}, {1: odd, 2: 0}, {1: 1, 2: 0}])
        text = atpg_result_json(result)
        assert text == oracle(result)
        assert json.dumps({"1": odd, "2": 0}) in text


def cache_payload(key, config, result):
    """The cache entry layout, built the way the dict-based writer built it."""
    return {
        "schema": SCHEMA_VERSION,
        "key": key,
        "config": config.to_dict(),
        "result": atpg_result_to_dict(result),
    }


def journal_payload(key, name, config, result):
    return {**cache_payload(key, config, result), "job": name}


class TestOnDiskBytes:
    @pytest.fixture
    def jobs(self, c17):
        return [
            AtpgJob("small", small_scale_netlist(), AtpgConfig(seed=3)),
            AtpgJob("c17", c17, AtpgConfig(seed=1, stream=2)),
        ]

    def test_run_jobs_writes_dict_layout_bytes(self, tmp_path, jobs):
        cache = AtpgResultCache(tmp_path / "cache")
        journal = RunJournal(tmp_path / "run")
        results, _ = run_jobs(jobs, cache=cache, journal=journal)
        for job, result in zip(jobs, results):
            key = result_key(job.netlist, job.config)
            cached = (tmp_path / "cache" / f"{key}.json").read_text()
            journaled = (tmp_path / "run" / "jobs" / f"{key}.json").read_text()
            assert cached == json.dumps(
                cache_payload(key, job.config, result), sort_keys=True
            )
            assert journaled == json.dumps(
                journal_payload(key, job.name, job.config, result), sort_keys=True
            )
            for path in (tmp_path / "cache", tmp_path / "run" / "jobs"):
                back = read_record(
                    path / f"{key}.json", keyed_result(key), pytest.fail
                )
                assert_same_result(back, result)

    def test_direct_calls_encode_the_same_bytes(self, tmp_path, jobs):
        job = jobs[0]
        result = generate_tests(job.netlist, config=job.config)
        key = AtpgResultCache(tmp_path / "cache").put(job.netlist, job.config, result)
        RunJournal(tmp_path / "run").record(key, job.name, job.config, result)
        assert (tmp_path / "cache" / f"{key}.json").read_text() == json.dumps(
            cache_payload(key, job.config, result), sort_keys=True
        )
        assert (tmp_path / "run" / "jobs" / f"{key}.json").read_text() == json.dumps(
            journal_payload(key, job.name, job.config, result), sort_keys=True
        )

    def test_write_record_splice_matches_plain_layout(self, tmp_path):
        shard = {
            "schema": SCHEMA_VERSION,
            "index": 3,
            "rows": [{"b": 1.5, "a": None}, {"z": "xé"}],
            "span": [0, 10],
        }
        write_record(tmp_path / "plain.json", shard)
        encoded = {"rows": json.dumps(shard["rows"], sort_keys=True)}
        rest = {k: v for k, v in shard.items() if k != "rows"}
        write_record(tmp_path / "spliced.json", rest, encoded=encoded)
        plain = (tmp_path / "plain.json").read_bytes()
        assert plain == json.dumps(shard, sort_keys=True).encode()
        assert (tmp_path / "spliced.json").read_bytes() == plain


class TestKeyEachJobOnce:
    def test_one_netlist_hash_per_job(self, monkeypatch, tmp_path, jobs_for_keys):
        calls = []

        def counting(netlist):
            calls.append(netlist.name)
            return netlist_fingerprint(netlist)

        monkeypatch.setattr(executor_module, "netlist_fingerprint", counting)
        monkeypatch.setattr(cache_module, "netlist_fingerprint", counting)
        run_jobs(
            jobs_for_keys,
            cache=AtpgResultCache(tmp_path / "cache"),
            journal=RunJournal(tmp_path / "run"),
        )
        assert sorted(calls) == sorted(job.netlist.name for job in jobs_for_keys)

    def test_perturbed_retry_keys_from_the_same_fingerprint(
        self, monkeypatch, tmp_path, jobs_for_keys
    ):
        calls = []

        def counting(netlist):
            calls.append(netlist.name)
            return netlist_fingerprint(netlist)

        monkeypatch.setattr(executor_module, "netlist_fingerprint", counting)
        monkeypatch.setattr(cache_module, "netlist_fingerprint", counting)
        job = jobs_for_keys[0]
        # The injected hang outlasts the deadline once, so the retry
        # runs (and is cached) under a perturbed seed.
        policy = ExecutionPolicy(
            deadline_seconds=0.15,
            max_attempts=2,
            chaos=ChaosConfig(hang_seconds=0.4, hang_attempts=1),
        )
        results, manifest = run_jobs(
            [job],
            cache=AtpgResultCache(tmp_path / "cache"),
            policy=policy,
            on_error="retry",
        )
        assert manifest.records[0].attempts == 2
        assert calls == [job.netlist.name]
        [entry] = (tmp_path / "cache").glob("*.json")
        payload = json.loads(entry.read_text())
        perturbed = AtpgConfig.from_dict(payload["config"])
        assert perturbed.seed != job.config.seed
        key = fingerprint_key(netlist_fingerprint(job.netlist), perturbed)
        assert key == result_key(job.netlist, perturbed) == entry.stem
        assert entry.read_text() == json.dumps(
            cache_payload(key, perturbed, results[0]), sort_keys=True
        )

    @pytest.fixture
    def jobs_for_keys(self, c17):
        netlist = small_scale_netlist()
        return [
            AtpgJob("a", netlist, AtpgConfig(seed=1)),
            AtpgJob("b", netlist, AtpgConfig(seed=2)),
            AtpgJob("c17", c17),
        ]
