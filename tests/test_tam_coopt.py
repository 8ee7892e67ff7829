"""The unified wrapper/TAM co-optimization surface (repro.tam.problem).

Covers the redesigned API (TamProblem / cooptimize / CoOptResult /
design_space / pareto_front), the best-fit rectangle packer and its
differential guarantees against the greedy baseline, the closed-form
wrapper fast path, the typed scheduling errors, the retired shims,
and the ``tam`` experiment's byte-identity across serial, parallel and
killed-and-resumed runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, ReproError, ScheduleError
from repro.itc02 import load_many
from repro.tam import (
    CoreTestSpec,
    Schedule,
    ScheduledTest,
    TamProblem,
    cooptimize,
    design_space,
    design_wrapper,
    makespan_lower_bound,
    pareto_front,
    partition_scan_lengths,
    schedule_best_fit,
    schedule_greedy,
    spread_level,
    wrapper_bottlenecks,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def specs():
    return [
        CoreTestSpec("a", [50, 50], 10, 10, patterns=100),
        CoreTestSpec("b", [200], 20, 30, patterns=40),
        CoreTestSpec("c", [10, 10, 10], 5, 5, patterns=300),
        CoreTestSpec("d", [80, 40, 40], 15, 15, patterns=120),
        CoreTestSpec("e", [], 25, 5, patterns=60),
    ]


class TestWrapperFastPath:
    """The closed-form bottleneck path must match the materialized wrapper."""

    def test_bottlenecks_match_design_wrapper(self, specs):
        for spec in specs:
            for width in range(1, 33):
                wrapper = design_wrapper(
                    spec.name, spec.scan_chains, spec.input_cells,
                    spec.output_cells, width,
                )
                fast = wrapper_bottlenecks(
                    spec.scan_chains, spec.input_cells,
                    spec.output_cells, width,
                )
                assert fast == (wrapper.max_scan_in, wrapper.max_scan_out), (
                    spec.name, width,
                )

    def test_partition_matches_lpt(self):
        chains = [100, 90, 10, 10, 5, 5, 5]
        for width in (1, 2, 3, 4, 7, 12):
            partition = partition_scan_lengths(chains, width)
            wrapper = design_wrapper("x", chains, 0, 0, width)
            assert sorted(partition) == sorted(
                chain.scan_length for chain in wrapper.chains
            )

    def test_spread_level_water_fills(self):
        # 3 cells onto partitions [5, 2, 0]: the top stays the level.
        assert spread_level([5, 2, 0], 3) == 5
        # 10 cells: level must rise past the top.
        assert spread_level([5, 2, 0], 10) == 6
        # No scan at all: pure cell spreading.
        assert spread_level([0, 0], 5) == 3
        assert spread_level([4], 0) == 4


class TestBestFitScheduler:
    def test_respects_width_budget(self, specs):
        for width in (1, 2, 3, 5, 8, 16, 31):
            schedule = schedule_best_fit(specs, tam_width=width)
            schedule.verify()
            assert all(test.width <= width for test in schedule.tests)

    def test_covers_every_core_once(self, specs):
        schedule = schedule_best_fit(specs, tam_width=10)
        assert sorted(test.core for test in schedule.tests) == [
            "a", "b", "c", "d", "e",
        ]

    def test_beats_or_matches_lower_bound(self, specs):
        for width in (2, 4, 8, 16):
            schedule = schedule_best_fit(specs, tam_width=width)
            assert schedule.makespan >= makespan_lower_bound(specs, width)

    def test_binpack_never_worse_than_greedy_on_itc02(self):
        """On real benchmark cores the binpack portfolio never loses to
        the greedy width enumeration — the experiment's headline
        invariant, here checked through the public API."""
        for name in load_many(["d695", "g1023"]):
            for width in (8, 16, 32):
                problem = TamProblem.from_benchmark(name, tam_width=width)
                packed = cooptimize(problem, scheduler="binpack")
                greedy = cooptimize(problem, scheduler="greedy")
                assert packed.makespan <= greedy.makespan, (name, width)
                packed.schedule.verify()

    def test_empty_specs_give_empty_schedule(self):
        schedule = schedule_best_fit([], tam_width=4)
        assert schedule.tests == []
        assert schedule.makespan == 0
        assert schedule.utilization() == 0.0

    def test_candidate_width_restriction(self, specs):
        schedule = schedule_best_fit(specs, tam_width=8, candidate_widths=(2,))
        assert {test.width for test in schedule.tests} == {2}

    def test_infeasible_candidates_rejected(self, specs):
        with pytest.raises(ConfigError, match="no candidate width"):
            schedule_best_fit(specs, tam_width=4, candidate_widths=(8, 16))

    def test_zero_width_rejected(self, specs):
        with pytest.raises(ConfigError):
            schedule_best_fit(specs, tam_width=0)


class TestScheduleErrors:
    def test_schedule_error_is_typed_and_legacy_compatible(self):
        assert issubclass(ScheduleError, ReproError)
        assert issubclass(ScheduleError, AssertionError)
        assert issubclass(ConfigError, ValueError)

    def test_verify_rejects_zero_width_slot(self):
        schedule = Schedule(tam_width=4, tests=[ScheduledTest("a", 0, 0, 10)])
        with pytest.raises(ScheduleError, match="zero-width"):
            schedule.verify()

    def test_verify_rejects_overwide_slot(self):
        schedule = Schedule(tam_width=2, tests=[ScheduledTest("a", 3, 0, 10)])
        with pytest.raises(ScheduleError, match="exceeds"):
            schedule.verify()

    def test_verify_rejects_negative_duration(self):
        schedule = Schedule(tam_width=4, tests=[ScheduledTest("a", 1, 10, 5)])
        with pytest.raises(ScheduleError, match="negative duration"):
            schedule.verify()

    def test_verify_rejects_bad_tam_width(self):
        with pytest.raises(ScheduleError):
            Schedule(tam_width=0, tests=[]).verify()

    def test_verify_ignores_zero_duration_slots(self):
        """Zero-length slots occupy no instant; three of them may share
        wires a real test is using."""
        schedule = Schedule(
            tam_width=2,
            tests=[
                ScheduledTest("real", 2, 0, 10),
                ScheduledTest("x", 2, 5, 5),
                ScheduledTest("y", 2, 5, 5),
            ],
        )
        schedule.verify()

    def test_empty_schedule_makespan_and_utilization(self):
        schedule = Schedule(tam_width=4, tests=[])
        schedule.verify()
        assert schedule.makespan == 0
        assert schedule.utilization() == 0.0


class TestTamProblem:
    def test_duplicate_core_names_rejected(self, specs):
        with pytest.raises(ConfigError, match="duplicate"):
            TamProblem(cores=[specs[0], specs[0]], tam_width=8)

    def test_bad_width_rejected(self, specs):
        with pytest.raises(ConfigError):
            TamProblem(cores=specs, tam_width=0)

    def test_from_benchmark(self):
        problem = TamProblem.from_benchmark("d695", tam_width=16)
        assert problem.tam_width == 16
        assert len(problem.cores) == 10  # d695's non-top cores
        assert problem.useful_bits() > 0
        assert problem.lower_bound() > 0

    def test_at_width_keeps_cores(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        wider = problem.at_width(32)
        assert wider.tam_width == 32
        assert wider.cores == problem.cores

    def test_pareto_sets_capped_at_tam_width(self, specs):
        problem = TamProblem(cores=specs, tam_width=6)
        for points in problem.pareto_sets().values():
            assert all(point.width <= 6 for point in points)


class TestCooptimizeApi:
    def test_binpack_is_default_and_never_worse_than_greedy(self, specs):
        for width in (4, 8, 12, 24):
            problem = TamProblem(cores=specs, tam_width=width)
            packed = cooptimize(problem)
            greedy = cooptimize(problem, scheduler="greedy")
            assert packed.scheduler == "binpack"
            assert packed.makespan <= greedy.makespan

    def test_result_accounting(self, specs):
        problem = TamProblem(cores=specs, tam_width=12)
        result = cooptimize(problem)
        assert result.useful_bits == problem.useful_bits()
        assert result.delivered_bits >= result.useful_bits
        assert result.idle_bits == result.delivered_bits - result.useful_bits
        assert 0.0 <= result.idle_fraction < 1.0
        assert result.makespan >= result.lower_bound
        record = result.as_record()
        assert record["kind"] == "cooptimization"
        assert record["cores"] == len(specs)
        assert "makespan" in record and "idle_fraction" in record

    def test_separate_tam_width_rejected_with_problem(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        with pytest.raises(ConfigError, match="part of the TamProblem"):
            cooptimize(problem, tam_width=8)

    def test_unknown_scheduler_rejected(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        with pytest.raises(ConfigError, match="unknown scheduler"):
            cooptimize(problem, scheduler="simulated-annealing")

    def test_runtime_threading_traces_spans(self, specs, tmp_path):
        from repro.runtime.session import Runtime

        trace_path = tmp_path / "trace.jsonl"
        runtime = Runtime.from_flags(workers=1, trace=str(trace_path))
        problem = TamProblem(cores=specs, tam_width=8)
        cooptimize(problem, runtime=runtime)
        runtime.tracer.flush()
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(e.get("name") == "tam.cooptimize" for e in events)

    def test_design_space_grid_order(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        results = design_space(problem, tam_widths=[4, 8], schedulers=("serial", "greedy"))
        assert [(r.tam_width, r.scheduler) for r in results] == [
            (4, "serial"), (4, "greedy"), (8, "serial"), (8, "greedy"),
        ]

    def test_pareto_front_prunes_dominated(self, specs):
        problem = TamProblem(cores=specs, tam_width=8)
        results = design_space(problem, tam_widths=[2, 4, 8])
        front = pareto_front(results)
        assert front
        assert len(front) <= len(results)
        for survivor in front:
            for other in results:
                dominated = (
                    other.tam_width <= survivor.tam_width
                    and other.makespan < survivor.makespan
                    and other.delivered_bits <= survivor.delivered_bits
                )
                assert not dominated


class TestRetiredShims:
    """The pre-redesign entry points are removed, not deprecated."""

    def test_legacy_cooptimize_is_gone(self, specs):
        with pytest.raises(ConfigError, match="needs a TamProblem"):
            cooptimize(specs, tam_width=12)

    def test_legacy_result_name_is_gone(self):
        import repro.tam

        assert not hasattr(repro.tam, "CoOptimizationResult")
        with pytest.raises(ImportError):
            from repro.tam import CoOptimizationResult  # noqa: F401

    def test_legacy_tradeoff_is_gone(self):
        import repro.tam
        from repro.tam import problem

        assert not hasattr(repro.tam, "time_volume_tradeoff")
        assert not hasattr(problem, "_legacy_time_volume_tradeoff")

    def test_legacy_schedule_summary_is_gone(self):
        import repro.tam
        from repro.tam import scheduling

        assert not hasattr(repro.tam, "schedule_summary")
        assert not hasattr(scheduling, "schedule_summary")

    def test_legacy_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.tam.cooptimization  # noqa: F401


class TestTamExperiment:
    """The `tam` experiment: output identical serial, parallel, resumed."""

    ARGS = ["--tam-socs", "d695", "--tam-widths", "4,8,16"]

    def _run(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "tam",
             *self.ARGS, *extra],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_serial_parallel_resume_byte_identical(self, tmp_path):
        front = tmp_path / "front.json"
        serial = self._run(tmp_path, "--tam-front", str(front))
        assert "FAIL" not in serial.stdout
        assert serial.stdout.count("PASS") >= 4
        front_doc = json.loads(front.read_text())
        assert front_doc["fields"] == ["tam_width", "makespan", "delivered_bits"]
        assert front_doc["points"]

        parallel_front = tmp_path / "front2.json"
        parallel = self._run(
            tmp_path, "--workers", "2", "--tam-front", str(parallel_front)
        )
        assert parallel.stdout == serial.stdout
        assert parallel_front.read_text() == front.read_text()

        run_dir = tmp_path / "run"
        self._run(tmp_path, "--run-dir", str(run_dir))
        shards = sorted((run_dir / "sweeps" / "tam" / "shards").iterdir())
        assert len(shards) > 2
        for shard in shards[len(shards) // 2:]:  # "kill" the second half
            shard.unlink()
        resumed = self._run(tmp_path, "--run-dir", str(run_dir), "--resume")
        assert resumed.stdout == serial.stdout
        assert "resumed" in resumed.stderr

    def test_single_scheduler_skips_differential_check(self, tmp_path):
        proc = self._run(tmp_path, "--scheduler", "binpack")
        assert "skipped (single-scheduler run)" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_unknown_soc_fails_fast(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "tam",
             "--tam-socs", "nope"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert "unknown ITC'02 benchmark" in proc.stderr
