"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from stats import Tally, tail_percentile  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_no_tail_percentile_without_ten_samples_beyond(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n, expected", [(11, (9, 0.0)), (20, (50, 9.0)), (100, (90, 89.0))])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile([float(i) for i in range(n)]) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(11, 400):
        values = [float(i) for i in reversed(range(n))]
        p, value = tail_percentile(values)
        rank = int(value) + 1  # values are 0..n-1, so the value is its rank - 1
        assert n - rank >= 10, n
        next_rank = math.ceil((p + 1) * n / 100)
        assert n - next_rank < 10, n


# -- a wrong result raises error_rate --------------------------------------


def _tam_records():
    records = []
    for scheduler, makespan in (("greedy", 120), ("binpack", 100)):
        records.append({
            "soc": "d695", "strategy": "balanced", "tam_width": 16,
            "scheduler": scheduler, "makespan": makespan,
            "lower_bound": 90, "verified": True,
        })
    return records


def test_correct_tam_records_pass():
    import workloads

    tally = Tally()
    workloads.check_tam_records("itc02", _tam_records(), 2, tally)
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 0, 0.0)


@pytest.mark.parametrize("field, value", [
    ("makespan", 130),      # binpack worse than greedy
    ("lower_bound", 101),   # makespan below its lower bound
    ("verified", False),    # schedule did not verify
])
def test_wrong_tam_record_raises_error_rate(field, value):
    import workloads

    records = _tam_records()
    records[1][field] = value
    tally = Tally()
    workloads.check_tam_records("itc02", records, 2, tally)
    assert tally.failed == 1 and tally.error_rate == 0.5


def test_missing_sweep_points_count_as_failed():
    import workloads

    tally = Tally()
    workloads.check_tam_records("itc02", _tam_records()[:1], 2, tally)
    assert tally.failed == 1


def test_weak_population_correlation_raises_error_rate():
    import workloads

    aggregates = {"regression(reduction_pct ~ nsd)": {"count": 100, "pearson": 0.1}}
    tally = Tally()
    workloads.check_population(aggregates, 100, tally)
    assert tally.failed == 1 and tally.error_rate > 0
    short = {"regression(reduction_pct ~ nsd)": {"count": 90, "pearson": 0.5}}
    tally = Tally()
    workloads.check_population(short, 100, tally)
    assert tally.failed == 10 + 1


def _fake_launch(failed):
    def launch(args, env):
        if "--setup-only" in args:
            return 0.5, {"python": "3", "numpy": "absent", "backend": "pure"}
        return 0.5, {
            "traced": False, "run_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0,
            "digest": "d", "attempted": 4, "failed": failed,
            "failures": ["a gate: 1 of 1 failed"] if failed else [],
        }
    return launch


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_failed_gate_sets_result_and_exit_code(monkeypatch, capsys, failed, code):
    monkeypatch.setattr(run, "launch", _fake_launch(failed))
    assert run.main(["--workload", "population_sweep", "--seconds", "0"]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (failed == 0)
    assert result["failed"] == failed * run.MIN_REPS
    assert result["attempted"] == 4 * run.MIN_REPS + 1


def test_diverging_repetitions_fail(monkeypatch):
    calls = iter(range(100))

    def launch(args, env):
        if "--setup-only" in args:
            return 0.5, {"python": "3", "numpy": "absent", "backend": "pure"}
        return 0.5, {"traced": False, "run_s": 1.0, "cpu_s": 1.0,
                     "peak_rss_mb": 1.0, "digest": str(next(calls)),
                     "attempted": 1, "failed": 0, "failures": []}

    monkeypatch.setattr(run, "launch", launch)
    assert run.main(["--workload", "tam_sweep", "--seconds", "0"]) == 1


# -- declared names --------------------------------------------------------


def test_declared_names_match_the_code():
    import layers
    import workloads

    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    done = _bench("--workload", "population_sweep", "--seed", "5",
                  "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


# -- refusing to run -------------------------------------------------------


def test_refuses_chaos():
    env = dict(os.environ, REPRO_CHAOS="flaky=1")
    done = _bench("--workload", "tam_sweep", env=env)
    assert done.returncode == 2 and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "soc_atpg_cold", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
