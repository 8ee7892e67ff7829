"""The ATPG bench record never lands on the committed baseline by default."""

import json

from benchmarks.common import record_bench


def test_record_bench_defaults_to_current_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BENCH_ATPG_JSON", raising=False)
    baseline = tmp_path / "BENCH_atpg.json"
    baseline.write_text('{"small": {"patterns": 1}}\n')

    record_bench("small", {"patterns": 2})
    record_bench("large", {"patterns": 3})

    assert baseline.read_text() == '{"small": {"patterns": 1}}\n'
    current = json.loads((tmp_path / "BENCH_atpg_current.json").read_text())
    assert current == {"small": {"patterns": 2}, "large": {"patterns": 3}}


def test_record_bench_honours_env_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "elsewhere.json"
    monkeypatch.setenv("BENCH_ATPG_JSON", str(target))

    record_bench("small", {"patterns": 2})

    assert json.loads(target.read_text()) == {"small": {"patterns": 2}}
    assert not (tmp_path / "BENCH_atpg_current.json").exists()
