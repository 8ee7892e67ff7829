"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`instrumented` wraps public functions of each layer in spans on
the ambient :class:`repro.observability.Tracer`, by rebinding the names
the calling modules look them up under.  Nothing under ``src/`` changes:
the engine's own spans (``atpg``, ``compile``, ``random_phase``,
``podem``, ``compact``, ``fill``, ``verify``, ``tam.cooptimize``,
``sweep``) and its counters land in the same tracer, and
:func:`layer_metrics` reads both.  Untraced repetitions never install
the wrappers.  The byte metrics come from :func:`disk_metrics`, which
sizes the files the repetition left in its cache and journal directories.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.itc02
import repro.tam
from repro.core import sweep as core_sweep
from repro.experiments import iscas_socs
from repro.experiments import population as population_experiment
from repro.experiments import tam as tam_experiment
from repro.itc02 import benchmarks as itc02_benchmarks
from repro.observability import get_tracer
from repro.runtime import cache as runtime_cache
from repro.runtime import executor, journal
from repro.runtime.session import Runtime
from repro.sweeps import aggregate, store
from repro.synth import population
from repro.tam import problem, scheduling, types

import workloads

#: Every per-layer metric: name -> unit.  A layer the workload does not
#: exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "synth.elaborate_s": "s",
    "synth.elaborate_calls": "count",
    "synth.soc_s": "s",
    "atpg.generate_s": "s",
    "atpg.compile_s": "s",
    "atpg.random_s": "s",
    "atpg.podem_s": "s",
    "atpg.compact_s": "s",
    "atpg.fill_s": "s",
    "atpg.verify_s": "s",
    "atpg.runs": "count",
    "atpg.faults.total": "count",
    "atpg.patterns.final": "count",
    "podem.calls": "count",
    "podem.backtracks": "count",
    "faultsim.detect_calls": "count",
    "faultsim.gate_evals": "count",
    "atpg.compaction_keep_ratio": "ratio",
    "podem.abort_ratio": "ratio",
    "runtime.key_s": "s",
    "runtime.key_calls": "count",
    "runtime.cache_put_s": "s",
    "runtime.cache_bytes_written": "bytes",
    "runtime.cache_get_s": "s",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.journal_s": "s",
    "runtime.journal_bytes": "bytes",
    "runtime.overhead_s": "s",
    "core.tdv_s": "s",
    "core.decompose_s": "s",
    "itc02.load_s": "s",
    "tam.specs_s": "s",
    "tam.greedy_s": "s",
    "tam.binpack_s": "s",
    "tam.lower_bound_s": "s",
    "tam.verify_s": "s",
    "tam.points": "count",
    "tam.wrapper_bottlenecks_calls": "count",
    "sweeps.run_s": "s",
    "sweeps.evaluate_s": "s",
    "sweeps.overhead_s": "s",
    "sweeps.aggregate_s": "s",
    "sweeps.store_s": "s",
    "sweeps.store_bytes": "bytes",
    "sweeps.shards": "count",
    "trace_overhead_s": "s",
    "unattributed_s": "s",
}

# Span name -> the seconds metric it feeds.  Engine spans first, then
# the spans this module adds.
SPAN_SECONDS = {
    "atpg": "atpg.generate_s",
    "compile": "atpg.compile_s",
    "random_phase": "atpg.random_s",
    "podem": "atpg.podem_s",
    "compact": "atpg.compact_s",
    "fill": "atpg.fill_s",
    "verify": "atpg.verify_s",
    "sweep": "sweeps.run_s",
    "synth.elaborate": "synth.elaborate_s",
    "synth.soc": "synth.soc_s",
    "runtime.key": "runtime.key_s",
    "runtime.cache_get": "runtime.cache_get_s",
    "runtime.cache_put": "runtime.cache_put_s",
    "runtime.journal": "runtime.journal_s",
    "core.tdv": "core.tdv_s",
    "core.decompose": "core.decompose_s",
    "itc02.load": "itc02.load_s",
    "tam.specs": "tam.specs_s",
    "tam.greedy": "tam.greedy_s",
    "tam.binpack": "tam.binpack_s",
    "tam.lower_bound": "tam.lower_bound_s",
    "tam.verify": "tam.verify_s",
    "sweeps.evaluate": "sweeps.evaluate_s",
    "sweeps.aggregate": "sweeps.aggregate_s",
    "sweeps.store": "sweeps.store_s",
}

WRAPPER_CALLS = "tam.wrapper_bottlenecks_calls"

# Counters reported as they are: the engine's, then this module's.
COUNTERS = (
    "atpg.runs",
    "atpg.faults.total",
    "atpg.patterns.final",
    "podem.calls",
    "podem.backtracks",
    "faultsim.detect_calls",
    "faultsim.gate_evals",
    "sweeps.shards",
    WRAPPER_CALLS,
)


def _spanned(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with get_tracer().span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted(name: str, fn: Callable) -> Callable:
    # A span per call would cost more than the call: count only.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        get_tracer().count(name)
        return fn(*args, **kwargs)

    return wrapper


def _targets() -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
    """(owner, attribute, wrap) for every name the traced run rebinds."""
    span = lambda name: functools.partial(_spanned, name)  # noqa: E731
    targets = [
        (iscas_socs, "elaborate", span("synth.elaborate")),
        (iscas_socs, "decompose", span("core.decompose")),
        (iscas_socs, "soc_table", span("core.tdv")),
        (iscas_socs, "tdv_monolithic", span("core.tdv")),
        (iscas_socs, "tdv_monolithic_optimistic", span("core.tdv")),
        (population, "synthetic_soc", span("synth.soc")),
        (core_sweep, "synthetic_soc", span("synth.soc")),
        (population, "analyze", span("core.tdv")),
        (Runtime, "map", span("runtime.map")),
        (executor, "result_key", span("runtime.key")),
        (runtime_cache, "result_key", span("runtime.key")),
        (runtime_cache.AtpgResultCache, "get", span("runtime.cache_get")),
        (runtime_cache.AtpgResultCache, "put", span("runtime.cache_put")),
        (journal.RunJournal, "record", span("runtime.journal")),
        (repro.itc02, "load", span("itc02.load")),
        (itc02_benchmarks, "load", span("itc02.load")),
        (repro.tam, "core_specs_from_soc", span("tam.specs")),
        (problem, "schedule_greedy", span("tam.greedy")),
        (problem, "schedule_best_fit", span("tam.binpack")),
        (problem, "makespan_lower_bound", span("tam.lower_bound")),
        (types.Schedule, "verify", span("tam.verify")),
        (scheduling, "wrapper_bottlenecks", functools.partial(_counted, WRAPPER_CALLS)),
        (types, "wrapper_bottlenecks", functools.partial(_counted, WRAPPER_CALLS)),
        (population_experiment, "evaluate_population_point", span("sweeps.evaluate")),
        (tam_experiment, "evaluate_tam_point", span("sweeps.evaluate")),
        (workloads, "evaluate_synthetic_tam_point", span("sweeps.evaluate")),
        (store.ShardStore, "record", span("sweeps.store")),
        (store.ShardStore, "note", span("sweeps.store")),
        (store.ShardStore, "write_manifest", span("sweeps.store")),
    ]
    for cls in vars(aggregate).values():
        if isinstance(cls, type) and issubclass(cls, aggregate.Aggregator):
            for method in ("add", "close"):
                if method in vars(cls):
                    targets.append((cls, method, span("sweeps.aggregate")))
    return targets


@contextmanager
def instrumented() -> Iterator[None]:
    """Install every wrapper for the duration of a ``with`` block."""
    saved = []
    try:
        for owner, attribute, wrap in _targets():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def dir_bytes(directory: Path) -> int:
    """Total size of the files under ``directory`` (0 if it is absent)."""
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def disk_metrics(workdir: Path) -> Dict[str, float]:
    """The byte metrics of one repetition, from what its directory holds.

    Every repetition starts with no cache or journal directory, so what
    they hold once the timed region ends is what it wrote.
    """
    journal_dir = workdir / "journal"
    store_bytes = dir_bytes(journal_dir / "sweeps")
    return {
        "runtime.cache_bytes_written": float(dir_bytes(workdir / "cache")),
        "runtime.journal_bytes": float(dir_bytes(journal_dir) - store_bytes),
        "sweeps.store_bytes": float(store_bytes),
    }


def _outermost(spans) -> Iterator[Tuple[int, Any]]:
    """(index, span) for spans with no same-named ancestor.

    Spans are in preorder with depths, so the open ancestors of a span
    are the stack of earlier spans of smaller depth.
    """
    stack: List[Any] = []
    for index, span in enumerate(spans):
        while stack and stack[-1].depth >= span.depth:
            stack.pop()
        if all(ancestor.name != span.name for ancestor in stack):
            yield index, span
        stack.append(span)


def _direct_children_seconds(spans, index: int) -> float:
    parent = spans[index]
    total = 0.0
    for span in spans[index + 1:]:
        if span.depth <= parent.depth:
            break
        if span.depth == parent.depth + 1:
            total += span.duration
    return total


def layer_metrics(tracer, run_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition, except
    ``trace_overhead_s``, which needs the untraced repetitions too."""
    values = {name: 0.0 for name in PER_LAYER}
    spans = tracer.spans
    calls: Dict[str, int] = {}
    overhead = 0.0
    for index, span in _outermost(spans):
        metric = SPAN_SECONDS.get(span.name)
        if metric is not None:
            values[metric] += span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "runtime.map":
            overhead += span.duration - _direct_children_seconds(spans, index)
    counters = tracer.counters
    for name in COUNTERS:
        values[name] = float(counters.get(name, 0))
    values["synth.elaborate_calls"] = float(calls.get("synth.elaborate", 0))
    values["runtime.key_calls"] = float(calls.get("runtime.key", 0))
    values["tam.points"] = float(calls.get("tam.cooptimize", 0))
    values["runtime.overhead_s"] = overhead
    before = counters.get("atpg.patterns.random", 0) + counters.get(
        "atpg.patterns.pre_compaction", 0
    )
    if before:
        values["atpg.compaction_keep_ratio"] = (
            counters.get("atpg.patterns.final", 0) / before
        )
    if counters.get("podem.calls"):
        values["podem.abort_ratio"] = (
            counters.get("atpg.faults.aborted", 0) / counters["podem.calls"]
        )
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    if lookups:
        values["runtime.cache_hit_ratio"] = counters.get("cache.hits", 0) / lookups
    values["sweeps.overhead_s"] = values["sweeps.run_s"] - values["sweeps.evaluate_s"]
    attributed = sum(span.duration for span in spans if span.depth == 0)
    values["unattributed_s"] = run_s - attributed
    return values
