"""Cached, parallel execution layer for ATPG and the experiments.

The architectural seam between "what to run" (netlists + configs) and
"how to run it" (serial/parallel, cold/warm):

``repro.runtime.config``
    :class:`AtpgConfig` — the frozen identity of one ATPG run.
``repro.runtime.cache``
    :class:`AtpgResultCache` — content-addressed results, memory LRU +
    JSON on disk, ``REPRO_CACHE_DIR`` override.
``repro.runtime.executor``
    :class:`AtpgJob` / :func:`run_jobs` — process-parallel fan-out with
    deterministic result order, retry-round failure recovery, and a
    per-job :class:`RunManifest` of typed :class:`JobOutcome` records.
``repro.runtime.units`` / ``repro.runtime.records``
    :func:`run_units`, the one pool/retry loop (ATPG jobs and sweep
    shards); the one atomic JSON writer and quarantining reader.
``repro.runtime.policy``
    :class:`ExecutionPolicy` — deadlines, backtrack budgets, retry and
    backoff knobs; execution policy, never run identity.
``repro.runtime.abort``
    :class:`AbortToken` — the cooperative deadline/budget token the
    engine loops check.
``repro.runtime.chaos``
    :class:`ChaosConfig` — deterministic fault injection
    (``$REPRO_CHAOS``) for testing the recovery paths.
``repro.runtime.journal``
    :class:`RunJournal` — per-job durable results + canonical manifest;
    what ``repro experiments --resume`` reads.
``repro.runtime.session``
    :class:`Runtime` — the facade bundling all of it, threaded through
    the experiments and both CLIs.

Only :mod:`~repro.runtime.config` is imported eagerly: it has no
dependencies and is what :mod:`repro.atpg.engine` imports, so the
heavier pieces (which import the ATPG stack back) load lazily to keep
the layering acyclic.
"""

from __future__ import annotations

from .config import AtpgConfig

__all__ = [
    "AbortToken",
    "AtpgConfig",
    "AtpgJob",
    "AtpgResultCache",
    "CacheStats",
    "ChaosConfig",
    "ExecutionPolicy",
    "JobOutcome",
    "JobRecord",
    "RunJournal",
    "RunManifest",
    "Runtime",
    "default_cache_dir",
    "ensure_runtime",
    "get_abort",
    "netlist_fingerprint",
    "result_key",
    "run_jobs",
    "use_abort",
]

_LAZY = {
    "AbortToken": "abort",
    "get_abort": "abort",
    "use_abort": "abort",
    "AtpgResultCache": "cache",
    "CacheStats": "cache",
    "default_cache_dir": "cache",
    "netlist_fingerprint": "cache",
    "result_key": "cache",
    "ChaosConfig": "chaos",
    "AtpgJob": "executor",
    "JobOutcome": "executor",
    "JobRecord": "executor",
    "RunManifest": "executor",
    "run_jobs": "executor",
    "RunJournal": "journal",
    "ExecutionPolicy": "policy",
    "Runtime": "session",
    "ensure_runtime": "session",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
