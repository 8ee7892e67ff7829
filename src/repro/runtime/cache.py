"""Content-addressed cache of ATPG results.

Per-core ATPG is the expensive primitive behind every table and figure
— and, as the modularity argument itself says, a core's test set
depends on nothing but the core.  So results are cached under a key
derived purely from content: a stable hash of the netlist structure
plus the :class:`~repro.runtime.config.AtpgConfig` fingerprint.  There
is no invalidation problem — a changed netlist or config *is* a
different key.

Two tiers: an in-memory LRU (term of this process) and JSON files on
disk (via the :mod:`repro.core.serialization` converters), one file per
key, so warm reruns of an experiment skip ATPG entirely.  The directory
defaults to ``~/.cache/repro/atpg`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or per instance.  Corrupt,
truncated or mis-keyed files are misses: :mod:`repro.runtime.records`
quarantines them and the result is recomputed.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..atpg.engine import AtpgResult
from ..circuit.netlist import Netlist
from ..core.serialization import (
    SCHEMA_VERSION,
    atpg_result_from_dict,
    atpg_result_json,
)
from ..errors import CacheCorruptionError, ConfigError
from ..observability import get_tracer, register_counter
from .chaos import maybe_corrupt_store
from .config import AtpgConfig
from .records import read_record, write_record

CACHE_ENV_VAR = "REPRO_CACHE_DIR"

CACHE_HITS = register_counter("cache.hits", "ATPG result cache hits")
CACHE_MISSES = register_counter("cache.misses", "ATPG result cache misses")
CACHE_STORES = register_counter("cache.stores", "ATPG results written to disk")
CACHE_QUARANTINED = register_counter(
    "cache.quarantined", "corrupt cache entries moved to quarantine"
)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/atpg``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "atpg"


def netlist_fingerprint(netlist: Netlist) -> str:
    """A stable content hash of a netlist's full structure.

    Covers name, inputs, outputs, flip-flops and gates in declaration
    order — everything that determines the ATPG outcome (pattern
    assignments are keyed by compiled net id, which is itself a
    function of this structure).
    """
    hasher = hashlib.sha256()

    def feed(*parts: str) -> None:
        for part in parts:
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")

    feed("netlist", netlist.name)
    feed("inputs", *netlist.inputs)
    feed("outputs", *netlist.outputs)
    for ff in netlist.flip_flops:
        feed("ff", ff.output, ff.data)
    for gate in netlist.gates:
        feed("gate", gate.gate_type.value, gate.output, *gate.inputs)
    return hasher.hexdigest()


def result_key(netlist: Netlist, config: AtpgConfig) -> str:
    """The cache key of one (netlist, config) ATPG run."""
    return fingerprint_key(netlist_fingerprint(netlist), config)


def fingerprint_key(fingerprint: str, config: AtpgConfig) -> str:
    """:func:`result_key` from the netlist's :func:`netlist_fingerprint`,
    so one netlist hash serves every config it runs under."""
    hasher = hashlib.sha256()
    hasher.update(fingerprint.encode("ascii"))
    hasher.update(config.fingerprint().encode("ascii"))
    return hasher.hexdigest()


def keyed_result(key: str) -> Callable[[Dict[str, Any]], AtpgResult]:
    """The :func:`~repro.runtime.records.read_record` parser of a file
    that must hold ``key``'s result (cache entry or journal entry)."""

    def parse(payload: Dict[str, Any]) -> AtpgResult:
        if payload.get("key") != key:
            raise CacheCorruptionError(
                f"entry claims key {payload.get('key')!r}, expected {key!r}"
            )
        return atpg_result_from_dict(payload["result"])

    return parse


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class AtpgResultCache:
    """Two-tier (memory LRU + JSON-on-disk) cache of ATPG results.

    ``directory=None`` keeps the cache purely in memory — useful for
    sharing results within one process without touching the filesystem.
    """

    directory: Optional[Union[str, Path]] = None
    memory_slots: int = 256
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)
        if self.memory_slots < 1:
            raise ConfigError(f"memory_slots must be >= 1, got {self.memory_slots}")
        self._memory: "OrderedDict[str, AtpgResult]" = OrderedDict()

    # -- lookup ---------------------------------------------------------------

    def get(
        self, netlist: Netlist, config: AtpgConfig, key: Optional[str] = None
    ) -> Optional[AtpgResult]:
        """The cached result of this run (under ``key``, its
        :func:`result_key`, if the caller has it), or None on a miss."""
        key = key or result_key(netlist, config)
        result = self._memory.get(key)
        if result is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            get_tracer().count(CACHE_HITS)
            return result
        result = self._read_disk(key)
        if result is not None:
            self._remember(key, result)
            self.stats.hits += 1
            get_tracer().count(CACHE_HITS)
            return result
        self.stats.misses += 1
        get_tracer().count(CACHE_MISSES)
        return None

    def put(
        self, netlist: Netlist, config: AtpgConfig, result: AtpgResult,
        key: Optional[str] = None, result_json: Optional[str] = None,
    ) -> str:
        """Store one result under its content key; returns the key.
        ``key`` is as for :meth:`get`, and ``result_json`` is the result's
        :func:`~repro.core.serialization.atpg_result_json` if the caller
        has it."""
        key = key or result_key(netlist, config)
        self._remember(key, result)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "config": config.to_dict(),
            }
            path = self._path(key)
            text = result_json or atpg_result_json(result)
            write_record(path, payload, encoded={"result": text})
            self.stats.stores += 1
            get_tracer().count(CACHE_STORES)
            maybe_corrupt_store(path)  # chaos hook; no-op unless injected
        return key

    def clear(self) -> None:
        """Drop the memory tier and delete every disk entry."""
        self._memory.clear()
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        """Number of disk entries (memory-only caches count the LRU)."""
        if self.directory is not None and self.directory.exists():
            return sum(1 for _ in self.directory.glob("*.json"))
        return len(self._memory)

    # -- internals ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _remember(self, key: str, result: AtpgResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)

    def _read_disk(self, key: str) -> Optional[AtpgResult]:
        if self.directory is None:
            return None
        return read_record(self._path(key), keyed_result(key), self._quarantined)

    def _quarantined(self) -> None:
        self.stats.corrupt += 1
        self.stats.quarantined += 1
        get_tracer().count(CACHE_QUARANTINED)
