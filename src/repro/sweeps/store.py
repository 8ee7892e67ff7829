"""Per-shard durable storage for resumable sweeps.

A population sweep is journaled at *shard* granularity: the engine
evaluates a contiguous chunk of points, then writes the whole chunk as
one atomic JSON file under ``RUN_DIR/shards/``.  A killed run leaves
only complete, self-describing shard files behind; a resumed run loads
them instead of re-evaluating and recomputes only the holes.  Because
the engine feeds aggregators strictly in shard order either way, the
aggregate statistics of a killed-and-resumed sweep are byte-identical
to an uninterrupted run's.

Every shard file carries the owning spec's fingerprint; resuming a
directory written by a *different* sweep is a :class:`ConfigError`,
not silently mixed statistics.  Corrupt shard files are quarantined
and recomputed, exactly like cache entries: both are written and read
through :mod:`repro.runtime.records`.

``RUN_DIR/sweep.json`` is the run's clock-free manifest (spec
description plus per-shard point counts), rewritten after every shard
so it doubles as a live progress file — and so killed-and-resumed and
uninterrupted runs leave byte-identical manifests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ConfigError
from ..observability import get_tracer, register_counter
from ..runtime.records import read_record, write_record

STORE_SCHEMA = 1

SHARDS_RECORDED = register_counter(
    "sweeps.shards_recorded", "sweep shards journaled"
)
SHARDS_RESUMED = register_counter(
    "sweeps.shards_resumed", "sweep shards recalled on resume"
)
SHARDS_QUARANTINED = register_counter(
    "sweeps.shards_quarantined", "corrupt sweep shards quarantined"
)


class ShardStore:
    """Durable per-shard results plus a manifest for one sweep run.

    ``resume=False`` (a fresh run) refuses a directory that already
    holds shard files — resuming must be an explicit decision, the
    same contract as :class:`~repro.runtime.journal.RunJournal`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        resume: bool = False,
    ):
        self.directory = Path(directory)
        self.shards_dir = self.directory / "shards"
        self.fingerprint = fingerprint
        self.resume = resume
        self.resumed_shards = 0
        self._manifest_shards: List[Dict[str, Any]] = []
        if (
            not resume
            and self.shards_dir.exists()
            and any(self.shards_dir.glob("shard-*.json"))
        ):
            raise ConfigError(
                f"sweep directory {self.directory} already holds journaled "
                f"shards; pass resume=True (--resume) to continue that run, "
                f"or choose a fresh directory"
            )
        self.shards_dir.mkdir(parents=True, exist_ok=True)

    # -- per-shard results ----------------------------------------------

    def _path(self, index: int) -> Path:
        return self.shards_dir / f"shard-{index:06d}.json"

    def get(self, index: int) -> Optional[List[Dict[str, Any]]]:
        """The journaled records of shard ``index``, or None.

        Only consulted on resume.  A shard journaled by a different
        sweep (fingerprint mismatch) is a hard error; a corrupt file is
        quarantined and reported as a miss so the shard re-executes.
        """
        if not self.resume:
            return None
        path = self._path(index)

        def parse(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
            if payload.get("fingerprint") != self.fingerprint:
                raise ConfigError(
                    f"sweep shard {path.name} belongs to sweep "
                    f"{payload.get('fingerprint')!r}, not {self.fingerprint!r}; "
                    f"refusing to resume a different sweep's run directory"
                )
            records = payload["records"]
            if payload.get("shard") != index or not isinstance(records, list):
                raise ValueError(f"{path.name} does not hold shard {index}'s records")
            return records

        records = read_record(
            path, parse, lambda: get_tracer().count(SHARDS_QUARANTINED)
        )
        if records is not None:
            self.resumed_shards += 1
            get_tracer().count(SHARDS_RESUMED)
        return records

    def record(self, index: int, records: List[Dict[str, Any]]) -> None:
        """Durably journal one completed shard (atomic write)."""
        payload = {
            "schema": STORE_SCHEMA,
            "fingerprint": self.fingerprint,
            "shard": index,
            "records": records,
        }
        write_record(self._path(index), payload)
        get_tracer().count(SHARDS_RECORDED)

    # -- the manifest ----------------------------------------------------

    def note(self, index: int, point_count: int) -> None:
        """Append one flushed shard to the manifest (in shard order)."""
        self._manifest_shards.append({"index": index, "points": point_count})

    def write_manifest(self, spec_description: Dict[str, Any]) -> Path:
        """(Re)write ``sweep.json`` — deterministic bytes, no clocks."""
        payload = {
            "schema": STORE_SCHEMA,
            "fingerprint": self.fingerprint,
            "spec": spec_description,
            "shards": self._manifest_shards,
        }
        path = self.directory / "sweep.json"
        write_record(path, payload, indent=1)
        return path
