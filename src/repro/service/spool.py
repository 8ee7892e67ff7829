"""The durable submission spool: what makes a killed server resumable.

The run journal (:mod:`repro.runtime.journal`) makes *finished* work
durable; the spool makes *accepted* work durable.  Every admitted job
is written to ``JOURNAL_DIR/queue/q<seq>.json`` before the submit call
returns, created with ``O_EXCL`` so two writers can never interleave on
one entry, and updated atomically
(:func:`~repro.runtime.records.write_record`) on every state change.
A resumed server replays the spool in submission order: entries whose
content key is already journaled complete instantly; everything else
re-enters the fair-share queue.  Together with the
clock-free journal this makes a SIGKILLed server's drained queue
byte-identical to an uninterrupted run's.

Corrupt spool entries are quarantined (like cache/journal entries) and
dropped — a torn write can only lose the one job that was being
accepted when the process died, never the backlog.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..observability import get_tracer, register_counter
from ..runtime.records import read_record, write_record

SPOOL_DIR = "queue"

SPOOL_WRITES = register_counter("service.spool.writes", "spool entries written")
SPOOL_QUARANTINED = register_counter(
    "service.spool.quarantined", "corrupt spool entries quarantined"
)


class SubmissionSpool:
    """Durable per-submission records under ``<directory>/queue/``.

    ``directory=None`` disables durability: every call is a cheap
    no-op and :meth:`load` reports an empty backlog.
    """

    def __init__(self, directory: Optional[Union[str, Path]]):
        self.directory = Path(directory) / SPOOL_DIR if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def _path(self, seq: int) -> Path:
        assert self.directory is not None
        return self.directory / f"q{seq:08d}.json"

    def append(self, record: Dict[str, Any]) -> None:
        """Durably add one submission (O_EXCL: a seq is written once)."""
        if self.directory is None:
            return
        path = self._path(int(record["seq"]))
        data = json.dumps(record, sort_keys=True).encode("utf-8")
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        get_tracer().count(SPOOL_WRITES)

    def update(self, record: Dict[str, Any]) -> None:
        """Rewrite one entry atomically (per-writer tmp + rename)."""
        if self.directory is None:
            return
        write_record(self._path(int(record["seq"])), record)
        get_tracer().count(SPOOL_WRITES)

    def load(self) -> List[Dict[str, Any]]:
        """Every spooled submission, in submission (seq) order."""
        if self.directory is None:
            return []
        records: List[Dict[str, Any]] = []
        for path in sorted(self.directory.glob("q*.json")):
            record = read_record(
                path,
                lambda entry: {**entry, "seq": int(entry["seq"])},
                lambda: get_tracer().count(SPOOL_QUARANTINED),
            )
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: record["seq"])
        return records

    def max_seq(self) -> int:
        """The highest spooled seq (-1 when empty) — resume counts on."""
        records = self.load()
        return records[-1]["seq"] if records else -1
