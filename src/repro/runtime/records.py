"""Durable JSON records: one atomic writer, one checked reader.

Cache entries, run-journal jobs and manifests, sweep shards and
manifests, and service spool entries and manifests all reach the disk
through :func:`write_record` (and come back through :func:`read_record`);
each caller keeps its own JSON layout.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TypeVar

from ..core.serialization import dumps_spliced
from ..errors import ConfigError

QUARANTINE_DIR = "quarantine"

T = TypeVar("T")


def write_record(
    path: Path, payload: Any, indent: Optional[int] = None,
    encoded: Optional[Dict[str, str]] = None,
) -> None:
    """Atomically (re)write ``path`` as sorted-key JSON.

    Compact on one line by default; manifests pass ``indent=1`` and get
    a trailing newline.  ``encoded`` (compact layout only) adds fields
    whose values are already JSON text, spliced in sorted-key order: an
    ATPG result is encoded once for both the cache and the journal.
    The tmp name is unique to the writing process and thread, so
    concurrent writers of one path (the CLI and the job service share a
    cache directory) each rename a whole file into place.
    """
    if encoded:
        text = dumps_spliced(payload, encoded)
    else:
        text = json.dumps(payload, sort_keys=True, indent=indent)
        if indent is not None:
            text += "\n"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_record(
    path: Path, parse: Callable[[Any], T], on_corrupt: Callable[[], None]
) -> Optional[T]:
    """``parse`` of the JSON in ``path``, or None when it is missing.

    A file that cannot be read or that ``parse`` rejects (``ValueError``
    / ``KeyError`` / ``TypeError``) is quarantined, ``on_corrupt`` is
    called and the caller sees a miss; a
    :class:`~repro.errors.ConfigError` from ``parse`` is a refusal, and
    propagates.
    """
    try:
        return parse(json.loads(path.read_text()))
    except FileNotFoundError:
        return None
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError, OSError):
        quarantine_file(path)
        on_corrupt()
        return None


def quarantine_file(path: Path) -> None:
    """Move a corrupt file into a sibling ``quarantine/`` directory (for
    post-mortems), or delete it when the filesystem refuses the move."""
    try:
        target_dir = path.parent / QUARANTINE_DIR
        target_dir.mkdir(exist_ok=True)
        path.replace(target_dir / path.name)
    except OSError:
        with suppress(OSError):
            path.unlink()
