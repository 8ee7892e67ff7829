"""The tail-percentile rule and the operation tally shared by the benchmark.

Kept free of any ``repro`` import so the parent process (which only
launches repetitions) and the tests can use it without the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer make the figure one or two lucky samples.
TAIL_MARGIN = 10


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with >= TAIL_MARGIN samples beyond it.

    Returns ``(p, value)`` by the nearest-rank rule, or None when there
    are too few samples (``len(values) <= TAIL_MARGIN``).  For n samples
    the candidate is ``p = floor(100 (n - 10) / n)``, whose nearest rank
    ``ceil(p n / 100)`` never exceeds ``n - 10``.
    """
    n = len(values)
    if n <= TAIL_MARGIN:
        return None
    p = (100 * (n - TAIL_MARGIN)) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


@dataclass
class Tally:
    """Attempted and failed operations of a repetition or a run.

    Operations are ATPG jobs, cache lookups, sweep points and the
    workload's correctness checks; a lookup that quarantined a corrupt
    entry, a point that broke an invariant and a check that did not hold
    all count as failed.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def ops(self, label: str, attempted: int, failed: int) -> None:
        """Count a batch of operations, ``failed`` of which went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{label}: {failed} of {attempted} failed")

    def check(self, label: str, passed: bool, detail: str = "") -> bool:
        """Count one correctness check."""
        self.ops(label + (f" ({detail})" if detail else ""), 1, 0 if passed else 1)
        return passed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
