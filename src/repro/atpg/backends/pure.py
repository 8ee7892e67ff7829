"""The ``pure`` kernel backend: today's Python-int path, unchanged.

This backend is the reference implementation every other backend is
differentially pinned against.  It adds no acceleration hooks: pattern
blocks stay one 64-bit word wide, and the fault simulator keeps its
scalar fanout-free-region fast path and event kernel exactly as they
were.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class PureBackend:
    """Strategy object for the unaccelerated kernels.

    Stateless and shared process-wide (``resolve_backend`` hands out a
    singleton); instances pickle by class reference, so a
    :class:`~repro.atpg.compiled.CompiledCircuit` carrying one ships to
    job-level worker processes unchanged.
    """

    name = "pure"

    def lanes_for(self, circuit) -> int:
        """Pattern-block width in 64-bit words: always one."""
        return 1

    def ffr_detect_masks(
        self,
        simulator,
        g_ones: List[int],
        g_zeros: List[int],
        full: int,
        pattern_count: int,
        faults: Iterable,
    ) -> Optional[List[int]]:
        """No acceleration: the caller runs its own scalar FFR path."""
        return None
