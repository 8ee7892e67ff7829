"""Wrapper scan-chain design (IEEE 1500 wrapper optimization).

Given a core's internal scan chains and its wrapper input/output cells,
build ``w`` wrapper chains (one per TAM wire) whose scan-in/scan-out
lengths are balanced — the classic LPT-based heuristic of Marinissen et
al. (ITC 2000) / Goel & Marinissen.  The resulting per-pattern shift
length drives both test time and the *idle bits* that the paper's
Section 3 excludes from its comparative analysis and that
:mod:`repro.tam.idle_bits` quantifies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import ConfigError


@dataclass
class WrapperChain:
    """One wrapper chain: input cells, then scan chains, then output cells."""

    input_cells: int = 0
    scan_chains: List[int] = field(default_factory=list)

    output_cells: int = 0

    @property
    def scan_length(self) -> int:
        return sum(self.scan_chains)

    @property
    def scan_in_length(self) -> int:
        """Cells on the stimulus path: input cells plus internal scan."""
        return self.input_cells + self.scan_length

    @property
    def scan_out_length(self) -> int:
        """Cells on the response path: internal scan plus output cells."""
        return self.scan_length + self.output_cells


@dataclass
class WrapperDesign:
    """A core's wrapper partitioned over ``tam_width`` chains."""

    core_name: str
    tam_width: int
    chains: List[WrapperChain]

    @property
    def max_scan_in(self) -> int:
        return max(chain.scan_in_length for chain in self.chains)

    @property
    def max_scan_out(self) -> int:
        return max(chain.scan_out_length for chain in self.chains)

    def test_time_cycles(self, patterns: int) -> int:
        """Shift-dominated test time (Goel & Marinissen's formula).

        ``(1 + max(si, so)) * p + min(si, so)`` cycles: each pattern
        needs a load overlapped with the previous unload, plus one
        capture cycle, plus a final unload.
        """
        si, so = self.max_scan_in, self.max_scan_out
        return (1 + max(si, so)) * patterns + min(si, so)

    def useful_bits_per_pattern(self) -> int:
        """Care-capable bits per pattern: every cell once in, once out."""
        return sum(
            chain.scan_in_length + chain.scan_out_length for chain in self.chains
        )

    def shifted_bits_per_pattern(self) -> int:
        """Actually shifted bits per pattern when chains run in lockstep.

        All ``tam_width`` wires shift for ``max(si, so)`` cycles in and
        the same out, so shorter chains carry padding.
        """
        return self.tam_width * (self.max_scan_in + self.max_scan_out)

    def idle_bits_per_pattern(self) -> int:
        return self.shifted_bits_per_pattern() - self.useful_bits_per_pattern()


def design_wrapper(
    core_name: str,
    scan_chains: Sequence[int],
    input_cells: int,
    output_cells: int,
    tam_width: int,
) -> WrapperDesign:
    """Partition scan chains and wrapper cells over ``tam_width`` wires.

    Internal scan chains are assigned longest-processing-time-first to
    the currently shortest wrapper chain; wrapper input (output) cells
    are then spread to equalize scan-in (scan-out) lengths.  Fixed-length
    internal chains are not split, mirroring real wrapper design rules.
    """
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    chains = [WrapperChain() for _ in range(tam_width)]
    for length in sorted(scan_chains, reverse=True):
        if length < 0:
            raise ConfigError("scan chain lengths must be >= 0")
        shortest = min(chains, key=lambda c: c.scan_length)
        shortest.scan_chains.append(length)
    _spread_cells(chains, input_cells, attr="input_cells", key=lambda c: c.scan_in_length)
    _spread_cells(chains, output_cells, attr="output_cells", key=lambda c: c.scan_out_length)
    return WrapperDesign(core_name=core_name, tam_width=tam_width, chains=chains)


def _spread_cells(chains: List[WrapperChain], cells: int, attr: str, key) -> None:
    """Greedy one-by-one assignment of wrapper cells to the shortest chain.

    Wrapper cells are single registers, so unlike internal chains they
    can be distributed freely; one-at-a-time to the current minimum is
    optimal for the bottleneck length.  A heap keyed ``(length, index)``
    finds the chain ``min(chains, key=key)`` would, ties included.
    """
    if cells < 0:
        raise ConfigError("cell counts must be >= 0")
    heap = [(key(chain), index) for index, chain in enumerate(chains)]
    heapq.heapify(heap)
    added = [0] * len(chains)
    for _ in range(cells):
        length, index = heap[0]
        added[index] += 1
        heapq.heapreplace(heap, (length + 1, index))
    for chain, extra in zip(chains, added):
        setattr(chain, attr, getattr(chain, attr) + extra)


def balanced_chain_lengths(total_cells: int, chain_count: int) -> List[int]:
    """The paper's "perfectly balanced" internal-chain assumption."""
    if chain_count < 1:
        raise ConfigError("chain_count must be >= 1")
    base = total_cells // chain_count
    extra = total_cells % chain_count
    return [base + (1 if i < extra else 0) for i in range(chain_count)]


# -- closed-form fast path ---------------------------------------------------
#
# The co-optimizer enumerates a core's whole Pareto staircase (every TAM
# width 1..W), and the tam experiment does that for every core of every
# ITC'02 SOC.  Materializing a WrapperDesign per width is O(cells) per
# wrapper because _spread_cells places wrapper cells one at a time; the
# functions below compute only the two numbers the cost model needs —
# the scan-in/scan-out bottleneck lengths — in O(chains log width).
# They are differentially tested against design_wrapper.


def partition_scan_lengths(
    scan_chains: Sequence[int], tam_width: int
) -> List[int]:
    """Per-wrapper-chain internal scan lengths after LPT assignment.

    Replays :func:`design_wrapper`'s longest-first / currently-shortest
    assignment on a heap keyed ``(length, chain_index)`` — the same
    chain ``min()`` would pick, including ties — and returns just the
    resulting lengths, indexed by wrapper chain.
    """
    if tam_width < 1:
        raise ConfigError(f"tam_width must be >= 1, got {tam_width}")
    heap: List[Tuple[int, int]] = [(0, index) for index in range(tam_width)]
    lengths = [0] * tam_width
    for length in sorted(scan_chains, reverse=True):
        if length < 0:
            raise ConfigError("scan chain lengths must be >= 0")
        current, index = heapq.heappop(heap)
        lengths[index] = current + length
        heapq.heappush(heap, (lengths[index], index))
    return lengths


def spread_level(lengths: Sequence[int], cells: int) -> int:
    """Bottleneck after greedily spreading ``cells`` over ``lengths``.

    Equals ``max(chain lengths)`` after :func:`_spread_cells` adds
    ``cells`` single-register wrapper cells one at a time to the current
    minimum: water-filling — the cells fill the valleys below the
    existing top first, and only a surplus raises the bottleneck, to the
    least level whose capacity ``sum(max(0, level - s))`` holds them all.
    """
    if cells < 0:
        raise ConfigError("cell counts must be >= 0")
    if not lengths:
        raise ConfigError("need at least one chain to spread cells over")
    top = max(lengths)
    if sum(top - s for s in lengths) >= cells:
        return top
    low, high = top, top + cells
    while low < high:
        mid = (low + high) // 2
        if sum(mid - s for s in lengths) >= cells:
            high = mid
        else:
            low = mid + 1
    return low


def wrapper_bottlenecks(
    scan_chains: Sequence[int],
    input_cells: int,
    output_cells: int,
    tam_width: int,
) -> Tuple[int, int]:
    """``(max_scan_in, max_scan_out)`` of the LPT wrapper, closed-form.

    Input and output cells spread independently over the same internal
    scan partition (a wrapper cell sits on only one of the two paths),
    so each bottleneck is one :func:`spread_level` over the
    :func:`partition_scan_lengths` baseline.
    """
    lengths = partition_scan_lengths(scan_chains, tam_width)
    return (
        spread_level(lengths, input_cells),
        spread_level(lengths, output_cells),
    )
