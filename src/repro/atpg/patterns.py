"""Test patterns and test sets.

A pattern assigns 0/1/X to the (pseudo-)primary inputs of one circuit;
internally assignments are keyed by compiled net id.  A test pattern
with X bits is *partial* (PODEM output, compaction input); filling
replaces the X bits deterministically before fault simulation and
delivery, which is exactly the point where the paper's "don't care
dummy bits" become real shifted bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .compiled import CompiledCircuit


@dataclass
class TestPattern:
    """One test pattern: input net id -> 0/1 (unlisted inputs are X)."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    assignments: Dict[int, int] = field(default_factory=dict)

    def specified_bits(self) -> int:
        """Number of care bits."""
        return len(self.assignments)

    def conflicts_with(self, other: "TestPattern") -> bool:
        """True when some input is assigned opposite values."""
        small, large = self.assignments, other.assignments
        if len(small) > len(large):
            small, large = large, small
        for net_id, value in small.items():
            other_value = large.get(net_id)
            if other_value is not None and other_value != value:
                return True
        return False

    def merged_with(self, other: "TestPattern") -> "TestPattern":
        """Union of two non-conflicting patterns."""
        merged = dict(self.assignments)
        merged.update(other.assignments)
        return TestPattern(merged)

    def filled(self, input_ids: Sequence[int], rng: random.Random) -> "TestPattern":
        """Replace X bits with random values over the given input list."""
        assignments = dict(self.assignments)
        if len(assignments) == len(input_ids):
            # Fully specified already: no X bits, no draws — the RNG
            # stream is untouched either way.
            return TestPattern(assignments)
        for net_id in input_ids:
            if net_id not in assignments:
                assignments[net_id] = rng.getrandbits(1)
        return TestPattern(assignments)

    def as_trits(self, input_ids: Sequence[int]) -> Dict[int, Optional[int]]:
        """The dict form the simulators consume (None for X)."""
        return {net_id: self.assignments.get(net_id) for net_id in input_ids}


@dataclass
class TestSet:
    """An ordered collection of patterns for one circuit."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    circuit_name: str
    patterns: List[TestPattern] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TestPattern]:
        return iter(self.patterns)

    def add(self, pattern: TestPattern) -> None:
        self.patterns.append(pattern)

    def filled(self, circuit: CompiledCircuit, seed: int = 0) -> "TestSet":
        """Deterministically fill every X bit (one RNG for the whole set)."""
        rng = random.Random(seed)
        return TestSet(
            circuit_name=self.circuit_name,
            patterns=[p.filled(circuit.input_ids, rng) for p in self.patterns],
        )

    def as_trit_dicts(self, circuit: CompiledCircuit) -> List[Dict[int, Optional[int]]]:
        return [p.as_trits(circuit.input_ids) for p in self.patterns]

    def care_bit_fraction(self, circuit: CompiledCircuit) -> float:
        """Mean fraction of specified bits — the compaction headroom."""
        if not self.patterns:
            raise ValueError("empty test set")
        width = len(circuit.input_ids)
        return sum(p.specified_bits() for p in self.patterns) / (width * len(self.patterns))


def random_pattern(
    input_ids: Sequence[int], rng: random.Random
) -> TestPattern:
    """A fully specified random pattern."""
    return TestPattern({net_id: rng.getrandbits(1) for net_id in input_ids})


# Top bit of a little-endian 32-bit word's last byte -> its "0"/"1" digit.
_TOP_BIT_DIGIT = bytes(0x30 + (b >> 7) for b in range(256))
# _BIT_OF[k][byte] is bit k of byte.
_BIT_OF = [bytes(b >> k & 1 for b in range(256)) for k in range(8)]


def random_pattern_rails(
    input_ids: Sequence[int],
    rng: random.Random,
    count: int,
    net_count: int,
) -> Tuple[List[int], List[int]]:
    """Draw ``count`` random patterns directly as packed dual rails.

    Returns flat ``(ones, zeros)`` lists sized for a whole circuit
    (``net_count`` entries), with bit ``k`` of input net ``n`` set in
    ``ones`` when pattern ``k`` drives ``n`` to 1 — exactly what
    ``pack_patterns_flat`` would produce for ``count`` successive
    :func:`random_pattern` calls, without materializing any per-pattern
    dict.

    RNG consumption contract: the same Mersenne words, in the same
    order, as one ``rng.getrandbits(1)`` per (pattern, input) pair,
    patterns outermost, inputs in ``input_ids`` order — the order
    :func:`random_pattern` consumes, so a shared ``Random`` instance
    advances identically through either path.  The draw is one
    ``getrandbits(32 * n * count)`` call: CPython's ``getrandbits(1)``
    is the top bit of one 32-bit word, and a wide ``getrandbits`` lays
    whole words out least significant first, so byte ``4k + 3`` of the
    little-endian result carries draw ``k``'s bit in its top bit.  That
    relies on CPython's word layout; ``tests/test_podem_kernel.py``
    checks rails and post-draw RNG state against the per-bit path and
    pins the SHA-256 of one large draw, so a layout change fails loudly
    instead of shifting Tables 1–2.
    """
    ones = [0] * net_count
    zeros = [0] * net_count
    if not count:
        return ones, zeros
    n = len(input_ids)
    draws = n * count
    # One digit per draw, pattern-major: digits[bit * n + j] is input
    # j's value in pattern ``bit``.
    digits = rng.getrandbits(32 * draws).to_bytes(4 * draws, "little")[3::4]
    digits = digits.translate(_TOP_BIT_DIGIT)
    # Random patterns are fully specified, so the zeros rail is just the
    # complement of the ones rail over the batch width.
    full = (1 << count) - 1
    for j, net_id in enumerate(input_ids):
        value = int(digits[j::n][::-1], 2)
        ones[net_id] = value
        zeros[net_id] = value ^ full
    return ones, zeros


def patterns_from_rails(
    input_ids: Sequence[int], ones: List[int], count: int, bits: Iterable[int]
) -> List[TestPattern]:
    """Materialize packed patterns ``bits`` back into dict form.

    ``ones`` holds fully specified rails ``count`` patterns wide (every
    input bit is 1 in ``ones`` or else 0).  Each assignments dict lists
    inputs in ``input_ids`` order, matching what :func:`random_pattern`
    builds.  The rails are transposed once: each becomes one big-endian
    byte row, so pattern ``bit`` is one byte column of the joined rows,
    translated to its bit ``bit % 8``.
    """
    width = (count + 7) // 8
    rows = b"".join([ones[net_id].to_bytes(width, "big") for net_id in input_ids])
    patterns = []
    for bit in bits:
        column = rows[width - 1 - bit // 8::width].translate(_BIT_OF[bit % 8])
        patterns.append(TestPattern(dict(zip(input_ids, column))))
    return patterns
