"""Versioned pattern-stream epochs: how random pattern bits are drawn.

Stream **1** is the legacy sequential draw order: one
``random.Random(seed).getrandbits(1)`` per (pattern, input) pair,
patterns outermost (:func:`repro.atpg.patterns.random_pattern_rails`).
That stream is frozen forever — every committed table, cached result,
and fingerprint depends on its exact bit sequence — but it is also a
sequential bottleneck: pattern *i* cannot be drawn without consuming
the ``i * inputs`` draws before it.

Stream **2** is a *counter-based* generator: every bit is a pure
function of ``(seed, pattern_index, input_position)`` through a
splitmix64-style mixer, so any pattern — or any 64-pattern block of
rails — can be produced independently, in any order, with bulk array
ops.  That order-freedom is what lets the engine draw whole wide blocks
as numpy array math without perturbing a single bit.

Two key-domain constants keep the draw and X-fill streams disjoint:

* ``DOMAIN_DRAW`` words are *rail-oriented* — ``stream_word(seed,
  block, pos)`` packs bit ``i % 64`` of input ``pos`` for the 64
  patterns of ``block = i // 64`` — because the random phase consumes
  packed rails.
* ``DOMAIN_FILL`` words are *pattern-oriented* — ``stream_word(seed,
  pattern_index, word)`` covers inputs ``64*word .. 64*word+63`` of one
  pattern — because X-fill touches a handful of sparse patterns.

Both backends (pure Python and numpy) produce bit-identical words; the
numpy path merely vectorizes the mixer over whole blocks.  The stream
epoch is part of a run's identity (``AtpgConfig.stream`` enters the
fingerprint for stream != 1), so results from different epochs can
never collide in the cache.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .compiled import CompiledCircuit
from .patterns import TestPattern, TestSet

_M64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele et al.; public domain).
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# Weyl / golden-ratio increment, reused here as a seed salt so the
# all-zero key (seed 0, block 0, pos 0) never mixes to the degenerate
# zero word.
_SALT = 0x9E3779B97F4A7C15

# Odd multipliers keying the counter coordinates into the 64-bit state.
# Any odd constants work (the finalizer does the scrambling); these are
# fixed forever — changing one would be a new stream epoch.
_K_SEED = 0xD6E8FEB86659FD93
_K_BLOCK = 0xA5A3D31D4D3D8F2F
_K_POS = 0xC2B2AE3D27D4EB4F
_K_DOMAIN = 0x165667B19E3779F9

#: Key domain for the random phase's packed draw words (rail-oriented).
DOMAIN_DRAW = 0
#: Key domain for deterministic X-fill words (pattern-oriented).
DOMAIN_FILL = 1


def _mix(x: int) -> int:
    """The splitmix64 finalizer over a 64-bit state."""
    x = (x ^ (x >> 30)) * _MIX_1 & _M64
    x = (x ^ (x >> 27)) * _MIX_2 & _M64
    return (x ^ (x >> 31)) & _M64


def _key(seed: int, block: int, pos: int, domain: int) -> int:
    """The 64-bit mixer input for one (seed, block, pos, domain) cell."""
    return (
        (seed * _K_SEED + _SALT)
        ^ (block * _K_BLOCK)
        ^ (pos * _K_POS)
        ^ (domain * _K_DOMAIN)
    ) & _M64


def stream_word(seed: int, block: int, pos: int, domain: int = DOMAIN_DRAW) -> int:
    """One 64-bit stream word — a pure function of its four coordinates.

    For ``DOMAIN_DRAW``, bit ``k`` of the word is the value input
    ``pos`` takes in pattern ``64 * block + k``.  For ``DOMAIN_FILL``,
    bit ``k`` is the fill value of input ``64 * pos + k`` in pattern
    ``block``.
    """
    return _mix(_key(seed, block, pos, domain))


def stream_bit(seed: int, pattern_index: int, pos: int) -> int:
    """The draw-domain bit of one (pattern, input) cell.

    The single-bit spelling of the stream-2 contract — property tests
    check the packed rails against this reference point by point.
    """
    word = stream_word(seed, pattern_index >> 6, pos, DOMAIN_DRAW)
    return (word >> (pattern_index & 63)) & 1


def _stream_words_numpy(
    seed: int, blocks: int, first_block: int, positions: int, domain: int
):
    """The (positions, blocks) word matrix as one vectorized mixer pass.

    Returns None when numpy is masked or unavailable; otherwise a
    ``numpy.uint64`` array whose rows are input positions and columns
    are successive 64-pattern blocks — bit-identical to
    :func:`stream_word` cell by cell (uint64 arithmetic wraps exactly
    like the ``& _M64`` reductions).
    """
    from .backends import numpy_available

    if not numpy_available():
        return None
    import numpy as np

    with np.errstate(over="ignore"):
        base = np.uint64(((seed * _K_SEED + _SALT) ^ (domain * _K_DOMAIN)) & _M64)
        block_keys = (
            np.arange(first_block, first_block + blocks, dtype=np.uint64)
            * np.uint64(_K_BLOCK)
        )
        pos_keys = np.arange(positions, dtype=np.uint64) * np.uint64(_K_POS)
        x = np.bitwise_xor.outer(pos_keys, block_keys)
        x ^= base
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX_1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX_2)
        x ^= x >> np.uint64(31)
    return x


def stream_rails(
    input_ids: Sequence[int],
    seed: int,
    start: int,
    count: int,
    net_count: int,
) -> Tuple[List[int], List[int]]:
    """Packed dual rails for stream-2 patterns ``start .. start+count-1``.

    The counter-based analogue of
    :func:`repro.atpg.patterns.random_pattern_rails`: flat ``(ones,
    zeros)`` lists sized for the whole circuit, fully specified (zeros
    is the complement of ones over the batch width).  ``start`` and
    ``count`` must be multiples of 64 so the window tiles whole stream
    words; any 64-aligned windowing of the pattern axis yields the same
    bits for the same pattern index — the order-independence the
    lane-wide random phase relies on.
    """
    if start % 64 or count % 64:
        raise ValueError(
            f"stream-2 windows must be 64-aligned, got start={start} count={count}"
        )
    ones = [0] * net_count
    zeros = [0] * net_count
    if not count:
        return ones, zeros
    first_block = start >> 6
    blocks = count >> 6
    full = (1 << count) - 1
    matrix = _stream_words_numpy(seed, blocks, first_block, len(input_ids), DOMAIN_DRAW)
    if matrix is not None:
        # Row-major little-endian bytes: word b of row p lands in bits
        # 64*b .. 64*b+63 — the same concatenation the pure loop builds.
        rows = matrix.tobytes()
        row_bytes = 8 * blocks
        from_bytes = int.from_bytes
        for row, net_id in enumerate(input_ids):
            value = from_bytes(rows[row * row_bytes:(row + 1) * row_bytes], "little")
            ones[net_id] = value
            zeros[net_id] = value ^ full
        return ones, zeros
    for pos, net_id in enumerate(input_ids):
        value = 0
        for b in range(blocks):
            value |= stream_word(seed, first_block + b, pos, DOMAIN_DRAW) << (64 * b)
        ones[net_id] = value
        zeros[net_id] = value ^ full
    return ones, zeros


def fill_pattern(
    pattern: TestPattern,
    input_ids: Sequence[int],
    seed: int,
    pattern_index: int,
) -> TestPattern:
    """Stream-2 X-fill of one pattern: fill bits keyed by its index.

    The counter analogue of :meth:`TestPattern.filled` — fully
    specified patterns pass through untouched (same shortcut, same
    assignment order for the filled ones), but the fill value of input
    position ``pos`` is ``stream_word(seed, pattern_index, pos // 64,
    DOMAIN_FILL)`` bit ``pos % 64`` instead of the next sequential
    Mersenne draw, so filling is order- and subset-independent.
    """
    assignments = dict(pattern.assignments)
    if len(assignments) == len(input_ids):
        return TestPattern(assignments)
    words: Dict[int, int] = {}
    for pos, net_id in enumerate(input_ids):
        if net_id not in assignments:
            w = pos >> 6
            word = words.get(w)
            if word is None:
                word = stream_word(seed, pattern_index, w, DOMAIN_FILL)
                words[w] = word
            assignments[net_id] = (word >> (pos & 63)) & 1
    return TestPattern(assignments)


def fill_test_set(
    test_set: TestSet, circuit: CompiledCircuit, seed: int
) -> TestSet:
    """Stream-2 X-fill of a whole set (each pattern keyed by its index)."""
    input_ids = circuit.input_ids
    return TestSet(
        circuit_name=test_set.circuit_name,
        patterns=[
            fill_pattern(pattern, input_ids, seed, index)
            for index, pattern in enumerate(test_set.patterns)
        ],
    )
