"""Random-pattern test generation phase.

Deterministic ATPG is expensive, so every practical flow (ATALANTA
included) first throws cheap random patterns at the fault list,
keeping the ones that detect something new and dropping the detected
faults.  The phase stops when a batch's yield falls below a threshold —
the remaining, random-pattern-resistant faults go to PODEM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..observability import get_tracer, register_counter
from ..runtime.abort import get_abort
from .compiled import CompiledCircuit
from .faults import Fault
from .faultsim import FaultSimulator
from .patterns import TestPattern, patterns_from_rails, random_pattern_rails
from .streams import stream_rails

RANDOM_BATCHES = register_counter(
    "random_phase.batches", "random-pattern batches simulated"
)
RANDOM_PATTERNS_KEPT = register_counter(
    "random_phase.patterns_kept", "random patterns kept as first detectors"
)
RANDOM_FAULTS_DROPPED = register_counter(
    "random_phase.faults_dropped", "faults detected (dropped) by random patterns"
)


@dataclass
class RandomPhaseResult:
    patterns: List[TestPattern] = field(default_factory=list)
    remaining_faults: List[Fault] = field(default_factory=list)
    detected: int = 0
    batches: int = 0


def run_random_phase(
    circuit: CompiledCircuit,
    faults: List[Fault],
    seed: int = 0,
    batch_size: int = 64,
    max_batches: int = 32,
    min_yield: int = 1,
    stream: int = 1,
) -> RandomPhaseResult:
    """Generate random patterns until they stop paying for themselves.

    Within each batch, only patterns that are the *first* detector of at
    least one remaining fault are kept, so the kept set carries no
    obviously redundant members.

    ``stream`` selects the pattern-stream epoch
    (:mod:`repro.atpg.streams`): 1 draws the legacy sequential Mersenne
    stream, 2 the counter-based order-independent stream.
    """
    tracer = get_tracer()
    with tracer.span("random_phase"):
        result = _run_batches(
            circuit, faults, seed, batch_size, max_batches, min_yield, stream
        )
        if tracer.enabled:
            tracer.count(RANDOM_BATCHES, result.batches)
            tracer.count(RANDOM_PATTERNS_KEPT, len(result.patterns))
            tracer.count(RANDOM_FAULTS_DROPPED, result.detected)
    return result


def _run_batches(
    circuit: CompiledCircuit,
    faults: List[Fault],
    seed: int,
    batch_size: int,
    max_batches: int,
    min_yield: int,
    stream: int = 1,
) -> RandomPhaseResult:
    simulator = FaultSimulator(circuit)
    if stream == 2 and batch_size % 64:
        raise ValueError(
            f"stream-2 batches must be 64-aligned, got batch_size={batch_size}"
        )
    rng = random.Random(seed) if stream == 1 else None
    result = RandomPhaseResult(remaining_faults=list(faults))
    abort = get_abort()
    input_ids = circuit.input_ids
    # The backend's lane count widens each draw/simulate round-trip to
    # several 64-pattern batches at once; the per-batch bookkeeping below
    # then replays the wide detect masks chunk by chunk.  Dual-rail ops
    # are per-bit independent, so each 64-bit slice of a wide mask equals
    # the mask a narrow round would have computed — batches, kept
    # patterns, dropped faults, and the early-exit point are identical
    # for every lane count.
    lanes = circuit.block_lanes
    batch_full = (1 << batch_size) - 1
    while result.remaining_faults and result.batches < max_batches:
        abort.check()
        # The block is drawn directly in packed dual-rail form — same
        # RNG stream as chunk_count * batch_size random_pattern() calls
        # (the contract random_pattern_rails documents), with no
        # per-pattern dicts and no pack_patterns_flat repack.  Only the
        # handful of kept first detectors are materialized back into
        # TestPattern form below, by one patterns_from_rails transpose.
        # When a chunk's yield stops the phase early, the already-drawn
        # later chunks are simply discarded; the rng is local, so the
        # over-draw leaks nowhere.
        chunk_count = min(lanes, max_batches - result.batches)
        count = batch_size * chunk_count
        if stream == 2:
            # Counter stream: the window's bits depend only on the
            # pattern indices it covers, never on draw history — the
            # over-draw-and-discard of the wide path is literally free.
            ones, zeros = stream_rails(
                input_ids, seed, result.batches * batch_size, count,
                circuit.net_count,
            )
        else:
            ones, zeros = random_pattern_rails(
                input_ids, rng, count, circuit.net_count
            )
        good, count = simulator.good_values_rails(ones, zeros, count)
        masks = simulator.detect_masks(good, count, result.remaining_faults)
        pairs = list(zip(result.remaining_faults, masks))
        stop = False
        kept_bits: List[int] = []
        for chunk in range(chunk_count):
            base = chunk * batch_size
            first_detector = [False] * batch_size
            survivors = []
            detected_here = 0
            for fault, mask in pairs:
                sub = (mask >> base) & batch_full
                if sub:
                    detected_here += 1
                    first_detector[(sub & -sub).bit_length() - 1] = True
                else:
                    survivors.append((fault, mask))
            result.batches += 1
            result.detected += detected_here
            pairs = survivors
            kept_bits.extend(
                base + bit for bit, keep in enumerate(first_detector) if keep
            )
            if detected_here < min_yield:
                stop = True
                break
            if not pairs:
                break
        # The kept first detectors of every replayed chunk, in chunk
        # then pattern order, leave packed form in one transpose.
        if kept_bits:
            result.patterns.extend(
                patterns_from_rails(input_ids, good.ones, count, kept_bits)
            )
        result.remaining_faults = [fault for fault, _ in pairs]
        if stop:
            break
    return result
