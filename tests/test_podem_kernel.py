"""Differential tests for the ATPG hot-path kernels.

Each optimized path is checked bit-for-bit against its reference
implementation on randomized circuits:

* :class:`ImplicationKernel` (incremental PODEM implication) against
  :meth:`Podem._imply` full sweeps, over random assign/undo walks and
  over complete searches;
* :func:`random_pattern_rails` (direct packed generation) against the
  per-pattern dict path, including the shared-RNG state contract, plus
  a pinned digest of one large draw;
* :func:`patterns_from_rails` against replayed :func:`random_pattern`;
* :meth:`FaultSimulator.detect_masks` (batched, with the fanout-free
  region fast path for fully specified batches) against single-fault
  :meth:`detect_mask`.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.atpg import (
    CompiledCircuit,
    Fault,
    FaultSimulator,
    Podem,
    PodemOutcome,
    collapse_faults,
    full_fault_universe,
)
from repro.atpg.logicsim import pack_patterns_flat
from repro.atpg.patterns import (
    patterns_from_rails,
    random_pattern,
    random_pattern_rails,
)
from repro.atpg.podem import ImplicationKernel, X
from repro.synth.generator import GeneratorSpec, generate_circuit


def make_circuit(seed, gates=160, inputs=9, outputs=5, flip_flops=6):
    net = generate_circuit(
        GeneratorSpec(
            name=f"podem_kernel_{seed}",
            inputs=inputs,
            outputs=outputs,
            flip_flops=flip_flops,
            target_gates=gates,
            seed=seed,
        )
    )
    return CompiledCircuit(net)


def assert_states_equal(kernel_state, reference_state, context):
    assert kernel_state.values == reference_state.values, context
    assert kernel_state.frontier == reference_state.frontier, context
    assert kernel_state.detected == reference_state.detected, context


class TestImplicationKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_assign_undo_walk_matches_reference(self, seed):
        """After every assign/undo the kernel equals a fresh full sweep."""
        circuit = make_circuit(seed)
        podem = Podem(circuit)
        kernel = ImplicationKernel(podem)
        rng = random.Random(100 + seed)
        faults = collapse_faults(circuit, full_fault_universe(circuit))
        inputs = list(circuit.input_ids)

        for fault in rng.sample(faults, 8):
            kernel.begin(fault, {})
            assignments = {}
            # (mark, dict snapshot) checkpoints for random undo.
            checkpoints = []
            for step in range(40):
                if checkpoints and rng.random() < 0.35:
                    mark, snapshot = checkpoints.pop(
                        rng.randrange(len(checkpoints))
                    )
                    # undo() only rewinds, so later checkpoints die with it.
                    checkpoints = [
                        (m, s) for m, s in checkpoints if m <= mark
                    ]
                    kernel.undo(mark)
                    assignments = snapshot
                else:
                    net_id = rng.choice(inputs)
                    if net_id in assignments:
                        continue
                    checkpoints.append((kernel.mark(), dict(assignments)))
                    value = rng.getrandbits(1)
                    assignments[net_id] = value
                    kernel.assign(net_id, value)
                reference = podem._imply(assignments, fault)
                assert_states_equal(
                    kernel.state(), reference,
                    (seed, fault, step, sorted(assignments.items())),
                )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_begin_without_assignments_matches_reference(self, seed):
        """The all-X fast path in begin() equals an actual empty sweep."""
        circuit = make_circuit(seed, gates=100)
        podem = Podem(circuit)
        kernel = ImplicationKernel(podem)
        for fault in collapse_faults(circuit, full_fault_universe(circuit))[:20]:
            kernel.begin(fault, {})
            reference = podem._imply({}, fault)
            assert reference.values == [X] * circuit.net_count
            assert_states_equal(kernel.state(), reference, fault)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_incremental_search_equals_reference_search(self, seed):
        """Full searches agree: outcome, pattern, backtracks, decisions."""
        circuit = make_circuit(seed, gates=140)
        incremental = Podem(circuit, incremental=True)
        reference = Podem(circuit, incremental=False)
        for fault in collapse_faults(circuit, full_fault_universe(circuit)):
            got = incremental.generate(fault)
            want = reference.generate(fault)
            context = fault.describe(circuit)
            assert got.outcome is want.outcome, context
            assert got.backtracks == want.backtracks, context
            assert got.decisions == want.decisions, context
            if want.outcome is PodemOutcome.DETECTED:
                assert got.pattern.assignments == want.pattern.assignments, context


class TestPackedRandomPatterns:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("count", [1, 17, 64])
    def test_rails_match_dict_path_and_rng_state(self, seed, count):
        circuit = make_circuit(seed, gates=80)
        rng_rails = random.Random(500 + seed)
        rng_dicts = random.Random(500 + seed)

        ones, zeros = random_pattern_rails(
            circuit.input_ids, rng_rails, count, circuit.net_count
        )
        patterns = [
            random_pattern(circuit.input_ids, rng_dicts) for _ in range(count)
        ]
        want_ones, want_zeros = pack_patterns_flat(
            circuit, [p.assignments for p in patterns]
        )
        assert ones == want_ones
        assert zeros == want_zeros
        # Both paths must consume the shared RNG identically, or mixing
        # them inside one run would shift every later draw.
        assert rng_rails.getstate() == rng_dicts.getstate()

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 256, 512])
    def test_bulk_draw_matches_dict_path_at_width(self, count):
        """Wide draws over 1,000 scattered inputs: rails and RNG state."""
        net_count = 1500
        input_ids = random.Random(count).sample(range(net_count), 1000)
        rng_rails = random.Random(3)
        rng_dicts = random.Random(3)
        ones, zeros = random_pattern_rails(input_ids, rng_rails, count, net_count)
        patterns = [random_pattern(input_ids, rng_dicts) for _ in range(count)]
        want = pack_patterns_flat(
            SimpleNamespace(net_count=net_count), [p.assignments for p in patterns]
        )
        assert (ones, zeros) == want
        assert rng_rails.getstate() == rng_dicts.getstate()

    def test_pinned_draw_digest(self):
        """One 512 x 1,488 draw at seed 3, pinned byte for byte.

        The bulk draw relies on CPython laying ``getrandbits`` words out
        least significant first, one 32-bit word per ``getrandbits(1)``.
        If that ever changes, this fails instead of Tables 1-2 silently
        changing.
        """
        input_ids = list(range(1488))
        rng = random.Random(3)
        ones, _ = random_pattern_rails(input_ids, rng, 512, len(input_ids))
        rails = b"".join(ones[n].to_bytes(64, "little") for n in input_ids)
        assert hashlib.sha256(rails).hexdigest() == (
            "dfb9402dc9ca4027135ede32ecfe661cc121f10861ea9d6f9fa86dc619d9a0d1"
        )
        assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
            "ca53314286dcad0efa00288c0665f08bddf31fce1d84a2cc8f45cb01f2a9da5e"
        )

    @pytest.mark.parametrize("count", [1, 23, 130])
    def test_patterns_from_rails_round_trip(self, count):
        circuit = make_circuit(7, gates=60)
        rng = random.Random(42)
        ones, _ = random_pattern_rails(
            circuit.input_ids, rng, count, circuit.net_count
        )
        rng_replay = random.Random(42)
        want = [random_pattern(circuit.input_ids, rng_replay) for _ in range(count)]
        bits = sorted(random.Random(count).sample(range(count), (count + 1) // 2))
        got = patterns_from_rails(circuit.input_ids, ones, count, bits)
        assert [p.assignments for p in got] == [want[b].assignments for b in bits]
        for pattern in got:
            assert list(pattern.assignments) == list(circuit.input_ids)
            assert all(type(v) is int for v in pattern.assignments.values())


class TestDetectMasksBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fully_specified_batch_matches_single_fault_path(self, seed):
        """The FFR fast path (fully specified batch) is exact."""
        circuit = make_circuit(seed)
        rng = random.Random(900 + seed)
        patterns = [
            {n: rng.getrandbits(1) for n in circuit.input_ids}
            for _ in range(48)
        ]
        simulator = FaultSimulator(circuit)
        good, count = simulator.good_values(patterns)
        faults = full_fault_universe(circuit)
        masks = simulator.detect_masks(good, count, faults)
        for fault, mask in zip(faults, masks):
            assert mask == simulator.detect_mask(good, count, fault), (
                fault.describe(circuit)
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_partial_batch_matches_single_fault_path(self, seed):
        """Batches with X bits take the event path; still identical."""
        circuit = make_circuit(seed, gates=120)
        rng = random.Random(1100 + seed)
        patterns = [
            {
                n: rng.choice((0, 1, None))
                for n in circuit.input_ids
            }
            for _ in range(32)
        ]
        simulator = FaultSimulator(circuit)
        good, count = simulator.good_values(patterns)
        faults = full_fault_universe(circuit)
        masks = simulator.detect_masks(good, count, faults)
        for fault, mask in zip(faults, masks):
            assert mask == simulator.detect_mask(good, count, fault), (
                fault.describe(circuit)
            )
