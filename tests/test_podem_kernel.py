"""Differential tests for the ATPG hot-path kernels.

Each optimized path is checked bit-for-bit against its reference
implementation on randomized circuits:

* :class:`ImplicationKernel` (incremental PODEM implication) against
  :meth:`Podem._imply` full sweeps, over random assign/undo walks and
  over complete searches;
* :func:`random_pattern_rails` (direct packed generation) against the
  per-pattern dict path, including the shared-RNG state contract;
* :meth:`FaultSimulator.detect_masks` (batched, with the fanout-free
  region fast path for fully specified batches) against single-fault
  :meth:`detect_mask`.
"""

import random

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
from repro.atpg.faultsim import SIM_STATS, reset_sim_stats
from repro.atpg.logicsim import pack_patterns_flat
from repro.atpg.patterns import (
    pattern_from_rails,
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

    def test_pattern_from_rails_round_trip(self):
        circuit = make_circuit(7, gates=60)
        rng = random.Random(42)
        count = 23
        ones, _ = random_pattern_rails(
            circuit.input_ids, rng, count, circuit.net_count
        )
        rng_replay = random.Random(42)
        for bit in range(count):
            want = random_pattern(circuit.input_ids, rng_replay)
            got = pattern_from_rails(circuit.input_ids, ones, bit)
            assert got.assignments == want.assignments


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

    def test_good_value_cache_hit_on_replayed_batch(self):
        circuit = make_circuit(5, gates=80)
        rng = random.Random(77)
        patterns = [
            {n: rng.getrandbits(1) for n in circuit.input_ids}
            for _ in range(16)
        ]
        simulator = FaultSimulator(circuit)
        reset_sim_stats()
        first, count1 = simulator.good_values(patterns)
        hits_after_first = SIM_STATS["good_cache_hits"]
        second, count2 = simulator.good_values(patterns)
        assert SIM_STATS["good_cache_hits"] == hits_after_first + 1
        assert count1 == count2
        assert first is second

