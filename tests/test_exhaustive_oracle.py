"""Exhaustive-simulation oracle for the whole ATPG flow.

On generated circuits with at most 12 (pseudo-)primary inputs every
input vector can be simulated, so the engine's claims can be checked
rather than trusted:

* every fault reported untestable is redundant (no vector detects it);
* every fault counted as detected is detected by the final compacted,
  filled test set, and that set detects every testable fault;
* no fault is left aborted.

The oracle runs on the ``pure`` backend's single-fault event kernel
(:meth:`FaultSimulator.detect_mask`), not on the batched fast paths the
engine itself uses, and the engine runs on both backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import CompiledCircuit, FaultSimulator, collapse_faults
from repro.atpg.backends import numpy_available
from repro.atpg.engine import generate_tests
from repro.atpg.logicsim import pack_patterns_flat
from repro.runtime.config import AtpgConfig
from repro.synth import GeneratorSpec, generate_circuit

MAX_INPUTS = 12
# PODEM makes at most one decision per input per search path, so this
# many backtracks always finishes the search on <= 12 inputs: an abort
# here would be a lost fault, not a hard one.
COMPLETE_BACKTRACK_LIMIT = 1 << (MAX_INPUTS + 1)

BACKENDS = [
    "pure",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="NumPy not installed"),
    ),
]


@st.composite
def small_circuits(draw):
    width = draw(st.integers(min_value=4, max_value=MAX_INPUTS))
    flip_flops = draw(st.integers(min_value=0, max_value=min(4, width - 1)))
    spec = GeneratorSpec(
        name="oracle",
        inputs=width - flip_flops,
        outputs=draw(st.integers(min_value=1, max_value=4)),
        flip_flops=flip_flops,
        target_gates=draw(st.integers(min_value=10, max_value=120)),
        overlap=draw(st.sampled_from([0.0, 0.5, 1.0])),
        xor_fraction=draw(st.sampled_from([0.0, 0.1, 0.4])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return generate_circuit(spec)


def _exhaustive_rails(circuit):
    """Packed rails of all ``2 ** n`` input vectors (vector k sets input
    j to bit j of k)."""
    count = 1 << len(circuit.input_ids)
    ones = [0] * circuit.net_count
    zeros = [0] * circuit.net_count
    full = (1 << count) - 1
    for j, net_id in enumerate(circuit.input_ids):
        ones[net_id] = sum(1 << k for k in range(count) if k >> j & 1)
        zeros[net_id] = ones[net_id] ^ full
    return ones, zeros, count


def _detected(circuit, faults, ones, zeros, count):
    simulator = FaultSimulator(circuit)
    good, count = simulator.good_values_rails(ones, zeros, count)
    return {fault for fault in faults if simulator.detect_mask(good, count, fault)}


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    netlist=small_circuits(),
    seed=st.integers(min_value=0, max_value=1_000),
    dynamic_compaction=st.sampled_from([0, 4]),
)
def test_atpg_claims_hold_under_exhaustive_simulation(
    backend, netlist, seed, dynamic_compaction
):
    oracle = CompiledCircuit(netlist, backend="pure")
    assert len(oracle.input_ids) <= MAX_INPUTS
    faults = collapse_faults(oracle)
    testable = _detected(oracle, faults, *_exhaustive_rails(oracle))

    result = generate_tests(
        netlist,
        config=AtpgConfig(
            seed=seed,
            backtrack_limit=COMPLETE_BACKTRACK_LIMIT,
            dynamic_compaction=dynamic_compaction,
            backend=backend,
        ),
    )
    assert result.fault_count == len(faults)
    assert result.aborted == []
    assert not set(result.untestable) & testable

    patterns = [p.assignments for p in result.test_set.patterns]
    assert all(len(p) == len(oracle.input_ids) for p in patterns)
    ones, zeros = pack_patterns_flat(oracle, patterns)
    covered = _detected(oracle, faults, ones, zeros, len(patterns))
    assert len(covered) == result.detected_count
    assert covered == testable
