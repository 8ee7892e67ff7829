"""Differential suite for the kernel backend registry.

Every backend must be bit-identical to ``pure``: detect masks, pattern
counts, coverage, cache fingerprints.  These tests enforce that with
randomized circuits over every opcode, packed widths 1/2/8 lanes,
partial and full batches, both the FFR fast path and the event-driven
fallback, plus the degradation contract (NumPy absent).
"""

import random

import pytest

from repro.atpg.backends import (
    BACKEND_CHOICES,
    BACKEND_ENV,
    NO_NUMPY_ENV,
    numpy_available,
    resolve_backend,
)
from repro.atpg.compiled import CompiledCircuit
from repro.atpg.engine import _PatternBlock, generate_n_detect_tests, generate_tests
from repro.atpg.faults import Fault, collapse_faults, full_fault_universe
from repro.atpg.faultsim import (
    FaultSimulator,
    SIM_STATS,
    reset_sim_stats,
)
from repro.atpg.logicsim import (
    pack_full_patterns_flat,
    pack_patterns_flat,
    simulate_flat,
    simulate_flat_sparse,
)
from repro.atpg.patterns import random_pattern_rails
from repro.atpg.podem import Podem, PodemOutcome
from repro.errors import ConfigError
from repro.runtime.config import AtpgConfig
from repro.synth import GeneratorSpec, generate_circuit

HAS_NUMPY = numpy_available()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
BACKENDS = ["pure", pytest.param("numpy", marks=needs_numpy)]


def _circuit(seed=0, gates=400, inputs=16, xor_fraction=0.25):
    """A mixed-opcode circuit (AND/OR/NAND/NOR/NOT/BUF plus XOR/XNOR)."""
    spec = GeneratorSpec(
        name=f"bk{seed}", inputs=inputs, outputs=12, flip_flops=24,
        target_gates=gates, seed=seed, xor_fraction=xor_fraction,
    )
    return generate_circuit(spec)


def _full_batch(circuit, seed, count):
    """An X-free packed batch of ``count`` random patterns."""
    rng = random.Random(seed)
    ones, zeros = random_pattern_rails(
        circuit.input_ids, rng, count, circuit.net_count
    )
    return ones, zeros


def _partial_batch(circuit, seed, count):
    """A packed batch where every pattern leaves some inputs at X."""
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        k = rng.randrange(0, len(circuit.input_ids))
        chosen = rng.sample(list(circuit.input_ids), k)
        patterns.append({n: rng.getrandbits(1) for n in chosen})
    return pack_patterns_flat(circuit, patterns)


# -- registry and resolution ---------------------------------------------


def test_resolve_default_is_auto(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    backend = resolve_backend()
    # Re-check availability after clearing the env: the module-level
    # HAS_NUMPY snapshot bakes in REPRO_NO_NUMPY from the outer process.
    assert backend.name == ("numpy" if numpy_available() else "pure")


def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    assert resolve_backend("pure").name == "pure"


def test_resolve_env_applies_when_unspecified(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "pure")
    assert resolve_backend().name == "pure"
    assert resolve_backend(None).name == "pure"
    assert resolve_backend("").name == "pure"


def test_no_numpy_masks_numpy(monkeypatch):
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    assert not numpy_available()
    assert resolve_backend("auto").name == "pure"
    # Even an explicit request degrades gracefully — bit-identical
    # results make that safe.
    assert resolve_backend("numpy").name == "pure"


def test_resolve_unknown_backend_raises():
    with pytest.raises(ConfigError):
        resolve_backend("fortran")


def test_backends_are_singletons():
    assert resolve_backend("pure") is resolve_backend("pure")


def test_compiled_circuit_carries_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    netlist = _circuit(0)
    pure = CompiledCircuit(netlist, backend="pure")
    assert pure.backend_name == "pure"
    assert pure.block_lanes == 1
    if HAS_NUMPY:
        fast = CompiledCircuit(netlist, backend="numpy")
        assert fast.backend_name == "numpy"
        assert fast.block_lanes >= 1


# -- config plumbing ------------------------------------------------------


def test_config_backend_round_trip():
    config = AtpgConfig(backend="pure")
    assert AtpgConfig.from_dict(config.to_dict()) == config
    assert AtpgConfig.from_dict(AtpgConfig().to_dict()).backend is None


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError):
        AtpgConfig(backend="fortran")


def test_fingerprint_is_backend_invariant():
    base = AtpgConfig()
    for name in BACKEND_CHOICES:
        assert AtpgConfig(backend=name).fingerprint() == base.fingerprint()
    # ...but still sensitive to real identity fields.
    assert AtpgConfig(seed=7).fingerprint() != base.fingerprint()


# -- kernel differentials -------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("lanes", [1, 2, 8])
@pytest.mark.parametrize("seed", [0, 3])
def test_detect_masks_bit_identity_full_batches(monkeypatch, lanes, seed):
    """FFR fast path: numpy == pure for X-free batches at every width."""
    from repro.atpg.backends import numpy_backend

    monkeypatch.setattr(numpy_backend, "FFR_MIN_FAULTS", 1)
    netlist = _circuit(seed)
    pure = CompiledCircuit(netlist, backend="pure")
    fast = CompiledCircuit(netlist, backend="numpy")
    faults = collapse_faults(pure)
    for count in (64 * lanes, 64 * lanes - 7, 1, 2):
        ones, zeros = _full_batch(pure, seed + count, count)
        good_pure, _ = FaultSimulator(pure).good_values_rails(
            list(ones), list(zeros), count
        )
        good_fast, _ = FaultSimulator(fast).good_values_rails(
            list(ones), list(zeros), count
        )
        masks_pure = FaultSimulator(pure).detect_masks(good_pure, count, faults)
        masks_fast = FaultSimulator(fast).detect_masks(good_fast, count, faults)
        assert masks_pure == masks_fast


@needs_numpy
@pytest.mark.parametrize("seed", [1, 4])
def test_detect_masks_bit_identity_partial_batches(seed):
    """Partial (X-bearing) batches route both backends to the event path."""
    netlist = _circuit(seed)
    pure = CompiledCircuit(netlist, backend="pure")
    fast = CompiledCircuit(netlist, backend="numpy")
    faults = collapse_faults(pure)
    for count in (1, 2, 8, 64):
        ones, zeros = _partial_batch(pure, seed + count, count)
        sim_pure, sim_fast = FaultSimulator(pure), FaultSimulator(fast)
        good_pure, _ = sim_pure.good_values_rails(list(ones), list(zeros), count)
        good_fast, _ = sim_fast.good_values_rails(list(ones), list(zeros), count)
        assert sim_pure.detect_masks(good_pure, count, faults) == \
            sim_fast.detect_masks(good_fast, count, faults)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 2])
def test_lane_simulate_matches_simulate_flat(seed):
    """The numpy level-dispatched simulator matches the flat sweep, X included."""
    from repro.atpg.backends.numpy_backend import (
        NumpyBackend,
        rails_to_words,
        words_to_rails,
    )

    netlist = _circuit(seed, xor_fraction=0.4)
    circuit = CompiledCircuit(netlist, backend="numpy")
    for count in (64, 130, 512):
        ones, zeros = _partial_batch(circuit, seed + count, count)
        ref_ones, ref_zeros = list(ones), list(zeros)
        simulate_flat(circuit, ref_ones, ref_zeros, count)
        words = -(-count // 64)
        # frombuffer views are read-only; lane_simulate writes in place.
        ones_w = rails_to_words(ones, words).copy()
        zeros_w = rails_to_words(zeros, words).copy()
        NumpyBackend().lane_simulate(circuit, ones_w, zeros_w)
        full = (1 << count) - 1
        assert [v & full for v in words_to_rails(ones_w)] == ref_ones
        assert [v & full for v in words_to_rails(zeros_w)] == ref_zeros


def test_sparse_simulate_matches_full_sweep():
    """Event-driven sparse sim == full sweep on partial patterns."""
    netlist = _circuit(5, xor_fraction=0.3)
    circuit = CompiledCircuit(netlist, backend="pure")
    rng = random.Random(5)
    for _ in range(20):
        count = rng.choice([1, 1, 2, 5])
        ones, zeros = _partial_batch(circuit, rng.getrandbits(30), count)
        ref_ones, ref_zeros = list(ones), list(zeros)
        simulate_flat(circuit, ref_ones, ref_zeros, count)
        simulate_flat_sparse(circuit, ones, zeros, count)
        assert ones == ref_ones
        assert zeros == ref_zeros


def test_pack_full_patterns_matches_general_packer():
    netlist = _circuit(6)
    circuit = CompiledCircuit(netlist, backend="pure")
    rng = random.Random(6)
    patterns = [
        {n: rng.getrandbits(1) for n in circuit.input_ids} for _ in range(37)
    ]
    assert pack_full_patterns_flat(circuit, patterns) == \
        pack_patterns_flat(circuit, patterns)


def test_pack_full_patterns_any_key_order_and_missing_input():
    """The byte-transpose packer reads inputs in ``input_ids`` order,
    whatever order the dict lists them in, and rejects a missing one."""
    circuit = CompiledCircuit(_circuit(16), backend="pure")
    rng = random.Random(16)
    patterns = []
    for _ in range(70):
        input_ids = list(circuit.input_ids)
        rng.shuffle(input_ids)
        patterns.append({n: rng.getrandbits(1) for n in input_ids})
    assert pack_full_patterns_flat(circuit, patterns) == \
        pack_patterns_flat(circuit, patterns)
    assert pack_full_patterns_flat(circuit, []) == pack_patterns_flat(circuit, [])
    del patterns[5][circuit.input_ids[3]]
    with pytest.raises(KeyError):
        pack_full_patterns_flat(circuit, patterns)


def _podem_patterns(circuit, limit):
    """Up to ``limit`` real (partial) PODEM patterns for ``circuit``."""
    podem = Podem(circuit, backtrack_limit=50)
    patterns = []
    for fault in collapse_faults(circuit):
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            patterns.append(result.pattern)
            if len(patterns) == limit:
                break
    return patterns


def test_sparse_simulate_reports_touched_nets():
    """``touched`` lists exactly the non-input nets the sweep left non-X."""
    circuit = CompiledCircuit(_circuit(17, xor_fraction=0.3), backend="pure")
    inputs = set(circuit.input_ids)
    for pattern in _podem_patterns(circuit, 20):
        ones, zeros = pack_patterns_flat(circuit, [pattern.assignments])
        touched = []
        simulate_flat_sparse(circuit, ones, zeros, 1, touched)
        assert len(touched) == len(set(touched))
        assert set(touched) == {
            n for n in range(circuit.net_count)
            if n not in inputs and (ones[n] or zeros[n])
        }


@pytest.mark.parametrize("backend", BACKENDS)
def test_pattern_block_touched_merge_matches_full_width_merge(backend):
    """The block merges care bits plus touched nets only; the result
    equals OR-merging full-sweep rails over every net."""
    circuit = CompiledCircuit(_circuit(18, xor_fraction=0.3), backend=backend)
    patterns = _podem_patterns(circuit, 40)
    assert len(patterns) == 40
    block = _PatternBlock(FaultSimulator(circuit))
    want_ones = [0] * circuit.net_count
    want_zeros = [0] * circuit.net_count
    for shift, pattern in enumerate(patterns):
        block.add(pattern)
        ones, zeros = pack_patterns_flat(circuit, [pattern.assignments])
        simulate_flat(circuit, ones, zeros, 1)
        for net_id in range(circuit.net_count):
            want_ones[net_id] |= ones[net_id] << shift
            want_zeros[net_id] |= zeros[net_id] << shift
    assert block.count == len(patterns)
    assert block.ones == want_ones
    assert block.zeros == want_zeros


def test_collapse_universe_fast_path_matches_generic():
    for seed in (0, 1, 2):
        netlist = _circuit(seed, xor_fraction=0.3)
        circuit = CompiledCircuit(netlist, backend="pure")
        assert collapse_faults(circuit) == \
            collapse_faults(circuit, full_fault_universe(circuit))


# -- end-to-end equality --------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("lanes", [1, 2, 8])
def test_generate_tests_backend_equality(monkeypatch, lanes):
    """Full ATPG runs are pattern-for-pattern identical at any lane width."""
    from repro.atpg.backends.numpy_backend import NumpyBackend

    monkeypatch.setattr(
        NumpyBackend, "lanes_for", lambda self, circuit: lanes
    )
    netlist = _circuit(7, gates=500, inputs=20)
    reference = generate_tests(netlist, 7, config=AtpgConfig(seed=7, backend="pure"))
    fast = generate_tests(netlist, 7, config=AtpgConfig(seed=7, backend="numpy"))
    assert [p.assignments for p in fast.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert fast.fault_coverage == reference.fault_coverage
    assert fast.detected_count == reference.detected_count
    assert fast.untestable == reference.untestable


@needs_numpy
def test_n_detect_backend_equality():
    netlist = _circuit(8, gates=300)
    reference = generate_n_detect_tests(
        netlist, n_detect=2, config=AtpgConfig(seed=8, backend="pure")
    )
    fast = generate_n_detect_tests(
        netlist, n_detect=2, config=AtpgConfig(seed=8, backend="numpy")
    )
    assert [p.assignments for p in fast.test_set.patterns] == \
        [p.assignments for p in reference.test_set.patterns]
    assert fast.fault_coverage == reference.fault_coverage


# -- observability --------------------------------------------------------


def test_kernel_counters_accrue():
    netlist = _circuit(10)
    reset_sim_stats()
    generate_tests(netlist, 10)
    assert SIM_STATS["blocks_evaluated"] > 0


def test_traced_run_reports_backend():
    from repro.observability import Tracer, use_tracer

    netlist = _circuit(11, gates=200)
    tracer = Tracer()
    with use_tracer(tracer):
        generate_tests(netlist, 11)
    backend = resolve_backend().name
    assert tracer.counters.get(f"kernel.backend.{backend}") == 1
    assert tracer.counters.get("kernel.blocks_evaluated", 0) > 0
