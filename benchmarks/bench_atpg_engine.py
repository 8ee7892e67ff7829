"""Substrate quality bench: the ATPG engine itself.

Not a paper artifact — this tracks the ATPG stack's behaviour across
circuit sizes, so regressions in coverage, compaction or speed show up
where the table benches would only show mysterious pattern-count
drifts.  Each run also reports kernel throughput (patterns per second
and faults simulated per second) plus a per-phase wall-time breakdown
(random / PODEM / verify seconds, from the engine's tracer spans) and
appends a machine-readable record to ``BENCH_atpg_current.json`` for
CI to publish and gate against the committed ``BENCH_atpg.json``.

Two timing protocols, named by each record's ``throughput_basis``:

* ``cold`` (the stream-1 entries) — one ``generate_tests(netlist)``
  call including circuit compilation and fault collapsing, as a fresh
  caller would pay it.
* ``warm_generate`` (the stream-2 entries) — the circuit is compiled,
  the fault list collapsed and one untimed run made *outside* the
  timed region.  That is the cost population-scale sweeps actually
  pay per run (they reuse compiled circuits), and it is the basis the
  stream-2 throughput targets are stated against.
"""

import pytest

from repro.atpg import CompiledCircuit, collapse_faults, fault_coverage, generate_tests

try:
    from .common import record_bench, run_timed, warm_backend
except ImportError:  # running as a plain script, not a package
    from common import record_bench, run_timed, warm_backend

from repro.synth import GeneratorSpec, generate_circuit

SIZES = [
    ("small", 120, 12, 6, 10),
    ("medium", 500, 24, 12, 48),
    ("large", 1500, 32, 24, 160),
]

#: Engine phase spans exported into each record as ``<name>_seconds``.
PHASE_FIELDS = (("random_phase", "random_seconds"),
                ("podem", "podem_seconds"),
                ("verify", "verify_seconds"))


def _scale_netlist(label, gates, inputs, outputs, ffs):
    return generate_circuit(
        GeneratorSpec(name=f"scale_{label}", inputs=inputs, outputs=outputs,
                      flip_flops=ffs, target_gates=gates, seed=19)
    )


def _throughput(result, seconds, stats):
    """(patterns/s, faults simulated/s) guarded against zero time."""
    elapsed = max(seconds, 1e-9)
    return (
        result.pattern_count / elapsed,
        stats["detect_calls"] / elapsed,
    )


def _entry(netlist, result, seconds, stats, phases, basis):
    patterns_per_s, faults_per_s = _throughput(result, seconds, stats)
    seconds_field = "cold_seconds" if basis == "cold" else "generate_seconds"
    entry = {
        "gates": len(netlist.gates),
        seconds_field: round(seconds, 4),
        "patterns": result.pattern_count,
        "fault_coverage": round(result.fault_coverage, 6),
        "patterns_per_second": round(patterns_per_s, 1),
        "faults_simulated_per_second": round(faults_per_s, 1),
        "backend": warm_backend(),
        "blocks_evaluated": stats["blocks_evaluated"],
        "throughput_basis": basis,
    }
    for span, field in PHASE_FIELDS:
        entry[field] = round(phases.get(span, 0.0), 4)
    return entry


def _report(label, netlist, result, seconds, entry):
    print(f"\n{label}: {len(netlist.gates)} gates -> "
          f"{result.pattern_count} patterns, "
          f"{100 * result.fault_coverage:.2f}% coverage, "
          f"{len(result.aborted)} aborted; "
          f"{seconds:.3f}s ({entry['throughput_basis']}), "
          f"{entry['patterns_per_second']:.0f} patterns/s "
          f"[random {entry['random_seconds']:.3f}s, "
          f"podem {entry['podem_seconds']:.3f}s, "
          f"verify {entry['verify_seconds']:.3f}s]")


def _verify_claimed_coverage(netlist, result):
    circuit = CompiledCircuit(netlist)
    verified = fault_coverage(
        circuit, result.test_set.as_trit_dicts(circuit), collapse_faults(circuit)
    )
    assert verified == pytest.approx(result.fault_coverage)


@pytest.mark.parametrize("label,gates,inputs,outputs,ffs", SIZES)
def test_bench_atpg_scaling(benchmark, label, gates, inputs, outputs, ffs):
    netlist = _scale_netlist(label, gates, inputs, outputs, ffs)
    result, seconds, stats, phases = run_timed(
        benchmark, generate_tests, netlist, 19
    )
    entry = _entry(netlist, result, seconds, stats, phases, "cold")
    _report(label, netlist, result, seconds, entry)
    record_bench(label, entry)
    # Quality gates: full testable coverage, no aborts at this size.
    assert result.testable_coverage == 1.0
    assert not result.aborted
    # Claimed coverage must match an independent re-simulation.
    _verify_claimed_coverage(netlist, result)


@pytest.mark.parametrize("label,gates,inputs,outputs,ffs", SIZES)
def test_bench_atpg_stream2(benchmark, label, gates, inputs, outputs, ffs):
    """The counter-based epoch, timed on the warm-generate basis."""
    netlist = _scale_netlist(label, gates, inputs, outputs, ffs)
    circuit = CompiledCircuit(netlist)
    faults = collapse_faults(circuit)
    # One untimed run warms the per-circuit memoizations (PODEM
    # tables, FFR views, the numpy backend's array plan) the
    # warm-generate basis is defined to exclude.
    generate_tests(netlist, 19, stream=2, circuit=circuit, faults=faults)
    result, seconds, stats, phases = run_timed(
        benchmark, generate_tests, netlist, 19,
        stream=2, circuit=circuit, faults=faults,
    )
    entry = _entry(netlist, result, seconds, stats, phases, "warm_generate")
    entry["stream"] = 2
    _report(f"{label}_stream2", netlist, result, seconds, entry)
    record_bench(f"{label}_stream2", entry)
    assert result.testable_coverage == 1.0
    assert not result.aborted
    _verify_claimed_coverage(netlist, result)
    # The epoch must never trade coverage away: equal-or-better than
    # stream 1 on every committed bench circuit.
    stream1 = generate_tests(netlist, 19, circuit=circuit, faults=faults)
    assert result.fault_coverage >= stream1.fault_coverage


def test_bench_monolithic_soc1_atpg(benchmark):
    """The heaviest single ATPG call in the reproduction, timed alone."""
    from repro.synth import elaborate, soc1_design

    design = elaborate(soc1_design(), seed=3)
    result, seconds, stats, phases = run_timed(
        benchmark, generate_tests, design.monolithic, 3
    )
    entry = _entry(design.monolithic, result, seconds, stats, phases, "cold")
    _report("soc1_monolithic", design.monolithic, result, seconds, entry)
    record_bench("soc1_monolithic", entry)
    assert result.fault_coverage > 0.98
    # Coverage parity of the counter-based epoch on the SOC too.
    stream2 = generate_tests(design.monolithic, 3, stream=2)
    assert stream2.fault_coverage >= result.fault_coverage


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-q", *sys.argv[1:]]))
