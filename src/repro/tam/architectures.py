"""Test access mechanism (TAM) architectures.

The related-work section of the paper surveys the architecture space
its analysis deliberately abstracts away: the Multiplexing, Daisychain
and Distribution architectures of Aerts & Marinissen (ITC 1998), and
bus-style hybrids.  This module implements the three canonical
architectures over the :mod:`repro.tam.wrapper_design` substrate so the
idle-bit ablation can measure what the abstraction costs.

All cores here are leaves of the TAM (hierarchical parents are handled
by the TDV model itself); a core that is not under test is disconnected
or bypassed, per the paper's stated assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence

from ..errors import ConfigError
from ..soc.model import Soc
from .types import CoreTestSpec, TamResult
from .wrapper_design import WrapperDesign, balanced_chain_lengths, design_wrapper


@dataclass
class ArchitectureResult(TamResult):
    """Test time and data-volume accounting for one architecture."""

    kind: ClassVar[str] = "architecture"

    architecture: str
    tam_width: int
    test_time_cycles: int
    useful_bits: int
    shifted_bits: int
    per_core_width: Dict[str, int]

    @property
    def idle_bits(self) -> int:
        return self.shifted_bits - self.useful_bits

    @property
    def idle_fraction(self) -> float:
        return self.idle_bits / self.shifted_bits if self.shifted_bits else 0.0

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["idle_bits"] = self.idle_bits
        record["idle_fraction"] = self.idle_fraction
        return record


def core_specs_from_soc(
    soc: Soc,
    scan_chains: Optional[Dict[str, List[int]]] = None,
    default_chain_count: int = 4,
) -> List[CoreTestSpec]:
    """Derive TAM-level core specs from an SOC description.

    Cores without an explicit chain partition get balanced chains (the
    paper's assumption).  The top core is excluded — its glue test has
    no internal scan and chip pins need no TAM.
    """
    scan_chains = scan_chains or {}
    specs = []
    for core in soc:
        if core.name == soc.top_name:
            continue
        chains = scan_chains.get(core.name)
        if chains is None:
            count = min(default_chain_count, core.scan_cells) or 1
            chains = balanced_chain_lengths(core.scan_cells, count)
        specs.append(
            CoreTestSpec(
                name=core.name,
                scan_chains=chains,
                input_cells=core.inputs + core.bidirs,
                output_cells=core.outputs + core.bidirs,
                patterns=core.patterns,
            )
        )
    return specs


def multiplexing_architecture(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> ArchitectureResult:
    """All cores on one full-width TAM, tested one after another."""
    total_time = 0
    useful = 0
    shifted = 0
    for spec in specs:
        total_time += spec.test_time_cycles(tam_width)
        useful += spec.patterns * spec.useful_bits_per_pattern
        shifted += spec.shifted_bits(tam_width)
    return ArchitectureResult(
        architecture="multiplexing",
        tam_width=tam_width,
        test_time_cycles=total_time,
        useful_bits=useful,
        shifted_bits=shifted,
        per_core_width={spec.name: tam_width for spec in specs},
    )


def daisychain_architecture(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> ArchitectureResult:
    """One TAM threaded through every core (TestRail-style, no bypass).

    All cores shift concurrently, so every load is as long as the *sum*
    of the per-core bottlenecks and the pattern count is the maximum
    over cores — the monolithic-like worst case that motivates core
    bypass/disconnect, which the paper assumes instead.
    """
    if not specs:
        raise ConfigError("no cores")
    designs = [_wrapper(spec, tam_width) for spec in specs]
    load_length = sum(max(d.max_scan_in, d.max_scan_out) for d in designs)
    max_patterns = max(spec.patterns for spec in specs)
    time = (1 + load_length) * max_patterns + load_length
    useful = sum(
        spec.patterns * design.useful_bits_per_pattern()
        for spec, design in zip(specs, designs)
    )
    shifted = max_patterns * tam_width * 2 * load_length
    return ArchitectureResult(
        architecture="daisychain",
        tam_width=tam_width,
        test_time_cycles=time,
        useful_bits=useful,
        shifted_bits=shifted,
        per_core_width={spec.name: tam_width for spec in specs},
    )


def distribution_architecture(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> ArchitectureResult:
    """Every core gets a private TAM slice; all cores test in parallel.

    Width assignment is the classic iterative refinement: start with one
    wire per core (requires ``tam_width >= len(specs)``), then repeatedly
    give a spare wire to the current bottleneck core.
    """
    if len(specs) > tam_width:
        raise ConfigError(
            f"distribution needs at least one wire per core "
            f"({len(specs)} cores, width {tam_width})"
        )
    widths = {spec.name: 1 for spec in specs}
    spare = tam_width - len(specs)
    times = {spec.name: spec.test_time_cycles(1) for spec in specs}
    by_name = {spec.name: spec for spec in specs}
    for _ in range(spare):
        bottleneck = max(times, key=times.__getitem__)
        widths[bottleneck] += 1
        times[bottleneck] = by_name[bottleneck].test_time_cycles(widths[bottleneck])
    useful = sum(spec.patterns * spec.useful_bits_per_pattern for spec in specs)
    shifted = sum(spec.shifted_bits(widths[spec.name]) for spec in specs)
    return ArchitectureResult(
        architecture="distribution",
        tam_width=tam_width,
        test_time_cycles=max(times.values()),
        useful_bits=useful,
        shifted_bits=shifted,
        per_core_width=widths,
    )


def _wrapper(spec: CoreTestSpec, width: int) -> WrapperDesign:
    return design_wrapper(
        spec.name, spec.scan_chains, spec.input_cells, spec.output_cells, width
    )


def compare_architectures(
    specs: Sequence[CoreTestSpec], tam_width: int
) -> List[ArchitectureResult]:
    """All three canonical architectures at one TAM width."""
    results = [
        multiplexing_architecture(specs, tam_width),
        daisychain_architecture(specs, tam_width),
    ]
    if len(specs) <= tam_width:
        results.append(distribution_architecture(specs, tam_width))
    return results
