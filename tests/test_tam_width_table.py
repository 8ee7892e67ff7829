"""The per-core width table behind every TAM cost query.

:class:`~repro.tam.types.CoreTestSpec` fills one table of test times
and shift lengths lazily, up to the widest width asked for, and keeps
the Pareto staircase derived from it.  These tests hold the table to
the materialized wrapper (:func:`~repro.tam.design_wrapper`) for every
ITC'02 core under three chain assumptions and one synthetic population
SOC, and the staircase to a from-scratch enumeration.
"""

import dataclasses
import pickle

import pytest

from repro.core.sweep import synthetic_soc
from repro.errors import ConfigError
from repro.itc02 import BENCHMARK_NAMES, load
from repro.synth.population import population_spec
from repro.tam import (
    CoreTestSpec,
    ParetoPoint,
    core_specs_from_soc,
    design_wrapper,
    pareto_widths,
    wrapper_bottlenecks,
)

MAX_WIDTH = 64
CHAIN_COUNTS = (1, 4, 16)


def _population_soc():
    point = next(iter(population_spec(1, seed=5).points()))
    params = point.params
    return synthetic_soc(
        name="syn0",
        core_count=int(params["core_count"]),
        mean_patterns=max(1, round(params["mean_patterns"])),
        pattern_spread=params["pattern_spread"],
        scan_cells_per_core=max(1, round(params["scan_cells_per_core"])),
        io_per_core=max(2, round(params["io_per_core"])),
        seed=point.seed,
        core_seed_streams=True,
    )


SOC_NAMES = tuple(BENCHMARK_NAMES) + ("population",)


def _specs(soc_name: str):
    soc = _population_soc() if soc_name == "population" else load(soc_name)
    return [
        spec
        for chains in CHAIN_COUNTS
        for spec in core_specs_from_soc(soc, default_chain_count=chains)
    ]


def _fresh(spec: CoreTestSpec) -> CoreTestSpec:
    """An equal spec with an empty table (``replace`` never copies it)."""
    return dataclasses.replace(spec)


def _staircase_from_scratch(times, max_width: int):
    """The Pareto scan over ``times[:max_width]`` (``times[w - 1]`` is
    the test time at ``w`` wires), with no state carried between widths."""
    points, best = [], None
    for width in range(1, max_width + 1):
        time = times[width - 1]
        if best is None or time < best:
            points.append(ParetoPoint(width=width, test_time_cycles=time))
            best = time
    return points


def _times_from_bottlenecks(spec: CoreTestSpec, max_width: int):
    times = []
    for width in range(1, max_width + 1):
        si, so = wrapper_bottlenecks(
            spec.scan_chains, spec.input_cells, spec.output_cells, width
        )
        times.append((1 + max(si, so)) * spec.patterns + min(si, so))
    return times


def test_population_soc_has_cores():
    assert _population_soc().name == "syn0"
    assert _specs("population")


@pytest.mark.parametrize("soc_name", SOC_NAMES)
def test_table_matches_materialized_wrapper(soc_name):
    # Cores with the same chains and cells share one wrapper per width;
    # the pattern count only scales the costs.
    designs = {}
    for spec in _specs(soc_name):
        shape = (tuple(spec.scan_chains), spec.input_cells, spec.output_cells)
        if shape not in designs:
            designs[shape] = [
                design_wrapper(spec.name, *shape, width)
                for width in range(1, MAX_WIDTH + 1)
            ]
        for width, design in enumerate(designs[shape], start=1):
            assert spec.test_time_cycles(width) == design.test_time_cycles(
                spec.patterns
            ), (spec.name, width)
            assert spec.shifted_bits(width) == (
                spec.patterns * design.shifted_bits_per_pattern()
            ), (spec.name, width)


@pytest.mark.parametrize("soc_name", SOC_NAMES)
def test_staircase_is_a_prefix_in_any_query_order(soc_name):
    for spec in _specs(soc_name):
        times = _times_from_bottlenecks(spec, MAX_WIDTH)
        expected = {
            width: _staircase_from_scratch(times, width)
            for width in range(1, MAX_WIDTH + 1)
        }
        # Descending, then ascending, on the same spec: the first query
        # fills the table to MAX_WIDTH and the rest read prefixes.  Then
        # ascending, then descending, on a fresh spec: the table grows
        # one width per query before the prefixes are read back.
        down, up = range(MAX_WIDTH, 0, -1), range(1, MAX_WIDTH + 1)
        for probe, orders in ((spec, (down, up)), (_fresh(spec), (up, down))):
            for order in orders:
                for width in order:
                    assert pareto_widths(probe, width) == expected[width], (
                        spec.name, width,
                    )


def test_prefix_is_a_copy():
    spec = CoreTestSpec("x", [40, 30, 20, 10], 12, 8, patterns=50)
    points = pareto_widths(spec, 8)
    points.clear()
    times = _times_from_bottlenecks(spec, 8)
    assert pareto_widths(spec, 8) == _staircase_from_scratch(times, 8)


@pytest.mark.parametrize("width", [0, -1, -64])
def test_width_below_one_raises(width):
    spec = CoreTestSpec("x", [40, 30], 5, 5, patterns=10)
    spec.test_time_cycles(16)  # a filled table must not wrap around
    with pytest.raises(ConfigError, match="tam_width must be >= 1"):
        spec.test_time_cycles(width)
    with pytest.raises(ConfigError, match="tam_width must be >= 1"):
        spec.shifted_bits(width)
    with pytest.raises(ConfigError, match="max_width must be >= 1"):
        pareto_widths(spec, width)


def test_equality_hash_and_repr_ignore_the_table():
    filled = CoreTestSpec("x", (40, 30, 20), 5, 7, patterns=10)
    empty = CoreTestSpec("x", (40, 30, 20), 5, 7, patterns=10)
    before = repr(filled)
    pareto_widths(filled, MAX_WIDTH)
    assert filled == empty
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty) == before
    assert "_table" not in repr(filled)
    assert filled != CoreTestSpec("x", (40, 30, 20), 5, 7, patterns=11)


def test_table_survives_pickling():
    spec = CoreTestSpec("x", [40, 30, 20], 5, 7, patterns=10)
    staircase = pareto_widths(spec, 24)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert pareto_widths(clone, 24) == staircase
    assert pareto_widths(clone, 40) == pareto_widths(_fresh(spec), 40)
