"""Extension: the test-time vs test-data-volume trade-off.

The paper measures data volume only; the wider wrapper/TAM literature
optimizes time.  This bench charts both on d695 through the unified
co-optimization API (``design_space``, which replaced the removed
``time_volume_tradeoff``): test time falls with TAM width while delivered
volume rises — the projection the paper's useful-bits analysis makes
explicit — and the binpack portfolio never trails the greedy baseline.
"""

from repro.itc02 import load
from repro.tam import (
    TamProblem,
    cooptimize,
    design_space,
    pareto_front,
    pareto_widths,
)

try:
    from .common import run_once
except ImportError:  # running as a plain script, not a package
    from common import run_once


def test_bench_time_volume_tradeoff(benchmark):
    problem = TamProblem.from_soc(load("d695"), tam_width=32)
    results = run_once(
        benchmark, design_space, problem,
        [2, 4, 8, 16, 32], ("greedy",),
    )
    print("\nd695 time-volume trade-off (co-optimized schedules)")
    for result in results:
        print(f"  width {result.tam_width:2d}: makespan "
              f"{result.makespan:>10,} cycles, "
              f"delivered {result.delivered_bits:>10,} bits")
    times = [r.makespan for r in results]
    volumes = [r.delivered_bits for r in results]
    assert times == sorted(times, reverse=True)
    assert volumes == sorted(volumes)


def test_bench_scheduler_portfolio(benchmark):
    """Binpack vs greedy across the width grid: never worse, and the
    non-dominated front is what the `tam` experiment publishes."""
    problem = TamProblem.from_soc(load("d695"), tam_width=32)
    results = run_once(
        benchmark, design_space, problem, [4, 8, 16, 32]
    )
    by_width = {}
    for result in results:
        by_width.setdefault(result.tam_width, {})[result.scheduler] = result
    print("\nd695 scheduler portfolio (greedy vs binpack)")
    for width, pair in sorted(by_width.items()):
        greedy, packed = pair["greedy"], pair["binpack"]
        assert packed.makespan <= greedy.makespan
        print(f"  width {width:2d}: greedy {greedy.makespan:>9,} vs "
              f"binpack {packed.makespan:>9,} cycles "
              f"(idle {100 * packed.idle_fraction:4.1f}%)")
    front = pareto_front(results)
    assert front
    print(f"  Pareto front: {len(front)} of {len(results)} points survive")


def test_bench_pareto_staircase(benchmark):
    """Per-core Pareto widths: strictly improving staircases only."""
    problem = TamProblem.from_soc(load("d695"), tam_width=32)

    def all_fronts():
        return {core.name: pareto_widths(core, 32) for core in problem.cores}

    fronts = run_once(benchmark, all_fronts)
    print("\nd695 per-core Pareto-optimal TAM widths")
    for name, points in fronts.items():
        widths = [p.width for p in points]
        print(f"  {name:14s} useful widths: {widths}")
        times = [p.test_time_cycles for p in points]
        assert times == sorted(times, reverse=True)

    result = cooptimize(problem.at_width(16))
    result.schedule.verify()
    print(f"  co-optimized makespan at width 16: {result.makespan:,} cycles")
if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-q", *sys.argv[1:]]))
