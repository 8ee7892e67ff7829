"""Tests for the experiment modules (repro.experiments).

The heavyweight ATPG experiments (Tables 1-2) run on a small seed here;
the full-size runs live in benchmarks/.
"""

import pytest

from repro.experiments import (
    benchmark_series,
    compaction_demo,
    granularity_ablation,
    idle_bit_ablation,
    run_experiment,
    synthetic_series,
    table3,
    table4,
    verify_against_paper,
    wrapper_overhead_ablation,
)
from repro.experiments.cone_example import cone_example
from repro.itc02.paper_tables import (
    CONE_EXAMPLE_MODULAR_BITS,
    CONE_EXAMPLE_MONOLITHIC_BITS,
)


class TestConeExample:
    def test_paper_numbers_exact(self):
        assert verify_against_paper()

    def test_arithmetic(self):
        result = cone_example()
        assert result.monolithic_bits == CONE_EXAMPLE_MONOLITHIC_BITS
        assert result.modular_bits == CONE_EXAMPLE_MODULAR_BITS
        assert result.reduction_percent == pytest.approx(25.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            cone_example(flip_flops=[1, 2], patterns=[1, 2, 3])

    def test_custom_cones(self):
        result = cone_example(flip_flops=[10, 10], patterns=[100, 100])
        assert result.monolithic_bits == result.modular_bits  # no variation

    def test_compaction_demo_overlap_hurts(self):
        """Figure 1(b): overlapping cones compact worse than disjoint."""
        low = compaction_demo(0.0)
        high = compaction_demo(0.8)
        assert low.cone_overlap_fraction < high.cone_overlap_fraction
        assert low.conflict_excess <= high.conflict_excess
        assert high.merged_pattern_count >= high.max_cone_patterns


class TestItc02Tables:
    def test_table3_18_of_20_rows_exact(self):
        result = table3()
        assert len(result.matching_cores) == 18
        assert set(result.mismatching_cores) == {"0", "10"}

    def test_table3_total_within_two_permille(self):
        result = table3()
        assert result.computed_total == pytest.approx(28_538_030, rel=2e-3)

    def test_table4_covers_all_ten(self):
        results = table4()
        assert [r.soc.name for r in results] == [
            "d695", "h953", "f2126", "g1023", "g12710",
            "p22810", "p34392", "p93791", "t512505", "a586710",
        ]

    def test_table4_signs_match_paper(self):
        for result in table4():
            assert (result.modular_percent > 0) == (
                result.published.modular_percent > 0
            ), result.soc.name

    def test_table4_subset(self):
        results = table4(names=["d695"])
        assert len(results) == 1

    def test_render_does_not_crash(self):
        from repro.experiments.itc02_tables import render_table4

        text = render_table4(table4())
        assert "a586710" in text and "Average" in text


class TestCorrelation:
    def test_positive_and_strong(self):
        result = benchmark_series()
        assert result.pearson > 0.5

    def test_extremes_match_paper(self):
        low, high = benchmark_series().extremes()
        assert low == "g12710"
        assert high == "a586710"

    def test_synthetic_series_monotone_reduction(self):
        points = synthetic_series(spreads=(0.0, 1.0, 2.5))
        reductions = [
            -p.analysis.summary.modular_change_fraction for p in points
        ]
        assert reductions == sorted(reductions)


class TestAblations:
    def test_idle_bit_ablation_runs(self):
        ablation = idle_bit_ablation(tam_widths=(1, 4))
        assert len(ablation.reports) == 2
        assert ablation.conclusion_stable()  # narrow widths: stable

    def test_wrapper_overhead_monotone_penalty(self):
        points = wrapper_overhead_ablation(io_values=(8, 512))
        assert (points[0].analysis.summary.penalty_fraction
                < points[1].analysis.summary.penalty_fraction)

    def test_granularity_single_core_is_baseline(self):
        points = granularity_ablation(core_counts=(1, 8))
        single = points[0].analysis.summary
        # One monolithic core: no benefit, tiny wrapper penalty only.
        assert single.modular_change_fraction == pytest.approx(0.0, abs=0.02)


class TestRunner:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("nope")

    def test_cli_main_runs_cheap_experiment(self, capsys):
        from repro.cli import main

        assert main(["experiments", "cone-example"]) == 0
        out = capsys.readouterr().out
        assert "20,000" in out and "15,000" in out
