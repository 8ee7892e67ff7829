"""Unit tests for wrapper scan-chain design (repro.tam.wrapper_design)."""

import pytest

from repro.tam import balanced_chain_lengths, design_wrapper


class TestDesignWrapper:
    def test_all_scan_chains_placed(self):
        design = design_wrapper("c", [30, 20, 10, 5], 12, 8, tam_width=3)
        placed = sorted(
            length for chain in design.chains for length in chain.scan_chains
        )
        assert placed == [5, 10, 20, 30]

    def test_all_cells_placed(self):
        design = design_wrapper("c", [30, 20], 12, 8, tam_width=2)
        assert sum(c.input_cells for c in design.chains) == 12
        assert sum(c.output_cells for c in design.chains) == 8

    def test_lpt_balances_scan(self):
        design = design_wrapper("c", [8, 8, 8, 8], 0, 0, tam_width=2)
        lengths = sorted(chain.scan_length for chain in design.chains)
        assert lengths == [16, 16]

    def test_cells_fill_valleys(self):
        """Wrapper cells go to the shortest chain, flattening the profile."""
        design = design_wrapper("c", [10, 2], 8, 0, tam_width=2)
        scan_in = sorted(chain.scan_in_length for chain in design.chains)
        assert scan_in == [10, 10]

    def test_width_one(self):
        design = design_wrapper("c", [5, 5], 4, 3, tam_width=1)
        assert design.max_scan_in == 14
        assert design.max_scan_out == 13

    def test_width_zero_rejected(self):
        with pytest.raises(ValueError):
            design_wrapper("c", [5], 1, 1, tam_width=0)

    def test_negative_chain_rejected(self):
        with pytest.raises(ValueError):
            design_wrapper("c", [-1], 1, 1, tam_width=1)

    def test_useful_bits_are_width_independent(self):
        """Wrapper design moves bits between wires, never creates them."""
        reference = design_wrapper("c", [30, 20, 10], 12, 8, 1)
        for width in (2, 3, 5, 8):
            design = design_wrapper("c", [30, 20, 10], 12, 8, width)
            assert design.useful_bits_per_pattern() == (
                reference.useful_bits_per_pattern()
            )

    def test_idle_bits_zero_at_width_one(self):
        design = design_wrapper("c", [30, 20, 10], 12, 8, 1)
        assert design.idle_bits_per_pattern() == 0

    def test_idle_bits_nonnegative_and_grow_with_width(self):
        designs = [
            design_wrapper("c", [30, 20, 10], 12, 8, w) for w in (1, 4, 16)
        ]
        idles = [d.idle_bits_per_pattern() for d in designs]
        assert all(idle >= 0 for idle in idles)
        assert idles[0] <= idles[1] <= idles[2]

    def test_test_time_formula(self):
        design = design_wrapper("c", [10], 5, 3, tam_width=1)
        si, so = design.max_scan_in, design.max_scan_out
        assert design.test_time_cycles(7) == (1 + max(si, so)) * 7 + min(si, so)

    def test_wider_tam_never_slower(self):
        times = [
            design_wrapper("c", [40, 30, 20, 10], 25, 25, w).test_time_cycles(100)
            for w in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_cells_land_where_one_at_a_time_min_puts_them(self):
        """Cell spreading matches a cell-by-cell ``min()`` over the
        chains, ties going to the lowest index, chain by chain."""

        def naive(chains, inputs, outputs, width):
            lengths = [0] * width
            for length in sorted(chains, reverse=True):
                lengths[min(range(width), key=lengths.__getitem__)] += length
            ins, outs = [0] * width, [0] * width
            for _ in range(inputs):
                ins[min(range(width), key=lambda i: ins[i] + lengths[i])] += 1
            for _ in range(outputs):
                outs[min(range(width), key=lambda i: lengths[i] + outs[i])] += 1
            return ins, outs

        shapes = [
            ([30, 20, 10, 5], 12, 8),
            ([8, 8, 8, 8], 7, 9),
            ([100, 3, 3], 40, 1),
            ([], 25, 5),
            ([5, 5, 5, 5, 5, 5], 0, 13),
        ]
        for chains, inputs, outputs in shapes:
            for width in range(1, 10):
                design = design_wrapper("c", chains, inputs, outputs, width)
                assert (
                    [chain.input_cells for chain in design.chains],
                    [chain.output_cells for chain in design.chains],
                ) == naive(chains, inputs, outputs, width), (chains, width)


class TestBalancedChains:
    def test_partition_sums(self):
        lengths = balanced_chain_lengths(100, 7)
        assert sum(lengths) == 100
        assert max(lengths) - min(lengths) <= 1

    def test_zero_cells(self):
        assert balanced_chain_lengths(0, 3) == [0, 0, 0]

    def test_zero_chains_rejected(self):
        with pytest.raises(ValueError):
            balanced_chain_lengths(10, 0)
