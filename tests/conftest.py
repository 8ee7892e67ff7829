"""Shared fixtures: small reference designs used across the test suite."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.circuit import Netlist, parse_bench
from repro.soc import Core, Soc

C17_BENCH = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""

SEQ_BENCH = """
INPUT(A)
INPUT(B)
OUTPUT(Z)
S = DFF(NS)
NS = AND(A, S)
T = OR(B, S)
Z = XOR(T, A)
"""


@pytest.fixture
def c17() -> Netlist:
    """The classic ISCAS'85 c17 benchmark (all-NAND, combinational)."""
    return parse_bench(C17_BENCH, "c17")


@pytest.fixture
def seq_netlist() -> Netlist:
    """A 4-gate sequential circuit with one flip-flop."""
    return parse_bench(SEQ_BENCH, "seq")


@pytest.fixture
def flat_soc() -> Soc:
    """A flat 3-core SOC with a chip-level top, varied pattern counts."""
    return Soc(
        "flat3",
        [
            Core("top", inputs=10, outputs=6, patterns=2,
                 children=["a", "b", "c"]),
            Core("a", inputs=8, outputs=4, scan_cells=100, patterns=50),
            Core("b", inputs=6, outputs=6, scan_cells=40, patterns=200),
            Core("c", inputs=4, outputs=2, bidirs=3, scan_cells=250, patterns=20),
        ],
        top="top",
    )


@pytest.fixture
def hier_soc() -> Soc:
    """A two-level hierarchical SOC (parent 'p' embeds 'x' and 'y')."""
    return Soc(
        "hier",
        [
            Core("top", inputs=12, outputs=8, patterns=1, children=["p", "q"]),
            Core("p", inputs=20, outputs=10, scan_cells=300, patterns=80,
                 children=["x", "y"]),
            Core("x", inputs=5, outputs=3, scan_cells=0, patterns=500),
            Core("y", inputs=7, outputs=2, scan_cells=0, patterns=35),
            Core("q", inputs=9, outputs=11, scan_cells=120, patterns=60),
        ],
        top="top",
    )


@pytest.fixture
def hammer():
    """``hammer(fn)`` calls ``fn`` 300 times on each of 8 threads at once,
    with a short switch interval to force interleaving, and returns the
    exceptions the threads raised."""

    def run(fn):
        errors = []

        def worker():
            try:
                for _ in range(300):
                    fn()
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        return errors

    return run
