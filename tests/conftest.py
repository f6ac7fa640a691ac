"""Shared fixtures: small hand-built circuits and power curves."""
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from retislack import make_curve, parse_circuit
from retislack.power import breakpoints
from retislack.transform import DualGraph

# the benchmark's seeded inputs: tests draw their 1-7-level curves with its
# check_mixed generator, so both read the same curves for the same seed
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import mixed_curve

# three-gate ring: one combinational edge, two FF edges
RING3_TEXT = """\
gate a 2
gate b 3
gate c 4
edge a b 0
edge b c 1
edge c a 1
"""

# four-level curve used throughout; slopes 4, 3, 20/13
CURVE4_PAIRS = [(0, 100), (10, 60), (20, 30), (33, 10)]

CURVE3_PAIRS = [(0, 100), (12, 55), (25, 20)]


@pytest.fixture
def ring3():
    return parse_circuit(RING3_TEXT)


@pytest.fixture
def curve4():
    return make_curve(CURVE4_PAIRS)


def curves_for(c, pairs=None):
    cur = make_curve(pairs or CURVE4_PAIRS)
    return {g.id: cur for g in c.gates}


def fraction_breakpoints(cur):
    """The curve's slope magnitudes as exact rationals, from the integer
    (power drop, slack step) pairs of `breakpoints`."""
    return [Fraction(drop, step) for drop, step in breakpoints(cur)]


def one_edge_graph(curve, shift=0):
    """Dual graph of a lone gate whose self-loop (one FF, period 10) is the
    one costed edge: the given curve, its window moved by shift (> -10)."""
    T = 10
    lo = shift + T + curve.slacks[0]  # gate delay shift + T plus the first slack
    c = parse_circuit(f"gate g {shift + T}\nedge g g 1\n")
    return DualGraph(c, T, T, (lo,), (curve,))
