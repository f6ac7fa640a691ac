"""Shared fixtures: small hand-built circuits and power curves."""
import pytest

from retislack import make_curve, parse_circuit

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
