"""Dual-graph construction and expansion into a circulation network."""
from fractions import Fraction

import pytest

from retislack import (breakpoints, expand, make_curve, parse_circuit,
                       split_graph)
from retislack.transform import DualEdge, DualGraph, TransformError
from conftest import curves_for


def test_split_ring3_structure(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert g.n_nodes == 7
    assert g.v0 == 6
    kinds = [e.kind for e in g.edges]
    assert kinds.count("E1") == 3
    assert kinds.count("E2") == 3
    assert kinds.count("E3") == 3
    assert kinds.count("E4") == 6
    assert g.nff_bar == 2 * 5  # two FFs total, period 5


def test_split_ring3_bounds(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    e1 = [e for e in g.edges if e.kind == "E1"]
    # window = delay + [first slack, last slack]
    assert [(e.lower, e.upper) for e in e1] == [(2, 35), (3, 36), (4, 37)]
    e2 = [e for e in g.edges if e.kind == "E2"]
    # sink gate window shifted down by T per FF on the circuit edge
    assert [(e.lower, e.upper) for e in e2] == [(3, 36), (-1, 32), (-3, 30)]
    e3 = [e for e in g.edges if e.kind == "E3"]
    assert [(e.lower, e.upper) for e in e3] == [(0, 10), (-5, 10), (-5, 10)]
    e4 = [e for e in g.edges if e.kind == "E4"]
    assert all(e.lower == 0 and e.upper == 10 and e.src == g.v0 for e in e4)


def test_split_self_loop_bounds():
    c = parse_circuit("gate g 6\nedge g g 1\n")
    curves = curves_for(c)
    g = split_graph(c, 10, curves)
    e2 = next(e for e in g.edges if e.kind == "E2")
    e3 = next(e for e in g.edges if e.kind == "E3")
    assert (e2.src, e2.dst) == (1, 1)
    assert (e3.src, e3.dst) == (0, 0)
    assert e2.lower == 6 + 0 - 10
    assert e3.lower == -10


def test_split_zero_ff_edge_has_zero_e3_lower(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    e3 = [e for e in g.edges if e.kind == "E3"]
    assert e3[0].lower == 0  # the w=0 ring edge


def test_split_rejects_impossible_period(ring3):
    with pytest.raises(TransformError, match="exceeds period"):
        split_graph(ring3, 3, curves_for(ring3))


def test_expand_four_level_edge_arcs():
    # a single costed edge carrying the four-level curve: one arc per level,
    # costs are the negated slacks, caps the scaled slope drops
    cur = make_curve([(0, 100), (10, 60), (20, 30), (33, 10)])
    g = DualGraph(1, 5, 5, (DualEdge(0, 1, "E2", 0, 33, cur, 0),))
    net = expand(g)
    assert net.scale == 13  # clears the 20/13 slope
    finite = [(a.cost, a.upper) for a in net.arcs]
    big = net.m_cap * net.scale
    assert finite == [
        (-33, 20),          # b(4) * 13
        (-20, 19),          # (b(3) - b(4)) * 13
        (-10, 13),          # (b(2) - b(3)) * 13
        (0, big - 4 * 13),  # (M - b(2)) * 13
    ]


def test_expand_caps_reconstruct_breakpoints(ring3):
    g = split_graph(ring3, 6, curves_for(ring3))
    net = expand(g)
    D = net.scale
    for k, e in enumerate(g.edges):
        if e.kind not in ("E1", "E2"):
            continue
        arcs = [a for a in net.arcs if a.origin and a.origin[0] == k]
        L = e.curve.nlevels
        assert len(arcs) == L
        assert [a.cost for a in arcs] == [-s for s in reversed(e.curve.slacks)]
        bs = breakpoints(e.curve)
        # suffix sums of the finite caps rebuild the scaled slopes b(L)..b(2)
        acc = 0
        rebuilt = []
        for a in arcs[:-1]:
            acc += a.upper
            rebuilt.append(Fraction(acc, D))
        assert rebuilt == list(reversed(bs))
        # and the caps account for the full power drop of the curve
        s, p = e.curve.slacks, e.curve.powers
        drop = sum(Fraction(b) * (s[q + 1] - s[q]) for q, b in enumerate(bs))
        assert drop == p[0] - p[-1]


def test_expand_e3_e4_arcs(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    big = net.m_cap * net.scale
    e3 = [a for a in net.arcs
          if g.edges[a.origin[0]].kind == "E3"]
    assert [(a.cost, a.upper) for a in e3] == [(0, big), (5, big), (5, big)]
    e4 = [a for a in net.arcs if g.edges[a.origin[0]].kind == "E4"]
    assert len(e4) == 12  # reverse + forward per node
    rev = [a for a in e4 if a.dst == g.v0]
    fwd = [a for a in e4 if a.src == g.v0]
    assert all(a.cost == -g.nff_bar and a.upper == big for a in rev)
    assert all(a.cost == 0 and a.upper == big for a in fwd)


def test_expand_pure_circulation(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    assert all(a.lower == 0 for a in net.arcs)
    assert all(a.upper >= 0 for a in net.arcs)


def test_expand_deterministic(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert expand(g) == expand(g)


def test_expand_rejects_negative_capacity():
    # bypass curve validation to smuggle in a concave curve
    from retislack.power import PowerSlackCurve
    bad = PowerSlackCurve(((0, Fraction(100)), (10, Fraction(80)),
                           (20, Fraction(30))))
    g = DualGraph(1, 5, 5, (DualEdge(0, 1, "E2", 0, 20, bad, 0),))
    with pytest.raises(TransformError, match="negative capacity"):
        expand(g)

