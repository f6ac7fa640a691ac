"""Dual-graph construction and expansion into a circulation network."""
import random
from fractions import Fraction

import pytest

from retislack import (breakpoints, expand, generate_random, make_curve,
                       parse_circuit, split_graph)
from retislack.power import penalty_divisor
from retislack.transform import (Arc, DualEdge, DualGraph, FlowNetwork,
                                 TransformError)
from conftest import curves_for


def one_edge_graph(slacks, slopes, shift=0):
    """Dual graph of a lone gate whose self-loop E2 edge carries one curve."""
    edge = DualEdge(0, 0, "E2", shift + slacks[0], shift + slacks[-1], 0)
    return DualGraph(1, 5, 5, (edge,), (tuple(slacks),), (tuple(slopes),))


def test_split_ring3_structure(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert g.n_nodes == 5  # one node per gate, the reference node, v0
    assert g.v0 == 4
    kinds = [e.kind for e in g.edges]
    assert kinds.count("E1") == 3
    assert kinds.count("E2") == 3
    assert "E3" not in kinds
    assert kinds.count("E4") == 4
    assert all(e.src == 3 for e in g.edges if e.kind == "E1")
    assert g.nff_bar == 2 * 5  # two FFs total, period 5


def test_split_ring3_bounds(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    e1 = [e for e in g.edges if e.kind == "E1"]
    # window = delay + [first slack, last slack]
    assert [(e.lower, e.upper) for e in e1] == [(2, 35), (3, 36), (4, 37)]
    e2 = [e for e in g.edges if e.kind == "E2"]
    # sink gate window shifted down by T per FF on the circuit edge
    assert [(e.lower, e.upper) for e in e2] == [(3, 36), (-1, 32), (-3, 30)]
    e4 = [e for e in g.edges if e.kind == "E4"]
    assert all(e.lower == 0 and e.upper == 10 and e.src == g.v0 for e in e4)


def test_split_self_loop_bounds():
    c = parse_circuit("gate g 6\nedge g g 1\n")
    curves = curves_for(c)
    g = split_graph(c, 10, curves)
    e2 = next(e for e in g.edges if e.kind == "E2")
    assert (e2.src, e2.dst) == (0, 0)
    assert e2.lower == 6 + 0 - 10


def test_split_keeps_each_gates_levels_and_slopes_over_kappa():
    # d has two zero-FF fanins (kappa 2); every gate's slopes times its slack
    # gaps add up to its power drop divided by kappa
    c = parse_circuit("gate a 1\ngate b 2\ngate d 3\n"
                      "edge a d 0\nedge b d 0\nedge d a 1\n")
    curves = curves_for(c)
    g = split_graph(c, 20, curves)
    for j in range(c.n):
        s, p = curves[j].slacks, curves[j].powers
        kappa = penalty_divisor(c, j)
        assert g.slacks[j] == s
        assert g.slopes[j] == tuple(b / kappa for b in breakpoints(curves[j]))
        drop = sum(b * (s[q + 1] - s[q]) for q, b in enumerate(g.slopes[j]))
        assert drop == Fraction(p[0] - p[-1], kappa)
    assert g.slopes[c.gate_id("d")] == (2, Fraction(3, 2), Fraction(10, 13))


def test_split_rejects_impossible_period(ring3):
    with pytest.raises(TransformError, match="exceeds period"):
        split_graph(ring3, 3, curves_for(ring3))


def test_expand_four_level_edge_arcs():
    # a single costed edge carrying the four-level curve: one arc per level,
    # costs are the negated slacks, caps the scaled slope drops
    cur = make_curve([(0, 100), (10, 60), (20, 30), (33, 10)])
    net = expand(one_edge_graph(cur.slacks, breakpoints(cur)))
    assert net.scale == 13  # clears the 20/13 slope
    finite = [(a.cost, a.upper) for a in net.arcs]
    big = net.m_cap * net.scale
    assert finite == [
        (-33, 20),          # b(4) * 13
        (-20, 19),          # (b(3) - b(4)) * 13
        (-10, 13),          # (b(2) - b(3)) * 13
        (0, big - 4 * 13),  # (M - b(2)) * 13
    ]


def _e2_caps_rebuild_breakpoints(g, net):
    """Rebuild each E2 edge's slopes from its arcs' (edge, segment) origins."""
    D = net.scale
    for k, e in enumerate(g.edges):
        if e.kind != "E2":
            continue
        s = g.slacks[e.dst]
        L = len(s)
        by_seg = {a.origin[1]: a for a in net.arcs if a.origin[0] == k}
        assert set(by_seg) <= set(range(L)) and L - 1 in by_seg
        # arc `seg` sits at level L-1-seg, shifted like the edge's window
        for seg, a in by_seg.items():
            assert a.cost == -(e.lower + s[L - 1 - seg] - s[0])
        # a segment without an arc has capacity 0; suffix sums of the finite
        # caps rebuild the scaled slopes b(L)..b(2)
        caps = [by_seg[seg].upper if seg in by_seg else 0 for seg in range(L)]
        rebuilt = [Fraction(sum(caps[:seg + 1]), D) for seg in range(L - 1)]
        assert rebuilt == list(reversed(g.slopes[e.dst]))


def test_expand_caps_reconstruct_breakpoints(ring3):
    g = split_graph(ring3, 6, curves_for(ring3))
    _e2_caps_rebuild_breakpoints(g, expand(g))


def test_expand_drops_zero_capacity_arcs(ring3):
    # slopes 2, 2, 1: the repeated slope leaves one segment with no arc
    cur = make_curve([(0, 50), (4, 42), (8, 34), (12, 30)])
    g = one_edge_graph(cur.slacks, breakpoints(cur))
    net = expand(g)
    assert len(net.arcs) == 3
    assert [a.origin[1] for a in net.arcs] == [0, 1, 3]  # no arc for segment 2
    _e2_caps_rebuild_breakpoints(g, net)
    # every arc of a whole network can carry flow, and each gate window is
    # exactly one uncapacitated arc at its lower bound
    g = split_graph(ring3, 6, curves_for(ring3))
    net = expand(g)
    big = net.m_cap * net.scale
    assert all(a.upper > 0 for a in net.arcs)
    for k, e in enumerate(g.edges):
        if e.kind == "E1":
            arcs = [a for a in net.arcs if a.origin[0] == k]
            assert [(a.src, a.dst, a.cost, a.upper) for a in arcs] == [
                (g.n_gates, e.dst, -e.lower, big)]


def test_expand_arcs_on_random_curves():
    # repeated and zero slopes: no zero-capacity arc, one arc per gate window
    rng = random.Random(8)
    for seed in range(40):
        c = generate_random(rng.randint(2, 25), edge_density=2.0,
                            ff_prob=0.4, seed=seed)
        curves = {}
        for j in range(c.n):
            slopes = sorted(rng.choice((0, 1, 2, 2, 5)) for _ in range(rng.randint(0, 4)))
            pairs = [(rng.choice((0, 2)), 200)]
            for b in reversed(slopes):
                gap = rng.randint(1, 6)
                pairs.append((pairs[-1][0] + gap, pairs[-1][1] - b * gap))
            curves[j] = make_curve(pairs)
        g = split_graph(c, sum(c.delays) + 40, curves)
        net = expand(g)
        assert all(a.upper > 0 for a in net.arcs)
        e1_arcs = [a for a in net.arcs if g.edges[a.origin[0]].kind == "E1"]
        assert len(e1_arcs) == c.n
        assert all(a.upper == net.m_cap * net.scale for a in e1_arcs)
        _e2_caps_rebuild_breakpoints(g, net)


def test_expand_repeats_the_sink_template_per_fanin():
    # z's three fanins carry 0, 1 and 2 FFs: the same capacities on each,
    # and every arc cost moves by exactly T per FF
    c = parse_circuit("gate a 1\ngate b 2\ngate c 3\ngate z 4\n"
                      "edge a z 0\nedge b z 1\nedge c z 2\n")
    T = 40
    g = split_graph(c, T, curves_for(c))
    net = expand(g)
    arcs = [[a for a in net.arcs if a.origin[0] == g.e2_index[k]] for k in range(3)]
    assert len(arcs[0]) == 4
    for w in (1, 2):
        assert [a.upper for a in arcs[w]] == [a.upper for a in arcs[0]]
        assert [a.cost - b.cost for a, b in zip(arcs[w], arcs[0])] == [T * w] * 4


def test_expand_e4_arcs(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    big = net.m_cap * net.scale
    e4 = [a for a in net.arcs if g.edges[a.origin[0]].kind == "E4"]
    assert len(e4) == 8  # reverse + forward per node other than v0
    rev = [a for a in e4 if a.dst == g.v0]
    fwd = [a for a in e4 if a.src == g.v0]
    assert all(a.cost == -g.nff_bar and a.upper == big for a in rev)
    assert all(a.cost == 0 and a.upper == big for a in fwd)


def test_expand_pure_circulation(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    assert all(a.upper >= 0 for a in net.arcs)
    with pytest.raises(TransformError, match="negative capacity"):
        FlowNetwork(2, (Arc(0, 1, 0, -1, None),))


def test_expand_deterministic(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert expand(g) == expand(g)


def test_expand_rejects_negative_capacity():
    # bypass curve validation to smuggle in a concave curve (slopes 2, 5)
    from retislack.power import PowerSlackCurve
    bad = PowerSlackCurve((0, 10, 20), (100, 80, 30))
    with pytest.raises(TransformError, match="negative capacity"):
        expand(one_edge_graph(bad.slacks, breakpoints(bad)))
    with pytest.raises(TransformError, match="negative capacity slope"):
        expand(one_edge_graph((0, 10), (Fraction(-1, 2),)))

