"""Dual-graph construction and expansion into a circulation network."""
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from retislack import (breakpoints, expand, generate_random, make_curve,
                       parse_circuit, split_graph)
from retislack.transform import Arc, FlowNetwork, TransformError, penalty_divisor
from conftest import curves_for, one_edge_graph


def _big(g, net):
    """Capacity of the uncapacitated arcs: D times one more than the sum of
    every costed edge's slopes, more than any E2 edge can carry."""
    total = sum(sum(g.slopes[e.dst]) for e in g.circuit.edges)
    return (1 + math.ceil(total)) * net.scale


def _e2_blocks(g, net):
    """Each circuit edge's E2 arcs, cut by position: they follow the n E1
    arcs in edge order, and every edge into gate j emits the same number."""
    c = g.circuit
    mid = net.arcs[c.n:]
    arcs_per_pair = Counter((a.src, a.dst) for a in mid)
    edges_per_pair = Counter((e.src, e.dst) for e in c.edges)
    blocks, pos = [], 0
    for e in c.edges:
        m = arcs_per_pair[e.src, e.dst] // edges_per_pair[e.src, e.dst]
        blocks.append(mid[pos:pos + m])
        assert all((a.src, a.dst) == (e.src, e.dst) for a in blocks[-1])
        pos += m
    assert pos == len(mid)
    return blocks


def test_split_ring3_structure(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert g.circuit is ring3 and g.period == 5
    assert g.n_gates == 3
    assert g.n_nodes == 4  # one node per gate, then the reference node v0
    assert g.v0 == 3
    assert g.nff_bar == 2 * 5  # two FFs total, period 5


def test_split_ring3_bounds(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    # window = delay + [first slack, last slack]
    assert list(zip(g.lower, g.upper)) == [(2, 35), (3, 36), (4, 37)]
    # sink gate window shifted down by T per FF on the circuit edge
    assert [(g.lower[e.dst] - 5 * e.w, g.upper[e.dst] - 5 * e.w)
            for e in ring3.edges] == [(3, 36), (-1, 32), (-3, 30)]


def test_split_self_loop_bounds():
    c = parse_circuit("gate g 6\nedge g g 1\n")
    curves = curves_for(c)
    g = split_graph(c, 10, curves)
    e = c.edges[0]
    assert (e.src, e.dst) == (0, 0)
    assert g.lower[e.dst] - 10 * e.w == 6 + 0 - 10


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


def test_penalty_divisor_counts_zero_ff_fanins():
    c = parse_circuit(
        "gate a 1\ngate b 1\ngate c 1\ngate d 1\n"
        "edge a d 0\nedge b d 1\nedge c d 0\n")
    assert penalty_divisor(c, c.gate_id("d")) == 2
    assert penalty_divisor(c, c.gate_id("a")) == 1  # no fanins, clamped


def test_penalty_divisor_mixed():
    c = parse_circuit("gate a 1\ngate b 1\nedge a b 0\nedge a b 1\n")
    assert penalty_divisor(c, 1) == 1


def test_split_rejects_impossible_period(ring3):
    with pytest.raises(TransformError, match="exceeds period"):
        split_graph(ring3, 3, curves_for(ring3))


def test_expand_four_level_edge_arcs():
    # a single costed edge carrying the four-level curve: one arc per level,
    # costs are the negated slacks, caps the scaled slope drops
    cur = make_curve([(0, 100), (10, 60), (20, 30), (33, 10)])
    g = one_edge_graph(cur.slacks, breakpoints(cur))
    net = expand(g)
    assert net.scale == 13  # clears the 20/13 slope
    finite = [(a.cost, a.upper) for a in net.arcs if (a.src, a.dst) == (0, 0)]
    big = _big(g, net)
    assert big == 10 * 13  # 1 + ceil(4 + 3 + 20/13)
    assert finite == [
        (-33, 20),          # b(4) * 13
        (-20, 19),          # (b(3) - b(4)) * 13
        (-10, 13),          # (b(2) - b(3)) * 13
        (0, big - 4 * 13),  # (M - b(2)) * 13
    ]


def _e2_caps_rebuild_breakpoints(g, net):
    """Rebuild each circuit edge's sink slopes from its E2 arcs."""
    D = net.scale
    for e, arcs in zip(g.circuit.edges, _e2_blocks(g, net)):
        s = g.slacks[e.dst]
        L = len(s)
        shift = g.lower[e.dst] - g.period * e.w  # the edge's window bottom
        # every arc sits at one level's slack offset, shifted like the
        # edge's window: highest level first, one arc per level at most,
        # and level 0 always has one
        level_at = {s[q] - s[0]: q for q in range(L)}
        levels = [level_at[-a.cost - shift] for a in arcs]
        assert levels == sorted(set(levels), reverse=True) and levels[-1] == 0
        # a level without an arc has capacity 0; suffix sums of the finite
        # caps, highest level first, rebuild the scaled slopes b(L)..b(2)
        cap_at = {q: a.upper for q, a in zip(levels, arcs)}
        caps = [cap_at.get(q, 0) for q in reversed(range(L))]
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
    e2 = [a for a in net.arcs if (a.src, a.dst) == (0, 0)]
    assert len(e2) == 3
    assert [a.cost for a in e2] == [-12, -8, 0]  # levels 3, 2, 0: none for 1
    _e2_caps_rebuild_breakpoints(g, net)
    # every arc of a whole network can carry flow, and each gate window is
    # exactly one uncapacitated arc at its lower bound
    g = split_graph(ring3, 6, curves_for(ring3))
    net = expand(g)
    big = _big(g, net)
    assert all(a.upper > 0 for a in net.arcs)
    for i in range(g.n_gates):
        arcs = [a for a in net.arcs if (a.src, a.dst) == (g.n_gates, i)]
        assert [(a.src, a.dst, a.cost, a.upper) for a in arcs] == [
            (g.n_gates, i, -g.lower[i], big)]


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
        e1_arcs = [a for a in net.arcs if a.src == g.v0]
        assert len(e1_arcs) == c.n
        assert all(a.upper == _big(g, net) for a in e1_arcs)
        _e2_caps_rebuild_breakpoints(g, net)


def test_expand_repeats_the_sink_template_per_fanin():
    # z's three fanins carry 0, 1 and 2 FFs: the same capacities on each,
    # and every arc cost moves by exactly T per FF
    c = parse_circuit("gate a 1\ngate b 2\ngate c 3\ngate z 4\n"
                      "edge a z 0\nedge b z 1\nedge c z 2\n")
    T = 40
    g = split_graph(c, T, curves_for(c))
    net = expand(g)
    arcs = [[a for a in net.arcs if (a.src, a.dst) == (e.src, e.dst)]
            for e in c.edges]
    assert len(arcs[0]) == 4
    for w in (1, 2):
        assert [a.upper for a in arcs[w]] == [a.upper for a in arcs[0]]
        assert [a.cost - b.cost for a, b in zip(arcs[w], arcs[0])] == [T * w] * 4


def test_expand_pure_circulation(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    assert all(a.upper >= 0 for a in net.arcs)
    with pytest.raises(TransformError, match="negative capacity"):
        FlowNetwork(2, (Arc(0, 1, 0, -1),))


def test_expand_ring3_network(ring3):
    # the whole network, in order: E1 per gate (v0 = 3 -> i), then E2 per
    # circuit edge, highest level first
    net = expand(split_graph(ring3, 5, curves_for(ring3)))
    assert (net.n_nodes, net.scale) == (4, 13)
    assert [(a.src, a.dst, a.cost, a.upper) for a in net.arcs] == [
        (3, 0, -2, 351), (3, 1, -3, 351), (3, 2, -4, 351),
        (0, 1, -36, 20), (0, 1, -23, 19), (0, 1, -13, 13), (0, 1, -3, 299),
        (1, 2, -32, 20), (1, 2, -19, 19), (1, 2, -9, 13), (1, 2, 1, 299),
        (2, 0, -30, 20), (2, 0, -17, 19), (2, 0, -7, 13), (2, 0, 3, 299),
    ]


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

