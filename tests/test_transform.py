"""Dual-graph construction and expansion into a circulation network."""
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from retislack import (Circuit, CurveError, Edge, PowerSlackCurve,
                       generate_random, load_curves, make_curve, parse_circuit,
                       transform)
from retislack.mcf import solve_mcf
from retislack.transform import FlowNetwork, TransformError, expand, split_graph
from conftest import (CURVE3_PAIRS, CURVE4_PAIRS, curves_for, fraction_breakpoints,
                      mixed_curve, one_edge_graph)


def _big(g, net):
    """Capacity of the uncapacitated arcs: D times one more than the sum of
    every costed edge's slopes, more than any E2 edge can carry."""
    total = sum(sum(fraction_breakpoints(g.curves[e.dst])) for e in g.circuit.edges)
    return (1 + math.ceil(total)) * net.scale


def _e2_blocks(g, net):
    """Each circuit edge's E2 arcs, cut by position: they follow the n E1
    arcs in edge order, and every edge into gate j emits the same number."""
    c = g.circuit
    mid = net.arcs[c.n:]
    arcs_per_pair = Counter((src, dst) for src, dst, _, _ in mid)
    edges_per_pair = Counter((e.src, e.dst) for e in c.edges)
    blocks, pos = [], 0
    for e in c.edges:
        m = arcs_per_pair[e.src, e.dst] // edges_per_pair[e.src, e.dst]
        blocks.append(mid[pos:pos + m])
        assert all((src, dst) == (e.src, e.dst) for src, dst, _, _ in blocks[-1])
        pos += m
    assert pos == len(mid)
    return blocks


def test_split_ring3_structure(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert g.circuit is ring3 and g.period == 5
    assert g.n_nodes == 4  # one node per gate, then the reference node v0
    assert g.v0 == 3
    assert g.nff_bar == 2 * 5  # two FFs total, period 5


def test_split_ring3_bounds(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    # window bottom = delay + first slack
    assert g.lower == (2, 3, 4)
    # sink gate window shifted down by T per FF on the circuit edge
    assert [g.lower[e.dst] - 5 * e.w for e in ring3.edges] == [3, -1, -3]


def test_split_self_loop_bounds():
    c = parse_circuit("gate g 6\nedge g g 1\n")
    curves = curves_for(c)
    g = split_graph(c, 10, curves)
    e = c.edges[0]
    assert (e.src, e.dst) == (0, 0)
    assert g.lower[e.dst] - 10 * e.w == 6 + 0 - 10


def test_split_keeps_each_gates_curve():
    # d has two zero-FF fanins; every gate keeps its curve as it is, and its
    # slopes times its slack gaps add up to its whole power drop
    c = parse_circuit("gate a 1\ngate b 2\ngate d 3\n"
                      "edge a d 0\nedge b d 0\nedge d a 1\n")
    curves = curves_for(c)
    g = split_graph(c, 20, curves)
    assert g.curves == tuple(curves[j] for j in range(c.n))
    for j in range(c.n):
        s, p = curves[j].slacks, curves[j].powers
        drop = sum(b * (s[q + 1] - s[q])
                   for q, b in enumerate(fraction_breakpoints(g.curves[j])))
        assert drop == p[0] - p[-1]
    assert fraction_breakpoints(g.curves[c.gate_id("d")]) == [4, 3, Fraction(20, 13)]


def test_split_rejects_impossible_period(ring3):
    with pytest.raises(TransformError, match="exceeds period"):
        split_graph(ring3, 3, curves_for(ring3))


def test_expand_four_level_edge_arcs():
    # a single costed edge carrying the four-level curve: one arc per level,
    # costs are the negated slacks, caps the scaled slope drops
    cur = make_curve([(0, 100), (10, 60), (20, 30), (33, 10)])
    g = one_edge_graph(cur)
    net = expand(g)
    assert net.scale == 13  # clears the 20/13 slope
    finite = [(cost, upper) for src, dst, cost, upper in net.arcs if (src, dst) == (0, 0)]
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
        s = g.curves[e.dst].slacks
        L = len(s)
        shift = g.lower[e.dst] - g.period * e.w  # the edge's window bottom
        # every arc sits at one level's slack offset, shifted like the
        # edge's window: highest level first, one arc per level at most,
        # and level 0 always has one
        level_at = {s[q] - s[0]: q for q in range(L)}
        levels = [level_at[-cost - shift] for _, _, cost, _ in arcs]
        assert levels == sorted(set(levels), reverse=True) and levels[-1] == 0
        # a level without an arc has capacity 0; suffix sums of the finite
        # caps, highest level first, rebuild the scaled slopes b(L)..b(2)
        cap_at = {q: upper for q, (_, _, _, upper) in zip(levels, arcs)}
        caps = [cap_at.get(q, 0) for q in reversed(range(L))]
        rebuilt = [Fraction(sum(caps[:seg + 1]), D) for seg in range(L - 1)]
        assert rebuilt == list(reversed(fraction_breakpoints(g.curves[e.dst])))


def test_expand_caps_reconstruct_breakpoints(ring3):
    g = split_graph(ring3, 6, curves_for(ring3))
    _e2_caps_rebuild_breakpoints(g, expand(g))


def test_expand_drops_zero_capacity_arcs(ring3):
    # slopes 2, 2, 1: the repeated slope leaves one segment with no arc
    cur = make_curve([(0, 50), (4, 42), (8, 34), (12, 30)])
    g = one_edge_graph(cur)
    net = expand(g)
    e2 = [cost for src, dst, cost, _ in net.arcs if (src, dst) == (0, 0)]
    assert e2 == [-12, -8, 0]  # levels 3, 2, 0: none for 1
    _e2_caps_rebuild_breakpoints(g, net)
    # every arc of a whole network can carry flow, and each gate window is
    # exactly one uncapacitated arc at its lower bound
    g = split_graph(ring3, 6, curves_for(ring3))
    net = expand(g)
    big = _big(g, net)
    assert all(upper > 0 for _, _, _, upper in net.arcs)
    for i in range(ring3.n):
        arcs = [a for a in net.arcs if a[:2] == (g.v0, i)]
        assert arcs == [(g.v0, i, -g.lower[i], big)]


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
        assert all(upper > 0 for _, _, _, upper in net.arcs)
        e1_caps = [upper for src, _, _, upper in net.arcs if src == g.v0]
        assert e1_caps == [_big(g, net)] * c.n
        _e2_caps_rebuild_breakpoints(g, net)


def test_expand_repeats_the_sink_template_per_fanin():
    # z's three fanins carry 0, 1 and 2 FFs: the same capacities on each,
    # and every arc cost moves by exactly T per FF
    c = parse_circuit("gate a 1\ngate b 2\ngate c 3\ngate z 4\n"
                      "edge a z 0\nedge b z 1\nedge c z 2\n")
    T = 40
    g = split_graph(c, T, curves_for(c))
    net = expand(g)
    arcs = [[(cost, upper) for src, dst, cost, upper in net.arcs
             if (src, dst) == (e.src, e.dst)] for e in c.edges]
    assert len(arcs[0]) == 4
    for w in (1, 2):
        assert [u for _, u in arcs[w]] == [u for _, u in arcs[0]]
        assert [a - b for (a, _), (b, _) in zip(arcs[w], arcs[0])] == [T * w] * 4


def test_expand_template_ignores_the_sink_fanin_count():
    # d has two zero-FF fanins and a, b and e one each, all with one curve:
    # every fanin edge carries the same (offset, capacity) template, up to
    # its own shift
    c = parse_circuit("gate a 1\ngate b 2\ngate d 3\ngate e 4\n"
                      "edge a d 0\nedge b d 0\nedge a e 0\n"
                      "edge d a 1\nedge e b 1\n")
    g = split_graph(c, 40, curves_for(c))
    net = expand(g)
    templates = []
    for e, arcs in zip(c.edges, _e2_blocks(g, net)):
        shift = g.lower[e.dst] - g.period * e.w
        templates.append([(-cost - shift, upper) for _, _, cost, upper in arcs])
    assert len(templates[0]) == 4
    assert all(t == templates[0] for t in templates)


def test_expand_pure_circulation(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    net = expand(g)
    assert all(upper >= 0 for _, _, _, upper in net.arcs)
    with pytest.raises(TransformError, match="negative capacity"):
        FlowNetwork(2, ((0, 1, 0, -1),))


@pytest.mark.parametrize("arc", [(1, -1, -1, 1), (1, 2, -1, 1)],
                         ids=["negative", "past_last_node"])
def test_flow_network_rejects_endpoint_outside_nodes(arc):
    # a negative endpoint would index the last node from the end, so the
    # solver would read arc 1 as a self-loop and return cost -1
    with pytest.raises(TransformError, match="endpoint outside nodes 0..1"):
        solve_mcf(FlowNetwork(2, ((0, 1, -1, 1), arc)))


def test_expand_ring3_network(ring3):
    # the whole network, in order: E1 per gate (v0 = 3 -> i), then E2 per
    # circuit edge, highest level first
    net = expand(split_graph(ring3, 5, curves_for(ring3)))
    assert (net.n_nodes, net.scale) == (4, 13)
    assert list(net.arcs) == [
        (3, 0, -2, 351), (3, 1, -3, 351), (3, 2, -4, 351),
        (0, 1, -36, 20), (0, 1, -23, 19), (0, 1, -13, 13), (0, 1, -3, 299),
        (1, 2, -32, 20), (1, 2, -19, 19), (1, 2, -9, 13), (1, 2, 1, 299),
        (2, 0, -30, 20), (2, 0, -17, 19), (2, 0, -7, 13), (2, 0, 3, 299),
    ]


def test_expand_deterministic(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    assert expand(g) == expand(g)


def test_expand_never_sees_negative_capacity():
    # the curves that would give an E2 arc a negative capacity cannot be
    # built: a concave one (slopes 2, 5) and a rising one (slope -1/2)
    with pytest.raises(CurveError, match="non-convex"):
        PowerSlackCurve((0, 10, 20), (100, 80, 30))
    with pytest.raises(CurveError, match="increasing power"):
        PowerSlackCurve((0, 10), (100, 105))


def _per_gate_network(c, T, lower, slacks, slopes):
    """Reference expansion in Fraction arithmetic, one template per sink gate
    and plain tuples: (n_nodes, scale, [(src, dst, cost, upper), ...])."""
    fanins = Counter(e.dst for e in c.edges)
    scale = 1
    total_b = Fraction(0)
    for j, count in fanins.items():
        for b in slopes[j]:
            scale = math.lcm(scale, b.denominator)
        total_b += count * sum(slopes[j])
    big = (1 + math.ceil(total_b)) * scale
    templates = {}
    for j in fanins:
        s, bs = slacks[j], list(slopes[j]) + [0]
        # level 0 gets M - b(2), level q the drop b(q+1) - b(q+2), all times D
        caps = [big - bs[0] * scale] + [(bs[q - 1] - bs[q]) * scale
                                        for q in range(1, len(s))]
        assert all(Fraction(cap).denominator == 1 for cap in caps)
        templates[j] = [(s[q] - s[0], int(caps[q]))
                        for q in reversed(range(len(s))) if caps[q]]
    arcs = [(c.n, i, -lo, big) for i, lo in enumerate(lower)]
    for e in c.edges:
        shift = lower[e.dst] - T * e.w
        arcs += [(e.src, e.dst, -(shift + off), cap) for off, cap in templates[e.dst]]
    return c.n + 1, scale, arcs


def _assert_expands_like_per_gate_reference(c, T, curves):
    g = split_graph(c, T, curves)
    net = expand(g)
    slopes = [fraction_breakpoints(curves[j]) for j in range(c.n)]
    lower = [d + curves[j].slacks[0] for j, d in enumerate(c.delays)]
    assert (net.n_nodes, net.scale, list(net.arcs)) == _per_gate_network(
        c, T, lower, [curves[j].slacks for j in range(c.n)], slopes)
    return net


PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)


def _with_self_loops(c, rng):
    loops = tuple(Edge(i, i, rng.randint(1, 2))
                  for i in rng.sample(range(c.n), min(c.n, rng.randint(1, 3))))
    return Circuit(c.gates, c.edges + loops)


def _random_curves(kind, c, rng):
    """Per-gate curves of one kind (0-4), as the reference test draws them."""
    if kind == 0:  # one shared curve object
        return curves_for(c)
    if kind == 1:  # per-gate 1-7-level curves, no two objects alike
        return {j: make_curve(mixed_curve(rng)) for j in range(c.n)}
    if kind == 2:  # a few mixed curves, as shared objects and as equal copies
        pool = [mixed_curve(rng) for _ in range(3)]
        objs = [make_curve(pairs) for pairs in pool]
        return {j: rng.choice(objs) if rng.random() < 0.5
                else make_curve(rng.choice(pool)) for j in range(c.n)}
    if kind == 3:  # slopes 1000/p: the scale is a product of primes
        return {j: make_curve([(0, 1000), (rng.choice(PRIMES), 0)]) for j in range(c.n)}
    cur3, cur4 = make_curve(CURVE3_PAIRS), make_curve(CURVE4_PAIRS)
    return {j: rng.choice((cur3, cur4)) for j in range(c.n)}


def test_expand_matches_per_gate_reference():
    rng = random.Random(19)
    for seed in range(30):
        c = generate_random(rng.randint(2, 60), edge_density=rng.uniform(1.2, 2.4),
                            ff_prob=0.4, seed=seed)
        if seed % 3 == 0:
            c = _with_self_loops(c, rng)
        curves = _random_curves(seed % 5, c, rng)
        T = max(d + curves[j].slacks[0] for j, d in enumerate(c.delays)) + rng.randint(0, 9)
        _assert_expands_like_per_gate_reference(c, T, curves)
    # the 20-gate prime ring of the command-line test: no two gates share
    ring = parse_circuit("".join(f"gate g{i} 3\n" for i in range(20)) +
                         "".join(f"edge g{i} g{(i + 1) % 20} {int(i % 3 == 2)}\n"
                                 for i in range(20)))
    curves = {j: make_curve([(0, 1000), (p, 0)]) for j, p in enumerate(PRIMES)}
    assert _assert_expands_like_per_gate_reference(ring, 12, curves).scale == math.prod(PRIMES)


@pytest.mark.parametrize("pairs", [CURVE4_PAIRS, CURVE3_PAIRS, [(0, 5)],
                                   [(0, 50), (4, 42), (8, 34), (12, 30)]])
def test_expand_one_edge_graph_matches_per_gate_reference(pairs):
    cur = make_curve(pairs)
    g = one_edge_graph(cur, shift=3)
    net = expand(g)
    assert (net.n_nodes, net.scale, list(net.arcs)) == _per_gate_network(
        g.circuit, g.period, g.lower, [cur.slacks], [fraction_breakpoints(cur)])


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["shared", "per_gate", "equal_copies"])
def test_expand_builds_one_template_per_distinct_curve(monkeypatch, kind):
    # sink gates are grouped by curve object alone, whatever their number of
    # zero-FF fanins; an equal-valued copy gets a template of its own, and
    # the network is the one that a single shared object gives
    build = transform._template
    calls = []
    monkeypatch.setattr(transform, "_template",
                        lambda *args: calls.append(args) or build(*args))
    rng = random.Random(2020 + kind)
    copies = 0
    for seed in range(12):
        c = _with_self_loops(generate_random(rng.randint(5, 60), edge_density=2.0,
                                             ff_prob=0.4, seed=seed), rng)
        curves = _random_curves(kind, c, rng)
        T = max(d + curves[j].slacks[0] for j, d in enumerate(c.delays))
        calls.clear()
        net = expand(split_graph(c, T, curves))
        sinks = {e.dst for e in c.edges}
        assert len(calls) == len({id(curves[j]) for j in sinks})
        copies += len({id(curves[j]) for j in sinks}) - len({curves[j] for j in sinks})
        first = {}  # one object per curve value
        shared = {j: first.setdefault(cur, cur) for j, cur in curves.items()}
        assert expand(split_graph(c, T, shared)) == net
    if kind != 1:  # per-gate mixed curves may coincide by value too
        assert (copies > 0) == (kind == 2)


def test_expand_equal_curve_entries_give_the_shared_curves_network():
    # two curve-file entries with the same pairs load as two equal objects;
    # each gets its own template, and the network is the one-object network
    c = generate_random(40, edge_density=2.0, ff_prob=0.4, seed=8)
    j, k = sorted({e.dst for e in c.edges})[:2]
    doc = {"default": CURVE3_PAIRS, c.gates[j].name: CURVE4_PAIRS,
           c.gates[k].name: CURVE4_PAIRS}
    copies = load_curves(json.dumps(doc), c)
    assert copies[j] == copies[k] and copies[j] is not copies[k]
    shared = {**copies, k: copies[j]}
    T = max(d + copies[i].slacks[0] for i, d in enumerate(c.delays))
    assert expand(split_graph(c, T, copies)) == expand(split_graph(c, T, shared))
