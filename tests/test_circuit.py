"""Circuit parsing, validation, and static timing analysis."""
import dataclasses
import random
import time

import pytest

from retislack import (Circuit, CircuitError, CurveError, Edge, Gate, PowerSlackCurve,
                       feasible_retiming, generate_random, parse_circuit,
                       render_circuit, sta)
from retislack import circuit
from retislack.retime import retimed_weights
from conftest import RING3_TEXT


def test_parse_ring3(ring3):
    assert ring3.n == 3
    assert [g.name for g in ring3.gates] == ["a", "b", "c"]
    assert ring3.delays == (2, 3, 4)
    assert [(e.src, e.dst, e.w) for e in ring3.edges] == [
        (0, 1, 0), (1, 2, 1), (2, 0, 1)]
    assert sum(e.w for e in ring3.edges) == 2


def test_parse_comments_and_blank_lines(ring3):
    text = "# header\n\ngate a 2\ngate b 3  # inline\ngate c 4\n" \
           "edge a b 0\nedge b c 1\nedge c a 1\n"
    assert parse_circuit(text) == ring3


def test_render_round_trip(ring3):
    assert parse_circuit(render_circuit(ring3)) == ring3


def test_render_round_trip_random():
    for seed in range(10):
        c = generate_random(12, seed=seed)
        assert parse_circuit(render_circuit(c)) == c


def test_render_round_trip_hand_named():
    c = Circuit((Gate(0, "in.0", 0), Gate(1, "_x", 7), Gate(2, "Edge_9", 2)),
                (Edge(0, 1, 0), Edge(1, 2, 3), Edge(2, 2, 1), Edge(2, 0, 0)))
    assert parse_circuit(render_circuit(c)) == c


@pytest.mark.parametrize("gate, edge, msg", [
    ((0, "", 1), None, "bad gate name ''"),
    ((0, "a b", 1), None, "bad gate name 'a b'"),
    ((0, "x!", 1), None, "bad gate name 'x!'"),
    ((0, "a", 2.5), None, "bad delay 2.5"),
    ((0, "a", True), None, "bad delay True"),
    ((0, "a", -1), None, "bad delay -1"),
    ((0.0, "a", 1), None, "gate ids"),
    ((0, "a", 1), (0, 0, 0.5), "bad FF count 0.5"),
    ((0, "a", 1), (0.0, 0, 1), "references unknown gate"),
], ids=["empty_name", "space", "bang", "float_delay", "bool_delay",
        "negative_delay", "float_id", "float_ff_count", "float_endpoint"])
def test_constructor_rejects_what_the_text_format_cannot_hold(gate, edge, msg):
    # the records are built inside raises: Gate and Edge check their fields
    with pytest.raises(CircuitError, match=msg):
        Circuit((Gate(*gate),), (Edge(*edge),) if edge else ())


@pytest.mark.parametrize("build, field, bad, error, msg", [
    (lambda: Gate(0, "a", 2), "delay", -1, CircuitError, "gate a: bad delay -1"),
    (lambda: Edge(0, 1, 1), "w", True, CircuitError, "edge (0, 1): bad FF count True"),
    (lambda: PowerSlackCurve((0, 10), (100, 60)), "powers", (100, 160), CurveError,
     "increasing power at slack 10"),
], ids=["Gate", "Edge", "PowerSlackCurve"])
def test_records_are_frozen_values_checked_on_replace(build, field, bad, error, msg):
    rec = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, field, getattr(rec, field))
    twin = build()
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    with pytest.raises(error) as err:
        dataclasses.replace(rec, **{field: bad})
    assert str(err.value) == msg


def test_parse_errors():
    with pytest.raises(CircuitError, match="no gates"):
        parse_circuit("# nothing\n")
    with pytest.raises(CircuitError, match="line 2.*duplicate"):
        parse_circuit("gate a 1\ngate a 2\n")
    with pytest.raises(CircuitError, match="line 1.*bad delay 'x'"):
        parse_circuit("gate a x\n")
    with pytest.raises(CircuitError, match="line 1.*bad delay -3"):
        parse_circuit("gate a -3\n")
    with pytest.raises(CircuitError, match="line 2.*unknown gate"):
        parse_circuit("gate a 1\nedge a b 0\n")
    with pytest.raises(CircuitError, match="line 3.*bad FF count -1"):
        parse_circuit("gate a 1\ngate b 1\nedge a b -1\n")
    with pytest.raises(CircuitError, match="line 1.*unknown record"):
        parse_circuit("vertex a 1\n")
    two = "gate a 1\ngate b 1\n"
    for text, message in (
        ("gate a\n", "line 1: expected 'gate <name> <delay>'"),
        ("gate a 1 2\n", "line 1: expected 'gate <name> <delay>'"),
        (two + "edge a b\n", "line 3: expected 'edge <src> <dst> <ff_count>'"),
        (two + "edge a b 0 1\n", "line 3: expected 'edge <src> <dst> <ff_count>'"),
        # source before destination before the FF count, a duplicate name
        # before the delay token, the delay token before Gate's own checks
        ("gate a 1\nedge zz yy x\n", "line 2: unknown gate 'zz'"),
        ("gate a 1\nedge a zz x\n", "line 2: unknown gate 'zz'"),
        ("gate a 1\nedge a a x\n", "line 2: bad FF count 'x'"),
        ("gate a 1\ngate a x\n", "line 2: duplicate gate name a"),
        ("gate x! x\n", "line 1: bad delay 'x'"),
        ("gate x! -3\n", "line 1: bad gate name 'x!'"),
    ):
        with pytest.raises(CircuitError) as err:
            parse_circuit(text)
        assert str(err.value) == message
    # a comment mid-line ends the record, so its words are not fields
    assert parse_circuit(two + "edge a b 0 # note 1\n").edges == (Edge(0, 1, 0),)


@pytest.mark.parametrize("text, line, build", [
    ("gate a 1\ngate x! 2\n", 2, lambda: Gate(1, "x!", 2)),
    ("gate a -3\n", 1, lambda: Gate(0, "a", -3)),
    ("gate a 1\ngate b 1\nedge a b -1\n", 3, lambda: Edge(0, 1, -1)),
    ("gate a 1\ngate a 2\n", 2,
     lambda: Circuit((Gate(0, "a", 1), Gate(1, "a", 2)), ())),
], ids=["bad_name", "negative_delay", "negative_ff_count", "duplicate_name"])
def test_parse_reports_the_record_constructors_message(text, line, build):
    with pytest.raises(CircuitError) as direct:
        build()
    with pytest.raises(CircuitError) as parsed:
        parse_circuit(text)
    assert str(parsed.value) == f"line {line}: {direct.value}"


def test_parse_checks_each_gate_name_once(monkeypatch):
    text = render_circuit(generate_random(650, edge_density=2.2, ff_prob=0.4, seed=42))
    name_re, calls = circuit._NAME_RE, []

    class CountingRe:
        def fullmatch(self, name):
            calls.append(name)
            return name_re.fullmatch(name)

    monkeypatch.setattr(circuit, "_NAME_RE", CountingRe())
    assert parse_circuit(text).n == 650
    assert len(calls) == 650


def test_combinational_cycle_rejected():
    text = "gate a 1\ngate b 1\nedge a b 0\nedge b a 0\n"
    with pytest.raises(CircuitError, match="combinational cycle"):
        parse_circuit(text)


def test_sta_ring3_period6(ring3):
    rep = sta(ring3, 6)
    assert rep.arrival == (2, 5, 4)
    assert rep.required == (3, 6, 6)
    assert rep.slack == (1, 1, 2)


def test_sta_ring3_period5_critical(ring3):
    rep = sta(ring3, 5)
    assert rep.slack[1] == 0  # gate b is critical
    assert rep.arrival[1] == 5


def test_sta_single_gate():
    c = parse_circuit("gate g 5\n")
    rep = sta(c, 5)
    assert rep.arrival == (5,)
    assert rep.required == (5,)
    assert rep.slack == (0,)


def test_sta_slack_identity():
    for seed in range(15):
        c = generate_random(10, seed=seed)
        T = sum(c.delays)
        rep = sta(c, T)
        for i in range(c.n):
            assert rep.slack[i] == rep.required[i] - rep.arrival[i]
            assert rep.arrival[i] >= c.delays[i]


def test_sta_arrival_matches_path_enumeration():
    # arrival = max over zero-FF paths of the path's effective-delay sum
    for seed in range(12):
        c = generate_random(9, edge_density=1.6, seed=seed)
        rep = sta(c, sum(c.delays))
        best = [c.delays[i] for i in range(c.n)]

        def walk(i, acc):
            if acc > best[i]:
                best[i] = acc
            for k in c.fanout[i]:
                e = c.edges[k]
                if e.w == 0:
                    walk(e.dst, acc + c.delays[e.dst])

        for i in range(c.n):
            walk(i, c.delays[i])
        assert list(rep.arrival) == best


def test_sta_weights_match_retimed_circuit():
    # sta under a retiming's weights equals sta of the retimed circuit
    rng = random.Random(11)
    moved = 0
    for seed in range(200):
        c = generate_random(rng.randint(2, 16), edge_density=rng.uniform(1.0, 2.5),
                            ff_prob=rng.uniform(0.2, 0.7), seed=seed)
        # periods up to the unretimed one, so most witnesses move FFs
        T = rng.randint(max(c.delays), max(sta(c, 0).arrival))
        r = feasible_retiming(c, T)
        if r is None:
            continue
        eff = [d + rng.randint(0, 5) for d in c.delays]
        weights = retimed_weights(c, r)
        moved_circuit = Circuit(c.gates, tuple(
            Edge(e.src, e.dst, w) for e, w in zip(c.edges, weights)))
        assert sta(c, T, eff, weights) == sta(moved_circuit, T, eff)
        moved += weights != [e.w for e in c.edges]
    assert moved > 40


def _zero_ff_closure(c, weights, gates):
    seen, stack = set(gates), list(gates)
    while stack:
        for k in c.fanout[stack.pop()]:
            v = c.edges[k].dst
            if weights[k] == 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _relabel_a_legal_set(rng, c, eff, weights):
    """Relabel a random gate set under fixed delays; the set."""
    moved = {i for i in range(c.n) if rng.random() < 0.3}
    while True:  # a gate with a zero-FF edge leaving the set keeps its label
        stuck = {e.src for e, w in zip(c.edges, weights)
                 if w == 0 and e.src in moved and e.dst not in moved}
        if not stuck:
            break
        moved -= stuck
    for k, e in enumerate(c.edges):
        weights[k] += (e.dst in moved) - (e.src in moved)
    return moved


def _raise_or_lower_one_delay(rng, c, eff, weights):
    """Raise or lower one gate's effective delay, to 0 at times, under
    fixed weights (finalize's fill trial and undo); the gate."""
    j = rng.randrange(c.n)
    if eff[j] == 0 or rng.random() < 0.5:
        eff[j] += rng.choice((1, 3))
    else:
        eff[j] -= rng.randint(1, eff[j])
    return [j]


@pytest.mark.parametrize("move", [_relabel_a_legal_set, _raise_or_lower_one_delay],
                         ids=["relabel", "delay"])
def test_forward_over_a_relabeled_cone_matches_a_full_pass(move):
    # rounds of relabeling a random legal gate set, or of changing one
    # gate's delay, each re-timed over the moved gates' zero-FF fanout cone
    # only, on circuits with zero-delay gates, self-loops and parallel edges
    rng = random.Random(31)
    partial = 0
    for seed in range(120):
        base = generate_random(rng.randint(1, 40), edge_density=rng.uniform(0.5, 3.0),
                               ff_prob=rng.uniform(0.1, 0.8),
                               delay_range=(0, 3) if seed % 2 else (1, 10), seed=seed)
        loops = tuple(Edge(i, i, rng.choice((1, 2))) for i in range(base.n)
                      if rng.random() < 0.2)
        twins = tuple(Edge(e.src, e.dst, e.w + rng.choice((0, 0, 1)))
                      for e in base.edges if rng.random() < 0.2)
        c = Circuit(base.gates, base.edges + loops + twins)
        eff = [d + rng.choice((0, 0, 3)) for d in c.delays]
        weights = [e.w for e in c.edges]
        _, a, src = circuit._forward(c, eff, weights)
        for _ in range(4):
            moved = move(rng, c, eff, weights)
            order, a, src = circuit._forward(c, eff, weights, moved, a, src)
            full, a_full, _ = circuit._forward(c, eff, weights)
            assert a == a_full
            cone = _zero_ff_closure(c, weights, moved)
            assert set(order) == cone and len(order) == len(cone)
            pos = {v: p for p, v in enumerate(order)}
            for e, w in zip(c.edges, weights):
                if w == 0 and e.src in pos:
                    assert pos[e.src] < pos[e.dst]
            partial += 0 < len(cone) < c.n
            # src[v] starts a zero-FF path ending at v whose delay is a[v]
            for s in set(src):
                longest = {s: eff[s]}  # longest zero-FF path from s
                for u in full:
                    if u in longest:
                        for k in c.fanout[u]:
                            v = c.edges[k].dst
                            if weights[k] == 0:
                                longest[v] = max(longest.get(v, 0), longest[u] + eff[v])
                for v in range(c.n):
                    if src[v] == s:
                        assert longest.get(v) == a[v]
    assert partial > 200


def test_negative_effective_delay_rejected(ring3):
    with pytest.raises(CircuitError, match="negative effective delay"):
        sta(ring3, 6, [2, -1, 4])


def test_generate_random_deterministic():
    a = generate_random(10, seed=7)
    b = generate_random(10, seed=7)
    assert a == b
    assert a != generate_random(10, seed=8)


def test_generate_random_single_gate():
    c = generate_random(1, seed=0)
    assert c.n == 1
    assert c.edges == ()
    with pytest.raises(CircuitError, match="no gates"):
        generate_random(0)


def test_generate_random_validates():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 40)
        c = generate_random(n, edge_density=rng.uniform(1.0, 2.5),
                            ff_prob=rng.random(), seed=rng.randint(0, 10**6))
        assert c.n == n
        assert all(e.w >= 0 for e in c.edges)
        sta(c, sum(c.delays))  # would raise on a combinational cycle
    with pytest.raises(ValueError, match="ff_prob"):
        generate_random(5, ff_prob=1.5)


def test_generate_random_stops_once_every_pair_has_an_edge():
    # 10 gates have 90 ordered pairs: a density past 9 adds no edge, so it
    # must not spend its 30 x 10^7 attempts looking for one
    t0 = time.perf_counter()
    for seed in range(5):
        dense = generate_random(10, edge_density=10**6, seed=seed)
        assert dense == generate_random(10, edge_density=9, seed=seed)
        assert len(dense.edges) == 90
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError, match="edge_density"):
        generate_random(10, edge_density=-0.5)


def test_generate_random_hits_target_density():
    c = generate_random(650, edge_density=2.2, seed=42)
    assert 1300 <= len(c.edges) <= 1450


def test_gate_name_lookup(ring3):
    assert ring3.gate_id("b") == 1
    with pytest.raises(KeyError):
        ring3.gate_id("zz")
