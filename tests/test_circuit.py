"""Circuit parsing, validation, and static timing analysis."""
import random

import pytest

from retislack import (CircuitError, apply_retiming, feasible_retiming,
                       generate_random, parse_circuit, render_circuit, sta)
from retislack.retime import retimed_weights
from conftest import RING3_TEXT


def test_parse_ring3(ring3):
    assert ring3.n == 3
    assert [g.name for g in ring3.gates] == ["a", "b", "c"]
    assert ring3.delays == (2, 3, 4)
    assert [(e.src, e.dst, e.w) for e in ring3.edges] == [
        (0, 1, 0), (1, 2, 1), (2, 0, 1)]
    assert ring3.total_ffs == 2


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


def test_parse_errors():
    with pytest.raises(CircuitError, match="no gates"):
        parse_circuit("# nothing\n")
    with pytest.raises(CircuitError, match="line 2.*duplicate"):
        parse_circuit("gate a 1\ngate a 2\n")
    with pytest.raises(CircuitError, match="line 1.*bad delay"):
        parse_circuit("gate a x\n")
    with pytest.raises(CircuitError, match="line 1.*negative delay"):
        parse_circuit("gate a -3\n")
    with pytest.raises(CircuitError, match="line 2.*unknown gate"):
        parse_circuit("gate a 1\nedge a b 0\n")
    with pytest.raises(CircuitError, match="line 3.*negative FF"):
        parse_circuit("gate a 1\ngate b 1\nedge a b -1\n")
    with pytest.raises(CircuitError, match="line 1.*unknown record"):
        parse_circuit("vertex a 1\n")


def test_combinational_cycle_rejected():
    text = "gate a 1\ngate b 1\nedge a b 0\nedge b a 0\n"
    with pytest.raises(CircuitError, match="combinational cycle"):
        parse_circuit(text)


def test_pi_po_classification(ring3):
    # the ring has no pure inputs/outputs
    assert ring3.pi == frozenset()
    assert ring3.po == frozenset()
    chain = parse_circuit("gate a 1\ngate b 2\nedge a b 0\n")
    assert chain.pi == frozenset({0})
    assert chain.po == frozenset({1})


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
        assert sta(c, T, eff, weights) == sta(apply_retiming(c, r), T, eff)
        moved += weights != [e.w for e in c.edges]
    assert moved > 40


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


def test_generate_random_validates():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 40)
        c = generate_random(n, edge_density=rng.uniform(1.0, 2.5),
                            ff_prob=rng.random(), seed=rng.randint(0, 10**6))
        assert c.n == n
        assert all(e.w >= 0 for e in c.edges)
        sta(c, sum(c.delays))  # would raise on a combinational cycle


def test_generate_random_hits_target_density():
    c = generate_random(650, edge_density=2.2, seed=42)
    assert 1300 <= len(c.edges) <= 1450


def test_gate_name_lookup(ring3):
    assert ring3.gate_id("b") == 1
    with pytest.raises(KeyError):
        ring3.gate_id("zz")
