"""Retiming legality, feasibility search, and minimum period."""
import itertools

import pytest

from retislack import (Retiming, RetimingError, apply_retiming,
                       feasible_retiming, generate_random, parse_circuit, sta)
from retislack.retime import min_period, retimed_weights


def test_zero_retiming_is_identity(ring3):
    r = Retiming((0, 0, 0))
    assert apply_retiming(ring3, r) == ring3


def test_retiming_moves_ff_between_ring_edges(ring3):
    # pull the FF of (c->a) onto (b->c)
    r = Retiming((0, 0, 1))
    moved = apply_retiming(ring3, r)
    assert [e.w for e in moved.edges] == [0, 2, 0]
    assert moved.total_ffs == ring3.total_ffs


def test_illegal_retiming_rejected(ring3):
    with pytest.raises(RetimingError, match="negative"):
        retimed_weights(ring3, Retiming((2, 0, 0)))


def test_cycle_ff_count_invariant():
    # FF count around any directed cycle never changes under a retiming
    for seed in range(10):
        c = generate_random(8, edge_density=1.8, ff_prob=0.6, seed=seed)
        T = sum(c.delays)
        r = feasible_retiming(c, T)
        moved = apply_retiming(c, r)
        # check every simple cycle found by DFS over edge sequences
        def cycles(limit=6):
            out = []
            for start in range(c.n):
                stack = [(start, [])]
                while stack:
                    u, path = stack.pop()
                    if len(path) > limit:
                        continue
                    for k in c.fanout[u]:
                        v = c.edges[k].dst
                        if v == start and path:
                            out.append(path + [k])
                        elif all(c.edges[q].src != v for q in path) and v != start:
                            stack.append((v, path + [k]))
            return out
        for cyc in cycles():
            before = sum(c.edges[k].w for k in cyc)
            after = sum(moved.edges[k].w for k in cyc)
            assert before == after


def test_feasible_retiming_ring3():
    c = parse_circuit("gate a 2\ngate b 3\ngate c 4\n"
                      "edge a b 0\nedge b c 1\nedge c a 1\n")
    r = feasible_retiming(c, 5)
    assert r is not None
    moved = apply_retiming(c, r)
    assert max(sta(moved, 5).arrival) <= 5
    assert feasible_retiming(c, 4) is None


def test_feasible_retiming_accepts_already_met(ring3):
    r = feasible_retiming(ring3, sum(ring3.delays))
    assert r is not None
    assert min(r.labels) == 0  # normalized


def test_feasible_retiming_matches_exhaustive_enumeration():
    # compare the yes/no answer with a full scan over label boxes
    for seed in range(8):
        c = generate_random(5, edge_density=1.6, ff_prob=0.5, seed=seed)
        n = c.n
        for T in (max(c.delays), max(c.delays) + 2, sum(c.delays)):
            found = False
            for labels in itertools.product(range(-n, n + 1), repeat=n):
                try:
                    moved = apply_retiming(c, Retiming(labels))
                except RetimingError:
                    continue
                try:
                    ok = max(sta(moved, T).arrival) <= T
                except Exception:
                    continue
                if ok:
                    found = True
                    break
            got = feasible_retiming(c, T)
            assert (got is not None) == found
            if got is not None:
                assert max(sta(apply_retiming(c, got), T).arrival) <= T


def test_min_period_ring3(ring3):
    t, r = min_period(ring3)
    assert t == 5
    assert max(sta(apply_retiming(ring3, r), 5).arrival) <= 5
    assert feasible_retiming(ring3, 4) is None


def test_min_period_self_loop():
    c = parse_circuit("gate g 20\nedge g g 1\n")
    t, _ = min_period(c)
    assert t == 20


def test_min_period_ring11_fixture():
    with open("fixtures/ring11.ckt") as f:
        c = parse_circuit(f.read())
    assert c.n == 11
    assert len(c.edges) == 19
    t, r = min_period(c)
    assert t == 20
    assert max(sta(apply_retiming(c, r), 20).arrival) <= 20


def test_min_period_monotone():
    for seed in range(10):
        c = generate_random(8, edge_density=1.8, ff_prob=0.5, seed=seed)
        t, _ = min_period(c)
        assert feasible_retiming(c, t) is not None
        assert feasible_retiming(c, t - 1) is None
        assert feasible_retiming(c, t + 1) is not None


def test_moving_ff_off_critical_chain_raises_slack():
    # five-gate chain, FF parked after the last combinational segment:
    # the whole front segment is critical with zero slack
    before = parse_circuit(
        "gate a 3\ngate b 3\ngate c 3\ngate d 3\ngate e 3\n"
        "edge a b 0\nedge b c 0\nedge c d 0\nedge d e 1\n")
    after = parse_circuit(
        "gate a 3\ngate b 3\ngate c 3\ngate d 3\ngate e 3\n"
        "edge a b 0\nedge b c 0\nedge c d 1\nedge d e 0\n")
    T = 12
    rep_b = sta(before, T)
    rep_a = sta(after, T)
    assert min(rep_b.slack[:4]) == 0
    assert min(rep_a.slack[:3]) == 3
    assert sum(rep_a.slack) > sum(rep_b.slack)
