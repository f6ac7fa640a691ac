"""Retiming legality, feasibility search, and minimum period."""
import itertools
import random

import pytest

from retislack import (Circuit, Edge, Gate, RetimingError, feasible_retiming,
                       generate_random, parse_circuit, retime, sta)
from retislack.circuit import _forward, arrivals
from retislack.retime import min_period, retimed_weights
from conftest import RING3_TEXT
from period_oracle import oracle_min_period


def test_zero_retiming_is_identity(ring3):
    assert retimed_weights(ring3, (0, 0, 0)) == [e.w for e in ring3.edges]


def test_retiming_moves_ff_between_ring_edges(ring3):
    # pull the FF of (c->a) onto (b->c)
    weights = retimed_weights(ring3, (0, 0, 1))
    assert weights == [0, 2, 0]
    assert sum(weights) == sum(e.w for e in ring3.edges)


def test_illegal_retiming_rejected(ring3):
    with pytest.raises(RetimingError, match="negative"):
        retimed_weights(ring3, (2, 0, 0))


def test_cycle_ff_count_invariant():
    # FF count around any directed cycle never changes under a retiming
    for seed in range(10):
        c = generate_random(8, edge_density=1.8, ff_prob=0.6, seed=seed)
        T = sum(c.delays)
        weights = retimed_weights(c, feasible_retiming(c, T))
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
            after = sum(weights[k] for k in cyc)
            assert before == after


def test_feasible_retiming_ring3(monkeypatch):
    c = parse_circuit("gate a 2\ngate b 3\ngate c 4\n"
                      "edge a b 0\nedge b c 1\nedge c a 1\n")
    r = feasible_retiming(c, 5)
    assert r is not None
    assert max(sta(c, 5, weights=retimed_weights(c, r)).arrival) <= 5
    assert feasible_retiming(c, 4) is None
    # two gates of delay 4 on a one-FF loop: at T = 4, b is relabeled, then
    # a, whose pointer closes the cycle a -> b -> a at node 0, a walk of
    # delay 8 over one FF, so the probe's bound is 8, not T + 1
    loop = parse_circuit("gate a 4\ngate b 4\nedge a b 0\nedge b a 1\n")
    assert retime._parent_cycle([1, 0], [0]) == 0
    assert retime._feas(loop, 4) == (None, 8)
    # min_period times the loop once and probes T = 6 only, whose bound 8
    # meets the unretimed period; the probe re-times b's cone once
    probes = []
    real = retime._feas
    monkeypatch.setattr(retime, "_feas",
                        lambda *args, **kw: probes.append(args[1]) or real(*args, **kw))
    rounds = _counting_rounds(monkeypatch)
    assert min_period(loop) == (8, (0, 0))
    assert probes == [6] and len(rounds) == 2


def test_feasible_retiming_accepts_already_met(ring3):
    r = feasible_retiming(ring3, sum(ring3.delays))
    assert r is not None
    assert min(r) == 0  # normalized


def _union(a, b):
    """Disjoint union of two circuits; b's gates are renamed and renumbered."""
    gates = a.gates + tuple(Gate(a.n + g.id, "u" + g.name, g.delay)
                            for g in b.gates)
    edges = a.edges + tuple(Edge(a.n + e.src, a.n + e.dst, e.w) for e in b.edges)
    return Circuit(gates, edges)


def _odd_circuits():
    """Zero-delay gates, self-loops with one and two FFs, disconnected parts."""
    out = [generate_random(5, edge_density=1.6, ff_prob=0.5, delay_range=(0, 3),
                           seed=seed) for seed in range(4)]
    out.append(parse_circuit("gate a 3\ngate b 2\ngate c 0\nedge a a 1\n"
                             "edge a b 0\nedge b c 1\nedge c a 0\n"))
    out.append(parse_circuit("gate a 4\ngate b 1\nedge a a 2\nedge a b 0\n"
                             "edge b a 1\n"))
    out.append(_union(parse_circuit(RING3_TEXT), parse_circuit(
        "gate x 6\ngate y 0\nedge x x 1\nedge x y 0\nedge y x 2\n")))
    out.append(_union(generate_random(2, ff_prob=0.5, seed=5),
                      generate_random(3, edge_density=1.6, ff_prob=0.5,
                                      delay_range=(0, 3), seed=6)))
    return out


def _exhaustively_feasible(c, T):
    """Whether some label vector in [-|V|, |V|]^|V| is legal and meets T."""
    n = c.n
    for labels in itertools.product(range(-n, n + 1), repeat=n):
        try:
            weights = retimed_weights(c, labels)
        except RetimingError:
            continue
        if max(sta(c, T, weights=weights).arrival) <= T:
            return True
    return False


def test_feasible_retiming_matches_exhaustive_enumeration():
    # compare the yes/no answer with a full scan over label boxes
    circuits = [generate_random(5, edge_density=1.6, ff_prob=0.5, seed=seed)
                for seed in range(8)] + _odd_circuits()
    for c in circuits:
        for T in sorted({max(c.delays), max(c.delays) + 2, sum(c.delays)}):
            got = feasible_retiming(c, T)
            assert (got is not None) == _exhaustively_feasible(c, T)
            if got is not None:
                weights = retimed_weights(c, got)
                assert max(sta(c, T, weights=weights).arrival) <= T


def _bisected_min_period(c, eff):
    """The reference search: plain bisection over feasible_retiming between
    the largest delay and the unretimed period, and the witness at the end."""
    lo, hi = max(eff), max(arrivals(c, eff))
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_retiming(c, mid, eff) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo, feasible_retiming(c, lo, eff)


def _assert_bounds_below(c, eff, tmin):
    """Every infeasible period from one below the largest delay up gets a
    bound above it and at most tmin; returns how many bounds pass T + 1."""
    jumps = 0
    for T in range(max(eff) - 1, tmin):
        r, bound = retime._feas(c, T, eff)
        assert r is None and T < bound <= tmin, (T, bound, tmin)
        jumps += bound > T + 1
    return jumps


def test_min_period_matches_oracle_on_odd_inputs():
    # a failed probe's bound lies in (T, Tmin], and min_period's (Tmin,
    # witness) is the plain bisection's
    jumps = 0
    for c in _odd_circuits():
        t, r = min_period(c)
        assert t == oracle_min_period(c)
        assert min(r) == 0  # normalized, like every witness
        assert max(sta(c, t, weights=retimed_weights(c, r)).arrival) <= t
        jumps += _assert_bounds_below(c, c.delays, t)
        assert (t, r) == _bisected_min_period(c, c.delays)
    assert jumps > 0
    # no edge: the largest delay is the period, witnessed by the zero labels
    assert min_period(parse_circuit("gate a 2\ngate b 3\n")) == (3, (0, 0))


def test_min_period_bounds_and_witness_match_plain_bisection():
    # on the random cases and the seed-42 circuits at 650 and 2600 gates
    # (raw delays, the level-0 delays under fixtures/curves4.json): a failed
    # probe's bound lies in (T, Tmin], with Tmin from the exhaustive oracle
    # up to 8 gates and from the plain bisection above that, and
    # min_period's (Tmin, witness) is the plain bisection's
    cases = [(c, eff) for c, eff, _ in _random_cases()]
    cases += [(c, c.delays) for c in (
        generate_random(n, edge_density=2.2, ff_prob=0.4, seed=42) for n in (650, 2600))]
    jumps = oracled = 0
    for c, eff in cases:
        ref = _bisected_min_period(c, eff)
        if c.n <= 8:
            assert ref[0] == oracle_min_period(c, eff)
            oracled += 1
        jumps += _assert_bounds_below(c, eff, ref[0])
        assert min_period(c, eff) == ref
    assert oracled > 30 and jumps > 400


def _relabel_rounds(c, T, eff, rounds):
    """Iterated relabeling one round at a time, every weight recomputed."""
    r = [0] * c.n
    ok = False
    for _ in range(rounds):
        weights = [e.w + r[e.dst] - r[e.src] for e in c.edges]
        bad = [i for i, a in enumerate(_forward(c, eff, weights)[1]) if a > T]
        if not bad:
            ok = True
            break
        for i in bad:
            r[i] += 1
    base = min(r)
    return ok, tuple(x - base for x in r)


def _random_cases():
    """150 random circuits of 1 to 40 gates, each with granted slack and a
    period between its largest effective delay and its unretimed period."""
    rng = random.Random(7)
    cases = []
    for seed in range(150):
        c = generate_random(rng.randint(1, 40), edge_density=rng.uniform(0.5, 3.0),
                            ff_prob=rng.uniform(0.1, 0.8),
                            delay_range=(0, 3) if seed % 3 == 0 else (1, 10),
                            seed=seed)
        eff = [d + rng.choice((0, 0, 2, 7)) for d in c.delays]
        cases.append((c, eff, rng.randint(max(eff), max(arrivals(c, eff)))))
    return cases


def test_feas_matches_round_by_round_relabeling():
    # the probe gives the same answer as plain rounds and, when feasible, the
    # same witness, which is a legal retiming; the odd circuits bring
    # self-loops and edges whose two ends violate T in the same round
    cases = _random_cases()
    for c in _odd_circuits():
        cases += [(c, c.delays, T) for T in range(max(c.delays),
                                                  max(arrivals(c, c.delays)) + 1)]
    for c, eff, T in cases:
        r = feasible_retiming(c, T, eff)
        ref_ok, ref = _relabel_rounds(c, T, eff, c.n + 1)
        assert (r is not None) == ref_ok
        if ref_ok:
            assert r == ref
            retimed_weights(c, r)  # raises if illegal


def test_feas_matches_round_by_round_relabeling_at_scale():
    # rounds after the first re-time only the relabeled gates' cone; at 150 to
    # 650 gates, periods from the largest delay (None must agree) through the
    # minimum period up to the unretimed period
    rng = random.Random(13)
    for n, seed in ((150, 1), (300, 2), (650, 7), (650, 42)):
        c = generate_random(n, edge_density=2.2, ff_prob=0.4, seed=seed)
        # the seed-42 circuit at its raw delays, the others with granted slack
        eff = c.delays if seed == 42 else [d + rng.choice((0, 0, 2, 7)) for d in c.delays]
        tmin, _ = min_period(c, eff)
        top = max(arrivals(c, eff))
        for T in sorted({max(eff), tmin - 1, tmin, (tmin + top) // 2, top}):
            r = feasible_retiming(c, T, eff)
            ref_ok, ref = _relabel_rounds(c, T, eff, c.n + 1)
            assert (r is not None) == ref_ok == (T >= tmin)
            if ref_ok:
                assert r == ref


def _with_self_loops(c, rng):
    """c plus a one- or two-FF self-loop on a random subset of its gates."""
    loops = tuple(Edge(i, i, rng.choice((1, 2))) for i in range(c.n)
                  if rng.random() < 0.3)
    return Circuit(c.gates, c.edges + loops)


def test_feas_witness_is_the_least_legal_labeling():
    # at every T from the largest delay to the unretimed period, the witness
    # is the componentwise least vector in [0, n]^n that is legal and meets T,
    # and None means no vector there is
    rng = random.Random(11)
    cases = []
    for seed in range(150):
        c = _with_self_loops(generate_random(
            rng.randint(2, 5), edge_density=rng.uniform(1.0, 2.5),
            ff_prob=rng.uniform(0.2, 0.9),
            delay_range=(0, 3) if seed % 2 else (1, 6), seed=seed), rng)
        cases.append((c, [d + rng.choice((0, 0, 2, 7)) for d in c.delays]))
    cases += [(c, c.delays) for c in _odd_circuits() if c.n <= 5]
    raised = 0
    for c, eff in cases:
        period = {}  # legal label vector -> its max arrival
        for labels in itertools.product(range(c.n + 1), repeat=c.n):
            try:
                weights = retimed_weights(c, labels)
            except RetimingError:
                continue
            period[labels] = max(_forward(c, eff, weights)[1])
        for T in range(max(eff), max(arrivals(c, eff)) + 1):
            meets = [v for v, p in period.items() if p <= T]
            got = feasible_retiming(c, T, eff)
            assert (got is not None) == bool(meets)
            if meets:
                assert got == tuple(map(min, zip(*meets)))
                raised += any(got)
    assert raised > 50  # witnesses that had to move some FF


def _with_parallel_edges(c, rng):
    """c plus a parallel copy, with as many FFs or up to two more, of some of
    its edges."""
    extra = tuple(Edge(e.src, e.dst, e.w + rng.choice((0, 1, 2)))
                  for e in c.edges if rng.random() < 0.3)
    return Circuit(c.gates, c.edges + extra)


def _random_legal_start(c, rng, steps):
    """A random walk over legal retimings from the zero one: a gate's label
    rises while each of its fanout edges to another gate keeps an FF, and
    falls while each of its fanin edges from another gate does."""
    r = [0] * c.n
    for _ in range(steps):
        i = rng.randrange(c.n)
        up = rng.random() < 0.5
        weights = retimed_weights(c, r)
        edges = c.fanout[i] if up else c.fanin[i]
        if all(weights[k] > 0 or c.edges[k].src == c.edges[k].dst for k in edges):
            r[i] += 1 if up else -1
    return tuple(r)


def _odd_random_circuit(rng, seed, n):
    """A random circuit, with zero-delay gates for one seed in three, plus
    self-loops and parallel edges."""
    c = generate_random(n, edge_density=rng.uniform(0.8, 2.8),
                        ff_prob=rng.uniform(0.2, 0.8),
                        delay_range=(0, 3) if seed % 3 == 0 else (1, 10), seed=seed)
    return _with_parallel_edges(_with_self_loops(c, rng), rng)


def test_feas_from_a_smaller_delays_witness_is_the_cold_witness():
    # the least witness under smaller effective delays is a lower bound of
    # the least witness under larger ones, so a search from it ends on the
    # cold witness, and agrees on None below the minimum period
    rng = random.Random(23)
    moved = infeasible = 0
    for seed in range(150):
        c = _odd_random_circuit(rng, seed, rng.randint(2, 40))
        low = [d + rng.choice((0, 0, 1, 3)) for d in c.delays]
        high = [x + rng.choice((0, 0, 1, 4)) for x in low]
        tmin, _ = min_period(c, high)
        for T in sorted({max(low), tmin - 1, tmin, tmin + rng.randint(1, 6)}):
            start = feasible_retiming(c, T, low)
            if start is None:
                continue
            cold = feasible_retiming(c, T, high)
            assert feasible_retiming(c, T, high, start) == cold
            assert (cold is None) == (T < tmin)
            moved += cold is not None and cold != start
            infeasible += cold is None
    assert moved > 50 and infeasible > 20


def test_feas_rejects_an_illegal_start(ring3):
    # edge (a, b) would carry -2 FFs; also below the largest delay
    for T in (5, 3):
        with pytest.raises(RetimingError, match="negative"):
            feasible_retiming(ring3, T, start=(2, 0, 0))


def _counting_rounds(monkeypatch):
    """Patch FEAS's timing pass to count its calls, one per round."""
    rounds = []
    real = retime._forward

    def counted(*args):
        rounds.append(1)
        return real(*args)

    monkeypatch.setattr(retime, "_forward", counted)
    return rounds


def test_feas_answer_from_any_start_is_the_least_above_it(monkeypatch):
    # from a legal start the witness is the componentwise least legal vector
    # at or above it that meets T, found within n rounds; labels above the
    # start's largest by n or more are never needed
    rounds = _counting_rounds(monkeypatch)
    rng = random.Random(29)
    raised = 0
    for seed in range(120):
        c = _with_self_loops(generate_random(
            rng.randint(2, 4), edge_density=rng.uniform(1.0, 2.5),
            ff_prob=rng.uniform(0.2, 0.9),
            delay_range=(0, 3) if seed % 2 else (1, 6), seed=seed), rng)
        eff = [d + rng.choice((0, 0, 2, 7)) for d in c.delays]
        start = _random_legal_start(c, rng, 8)
        top = max(start) + c.n
        period = {}  # legal label vector at or above start -> its max arrival
        for labels in itertools.product(*(range(s, top) for s in start)):
            try:
                weights = retimed_weights(c, labels)
            except RetimingError:
                continue
            period[labels] = max(_forward(c, eff, weights)[1])
        for T in range(max(eff), max(arrivals(c, eff)) + 1):
            meets = [v for v, p in period.items() if p <= T]
            rounds.clear()
            got = feasible_retiming(c, T, eff, start)
            assert len(rounds) <= c.n
            assert (got is not None) == bool(meets)
            if meets:
                assert got == tuple(map(min, zip(*meets)))
                raised += got != start
    assert raised > 60


def test_feas_round_bound_at_scale_and_tight_on_a_chain(monkeypatch):
    rounds = _counting_rounds(monkeypatch)
    rng = random.Random(31)
    for seed in range(40):
        c = _odd_random_circuit(rng, seed, rng.randint(20, 120))
        eff = [d + rng.choice((0, 0, 2, 7)) for d in c.delays]
        start = _random_legal_start(c, rng, 4 * c.n)
        tmin, _ = min_period(c, eff)
        for T in (tmin - 1, tmin, tmin + 3):
            rounds.clear()
            got = feasible_retiming(c, T, eff, start)
            assert len(rounds) <= c.n
            assert (got is not None) == (T >= tmin)
            if got is not None:
                assert all(x >= s for x, s in zip(got, start))
                assert max(sta(c, T, eff, retimed_weights(c, got)).arrival) <= T
    # each round relabels the next gate of a chain, so n rounds are needed
    n = 12
    chain = parse_circuit("".join(f"gate g{i} 2\n" for i in range(n)) + "".join(
        f"edge g{i} g{i + 1} {int(i > 0)}\n" for i in range(n - 1)))
    rounds.clear()
    assert feasible_retiming(chain, 3) == (0,) + (1,) * (n - 1)
    assert len(rounds) == n


def test_min_period_ring3(ring3):
    t, r = min_period(ring3)
    assert t == 5
    assert max(sta(ring3, 5, weights=retimed_weights(ring3, r)).arrival) <= 5
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
    assert max(sta(c, 20, weights=retimed_weights(c, r)).arrival) <= 20


def test_min_period_correlator_fixture():
    # the Leiserson-Saxe correlator: period 24 as given, 13 retimed
    with open("fixtures/correlator.ckt") as f:
        c = parse_circuit(f.read())
    assert max(sta(c, 0).arrival) == 24
    t, r = min_period(c)
    assert t == 13
    assert max(sta(c, 13, weights=retimed_weights(c, r)).arrival) <= 13


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
