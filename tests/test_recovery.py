"""Dual recovery, level snapping, and the end-to-end budgeting pipeline."""
import dataclasses
import random
import time
from bisect import bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from retislack import (Circuit, Edge, brute_force, circuit, feasible_retiming,
                       generate_random, make_curve, parse_circuit, recovery,
                       run_pipeline, sta)
from retislack.mcf import residual_potentials, solve_mcf
from retislack.power import breakpoints
from retislack.recovery import (K, BudgetResult, InfeasiblePeriodError,
                                RecoveryError, SlackAssignment, _snap,
                                _thresholds, finalize, min_slack_period,
                                recover_duals, recover_slacks, snap_levels,
                                verify_result)
from retislack.retime import retimed_weights
from retislack.transform import expand, split_graph
from conftest import CURVE3_PAIRS, curves_for, fraction_breakpoints, mixed_curve
from test_retime import _union


def test_recover_slacks_takes_min_over_fanins_and_window():
    c = parse_circuit("gate x 1\ngate y 1\ngate j 1\n"
                      "edge x j 0\nedge y j 1\n")
    curves = curves_for(c)
    T = 10
    g = split_graph(c, T, curves)
    j = c.gate_id("j")
    s1 = [7] * c.n               # per gate: its window value
    s2 = [5, -4]                 # per circuit edge: the w=0 fanin, and the
    out = recover_slacks(g, c, (s1, s2))  # w=1 one contributing -4 + T = 6
    assert out[j] == 5
    # gates without fanins keep their own window value
    assert out[c.gate_id("x")] == 7
    # values above the period come back as the period
    s1[j] = 12
    s2[:] = [11, 3]              # 3 + T = 13
    assert recover_slacks(g, c, (s1, s2))[j] == T


def test_recover_slacks_rejects_another_circuit():
    text = "gate x 1\ngate j 2\nedge x j 0\n"
    c = parse_circuit(text)
    g = split_graph(c, 40, curves_for(c))
    with pytest.raises(ValueError, match="not the circuit of the dual graph"):
        recover_slacks(g, parse_circuit(text), ([1, 2], [5]))


def test_recover_slacks_floors_at_window_lower():
    c = parse_circuit("gate x 1\ngate j 2\nedge x j 0\n")
    curves = curves_for(c)
    g = split_graph(c, 40, curves)
    j = c.gate_id("j")
    out = recover_slacks(g, c, ([1, 2], [-100]))
    assert out[j] == -100  # below the window: snapping is the one clamp
    assert snap_levels(out, curves, c.delays).levels[j] == 0  # smallest slack


def test_snap_levels_floor_to_grid(curve4):
    curves = {0: curve4, 1: curve4, 2: curve4}
    delays = (1, 1, 1)
    sbar = [1 + 3, 1 + 33, 1 + 12]
    asn = snap_levels(sbar, curves, delays)
    assert asn.levels == (0, 3, 1)
    assert asn.slacks == (0, 33, 10)
    assert asn.powers == (100, 10, 60)
    assert asn.total_power == 170
    assert asn.total_slack == 43


def test_snap_levels_monotone(curve4):
    curves = {0: curve4}
    prev = -1
    for budget in range(0, 34):
        lvl = snap_levels([budget], curves, (0,)).levels[0]
        assert lvl >= prev
        prev = lvl


def test_recover_duals_feasible_on_ring(ring3):
    curves = curves_for(ring3)
    g = split_graph(ring3, 5, curves)
    net = expand(g)
    sol = solve_mcf(net)
    dist = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    mu, (s1, s2) = recover_duals(g, dist)
    assert min(mu) == mu[g.v0] == 0  # the reference node sits lowest
    assert len(s1) == ring3.n and len(s2) == len(ring3.edges)
    for i in range(ring3.n):  # E1: reference node -> gate
        gap = mu[i] - mu[g.v0]
        assert gap >= g.lower[i]
        assert s1[i] == gap
    for k, e in enumerate(ring3.edges):  # E2: the sink's window minus T*w
        gap = mu[e.dst] - mu[e.src]
        assert gap >= g.lower[e.dst] - 5 * e.w
        assert s2[k] == gap


def test_recover_duals_rejects_violated_lower_bounds(ring3):
    g = split_graph(ring3, 5, curves_for(ring3))
    # all potentials equal: every E1 gap is 0, below the gate's delay
    with pytest.raises(RecoveryError, match="E1 edge"):
        recover_duals(g, (0,) * g.n_nodes)
    # E1 gaps exactly at their bounds (2, 3, 4), but a -> b gains only 1 of 3
    with pytest.raises(RecoveryError, match="E2 edge"):
        recover_duals(g, (-2, -3, -4, 0))


def test_recover_duals_single_level_curve_forced():
    c = parse_circuit("gate g 3\n")
    curves = {0: make_curve([(2, 9)])}
    g = split_graph(c, 9, curves)
    net = expand(g)
    sol = solve_mcf(net)
    dist = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    _, (s1, s2) = recover_duals(g, dist)
    assert s1 == [5] and s2 == []  # delay 3 + the only slack level 2


def test_recover_duals_potentials_above_nff_bar():
    # potentials here reach 31 > nff_bar = 18; clamping them broke the E1/E2
    # gaps and the pipeline used to raise RecoveryError
    c = generate_random(6, edge_density=1.8, ff_prob=0.4, seed=506 * 10007 + 138)
    curves = curves_for(c)
    res = run_pipeline(c, curves, T=18, check=True)
    verify_result(c, res)
    assert max(res.diagnostics["mu"]) > split_graph(c, 18, curves).nff_bar
    assert res.total_power >= brute_force(c, 18, curves).power


def test_finalize_keeps_feasible_assignment(ring3):
    curves = curves_for(ring3)
    asn = SlackAssignment((0, 0, 0), (0, 0, 0), (100,) * 3)
    res = finalize(ring3, 5, curves, asn)
    assert res.diagnostics["repair_steps"] == []
    assert res.diagnostics["snap_power"] == 300
    assert res.diagnostics["probes"] == 1
    assert res.assignment == asn
    assert res.achieved_period <= 5


def test_finalize_fills_slack_left_by_the_budget(ring3):
    # the all-minimum budget is feasible at once (k = K, one probe); the fill
    # then raises each gate through all three steps of its curve
    curves = curves_for(ring3)
    asn = SlackAssignment((0, 0, 0), (0, 0, 0), (100,) * 3)
    res = finalize(ring3, 200, curves, asn)
    assert res.assignment.levels == (3, 3, 3)
    assert res.total_power == 30
    assert res.diagnostics["fill_steps"] == 9
    assert res.diagnostics["probes"] == 1
    assert res.diagnostics["repair_steps"] == []
    verify_result(ring3, res)


def test_finalize_fills_steepest_breakpoint_first():
    # b and a share 10 units of slack on one zero-FF path; a's step saves
    # 10 per unit and b's 5, so a takes the slack although b has the lower id
    c = parse_circuit("gate b 1\ngate a 1\nedge a b 0\n")
    curves = {c.gate_id("a"): make_curve([(0, 100), (10, 0)]),
              c.gate_id("b"): make_curve([(0, 100), (10, 50)])}
    asn = SlackAssignment((0, 0), (0, 0), (100, 100))
    res = finalize(c, 12, curves, asn)
    assert res.assignment.slacks[c.gate_id("a")] == 10
    assert res.total_power == 100
    assert res.diagnostics["fill_steps"] == 1


def test_finalize_repairs_overbudget_assignment(ring3):
    curves = curves_for(ring3)
    asn = SlackAssignment((3, 3, 3), (33, 33, 33), (10,) * 3)
    res = finalize(ring3, 5, curves, asn)
    assert len(res.diagnostics["repair_steps"]) > 0
    assert res.diagnostics["snap_power"] == 30
    assert res.total_power > 30
    weights = retimed_weights(ring3, res.retiming)
    eff = [ring3.delays[j] + res.assignment.slacks[j] for j in range(3)]
    assert max(sta(ring3, 5, eff, weights).arrival) <= 5


def test_level_thresholds_match_the_scaled_snap(curve4):
    # one bisect of k into a gate's thresholds is the level that its scaled
    # slack s0 + k (s - s0) // K snaps down to, at every k in 0..K: for
    # one-level curves, s = s0, slacks off the grid, and check_mixed's
    # 1-7-level curves
    rng = random.Random(37)
    cs = [make_curve([(0, 9)]), make_curve([(3, 9)]), curve4,
          make_curve(CURVE3_PAIRS), make_curve([(2, 50), (5, 20), (13, 4)])]
    cs += [make_curve(mixed_curve(rng)) for _ in range(30)]
    for cur in cs:
        s0 = cur.slacks[0]
        for s in sorted({s0 - 1, s0, s0 + 1, *cur.slacks, cur.slacks[-1] + 3}):
            thresholds = _thresholds(cur, s)
            assert thresholds == sorted(thresholds)
            for k in range(K + 1):
                assert bisect_right(thresholds, k) == _snap(
                    cur, s0 + k * (s - s0) // K)


def _fill_two_gates(first, second, T):
    """Levels finalize gives gates a -> b (delay 1 each, no FF) from level
    0, with curve pairs `first` on a (id 0) and `second` on b (id 1)."""
    c = parse_circuit("gate a 1\ngate b 1\nedge a b 0\n")
    curves = {0: make_curve(first), 1: make_curve(second)}
    res = finalize(c, T, curves, snap_levels([1, 1], curves, c.delays))
    assert res.diagnostics["fill_steps"] == 1
    return res.assignment.levels


def test_fill_ties_equal_slopes_by_gate_id():
    # slopes 20/10 and 2/1 are equal; the path's 10 units of slack take
    # either step but not both, and the lower gate id takes it either way
    steep, shallow = [(0, 200), (10, 180)], [(0, 10), (1, 8)]
    assert _fill_two_gates(steep, shallow, 12) == (1, 0)
    assert _fill_two_gates(shallow, steep, 12) == (1, 0)


def test_fill_orders_near_equal_slopes_on_coprime_steps_exactly():
    # (7m + 2) / 7 beats (11m + 3) / 11 by 1/77, below float resolution at
    # m = 10**16; the 11 units of slack take one step, the steeper one
    m = 10 ** 16
    a, b = 7 * m + 2, 11 * m + 3
    assert a / 7 == b / 11 and Fraction(a, 7) > Fraction(b, 11)
    by7, by11 = [(0, a + 1), (7, 1)], [(0, b + 1), (11, 1)]
    assert _fill_two_gates(by11, by7, 13) == (0, 1)
    assert _fill_two_gates(by7, by11, 13) == (1, 0)


def _reference_finalize(c, T, curves, asn):
    """finalize with each probe's levels snapped from the scaled slack, cold
    searches, a fill heap keyed by Fraction slopes and a fresh sta for each
    step: (levels, retiming, achieved period, probes)."""
    cs = [curves[j] for j in range(c.n)]
    seen, lo, hi, k, best = {}, -1, K + 1, K, None
    while hi - lo > 1:
        levels = tuple(_snap(cur, cur.slacks[0] + k * (s - cur.slacks[0]) // K)
                       for cur, s in zip(cs, asn.slacks))
        if levels not in seen:
            eff = [d + cur.slacks[q] for d, cur, q in zip(c.delays, cs, levels)]
            seen[levels] = eff, feasible_retiming(c, T, eff)
        if seen[levels][1] is None:
            hi = k
        else:
            lo, best = k, levels
        k = (lo + hi) // 2
    (eff, r), levels = seen[best], list(best)
    weights = retimed_weights(c, r)
    slopes = [fraction_breakpoints(cur) for cur in cs]
    heap = [(-slopes[j][q], j) for j, q in enumerate(levels) if q + 1 < cs[j].nlevels]
    heapify(heap)
    while heap:
        _, j = heappop(heap)
        cur, q = cs[j], levels[j]
        step = cur.slacks[q + 1] - cur.slacks[q]
        if sta(c, T, eff, weights).slack[j] >= step:
            levels[j] = q + 1
            eff[j] += step
            if q + 2 < cur.nlevels:
                heappush(heap, (-slopes[j][q + 1], j))
    return tuple(levels), r, max(sta(c, T, eff, weights).arrival), len(seen)


def _snapped(c, T, curves):
    g = split_graph(c, T, curves)
    net = expand(g)
    dist = residual_potentials(net, solve_mcf(net), g.v0, sentinel=g.nff_bar)
    return snap_levels(recover_slacks(g, c, recover_duals(g, dist)[1]),
                       curves, c.delays)


def test_finalize_matches_a_fraction_keyed_reference(monkeypatch):
    # the prime-slope ring (lcm of the slack steps: the product of 20
    # primes) over a range of periods, then random circuits with coprime and
    # check_mixed curves, from the snapped flow budget and from random levels;
    # some fill steps pass the stale-slack precheck and are undone
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83)
    ring = parse_circuit("".join(f"gate g{i} 3\n" for i in range(20)) +
                         "".join(f"edge g{i} g{(i + 1) % 20} {int(i % 3 == 2)}\n"
                                 for i in range(20)))
    prime_curves = {j: make_curve([(0, 1000), (p, 0)]) for j, p in enumerate(primes)}
    cases = [(ring, T, prime_curves, _snapped(ring, T, prime_curves))
             for T in range(12, 120, 7)]
    rng = random.Random(41)
    for seed in range(60):
        c = _random_odd_circuit(rng, 6000 + seed)
        pick = _coprime_curve if seed % 2 else (lambda r: make_curve(mixed_curve(r)))
        curves = {j: pick(rng) for j in range(c.n)}
        T = min_slack_period(c, curves)[0] + rng.randint(0, 12)
        cs = [curves[j] for j in range(c.n)]
        random_levels = [rng.randrange(cur.nlevels) for cur in cs]
        cases += [(c, T, curves, _snapped(c, T, curves)),
                  (c, T, curves, recovery._at_levels(cs, random_levels))]
    cone_peaks = []  # latest arrival in each cone the fill re-times

    def forward(c, eff, weights, cone=None, a=None, src=None):
        out = circuit._forward(c, eff, weights, cone, a, src)
        if cone is not None:
            cone_peaks.append(max(out[1][v] for v in out[0]))
        return out

    monkeypatch.setattr(recovery, "_forward", forward)
    filled = undone = 0
    for c, T, curves, asn in cases:
        cone_peaks.clear()
        res = finalize(c, T, curves, asn)
        assert _reference_finalize(c, T, curves, asn) == (
            res.assignment.levels, res.retiming, res.achieved_period,
            res.diagnostics["probes"])
        filled += res.diagnostics["fill_steps"] > 1
        undone += sum(peak > T for peak in cone_peaks)
    assert filled > 40 and undone > 0


def test_pipeline_ring3_matches_oracle(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=5, check=True)
    opt = brute_force(ring3, 5, curves)
    assert opt.power == 300  # all gates pinned to the zero-slack level
    assert res.total_power >= opt.power
    assert res.total_power == 300
    assert res.period == 5
    assert res.achieved_period <= 5
    assert res.diagnostics["checked"]


def test_pipeline_defaults_to_min_period(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves)
    assert res.period == 5
    assert res.diagnostics["tmin"] == 5


@pytest.mark.parametrize("T", [13, 14, 20, 24])
def test_pipeline_correlator_checks_and_stays_above_the_optimum(T):
    with open("fixtures/correlator.ckt") as f:
        c = parse_circuit(f.read())
    curves = curves_for(c)
    res = run_pipeline(c, curves, T=T, check=True)
    assert res.diagnostics["checked"]
    assert res.total_power >= brute_force(c, T, curves).power


def test_pipeline_retiming_is_a_label_tuple(ring3):
    with open("fixtures/correlator.ckt") as f:
        correlator = parse_circuit(f.read())
    for c in (ring3, correlator):
        r = run_pipeline(c, curves_for(c)).retiming
        assert type(r) is tuple and len(r) == c.n
        assert all(type(x) is int for x in r) and min(r) == 0


@pytest.mark.xfail(strict=True, reason="a gate with no fanin edge carries no "
                   "curve in the flow, so its power never enters the flow cost")
def test_pipeline_prices_a_gate_with_no_fanin():
    # slacks (20, 20) meet T = 40 unretimed for power 60, but the flow sees
    # no cost, snaps gate a to level 0 and b to the top: power 110
    c = parse_circuit("gate a 0\ngate b 0\nedge a b 0\n")
    assert run_pipeline(c, curves_for(c), T=40).total_power <= 60


def test_pipeline_rejects_period_below_minimum(ring3):
    curves = curves_for(ring3)
    with pytest.raises(InfeasiblePeriodError, match="minimum"):
        run_pipeline(ring3, curves, T=4)
    # finalize called directly: no probe down to level 0 meets T
    with pytest.raises(InfeasiblePeriodError, match="even at minimum slack$"):
        finalize(ring3, 4, curves, snap_levels([5, 5, 5], curves, ring3.delays))


@pytest.mark.parametrize("T", [7.5, True], ids=["float", "bool"])
def test_pipeline_rejects_a_period_that_is_not_an_integer(ring3, T):
    # 7.5 would run and report period 7.5; True would run as period 1
    with pytest.raises(ValueError, match="period must be an integer"):
        run_pipeline(ring3, curves_for(ring3), T=T, check=True)


def test_pipeline_generous_period_grants_slack(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=200, check=True)
    # plenty of headroom: some slack granted, power strictly below all-minimum
    assert res.diagnostics["repair_steps"] == []
    assert res.total_slack >= 33
    assert 30 <= res.total_power < 300


def test_pipeline_sound_on_random_circuits():
    for seed in range(12):
        c = generate_random(9, edge_density=1.8, ff_prob=0.4, seed=seed)
        curves = curves_for(c, CURVE3_PAIRS)
        res = run_pipeline(c, curves, check=True)
        weights = retimed_weights(c, res.retiming)
        eff = [c.delays[j] + res.assignment.slacks[j] for j in range(c.n)]
        rep = sta(c, res.period, eff, weights)
        assert max(rep.arrival) <= res.period
        for j in range(c.n):
            assert res.assignment.slacks[j] in curves[j].slacks


def _random_curve(rng):
    """Convex nonincreasing curve of 1-5 levels, some with mandatory slack."""
    slack = rng.choice((0, 0, 0, 1, 4))
    segments = rng.randint(0, 3) if rng.random() < 0.9 else 4
    slopes = sorted((rng.randint(0, 8) for _ in range(segments)), reverse=True)
    gaps = [rng.randint(1, 12) for _ in slopes]
    power = sum(k * g for k, g in zip(slopes, gaps)) + rng.randint(1, 30)
    pairs = [(slack, power)]
    for k, g in zip(slopes, gaps):
        slack += g
        power -= k * g
        pairs.append((slack, power))
    return make_curve(pairs)


def _random_odd_circuit(rng, seed):
    """Random circuit with zero-delay gates, self-loops or two parts."""
    def part(n, s):
        return generate_random(n, edge_density=rng.uniform(0.8, 2.4),
                               ff_prob=rng.uniform(0.2, 0.7),
                               delay_range=rng.choice(((0, 3), (1, 10))), seed=s)
    c = part(rng.randint(1, 8), seed)
    if rng.random() < 0.4:
        c = _union(c, part(rng.randint(1, 5), seed + 7919))
    loops = tuple(Edge(i, i, rng.randint(1, 2))
                  for i in rng.sample(range(c.n), min(c.n, rng.randint(0, 2))))
    return Circuit(c.gates, c.edges + loops)


def test_pipeline_properties_on_odd_inputs():
    # per-gate mixed curves (single-level ones too), zero delays, self-loops
    # and disjoint unions: every budget verifies, no recovered value exceeds
    # the period, and power never drops below the exhaustive optimum; above
    # the minimum period the fill must spend the extra slack, so the average
    # excess over the optimum stays small there
    rng = random.Random(11)
    excess = []
    for seed in range(120):
        c = _random_odd_circuit(rng, seed)
        curves = {j: _random_curve(rng) for j in range(c.n)}
        T = None
        if rng.random() < 0.5:
            T = min_slack_period(c, curves)[0] + rng.randint(0, 15)
        res = run_pipeline(c, curves, T=T, check=True)
        assert res.diagnostics["checked"]
        assert max(res.diagnostics["sbar"]) <= res.period
        # the reference node (node n, the tail of every E1 edge) sits at 0
        mu = res.diagnostics["mu"]
        assert mu[c.n] == 0
        # the flow's potentials carry a legal retiming: with A_i = mu_i -
        # mu_v0, every E2 edge has A_j - A_i >= d_j + s_j - T w_ij >= -T w_ij,
        # so r_i = ceil(A_i / T) - 1 keeps every edge's FF count >= 0, and
        # FEAS at level 0 from it finds a retiming, since T >= Tmin
        r = [-(-(mu[i] - mu[c.n]) // res.period) - 1 for i in range(c.n)]
        assert all(e.w + r[e.dst] - r[e.src] >= 0 for e in c.edges)
        level0 = [d + curves[j].slacks[0] for j, d in enumerate(c.delays)]
        assert feasible_retiming(c, res.period, level0, start=r) is not None
        if c.n <= 10 and all(cur.nlevels <= 4 for cur in curves.values()):
            opt = brute_force(c, res.period, curves).power
            assert res.total_power >= opt
            if res.period > res.diagnostics["tmin"]:
                excess.append(res.total_power / opt - 1)
    assert len(excess) > 20
    assert sum(excess) / len(excess) <= 0.10


def _coprime_curve(rng):
    """Convex nonincreasing curve of 1-4 levels whose slack gaps are distinct
    primes, so its slopes are mostly not integers."""
    gaps = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3))
    segs = sorted(((rng.randint(0, 60), g) for g in gaps),
                  key=lambda t: Fraction(*t), reverse=True)
    slack = rng.choice((0, 0, 1, 3))
    power = sum(drop for drop, _ in segs) + rng.randint(1, 30)
    pairs = [(slack, power)]
    for drop, g in segs:
        slack += g
        power -= drop
        pairs.append((slack, power))
    return make_curve(pairs)


def test_pipeline_properties_with_non_integer_slopes():
    # the flow's capacity scale is the lcm of the slope denominators; every
    # budget verifies and never drops below the exhaustive optimum
    rng = random.Random(13)
    fractional = 0
    for seed in range(80):
        c = _random_odd_circuit(rng, 9000 + seed)
        curves = {j: _coprime_curve(rng) for j in range(c.n)}
        fractional += any(drop % step for cur in curves.values()
                          for drop, step in breakpoints(cur))
        T = None
        if rng.random() < 0.5:
            T = min_slack_period(c, curves)[0] + rng.randint(0, 15)
        res = run_pipeline(c, curves, T=T, check=True)
        assert res.diagnostics["checked"]
        if c.n <= 10:
            assert res.total_power >= brute_force(c, res.period, curves).power
    assert fractional >= 60


def test_check_rejects_a_flow_cost_the_oracle_disagrees_with(ring3, monkeypatch):
    real = recovery.solve_mcf

    def off_by_one(net):
        sol = real(net)
        return dataclasses.replace(sol, cost=sol.cost + 1)
    monkeypatch.setattr(recovery, "solve_mcf", off_by_one)
    curves = curves_for(ring3)
    with pytest.raises(RecoveryError, match="disagrees"):
        run_pipeline(ring3, curves, check=True)
    run_pipeline(ring3, curves)  # without check the cost is not compared


def test_check_starts_the_oracle_from_the_certificate(ring3, monkeypatch):
    seen = {}
    real_potentials, real_oracle = recovery.residual_potentials, recovery.ssp_oracle

    def potentials(*args, **kwargs):
        seen["dist"] = real_potentials(*args, **kwargs)
        return seen["dist"]

    def oracle(net, prices=None):
        seen["prices"] = prices
        return real_oracle(net, prices)
    monkeypatch.setattr(recovery, "residual_potentials", potentials)
    monkeypatch.setattr(recovery, "ssp_oracle", oracle)
    run_pipeline(ring3, curves_for(ring3), T=6, check=True)
    assert seen["prices"] is seen["dist"]


def test_check_leaves_the_answer_unchanged():
    rng = random.Random(23)
    for seed in range(20):
        c = generate_random(rng.randint(10, 60), edge_density=2.0,
                            ff_prob=0.4, seed=7000 + seed)
        curves = {j: _random_curve(rng) for j in range(c.n)}
        T = min_slack_period(c, curves)[0] + rng.randint(0, 5)
        plain = run_pipeline(c, curves, T=T)
        checked = run_pipeline(c, curves, T=T, check=True)
        assert checked.assignment == plain.assignment
        assert checked.retiming == plain.retiming
        assert checked.achieved_period == plain.achieved_period
        diag, plain_diag = dict(checked.diagnostics), dict(plain.diagnostics)
        for d in (diag, plain_diag):
            d.pop("stages")  # wall times differ from run to run
        assert diag.pop("checked") is True
        assert diag.pop("oracle_phases") <= diag.pop("oracle_augmentations")
        assert diag == plain_diag


def test_pipeline_reports_stage_times_and_network_size():
    rng = random.Random(29)
    names = ["retime.min_period_s", "transform.split_graph_s",
             "transform.expand_s", "mcf.solve_s", "mcf.potentials_s",
             "recovery.recover_s", "recovery.finalize_s"]
    for seed in range(6):
        c = generate_random(rng.randint(6, 40), edge_density=2.0,
                            ff_prob=0.4, seed=8000 + seed)
        curves = {j: _random_curve(rng) for j in range(c.n)}
        T = min_slack_period(c, curves)[0] + rng.randint(0, 3)
        net = expand(split_graph(c, T, curves))
        for check in (False, True):
            t0 = time.perf_counter()
            diag = run_pipeline(c, curves, T=T, check=check).diagnostics
            wall = time.perf_counter() - t0
            stages = diag["stages"]
            assert list(stages) == names + (
                ["mcf.oracle_s", "recovery.verify_s"] if check else [])
            assert all(t >= 0 for t in stages.values())
            assert sum(stages.values()) <= wall
            assert (diag["arcs"], diag["nodes"], diag["scale"]) == (
                len(net.arcs), net.n_nodes, net.scale)


def test_verify_result_catches_corruption(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=6)
    bad = BudgetResult(res.assignment, res.retiming, res.period,
                       res.achieved_period + 1)
    with pytest.raises(RecoveryError, match="achieved period"):
        verify_result(ring3, bad)
    bad = BudgetResult(res.assignment, res.retiming, res.achieved_period - 1,
                       res.achieved_period)
    with pytest.raises(RecoveryError, match="period violated"):
        verify_result(ring3, bad)


def test_min_slack_period_accounts_for_mandatory_slack(ring3):
    curves = {g.id: make_curve([(2, 50), (4, 20)])
              for g in ring3.gates}
    t, _ = min_slack_period(ring3, curves)
    # every gate is 2 units slower than its raw delay
    assert t == 9
