"""Min-cost circulation: cost-scaling solver vs the augmenting-path oracle."""
import json
import random

import pytest

from retislack import generate_random, load_curves, render_circuit
from retislack.mcf import (FlowSolution, SolverError, _live_arcs,
                           _raise_potentials, _Residual, residual_potentials,
                           solve_mcf, ssp_oracle)
from retislack.transform import FlowNetwork, expand, split_graph
from retislack.recovery import min_slack_period
from conftest import curves_for, mixed_curve


def verify_circulation(net, sol):
    """Raise unless the solution is a capacity-feasible, conserved flow."""
    node_bal = [0] * net.n_nodes
    for a, x in zip(net.arcs, sol.flows):
        src, dst, _, upper = a
        if not (0 <= x <= upper):
            raise SolverError(f"flow {x} outside bounds on arc {a}")
        node_bal[src] -= x
        node_bal[dst] += x
    if any(node_bal):
        raise SolverError("flow conservation violated")


def verify_optimal(net, sol):
    """Raise unless the flow is a circulation with no negative-cost cycle
    in its residual network (Bellman-Ford from a virtual source at every
    node, O(n*m))."""
    verify_circulation(net, sol)
    residual = []
    for (src, dst, cost, upper), x in zip(net.arcs, sol.flows):
        if x < upper:
            residual.append((src, dst, cost))
        if x > 0:
            residual.append((dst, src, -cost))
    dist = [0] * net.n_nodes
    for _ in range(net.n_nodes + 1):
        changed = False
        for u, v, c in residual:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return
    raise SolverError("negative-cost residual cycle: flow is not optimal")


def net_of(arc_tuples, n):
    return FlowNetwork(n, tuple(arc_tuples))


def random_net(n, m, rng, cost_range=1000, cap_range=50):
    arcs = []
    for _ in range(m):
        s = rng.randrange(n)
        d = rng.randrange(n)
        arcs.append((s, d, rng.randint(-cost_range, cost_range),
                     rng.randint(0, cap_range)))
    return net_of(arcs, n)


def test_two_node_cycle():
    net = net_of([(0, 1, -5, 3), (1, 0, 1, 10)], 2)
    sol = solve_mcf(net)
    assert sol.flows == (3, 3)
    assert sol.cost == -12
    verify_optimal(net, sol)
    assert ssp_oracle(net).cost == -12


def test_nonnegative_costs_mean_zero_flow():
    net = net_of([(0, 1, 4, 5), (1, 2, 0, 5), (2, 0, 3, 5)], 3)
    sol = solve_mcf(net)
    assert sol.flows == (0, 0, 0)
    assert sol.cost == 0


def test_negative_self_loop_saturates():
    net = net_of([(0, 0, -2, 7)], 1)
    sol = solve_mcf(net)
    assert sol.flows == (7,)
    assert sol.cost == -14
    assert ssp_oracle(net).cost == -14


def test_matches_oracle_on_expanded_pipeline_network(ring3):
    curves = curves_for(ring3)
    tmin, _ = min_slack_period(ring3, curves)
    net = expand(split_graph(ring3, tmin, curves))
    a = solve_mcf(net)
    b = ssp_oracle(net)
    assert a.cost == b.cost
    verify_optimal(net, a)
    verify_optimal(net, b)


def test_matches_oracle_on_random_networks():
    rng = random.Random(20240)
    for _ in range(40):
        n = rng.randint(2, 30)
        net = random_net(n, rng.randint(1, 3 * n), rng)
        a = solve_mcf(net)
        b = ssp_oracle(net)
        assert a.cost == b.cost
        verify_optimal(net, a)
        verify_optimal(net, b)


def test_parallel_and_dense_networks():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(2, 8)
        net = random_net(n, 6 * n, rng, cost_range=20, cap_range=5)
        assert solve_mcf(net).cost == ssp_oracle(net).cost


def test_residual_potentials_star():
    # zero optimal flow on positive costs: distances = direct arc costs
    net = net_of([(0, 1, 4, 5), (0, 2, 7, 5)], 3)
    sol = solve_mcf(net)
    dist = residual_potentials(net, sol, 0, sentinel=-1)  # every node reached
    assert dist == (0, 4, 7)


def test_residual_potentials_reduced_cost_property():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 12)
        net = random_net(n, 3 * n, rng, cost_range=50, cap_range=9)
        sol = solve_mcf(net)
        marker = 10**9  # flags nodes the search never reaches
        dist = residual_potentials(net, sol, 0, sentinel=marker)
        reach = [d != marker for d in dist]
        for (src, dst, cost, upper), x in zip(net.arcs, sol.flows):
            if not (reach[src] and reach[dst]):
                continue
            if x < upper:  # forward residual arc
                assert dist[dst] <= dist[src] + cost
            if x > 0:  # reverse residual arc
                assert dist[src] <= dist[dst] - cost


def test_unreachable_node_gets_sentinel():
    net = net_of([(0, 1, 3, 2)], 3)
    sol = solve_mcf(net)
    dist = residual_potentials(net, sol, 0, sentinel=42)
    assert dist[2] == 42


def test_residual_potentials_raise_on_a_feasible_flow_that_is_not_optimal():
    # 4 units cross from 0 to 1: optimal puts 3 on the -5 arc and 1 on the
    # -2 arc; moving one unit to the costlier arc keeps the flow feasible
    # and leaves the residual cycle 0 -> 1 (-5), 1 -> 0 (+2) of cost -3,
    # whose second arc is the backward residual arc of a carrying arc
    net = net_of([(0, 1, -5, 3), (0, 1, -2, 3), (1, 0, 0, 4)], 2)
    sol = solve_mcf(net)
    assert sol.flows == (3, 1, 4)
    assert residual_potentials(net, sol, 0, sentinel=-1) == (0, -2)
    bad = FlowSolution((2, 2, 4), sol.cost + 3, 0, 0)
    verify_circulation(net, bad)
    with pytest.raises(SolverError, match="negative cycle"):
        residual_potentials(net, bad, 0, sentinel=-1)


def test_residual_potentials_raise_on_a_pipeline_flow_moved_off_optimum():
    c = generate_random(30, edge_density=2.2, ff_prob=0.4, seed=42)
    curves = curves_for(c)
    tmin, _ = min_slack_period(c, curves)
    g = split_graph(c, tmin, curves)
    net = expand(g)
    sol = solve_mcf(net)
    # the optimum passes, and its distances price every residual arc >= 0
    dist = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    for (src, dst, cost, upper), x in zip(net.arcs, sol.flows):
        if x < upper:
            assert dist[dst] <= dist[src] + cost
        if x > 0:
            assert dist[src] <= dist[dst] - cost
    # the first cheaper arc with flow whose costlier parallel arc has room
    arcs, flows = net.arcs, list(sol.flows)
    lo, hi = next((i, k) for i, (src, dst, cost, _) in enumerate(arcs) if flows[i] > 0
                  for k, (src2, dst2, cost2, upper2) in enumerate(arcs)
                  if (src2, dst2) == (src, dst) and cost2 > cost and flows[k] < upper2)
    flows[lo] -= 1
    flows[hi] += 1
    bad = FlowSolution(tuple(flows), sol.cost + arcs[hi][2] - arcs[lo][2], 0, 0)
    verify_circulation(net, bad)
    with pytest.raises(SolverError, match="negative cycle"):
        residual_potentials(net, bad, g.v0, sentinel=g.nff_bar)


def test_verify_rejects_bad_solutions():
    net = net_of([(0, 1, -5, 3), (1, 0, 1, 10)], 2)
    for flows in ((4, 4), (-1, -1)):
        with pytest.raises(SolverError, match="outside bounds"):
            verify_circulation(net, FlowSolution(flows, 0, 0, 0))
    with pytest.raises(SolverError, match="conservation"):
        verify_circulation(net, FlowSolution((3, 2), 0, 0, 0))
    with pytest.raises(SolverError, match="not optimal"):
        verify_optimal(net, FlowSolution((0, 0), 0, 0, 0))


def test_solver_statistics_present():
    net = net_of([(0, 1, -5, 3), (1, 0, 1, 10)], 2)
    sol = solve_mcf(net)
    assert sol.iterations >= 0
    assert sol.phases >= 1  # the zero flow is not optimal: flow must move


def test_price_refinement_skips_phases_an_optimal_flow_needs_not():
    # the only cycle costs -5 + 10 > 0, so the zero flow is optimal; cost
    # scaling still starts at eps = 5 (times n + 1), but prices that make the
    # zero flow eps-optimal exist at every eps, and no phase runs
    net = net_of([(0, 1, -5, 3), (1, 0, 10, 3)], 2)
    sol = solve_mcf(net)
    assert (sol.flows, sol.cost) == ((0, 0), 0)
    assert (sol.phases, sol.iterations) == (0, 0)


BIG = 2**40  # beyond the capacity `big` of any benchmark network

ODD_NETWORKS = {
    "zero capacities": ([(0, 1, -5, 0), (1, 0, -3, 0), (0, 1, -1, 2),
                         (1, 0, 2, 2), (1, 2, -9, 0)], 3),
    "negative self-loops": ([(0, 0, -2, 7), (1, 1, -1, 3), (0, 1, -1, 4),
                             (1, 0, 0, 4), (2, 2, 3, 5)], 3),
    "parallel equal costs": ([(0, 1, -3, 2), (0, 1, -3, 5), (1, 0, 1, 4),
                              (1, 0, 1, 4), (1, 2, 0, 3), (2, 0, 0, 3)], 3),
    "isolated nodes": ([(1, 3, -4, 6), (3, 1, 2, 2), (3, 1, 1, 3)], 6),
    "large capacities": ([(0, 1, -7, BIG), (1, 2, 3, BIG), (2, 0, 1, BIG),
                          (1, 0, 5, BIG // 3), (2, 1, -1, BIG)], 3),
    "large capacities, bottleneck": ([(0, 1, -1000, BIG), (1, 0, 999, 5),
                                      (1, 2, 0, BIG), (2, 0, 0, 17)], 3),
    # cost x capacity far beyond 64 bits: Python ints do not overflow
    "huge cost times capacity": ([(0, 1, -2**40, 2**30), (1, 0, 2**40 - 3, 2**30),
                                  (1, 2, -2**39, 2**29), (2, 0, 7, 2**30)], 3),
}


@pytest.mark.parametrize("name", sorted(ODD_NETWORKS))
def test_oracle_matches_on_odd_networks(name):
    net = net_of(*ODD_NETWORKS[name])
    a = solve_mcf(net)
    b = ssp_oracle(net)
    assert b.cost == a.cost
    verify_optimal(net, a)
    verify_optimal(net, b)


@pytest.mark.parametrize("cost_range", [3, 50, 10**6])
@pytest.mark.parametrize("cap_range", [1, 9, 10**5])
def test_solver_flow_optimal_on_random_networks(cost_range, cap_range):
    # narrow cost ranges give many ties between reduced costs, wide ones many
    # scaling phases; price updates must keep the final flow optimal in both
    rng = random.Random(cost_range * 7 + cap_range)
    for _ in range(24):
        n = rng.randint(2, 30)
        net = random_net(n, rng.randint(1, 3 * n), rng, cost_range, cap_range)
        verify_optimal(net, solve_mcf(net))


def test_oracle_on_nonnegative_costs_pushes_nothing():
    net = net_of([(0, 1, 4, 5), (1, 2, 0, 5), (2, 0, 3, 5), (1, 1, 0, 2)], 4)
    for solve in (ssp_oracle, solve_mcf):
        sol = solve(net)
        assert sol.flows == (0, 0, 0, 0)
        assert (sol.cost, sol.iterations) == (0, 0)


def test_solver_starts_eps_at_largest_negative_cost_with_room():
    # an arc of zero capacity is never residual, and an arc into node 4,
    # which has no out-arc, lies on no cycle, so no circulation uses either:
    # however negative their costs, they add no scaling phase, no relabel
    # and no augmenting path
    arcs = [(0, 1, -5, 3), (1, 2, 1, 10), (2, 0, 2, 10), (2, 3, -2, 4),
            (3, 1, 0, 9)]
    for solve in (solve_mcf, ssp_oracle):
        sol = solve(net_of(arcs, 5))
        assert sol.iterations > 0
        for extra in ((0, 1, -10**12, 0), (0, 4, -10**12, 7)):
            padded = solve(net_of(arcs + [extra], 5))
            assert padded.iterations == sol.iterations
            assert (padded.flows, padded.cost) == (sol.flows + (0,), sol.cost)


def _successors(net):
    """Per node: the nodes it reaches by one or more positive-capacity arcs."""
    adj = [[] for _ in range(net.n_nodes)]
    for src, dst, _, upper in net.arcs:
        if upper > 0:
            adj[src].append(dst)
    out = []
    for u in range(net.n_nodes):
        seen, stack = set(), list(adj[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        out.append(seen)
    return out


def test_live_arcs_drop_only_arcs_on_no_cycle():
    # a dropped arc of positive capacity lies on no cycle of positive-capacity
    # arcs (its dst cannot reach its src), and the peel runs to its end: every
    # node left with a live arc has a live in-arc and a live out-arc
    rng = random.Random(1818)
    nets = [(random_net(n, rng.randint(1, 3 * n), rng), None)
            for n in (rng.randint(2, 30) for _ in range(60))]
    for i in range(20):
        c = generate_random(rng.randint(5, 60), edge_density=2.2, ff_prob=0.4,
                            seed=1800 + i)
        curves = curves_for(c)
        tmin, _ = min_slack_period(c, curves)
        g = split_graph(c, (13 * tmin + 9) // 10 if i % 2 else tmin, curves)
        nets.append((expand(g), g.v0))
    dropped = 0
    for net, v0 in nets:
        live = _live_arcs(net)
        reach = _successors(net)
        has_in, has_out = set(), set()
        for (src, dst, _, upper), ok in zip(net.arcs, live):
            if ok:
                has_out.add(src)
                has_in.add(dst)
            elif upper > 0:
                assert src not in reach[dst]
                dropped += v0 is None
        assert has_in == has_out
        if v0 is not None:  # every E1 window arc is dropped
            assert not any(ok for (src, *_), ok in zip(net.arcs, live) if src == v0)
    assert dropped > 0  # the random networks drop arcs of their own too


def test_oracle_counts_each_augmenting_path():
    # two disjoint negative arcs, each closed by its own return arc
    net = net_of([(0, 1, -5, 3), (1, 0, 1, 10), (2, 3, -2, 4), (3, 2, 0, 9)], 4)
    sol = ssp_oracle(net)
    assert sol.flows == (3, 3, 4, 4)
    assert (sol.cost, sol.iterations) == (-20, 2)


def test_oracle_guard_rejects_negative_reduced_cost():
    net = net_of([(0, 1, 1, 5), (1, 0, 1, 5)], 2)
    with pytest.raises(SolverError, match="negative reduced cost"):
        # potentials that make the residual arc 0 -> 1 cost 1 + 0 - 3 < 0
        _raise_potentials(_Residual(net), [0, 3], [1, -1])


def test_oracle_matches_on_mixed_curve_pipeline_networks():
    rng = random.Random(6060)
    for i in range(30):
        c = generate_random(rng.randint(20, 80), edge_density=2.2,
                            ff_prob=0.4, seed=6000 + i)
        names = [line.split()[1] for line in render_circuit(c).splitlines()
                 if line.startswith("gate ")]
        curves = load_curves(json.dumps({g: mixed_curve(rng) for g in names}), c)
        tmin, _ = min_slack_period(c, curves)
        g = split_graph(c, (13 * tmin + 9) // 10, curves)  # ceil(1.3 Tmin)
        net = expand(g)
        a = solve_mcf(net)
        b = ssp_oracle(net)
        assert b.cost == a.cost
        verify_optimal(net, b)
        # shortest residual distances do not depend on which optimal flow
        # was found, so the recovered budget does not depend on the solver
        dist = residual_potentials(net, a, g.v0, g.nff_bar)
        assert dist == residual_potentials(net, b, g.v0, g.nff_bar)


def test_oracle_answer_does_not_depend_on_its_start():
    # from any prices the oracle saturates the arcs they price negative and
    # keeps every residual reduced cost >= 0, so it ends at the optimum: the
    # certificate, its negation, random and wild prices give the cold cost
    rng = random.Random(2727)
    warm = 0
    for i in range(100):
        c = generate_random(rng.randint(6, 40), edge_density=2.2, ff_prob=0.4,
                            seed=2700 + i)
        names = [gate.name for gate in c.gates]
        curves = load_curves(json.dumps({n: mixed_curve(rng) for n in names}), c)
        tmin, _ = min_slack_period(c, curves)
        g = split_graph(c, tmin + rng.randint(0, 6), curves)
        net = expand(g)
        cold = ssp_oracle(net)
        dist = residual_potentials(net, solve_mcf(net), g.v0, g.nff_bar)
        n = net.n_nodes
        sols = [ssp_oracle(net, prices) for prices in (
            dist, [-d for d in dist], [rng.randint(-1000, 1000) for _ in range(n)],
            [10**6 * (v % 2) for v in range(n)])]
        for sol in sols:
            assert sol.cost == cold.cost
            verify_circulation(net, sol)
        warm += sols[0].phases < cold.phases
    assert warm > 0
    for prices in ([0] * (net.n_nodes - 1), [0] * (net.n_nodes + 1)):
        with pytest.raises(ValueError, match="prices"):
            ssp_oracle(net, prices)


def test_pipeline_potentials_do_not_depend_on_the_optimal_flow():
    # every optimal flow has the same set of optimal duals, so the distances
    # from v0 read off solve_mcf's flow (whose phases price refinement may
    # skip) equal those off the oracle's, also where the two flows differ
    rng = random.Random(2323)
    differ = 0
    for i in range(60):
        c = generate_random(rng.randint(6, 60), edge_density=2.2, ff_prob=0.4,
                            seed=2300 + i)
        curves = curves_for(c)
        tmin, _ = min_slack_period(c, curves)
        for T in (tmin, tmin + 3):
            g = split_graph(c, T, curves)
            net = expand(g)
            a = solve_mcf(net)
            b = ssp_oracle(net)
            assert (residual_potentials(net, a, g.v0, g.nff_bar)
                    == residual_potentials(net, b, g.v0, g.nff_bar))
            differ += a.flows != b.flows
    assert differ > 0


def test_reference_node_anchors_pipeline_flows(ring3):
    # the reference node v0 = n has only out-arcs, the E1 windows: in every
    # circulation they carry nothing and keep room, so every node is reached
    # from v0 and no potential falls back on the sentinel
    rng = random.Random(1616)
    circuits = [ring3] + [generate_random(rng.randint(5, 60), edge_density=2.2,
                                          ff_prob=0.4, seed=1600 + i)
                          for i in range(39)]
    marker = object()
    flows = 0
    for c in circuits:
        names = [gate.name for gate in c.gates]
        mixed = load_curves(json.dumps({n: mixed_curve(rng) for n in names}), c)
        for curves in (curves_for(c), mixed):
            tmin, _ = min_slack_period(c, curves)
            for T in (tmin, (13 * tmin + 9) // 10):
                g = split_graph(c, T, curves)
                net = expand(g)
                assert g.v0 == c.n and net.n_nodes == c.n + 1
                assert all(dst != g.v0 for _, dst, _, _ in net.arcs)
                for sol in (solve_mcf(net), ssp_oracle(net)):
                    assert all(x == 0 for (src, *_), x in zip(net.arcs, sol.flows)
                               if src == g.v0)
                    dist = residual_potentials(net, sol, g.v0, sentinel=marker)
                    assert marker not in dist
                flows += 1
    assert flows == 160


def bundled_net(rng, cost_range):
    """A network dense in parallel arcs: distinct (src, dst) pairs, each with
    1 to 7 arcs scattered through the arc list; some pairs are self-loops and
    some have their antiparallel pair too; narrow cost ranges give equal-cost
    ties, and about one arc in five has zero capacity."""
    n = rng.randint(2, 8)
    pairs = set()
    for _ in range(rng.randint(1, 2 * n)):
        s = rng.randrange(n)
        d = s if rng.random() < 0.2 else rng.randrange(n)
        pairs.add((s, d))
        if rng.random() < 0.4:
            pairs.add((d, s))
    arcs = []
    for s, d in sorted(pairs):
        for _ in range(rng.randint(1, 7)):
            cap = 0 if rng.random() < 0.2 else rng.randint(1, 9)
            arcs.append((s, d, rng.randint(-cost_range, cost_range // 2), cap))
    rng.shuffle(arcs)
    return net_of(arcs, n)


@pytest.mark.parametrize("cost_range", [4, 1000])
def test_bundled_parallel_arcs_match_oracle(cost_range):
    # solve_mcf keeps each group of parallel arcs as one convex arc; the
    # oracle still sees every arc, so it checks the bundling independently
    rng = random.Random(4711 + cost_range)
    seen = set()
    for _ in range(300):
        net = bundled_net(rng, cost_range)
        a = solve_mcf(net)
        b = ssp_oracle(net)
        verify_optimal(net, a)
        assert a.cost == b.cost
        marker = 10**9  # flags nodes the search never reaches
        assert (residual_potentials(net, a, 0, marker)
                == residual_potentials(net, b, 0, marker))
        groups = {}
        for src, dst, cost, upper in net.arcs:
            groups.setdefault((src, dst), []).append((cost, upper))
        for (s, d), g in groups.items():
            seen.add(("size", len(g)))
            costs = [cost for cost, _ in g]
            if len(set(costs)) < len(costs):
                seen.add("tie")
            if any(upper == 0 for _, upper in g):
                seen.add("zero capacity")
            if s == d and len(g) > 1 and min(costs) < 0:
                seen.add("negative parallel self-loop")
            if s != d and (d, s) in groups:
                seen.add("antiparallel")
    assert seen >= {("size", k) for k in range(1, 8)} | {
        "tie", "zero capacity", "negative parallel self-loop", "antiparallel"}
