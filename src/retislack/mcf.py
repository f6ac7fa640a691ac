"""Exact integer min-cost circulation solvers.

solve_mcf is a cost-scaling push/relabel solver (epsilon halving on the
admissible network); ssp_oracle is an independent successive-shortest-path
implementation used for cross-checking.  Both return integral circulations
whose optimality is certified by the absence of negative-cost cycles in the
residual network.  Costs are internally multiplied by (nodes + 1) so that a
final 1-optimal flow is exactly optimal.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .transform import FlowNetwork


class SolverError(RuntimeError):
    """Arithmetic guard tripped or an internal inconsistency was found."""


@dataclass(frozen=True)
class FlowSolution:
    flows: tuple[int, ...]  # per input arc
    cost: int
    iterations: int
    runtime: float


@dataclass(frozen=True)
class Potentials:
    dist: tuple[int, ...]


_LIMIT = 1 << 62


def _check_guard(net: FlowNetwork) -> None:
    if sum(abs(a.cost) * a.upper for a in net.arcs) >= _LIMIT:
        raise SolverError("cost x capacity magnitude beyond the 63-bit guard")


class _Residual:
    """Paired-arc residual representation; arc 2k is input arc k."""

    def __init__(self, net: FlowNetwork, cost_mult: int = 1):
        for a in net.arcs:
            if a.lower != 0:
                raise SolverError("network has nonzero lower bounds")
        m = len(net.arcs)
        self.n = net.n_nodes
        self.head = [0] * (2 * m)
        self.cost = [0] * (2 * m)
        self.res = [0] * (2 * m)
        self.adj = [[] for _ in range(net.n_nodes)]
        for k, a in enumerate(net.arcs):
            f, b = 2 * k, 2 * k + 1
            self.head[f] = a.dst
            self.head[b] = a.src
            self.cost[f] = a.cost * cost_mult
            self.cost[b] = -a.cost * cost_mult
            self.res[f] = a.upper
            self.res[b] = 0
            self.adj[a.src].append(f)
            self.adj[a.dst].append(b)

    def flows(self, net: FlowNetwork) -> tuple[int, ...]:
        return tuple(net.arcs[k].upper - self.res[2 * k] for k in range(len(net.arcs)))


def _solution_cost(net: FlowNetwork, flows) -> int:
    return sum(a.cost * x for a, x in zip(net.arcs, flows))


def solve_mcf(net: FlowNetwork) -> FlowSolution:
    """Optimal integral circulation by cost scaling."""
    _check_guard(net)
    t0 = time.perf_counter()
    n = net.n_nodes
    mult = n + 1
    r = _Residual(net, cost_mult=mult)
    head, cost, res, adj = r.head, r.cost, r.res, r.adj
    p = [0] * n
    excess = [0] * n
    iterations = 0

    eps = 2 * max((abs(c) for c in cost), default=0)

    def refine(eps: int) -> None:
        nonlocal iterations
        # saturate every residual arc with negative reduced cost
        for u in range(n):
            pu = p[u]
            for a in adj[u]:
                if res[a] > 0 and cost[a] + pu - p[head[a]] < 0:
                    v = head[a]
                    d = res[a]
                    res[a] = 0
                    res[a ^ 1] += d
                    excess[u] -= d
                    excess[v] += d
        active = deque(u for u in range(n) if excess[u] > 0)
        cur = [0] * n
        while active:
            u = active.popleft()
            e = excess[u]
            if e <= 0:
                continue
            au = adj[u]
            i = cur[u]
            pu = p[u]
            while e > 0:
                if i == len(au):
                    # relabel: jump to the highest potential that makes some
                    # residual arc admissible (always a drop of >= eps)
                    best = None
                    for a in au:
                        if res[a] > 0:
                            v = head[a]
                            if v == u:
                                continue
                            cand = p[v] - cost[a]
                            if best is None or cand > best:
                                best = cand
                    if best is None:
                        raise SolverError("active node with no residual arc")
                    pu = best - eps
                    i = 0
                    iterations += 1
                    continue
                a = au[i]
                if res[a] > 0:
                    v = head[a]
                    # self-loops are handled by the saturation pass
                    if v != u and cost[a] + pu - p[v] < 0:
                        d = res[a] if res[a] < e else e
                        res[a] -= d
                        res[a ^ 1] += d
                        e -= d
                        if excess[v] <= 0 < excess[v] + d:
                            active.append(v)
                        excess[v] += d
                        continue
                i += 1
            excess[u] = 0
            cur[u] = i
            p[u] = pu

    while eps > 0:
        eps = max(1, eps // 2)
        refine(eps)
        if eps == 1:
            break
    flows = r.flows(net)
    return FlowSolution(flows, _solution_cost(net, flows), iterations,
                        time.perf_counter() - t0)


def ssp_oracle(net: FlowNetwork) -> FlowSolution:
    """Same contract as solve_mcf, by successive shortest augmenting paths.

    Negative-cost arcs are saturated up front; the resulting excesses are
    drained along shortest residual paths found by a label-correcting
    search (residual costs may be negative, but no negative cycle exists).
    """
    _check_guard(net)
    t0 = time.perf_counter()
    n = net.n_nodes
    r = _Residual(net)
    head, cost, res, adj = r.head, r.cost, r.res, r.adj
    excess = [0] * n
    for k, a in enumerate(net.arcs):
        if a.cost < 0 and a.upper > 0:
            res[2 * k] = 0
            res[2 * k + 1] = a.upper
            excess[a.src] -= a.upper
            excess[a.dst] += a.upper
    iterations = 0
    while True:
        sources = [u for u in range(n) if excess[u] > 0]
        if not sources:
            break
        dist, parent = _spfa(n, head, cost, res, adj, sources)
        sinks = [u for u in range(n) if excess[u] < 0 and dist[u] is not None]
        if not sinks:
            raise SolverError("imbalanced network: no residual path to a deficit")
        t = min(sinks, key=lambda u: (dist[u], u))
        # walk back to the source, find the bottleneck
        path = []
        u = t
        while parent[u] is not None:
            a = parent[u]
            path.append(a)
            u = head[a ^ 1]
        bottleneck = min(excess[u], -excess[t], min(res[a] for a in path))
        for a in path:
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
        excess[u] -= bottleneck
        excess[t] += bottleneck
        iterations += 1
    flows = r.flows(net)
    return FlowSolution(flows, _solution_cost(net, flows), iterations,
                        time.perf_counter() - t0)


def _spfa(n, head, cost, res, adj, sources):
    """Label-correcting shortest paths over residual arcs from a source set."""
    dist = [None] * n
    parent = [None] * n
    inq = [False] * n
    relax = [0] * n
    q = deque()
    for s in sources:
        dist[s] = 0
        inq[s] = True
        q.append(s)
    while q:
        u = q.popleft()
        inq[u] = False
        du = dist[u]
        for a in adj[u]:
            if res[a] <= 0:
                continue
            v = head[a]
            nd = du + cost[a]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                parent[v] = a
                if not inq[v]:
                    relax[v] += 1
                    if relax[v] > n + 1:
                        raise SolverError("negative cycle in residual network")
                    inq[v] = True
                    q.append(v)
    return dist, parent


def residual_potentials(net: FlowNetwork, sol: FlowSolution, source: int,
                        sentinel: int | None = None) -> Potentials:
    """Shortest residual distances from `source` given an optimal flow.

    Unreachable nodes get the sentinel distance (the loosest feasible
    value); by default the largest finite distance found.
    """
    r = _Residual(net)
    for k, x in enumerate(sol.flows):
        r.res[2 * k] = net.arcs[k].upper - x
        r.res[2 * k + 1] = x
    dist, _ = _spfa(net.n_nodes, r.head, r.cost, r.res, r.adj, [source])
    finite = [d for d in dist if d is not None]
    if sentinel is None:
        sentinel = max(finite) if finite else 0
    out = tuple(d if d is not None else sentinel for d in dist)
    return Potentials(out)


def verify_circulation(net: FlowNetwork, sol: FlowSolution) -> None:
    """Raise unless the solution is a capacity-feasible, conserved flow."""
    node_bal = [0] * net.n_nodes
    for a, x in zip(net.arcs, sol.flows):
        if not (a.lower <= x <= a.upper):
            raise SolverError(f"flow {x} outside bounds on arc {a}")
        node_bal[a.src] -= x
        node_bal[a.dst] += x
    if any(node_bal):
        raise SolverError("flow conservation violated")


def verify_optimal(net: FlowNetwork, sol: FlowSolution) -> None:
    """Raise unless the residual network has no negative-cost cycle."""
    verify_circulation(net, sol)
    r = _Residual(net)
    for k, x in enumerate(sol.flows):
        r.res[2 * k] = net.arcs[k].upper - x
        r.res[2 * k + 1] = x
    # Bellman-Ford from a virtual source connected to every node
    n = net.n_nodes
    dist = [0] * n
    for rnd in range(n):
        changed = False
        for u in range(n):
            du = dist[u]
            for a in r.adj[u]:
                if r.res[a] > 0 and du + r.cost[a] < dist[r.head[a]]:
                    dist[r.head[a]] = du + r.cost[a]
                    changed = True
        if not changed:
            return
    if changed:
        raise SolverError("negative-cost residual cycle: flow is not optimal")
