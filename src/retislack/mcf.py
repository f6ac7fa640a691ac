"""Exact integer min-cost circulation solvers.

Both solvers work only on the live arcs: a linear-time peel removes every
node with no in-arc or no out-arc of positive capacity, with its arcs, until
none is left.  No circulation carries flow on a removed arc (the reference
node's window arcs are all removed), so the solvers never saturate them,
report flow 0 on them and find the same optimal cost.

solve_mcf is a cost-scaling push/relabel solver (epsilon divided by 8 per
phase, with global price updates over Dial's buckets).  Epsilon starts at
the largest |cost| of a negative-cost live arc, the smallest value at which
the zero flow at zero prices is epsilon-optimal (Goldberg, J. Algorithms
1997), so a network with no negative arc cost takes no phase at all.  It
bundles the parallel arcs of each (src, dst) pair into one convex
piecewise-linear arc, kept as one residual pair: the cheapest segment with
room forward, the costliest with flow backward.  Before each phase, price
refinement (Goldberg 1997, section 5) looks for prices under which the
current flow is already epsilon-optimal; when they exist it takes them and
skips the phase.  Costs are internally multiplied by (nodes + 1), so the
1-optimal flow it ends with is exactly optimal.
ssp_oracle is an independent primal-dual successive-shortest-path solver
used for cross-checking; it sees every live arc unbundled and builds its own
flow from scratch.  Its node potentials keep every residual reduced cost
>= 0, so each phase is one Dijkstra search, and a negative reduced cost
raises SolverError.  It may start from any potentials: it saturates the arcs
they price negative and reaches the optimum from there, so a start near the
optimal duals (run_pipeline passes the certificate distances) saves phases
and cannot change the answer.
residual_potentials reads shortest distances straight off a flow's residual
arcs, removed arcs included; a negative residual cycle reachable from its
source, which no optimal flow has, raises SolverError.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .retime import _parent_cycle
from .transform import FlowNetwork


class SolverError(RuntimeError):
    """An internal inconsistency was found."""


@dataclass(frozen=True)
class FlowSolution:
    flows: tuple[int, ...]  # per input arc
    cost: int
    iterations: int
    phases: int


def _live_arcs(net: FlowNetwork) -> list[bool]:
    """Per input arc: False when no circulation can carry flow on it.

    A node with no in-arc or no out-arc of positive capacity has zero flow
    through it in every circulation (conservation, nonnegative flows), so its
    arcs are removed and its neighbours' degrees drop; the peel repeats until
    every remaining node has both.  Each arc is removed once and each degree
    reaches 0 once, so a node is stacked at most three times: O(n + m).  The
    feasible circulations are the same with or without the removed arcs.
    """
    arcs = net.arcs
    live = [False] * len(arcs)
    out_arcs = [[] for _ in range(net.n_nodes)]
    in_arcs = [[] for _ in range(net.n_nodes)]
    for k, (src, dst, _, upper) in enumerate(arcs):
        if upper > 0:
            live[k] = True
            out_arcs[src].append(k)
            in_arcs[dst].append(k)
    outdeg = [len(ks) for ks in out_arcs]
    indeg = [len(ks) for ks in in_arcs]
    stack = [v for v in range(net.n_nodes) if not indeg[v] or not outdeg[v]]
    while stack:
        v = stack.pop()
        for k in out_arcs[v]:
            if live[k]:
                live[k] = False
                w = arcs[k][1]
                indeg[w] -= 1
                if not indeg[w]:
                    stack.append(w)
        for k in in_arcs[v]:
            if live[k]:
                live[k] = False
                u = arcs[k][0]
                outdeg[u] -= 1
                if not outdeg[u]:
                    stack.append(u)
    return live


class _Residual:
    """Paired-arc residual representation; arc 2k is input arc k.  Only live
    arcs are listed in adj; the others keep their room and carry nothing."""

    def __init__(self, net: FlowNetwork):
        m = len(net.arcs)
        self.n = net.n_nodes
        self.live = _live_arcs(net)
        self.head = [0] * (2 * m)
        self.cost = [0] * (2 * m)
        self.res = [0] * (2 * m)
        self.adj = [[] for _ in range(net.n_nodes)]
        for k, (src, dst, cost, upper) in enumerate(net.arcs):
            f, b = 2 * k, 2 * k + 1
            self.head[f] = dst
            self.head[b] = src
            self.cost[f] = cost
            self.cost[b] = -cost
            self.res[f] = upper
            if self.live[k]:
                self.adj[src].append(f)
                self.adj[dst].append(b)

    def flows(self, net: FlowNetwork) -> tuple[int, ...]:
        return tuple(upper - x for (_, _, _, upper), x in zip(net.arcs, self.res[::2]))


def _solution_cost(net: FlowNetwork, flows) -> int:
    return sum(cost * x for (_, _, cost, _), x in zip(net.arcs, flows) if x)


class _Bundles:
    """Convex arc bundles: the live input arcs (see _live_arcs) that share
    (src, dst) form one group, its segments sorted by (cost, input index) and
    stored flat; group g owns residual entries 2g (forward) and 2g+1
    (backward), each on segment seg[a] and stepping towards stop[a].  Every
    group starts empty: both entries on its cheapest segment."""

    def __init__(self, net: FlowNetwork, cost_mult: int):
        arcs = net.arcs
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for k, live in enumerate(_live_arcs(net)):
            if live:
                src, dst, cost, upper = arcs[k]
                groups.setdefault((src, dst), []).append((cost, k, upper))
        self.seg_arc, self.seg_cap, self.seg_cost = [], [], []
        self.head, self.cost, self.res, self.seg, self.stop = [], [], [], [], []
        self.adj = [[] for _ in range(net.n_nodes)]
        for (src, dst), segs in groups.items():
            segs.sort()  # by (cost, input index)
            s = len(self.seg_arc)
            for cost, k, upper in segs:
                self.seg_arc.append(k)
                self.seg_cap.append(upper)
                self.seg_cost.append(cost * cost_mult)
            self.adj[src].append(len(self.head))
            self.adj[dst].append(len(self.head) + 1)
            self.head += (dst, src)
            self.cost += (self.seg_cost[s], -self.seg_cost[s])
            self.res += (self.seg_cap[s], 0)
            self.seg += (s, s)
            self.stop += (len(self.seg_arc), s - 1)

    def flows(self, net: FlowNetwork) -> tuple[int, ...]:
        """Per input arc: segments below a backward entry's are full, its own
        carries res, the rest (and every arc that is not live) carry nothing."""
        flows = [0] * len(net.arcs)
        for b in range(1, len(self.head), 2):
            s = self.seg[b]
            flows[self.seg_arc[s]] = self.res[b]
            for t in range(self.stop[b] + 1, s):
                flows[self.seg_arc[t]] = self.seg_cap[t]
        return tuple(flows)


def solve_mcf(net: FlowNetwork) -> FlowSolution:
    """Optimal integral circulation by cost scaling; `iterations` counts
    relabels and `phases` the scaling phases run (not skipped)."""
    n = net.n_nodes
    mult = n + 1
    r = _Bundles(net, cost_mult=mult)
    head, cost, res, adj, seg, stop = r.head, r.cost, r.res, r.adj, r.seg, r.stop
    seg_cap, seg_cost = r.seg_cap, r.seg_cost
    p = [0] * n
    excess = [0] * n
    cur = [0] * n
    iterations = 0
    update_every = max(1, n // 2)  # relabels between global price updates

    # the smallest eps at which the zero flow at zero prices is eps-optimal:
    # each group's forward entry starts on its cheapest segment
    eps = max((-c for c in cost[::2] if c < 0), default=0)

    # Bundles (Ahuja, Hochbaum & Orlin 2003): the parallel arcs of a group
    # are one convex piecewise-linear arc, kept in canonical fill: with
    # segments sorted by cost, every segment below the forward entry's
    # segment seg[2g] is full and every one above the backward entry's
    # seg[2g+1] is empty; the two entries sit on one partly filled segment
    # (its flow res[2g+1], its room res[2g]) or on the two sides of a
    # full/empty boundary.  The forward entry is the cheapest segment with
    # room and the backward entry the costliest with flow, so the two
    # entries carry the least reduced cost of each direction over the
    # group's residual arcs: the group is eps-optimal exactly when its two
    # entries are, relabels and price updates that read only the entries see
    # the same maximum and the same shortest lengths as over the expanded
    # arcs, and a push on an entry is a push on an admissible arc of the
    # expanded network.  A push moves the opposite entry onto the pushed
    # segment, which now has reduced cost > 0 that way, and advances the
    # pushed entry to the next segment once its own is used up; that segment
    # was residual already and costs at least as much, so a push creates no
    # new admissible arc and the current-arc pointers stay valid.
    def push(a: int, d: int) -> None:
        b = a ^ 1
        s = seg[a]
        res[a] -= d
        if seg[b] == s:
            res[b] += d
        else:  # the opposite entry steps over the boundary onto segment s
            seg[b] = s
            cost[b] = -cost[a]
            res[b] = d
        if not res[a]:
            s += 1 if a & 1 == 0 else -1
            if s != stop[a]:
                seg[a] = s
                res[a] = seg_cap[s]
                cost[a] = -seg_cost[s] if a & 1 else seg_cost[s]

    def price_update(eps: int) -> None:
        # Global price update (Goldberg 1997): d(v) is the distance from v to
        # a deficit over residual arcs of length l(u,v) = c_p(u,v) // eps + 1,
        # never negative under eps-optimality, found by Dijkstra over reversed
        # arcs until every excess node is scanned; K is the last distance.
        # p -= eps * d' with d' = min(d, K) keeps eps-optimality, since
        # c_p'(u,v) = c_p(u,v) + eps * (d'(v) - d'(u)) >= -eps whenever
        # d'(u) <= d'(v) + l(u,v), which holds for each residual u->v:
        # both scanned, d is exact; u scanned, d'(u) <= K = d'(v); both
        # unscanned, K <= K + l; v scanned, u not: scanning v set u's key to
        # at most d(v) + l, and an unscanned key is >= K.  Lengths are
        # integers, so the queue is Dial's buckets: a list of nodes per
        # distance, with a heap of the distinct distances only.  The order
        # within a bucket changes which nodes at distance K get scanned, but
        # not d', which is K for all of them.
        dist = [None] * n
        buckets = {0: []}
        keys = [0]
        left = 0
        for v in range(n):
            if excess[v] < 0:
                dist[v] = 0
                buckets[0].append(v)
            elif excess[v] > 0:
                left += 1
        K = 0
        while left:
            if not keys:
                raise SolverError("excess node with no residual path to a deficit")
            K = heappop(keys)
            bucket = buckets[K]  # zero-length arcs append to it while scanned
            while bucket:
                v = bucket.pop()
                if dist[v] != K:
                    continue  # stale entry: v was reached closer
                if excess[v] > 0:
                    left -= 1
                    if not left:
                        break
                pv = p[v]
                for a in adj[v]:
                    b = a ^ 1  # residual arc u -> v
                    if res[b] > 0:
                        u = head[a]
                        nd = K + (cost[b] + p[u] - pv) // eps + 1
                        du = dist[u]
                        if du is None or nd < du:
                            dist[u] = nd
                            if nd in buckets:
                                buckets[nd].append(u)
                            else:
                                buckets[nd] = [u]
                                heappush(keys, nd)
            del buckets[K]
        for v in range(n):
            dv = dist[v]
            p[v] -= eps * (K if dv is None or dv > K else dv)
            cur[v] = 0  # arcs may have turned admissible

    def refine_prices(eps: int) -> bool:
        # Price refinement (Goldberg 1997, section 5): the current flow is
        # eps-optimal under some prices exactly when no residual cycle is
        # negative under the lengths c_p(u,v) + eps.  A FIFO label-correcting
        # search over the residual entries, every node starting at distance
        # 0 (a virtual source with a zero-length arc to each), finds d with
        # d(v) <= d(u) + c_p(u,v) + eps on every residual entry, so p + d
        # makes every reduced cost >= -eps; the entries carry the least
        # reduced cost of each direction of their group (see above), so the
        # expanded arcs satisfy it too.  A cycle of parent pointers is a
        # negative cycle, and so is a queue left after n passes (the
        # Bellman-Ford bound): then the phase is needed and p is untouched.
        d = [0] * n
        parent = [-1] * n
        queued = [True] * n
        q = range(n)
        for _ in range(n):
            nxt = []
            for u in q:
                queued[u] = False
                du = d[u] + p[u] + eps
                for a in adj[u]:
                    if res[a] > 0:
                        v = head[a]
                        nd = du + cost[a] - p[v]
                        if nd < d[v]:
                            d[v] = nd
                            parent[v] = u
                            if not queued[v]:
                                queued[v] = True
                                nxt.append(v)
            if not nxt:
                for v in range(n):
                    p[v] += d[v]
                return True
            if _parent_cycle(parent, nxt) is not None:
                return False
            q = nxt
        return False

    def refine(eps: int) -> None:
        nonlocal iterations
        # saturate every residual arc with negative reduced cost; an entry
        # refreshed onto its group's next segment may still be negative
        for u in range(n):
            pu = p[u]
            for a in adj[u]:
                v = head[a]
                while res[a] > 0 and cost[a] + pu - p[v] < 0:
                    d = res[a]
                    push(a, d)
                    excess[u] -= d
                    excess[v] += d
        price_update(eps)
        active = deque(u for u in range(n) if excess[u] > 0)
        next_update = iterations + update_every
        while active:
            if iterations >= next_update:
                price_update(eps)
                next_update = iterations + update_every
            u = active.popleft()
            e = excess[u]  # positive: only u's own discharge lowers it
            au = adj[u]
            na = len(au)
            i = cur[u]
            pu = p[u]
            while e > 0:
                if i == na:
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
                        push(a, d)
                        e -= d
                        if excess[v] <= 0 < excess[v] + d:
                            active.append(v)
                        excess[v] += d
                        continue
                i += 1
            excess[u] = 0
            cur[u] = i
            p[u] = pu

    phases = 0
    while eps > 1:
        eps = max(1, eps // 8)
        if not refine_prices(eps):
            refine(eps)
            phases += 1
    flows = r.flows(net)
    return FlowSolution(flows, _solution_cost(net, flows), iterations, phases)


def ssp_oracle(net: FlowNetwork, prices=None) -> FlowSolution:
    """Same contract as solve_mcf, by primal-dual successive shortest paths.

    The potentials start at `prices` (one per node; zeros when None).  Every
    live arc (see _live_arcs) whose reduced cost cost + pi[src] - pi[dst] is
    negative is saturated up front, after which every residual reduced cost
    is >= 0.  Each phase runs one Dijkstra over reduced costs from all
    excess nodes to the nearest deficit, raises the potentials by the
    distances (capped at that deficit's), and drains excess along every
    zero-reduced-cost residual path it can find (Ahuja, Magnanti & Orlin,
    Network Flows, 1993, 9.7).  Both steps keep every residual reduced cost
    >= 0, so the pseudoflow left when no excess remains is an optimal
    circulation whatever the start (ibid., Thm 9.3): good prices, such as an
    optimal flow's residual distances, only save phases, and bad ones only
    cost time.  `iterations` counts augmenting paths and `phases` Dijkstra
    searches.
    """
    n = net.n_nodes
    pi = [0] * n if prices is None else list(prices)
    if len(pi) != n:
        raise ValueError(f"{len(pi)} prices for {n} nodes")
    r = _Residual(net)
    res = r.res
    excess = [0] * n
    for k, (src, dst, cost, upper) in enumerate(net.arcs):
        if r.live[k] and cost + pi[src] - pi[dst] < 0:
            res[2 * k] = 0
            res[2 * k + 1] = upper
            excess[src] -= upper
            excess[dst] += upper
    iterations = phases = 0
    while any(e > 0 for e in excess):
        _raise_potentials(r, pi, excess)
        paths = _drain(r, pi, excess)
        if not paths:
            raise SolverError("no tight augmenting path after a Dijkstra phase")
        iterations += paths
        phases += 1
    flows = r.flows(net)
    return FlowSolution(flows, _solution_cost(net, flows), iterations, phases)


def _raise_potentials(r: _Residual, pi: list, excess: list) -> None:
    """Dijkstra over reduced costs from every excess node; stops at the first
    deficit popped (distance D) and raises pi by min(dist, D), which keeps
    every residual reduced cost >= 0 and makes that deficit's path tight."""
    head, cost, res, adj = r.head, r.cost, r.res, r.adj
    n = r.n
    dist = [None] * n
    heap = []
    for u in range(n):
        if excess[u] > 0:
            dist[u] = 0
            heap.append((0, u))
    D = None
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        if excess[u] < 0:
            D = d
            break
        pu = pi[u]
        for a in adj[u]:
            if res[a] > 0:
                v = head[a]
                rc = cost[a] + pu - pi[v]
                if rc < 0:
                    raise SolverError("negative reduced cost on a residual arc")
                nd = d + rc
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    heappush(heap, (nd, v))
    if D is None:
        raise SolverError("imbalanced network: no residual path to a deficit")
    for v in range(n):
        dv = dist[v]
        pi[v] += D if dv is None or dv > D else dv


def _drain(r: _Residual, pi: list, excess: list) -> int:
    """Augment from each excess node along zero-reduced-cost residual paths
    (depth first, one current-arc pointer per node) until none is left;
    returns the number of augmenting paths."""
    head, cost, res, adj = r.head, r.cost, r.res, r.adj
    n = r.n
    cur = [0] * n
    on_path = [False] * n
    paths = 0
    for s in range(n):
        while excess[s] > 0:
            nodes, arcs = [s], []
            on_path[s] = True
            while nodes:
                u = nodes[-1]
                if excess[u] < 0:
                    break
                au, i, pu = adj[u], cur[u], pi[u]
                na = len(au)
                while i < na:
                    a = au[i]
                    if res[a] > 0:
                        v = head[a]
                        # on_path also skips self-loops
                        if cost[a] + pu == pi[v] and not on_path[v]:
                            break
                    i += 1
                cur[u] = i
                if i < na:  # a, v: the tight arc found above
                    arcs.append(a)
                    nodes.append(v)
                    on_path[v] = True
                else:
                    # dead end for this phase: retreat past the arc into u
                    on_path[u] = False
                    nodes.pop()
                    if arcs:
                        arcs.pop()
                        cur[nodes[-1]] += 1
            if not nodes:
                break  # s has no tight path left this phase
            t = nodes[-1]
            d = min(excess[s], -excess[t], min(res[a] for a in arcs))
            for a in arcs:
                res[a] -= d
                res[a ^ 1] += d
            excess[s] -= d
            excess[t] += d
            paths += 1
            for u in nodes:
                on_path[u] = False
    return paths


def residual_potentials(net: FlowNetwork, sol: FlowSolution, source: int,
                        sentinel: int) -> tuple[int, ...]:
    """Shortest residual distances from `source` under the flow `sol`.

    The residual network has src -> dst at +cost for each arc with room and
    dst -> src at -cost for each arc with flow; a FIFO label-correcting
    search runs over it.  Unreachable nodes get the sentinel distance.  A
    flow is optimal exactly when its residual network has no negative cycle
    (Ahuja, Magnanti & Orlin, Network Flows, 1993, Thm 9.1), so these
    distances are also the flow's certificate: a negative cycle reachable
    from `source` raises SolverError.
    """
    n = net.n_nodes
    adj = [[] for _ in range(n)]
    for (src, dst, cost, upper), x in zip(net.arcs, sol.flows):
        if x < upper:
            adj[src].append((dst, cost))
        if x > 0:
            adj[dst].append((src, -cost))
    dist = [None] * n
    inq = [False] * n
    relax = [0] * n
    dist[source] = 0
    inq[source] = True
    q = deque([source])
    while q:
        u = q.popleft()
        inq[u] = False
        du = dist[u]
        for v, c in adj[u]:
            nd = du + c
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                if not inq[v]:
                    relax[v] += 1
                    if relax[v] > n + 1:
                        raise SolverError("negative cycle in residual network")
                    inq[v] = True
                    q.append(v)
    # v0 reaches every node of an expanded network; sentinel stays only
    # because the traced replay passes it
    return tuple(sentinel if d is None else d for d in dist)
