"""Exhaustive minimum-period oracle for tiny circuits.

oracle_min_period enumerates legal retimings inside a bounded label box,
independently of retime.min_period's relabeling search, and refuses
circuits beyond desk scale with retislack.exact.OracleError.
"""
from collections import deque

from retislack.circuit import Circuit, _forward, arrivals
from retislack.exact import OracleError


def _components(c: Circuit):
    """Weakly-connected components in BFS order (each starts at its root)."""
    n = c.n
    nbrs = [[] for _ in range(n)]
    for e in c.edges:
        if e.src != e.dst:
            nbrs[e.src].append(e.dst)
            nbrs[e.dst].append(e.src)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        q = deque([s])
        seen[s] = True
        comp = []
        while q:
            u = q.popleft()
            comp.append(u)
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(comp)
    return comps


def oracle_min_period(c: Circuit, eff=None) -> int:
    """Minimum period over every legal retiming with labels in [-|V|, |V|].

    Labels are enumerated component by component in BFS order.  Each
    component's first gate is pinned to 0 (adding a constant to a whole
    component changes no edge weight), and a partial assignment is cut as
    soon as the gates labeled so far already force a period no better than
    the incumbent: their mutual edge weights are final, so the longest
    zero-FF path among them bounds every completion from below.
    """
    n = c.n
    if n > 8:
        raise OracleError(f"{n} gates exceeds the 8-gate oracle guard")
    if eff is None:
        eff = c.delays
    bound = n
    comps = _components(c)
    seq = [u for comp in comps for u in comp]
    roots = {comp[0] for comp in comps}
    labels = [0] * n
    assigned = [False] * n
    wcur = [0] * len(c.edges)  # valid once both endpoints are assigned

    # the zero retiming is always legal: its period is the first incumbent
    best = [max(arrivals(c, eff))]

    def assign(i: int) -> None:
        u = seq[i]
        if u in roots:
            lo = hi = 0
        else:
            lo, hi = -bound, bound
            for k in c.fanin[u]:
                e = c.edges[k]
                if e.src != u and assigned[e.src]:
                    lo = max(lo, labels[e.src] - e.w)
            for k in c.fanout[u]:
                e = c.edges[k]
                if e.dst != u and assigned[e.dst]:
                    hi = min(hi, labels[e.dst] + e.w)
        for lab in range(lo, hi + 1):
            labels[u] = lab
            ok = True
            for k in c.fanin[u]:
                e = c.edges[k]
                if e.src == u:
                    wcur[k] = e.w  # self-loop weight never moves
                elif assigned[e.src]:
                    w = e.w + lab - labels[e.src]
                    if w < 0:
                        ok = False
                        break
                    wcur[k] = w
            if ok:
                for k in c.fanout[u]:
                    e = c.edges[k]
                    if e.dst != u and assigned[e.dst]:
                        w = e.w + labels[e.dst] - lab
                        if w < 0:
                            ok = False
                            break
                        wcur[k] = w
            if ok:
                assigned[u] = True
                # longest zero-FF arrival among the assigned gates; an edge
                # with an unassigned end counts as carrying an FF (a legal
                # partial retiming leaves no zero-FF cycle)
                a = _forward(c, eff, [wcur[k] if assigned[e.src] and assigned[e.dst]
                                      else 1 for k, e in enumerate(c.edges)])[1]
                p = max(a[v] for v in seq if assigned[v])
                if p < best[0]:
                    if i + 1 == len(seq):
                        best[0] = p
                    else:
                        assign(i + 1)
                assigned[u] = False

    if seq:
        assign(0)
    return best[0]
