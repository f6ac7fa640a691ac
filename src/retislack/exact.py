"""Exhaustive reference solvers for tiny instances.

Ground truth for the main pipeline: brute_force enumerates every slack
level assignment (with power and feasibility pruning) and checks each by a
retiming search; oracle_min_period enumerates legal retimings inside a
bounded label box.  Both refuse instances beyond desk scale.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .circuit import Circuit, arrivals
from .power import PowerSlackCurve
from .retime import Retiming, feasible_retiming


class OracleError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    power: int
    levels: tuple[int, ...]
    slacks: tuple[int, ...]
    retiming: Retiming

    @property
    def total_slack(self) -> int:
        return sum(self.slacks)


def brute_force(c: Circuit, T: int, curves: dict[int, PowerSlackCurve]) -> OracleResult | None:
    """Minimum-power feasible level assignment, or None when T is infeasible.

    Enumerates level vectors in lexicographic order (so the first optimum
    found is the lexicographically smallest), pruning subtrees whose
    optimistic power bound cannot beat the incumbent and whose minimum-
    slack completion already misses the period.
    """
    n = c.n
    if n > 12:
        raise OracleError(f"{n} gates exceeds the 12-gate oracle guard")
    for cur in curves.values():
        if cur.nlevels > 4:
            raise OracleError("more than 4 levels exceeds the oracle guard")
    delays = c.delays
    minpow = [min(curves[j].powers) for j in range(n)]
    # suffix sums of the optimistic per-gate power
    tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] + minpow[j]
    best: list = [None, None, None]  # power, levels, retiming

    levels = [0] * n
    eff = [delays[j] + curves[j].slacks[0] for j in range(n)]

    def dfs(j: int, acc: int) -> None:
        if best[0] is not None and acc + tail[j] >= best[0]:
            return
        # minimum-slack completion of this prefix
        r = feasible_retiming(c, T, eff)
        if r is None:
            return
        if j == n:
            best[0] = acc
            best[1] = tuple(levels)
            best[2] = r
            return
        cur = curves[j]
        for q in range(cur.nlevels):
            levels[j] = q
            eff[j] = delays[j] + cur.slacks[q]
            dfs(j + 1, acc + cur.powers[q])
        levels[j] = 0
        eff[j] = delays[j] + cur.slacks[0]

    dfs(0, 0)
    if best[0] is None:
        return None
    lv = best[1]
    slacks = tuple(curves[j].slacks[lv[j]] for j in range(n))
    return OracleResult(best[0], lv, slacks, best[2])


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
                a = arrivals(c, eff, [wcur[k] if assigned[e.src] and assigned[e.dst]
                                      else 1 for k, e in enumerate(c.edges)])
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
