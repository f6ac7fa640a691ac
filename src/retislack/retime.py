"""Retiming: FF relocation via integer vertex labels.

A retiming is a tuple r of integer labels, one per gate: r_i FFs move from
the outgoing to the incoming edges of gate i, so edge (i, j) ends up with
w_ij + r_j - r_i FFs, which must stay nonnegative.  Feasibility at a period
is decided by iterated relabeling (FEAS of Leiserson & Saxe: arrival times
are recomputed and every violating gate absorbs one FF), a label-correcting
scheme on the underlying difference-constraint system.  Only the first round
times the whole circuit; each later one re-times just the zero-FF fanout cone
of the gates it relabeled, as incremental difference-constraint solvers do
(Ramalingam, Song, Joskowicz & Miller, Algorithmica 1999).  An infeasible
period is usually proved long before the |V| + 1 round bound: each
increment records the start of the critical path that forced it, and a
cycle among those records certifies infeasibility (early termination after
Shenoy & Rudell).  That test, `feasible_retiming`, is the one feasibility
kernel: the minimum-period search, `recovery.finalize` and
`exact.brute_force` all call it.  The minimum period is found by binary
search between the largest delay and the unretimed period, over probes
that share one timing pass of the unretimed circuit.  A cycle that proves a
period infeasible also bounds the minimum from below: it is a closed walk
with D delay and W FFs, and no retiming meets a period below ceil(D / W)
(Leiserson & Saxe, Algorithmica 1991), so the search's lower end jumps
there.
"""
from __future__ import annotations

from .circuit import Circuit, _forward


class RetimingError(ValueError):
    """Illegal retiming (some edge would get a negative FF count)."""


def retimed_weights(c: Circuit, r: tuple[int, ...]) -> list[int]:
    out = []
    for e in c.edges:
        w = e.w + r[e.dst] - r[e.src]
        if w < 0:
            raise RetimingError(
                f"edge ({e.src}, {e.dst}): FF count {w} negative under retiming")
        out.append(w)
    return out


def _parent_cycle(parent: list[int], starts) -> int | None:
    """The node where the parent pointers reached from `starts` close a
    cycle, or None when they close none."""
    walk = {}  # node -> the start whose walk visited it
    for s in starts:
        v = s
        while v >= 0 and v not in walk:
            walk[v] = s
            v = parent[v]
        if v >= 0 and walk[v] == s:
            return v
    return None


def feasible_retiming(c: Circuit, T: int, eff=None,
                      start=None) -> tuple[int, ...] | None:
    """The least legal retiming at or above `start` meeting period T under
    effective delays, or None when no retiming meets T.

    Iterated relabeling from `start` (default: the zero retiming, whose
    least solution has a smallest label of 0): each round, every gate whose
    arrival exceeds T absorbs one FF.  Labels only rise and never pass the
    least solution, so the answer is that solution, and a warm start below
    it gives the cold answer.  Only edges with one relabeled end change
    weight, and one that drops to 0 FFs ends in the relabeled gates' zero-FF
    fanout cone, so every gate outside the cone keeps its zero-FF fanins and
    its arrival, which is at most T: rounds after the first re-time the cone
    only and find the next violating gates there.  The answer is conclusive:
    infeasible as soon as the parent pointers from each incremented gate to
    the start of its critical path close a cycle, and at the latest after n
    rounds.  That bound holds from any legal start: the critical path of a
    gate relabeled in round t > 1 starts at a gate relabeled in round t - 1,
    so a search that relabels in t rounds leaves a chain of t + 1 gates,
    each the critical-path start of the next, from round 1's start to round
    t's relabel.  A gate met twice on the chain would close a walk like a
    parent cycle's, so when T is feasible the gates are distinct, t < n, and
    round t + 1 <= n finds no violation; the least solution from the zero
    start has labels below n.  An illegal start raises RetimingError.
    `min_period` runs the same search through `_feas`, which also returns a
    lower bound of the minimum period when T is infeasible.
    """
    return _feas(c, T, eff, start)[0]


def _feas(c: Circuit, T: int, eff=None, start=None, first=None):
    """(labels, bound): feasible_retiming's answer, and when that is None,
    a lower bound of the minimum period above T (T + 1 if none better).

    `first` is the `_forward` pass of the start's weights (the zero
    retiming's when `start` is None); it is read, not changed, and saves the
    first round's full timing.  Each gate relabeled records the segment of
    its critical path after the start: delay a[i] - eff[src[i]], and
    r[src[i]] - r[i] FFs in the unretimed circuit, read before either label
    rises.  A parent cycle chains those segments into a closed walk with D
    delay and W >= 1 FFs.  Every retiming keeps W FFs on it and splits it
    into W zero-FF pieces no longer than the period, so the minimum period
    is at least ceil(D / W) (Leiserson & Saxe 1991).
    """
    if eff is None:
        eff = c.delays
    n = c.n
    if start is None:
        r, weights = [0] * n, [e.w for e in c.edges]
    else:
        r, weights = list(start), retimed_weights(c, start)
    if max(eff) > T:
        return None, max(eff)
    fanin, fanout = c.fanin, c.fanout
    parent = [-1] * n
    seg_delay, seg_ffs = [0] * n, [0] * n
    if first is None:
        order, a, src = _forward(c, eff, weights)
    else:
        order, a, src = first[0], first[1][:], first[2][:]
    for t in range(n):
        if t:
            order, a, src = _forward(c, eff, weights, bad, a, src)
        bad = [i for i in order if a[i] > T]
        if not bad:
            return tuple(r), None
        # Bad gate v ends a zero-FF path P from src[v] = u longer than T,
        # so every solution has r_v >= r_u + 1 - W(P).  This round's
        # increment makes that bound tight, and it only loosens as r_u rises
        # later; in a parent cycle the pointer set earliest has loosened, so
        # the cycle is a closed walk of k segments longer than T carrying
        # fewer than k FFs.  Retiming keeps the FF count of every cycle, so
        # no retiming meets T.  A new cycle passes through a pointer set in
        # this round.  Raising r_i adds 1 to w_ij + r_j - r_i on i's fanin
        # and takes 1 from its fanout, so an edge with both ends bad, or a
        # self-loop, keeps its weight.  The segment is read before r_i rises;
        # u's label does not rise this round, as a[u] = eff[u] <= T.
        for i in bad:
            u = src[i]
            parent[i] = u
            seg_delay[i] = a[i] - eff[u]
            seg_ffs[i] = r[u] - r[i]
            r[i] += 1
            for k in fanin[i]:
                weights[k] += 1
            for k in fanout[i]:
                weights[k] -= 1
        v = _parent_cycle(parent, bad)
        if v is not None:
            d, w, u = seg_delay[v], seg_ffs[v], parent[v]
            while u != v:
                d, w, u = d + seg_delay[u], w + seg_ffs[u], parent[u]
            return None, max(T + 1, -(-d // w))
    return None, T + 1


def min_period(c: Circuit, eff=None) -> tuple[int, tuple[int, ...]]:
    """Smallest integer period with a feasible retiming, plus a witness.

    Binary search between the largest delay and the unretimed period, with
    a cold `_feas` probe at each midpoint.  The zero retiming is timed once:
    its largest arrival is the upper end, and every probe starts from copies
    of that pass.  A failed probe at T raises the lower end to its bound,
    ceil(D / W) of the parent cycle that proved T infeasible when that
    exceeds T + 1.  The witness is the least retiming meeting the period,
    as `feasible_retiming` returns it (the zero one when the unretimed
    period is the minimum).
    """
    if eff is None:
        eff = c.delays
    first = _forward(c, eff, [e.w for e in c.edges])
    lo = max(eff)
    hi = max(first[1])  # the unretimed period, met by the zero retiming
    best = (hi, (0,) * c.n)
    while lo < hi:
        mid = (lo + hi) // 2
        r, bound = _feas(c, mid, eff, first=first)
        if r is not None:
            best = (mid, r)
            hi = mid
        else:
            lo = bound
    return best
