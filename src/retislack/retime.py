"""Retiming: FF relocation via integer vertex labels.

A retiming r moves label r_i FFs from the outgoing to the incoming edges of
gate i; edge (i, j) ends up with w_ij + r_j - r_i FFs, which must stay
nonnegative.  Feasibility at a period is decided by iterated relabeling
(arrival times are recomputed and every violating gate absorbs one FF), a
label-correcting scheme on the underlying difference-constraint system.
The minimum period is found by binary search.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Edge, arrivals


class RetimingError(ValueError):
    """Illegal retiming (some edge would get a negative FF count)."""


@dataclass(frozen=True)
class Retiming:
    labels: tuple[int, ...]


def retimed_weights(c: Circuit, r: Retiming) -> list[int]:
    lab = r.labels
    out = []
    for e in c.edges:
        w = e.w + lab[e.dst] - lab[e.src]
        if w < 0:
            raise RetimingError(
                f"edge ({e.src}, {e.dst}): FF count {w} negative under retiming")
        out.append(w)
    return out


def apply_retiming(c: Circuit, r: Retiming) -> Circuit:
    """New circuit with updated FF counts; gates and delays unchanged."""
    weights = retimed_weights(c, r)
    edges = tuple(Edge(e.src, e.dst, w) for e, w in zip(c.edges, weights))
    return Circuit(c.gates, edges)


def _feas(c: Circuit, T: int, eff,
          max_rounds: int | None = None) -> tuple[bool, Retiming]:
    """Iterated-relabeling feasibility test.

    Returns (ok, retiming).  On failure the returned retiming is the last
    attempt (always legal), which callers use to locate critical gates.
    A conclusive "infeasible" needs the full |V| + 1 rounds; callers that
    only probe may cap `max_rounds` and treat a failure as inconclusive.
    """
    n = c.n
    r = [0] * n
    weights = [e.w for e in c.edges]
    rounds = n + 1 if max_rounds is None else min(n + 1, max_rounds)
    for _ in range(rounds):
        a = arrivals(c, eff, weights)
        bad = [i for i in range(n) if a[i] > T]
        if not bad:
            base = min(r)
            return True, Retiming(tuple(x - base for x in r))
        for i in bad:
            r[i] += 1
        for k, e in enumerate(c.edges):
            weights[k] = e.w + r[e.dst] - r[e.src]
    base = min(r)
    return False, Retiming(tuple(x - base for x in r))


def feasible_retiming(c: Circuit, T: int, eff=None) -> Retiming | None:
    """A legal retiming meeting period T under effective delays, or None."""
    if eff is None:
        eff = c.delays
    if max(eff) > T:
        return None
    ok, r = _feas(c, T, eff)
    return r if ok else None


def min_period(c: Circuit, eff=None) -> tuple[int, Retiming]:
    """Smallest integer period with a feasible retiming, plus a witness."""
    if eff is None:
        eff = c.delays
    lo = max(eff)
    hi = sum(eff)
    best = None
    ok, r = _feas(c, hi, eff)
    assert ok, "period equal to the total delay is always feasible"
    best = (hi, r)
    while lo < hi:
        mid = (lo + hi) // 2
        ok, r = _feas(c, mid, eff)
        if ok:
            best = (mid, r)
            hi = mid
        else:
            lo = mid + 1
    return best
