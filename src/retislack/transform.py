"""Split-vertex dual graph and its expansion into a min-cost circulation.

Every gate i becomes two nodes, lo(i) and hi(i), carrying the scaled
retiming label and arrival variables.  Edge classes:

  E1  lo(i) -> hi(i)   per gate: the gate's slack window, cost = flattened
                       (Q-transformed) curve shifted by the gate delay
  E2  hi(i) -> hi(j)   per circuit edge: arrival propagation, cost = the
                       sink gate's curve scaled by 1/kappa and shifted by
                       d_j - T*w
  E3  lo(i) -> lo(j)   per circuit edge: retiming legality, cost-free
  E4  v0 -> every node: variable bounds via the start node

Expansion turns each costed edge into parallel arcs, one per curve level:
arc costs are the negated level abscissae and arc capacities the slope
drops between consecutive breakpoints, scaled by D to integers.  The
result is a pure circulation instance with all lower bounds zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .circuit import Circuit
from .power import (PowerSlackCurve, breakpoints, penalty_divisor, q_transform,
                    scale_powers, shift_slacks)


class TransformError(ValueError):
    """The instance admits no feasible slack assignment, or a curve leaked
    through validation."""


@dataclass(frozen=True)
class DualEdge:
    src: int
    dst: int
    kind: str  # "E1" | "E2" | "E3" | "E4"
    lower: int
    upper: int
    curve: PowerSlackCurve | None  # abscissae pre-shifted, powers pre-scaled
    origin: int  # gate id (E1), circuit edge index (E2/E3), node id (E4)


@dataclass(frozen=True)
class DualGraph:
    n_gates: int
    period: int
    nff_bar: int  # N_ff * T
    edges: tuple[DualEdge, ...]

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_gates + 1

    @property
    def v0(self) -> int:
        return 2 * self.n_gates

    def lo(self, i: int) -> int:
        return 2 * i

    def hi(self, i: int) -> int:
        return 2 * i + 1

    @cached_property
    def e1_index(self) -> dict[int, int]:
        """gate id -> dual edge index of its E1 edge."""
        return {e.origin: k for k, e in enumerate(self.edges) if e.kind == "E1"}

    @cached_property
    def e2_index(self) -> dict[int, int]:
        """circuit edge index -> dual edge index of its E2 edge."""
        return {e.origin: k for k, e in enumerate(self.edges) if e.kind == "E2"}


def split_graph(c: Circuit, T: int, curves: dict[int, PowerSlackCurve],
                n_ff: int | None = None) -> DualGraph:
    """Build the dual graph for circuit c at period T."""
    if n_ff is None:
        n_ff = max(1, c.total_ffs)
    if n_ff < 1:
        raise ValueError("n_ff must be >= 1")
    nff_bar = n_ff * T
    for i in range(c.n):
        lo = c.delays[i] + curves[i].slacks[0]
        if lo > T:
            raise TransformError(
                f"gate {c.gates[i].name}: delay plus minimum slack {lo} exceeds period {T}")
    edges: list[DualEdge] = []
    for i in range(c.n):
        d = c.delays[i]
        cur = curves[i]
        qcur = shift_slacks(q_transform(cur), d)
        edges.append(DualEdge(2 * i, 2 * i + 1, "E1",
                              d + cur.slacks[0], d + cur.slacks[-1], qcur, i))
    for k, e in enumerate(c.edges):
        j = e.dst
        d = c.delays[j]
        cur = curves[j]
        kappa = penalty_divisor(c, j)
        pen = shift_slacks(scale_powers(cur, Fraction(1, kappa)), d - T * e.w)
        edges.append(DualEdge(2 * e.src + 1, 2 * j + 1, "E2",
                              d + cur.slacks[0] - T * e.w,
                              d + cur.slacks[-1] - T * e.w, pen, k))
    for k, e in enumerate(c.edges):
        edges.append(DualEdge(2 * e.src, 2 * e.dst, "E3",
                              -T * e.w, nff_bar, None, k))
    v0 = 2 * c.n
    for node in range(2 * c.n):
        edges.append(DualEdge(v0, node, "E4", 0, nff_bar, None, node))
    return DualGraph(c.n, T, nff_bar, tuple(edges))


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    cost: int
    lower: int
    upper: int
    origin: tuple[int, int] | None  # (dual edge index, segment) or None


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: tuple[Arc, ...]
    scale: int = 1  # capacity scale D
    m_cap: int = 0
    m_cost: int = 0

    def __post_init__(self):
        for a in self.arcs:
            if a.lower > a.upper:
                raise TransformError(f"arc {a}: lower bound exceeds capacity")


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def expand(g: DualGraph) -> FlowNetwork:
    """Expand the dual graph into an integer min-cost circulation network."""
    all_bs: list[list[Fraction]] = []
    for e in g.edges:
        if e.curve is not None:
            bs = breakpoints(e.curve)
            for b in bs:
                if b < 0:
                    raise TransformError(f"negative capacity slope on {e.kind} edge")
            all_bs.append(bs)
        else:
            all_bs.append([])
    scale = 1
    for bs in all_bs:
        for b in bs:
            scale = _lcm(scale, b.denominator)
    total_b = sum((b for bs in all_bs for b in bs), Fraction(0))
    m_cap = 1 + math.ceil(total_b)
    first_bs = [bs[0] for bs in all_bs if bs]
    m_cost = 1 + math.ceil(sum(first_bs, Fraction(0)))
    big = m_cap * scale

    arcs: list[Arc] = []
    for k, e in enumerate(g.edges):
        if e.kind in ("E1", "E2"):
            cur = e.curve
            s = cur.slacks
            L = len(s)
            bs = all_bs[k]  # b(2)..b(L) as a 0-based list
            for seg in range(L):
                # arc `seg` carries cost -s[L-1-seg]
                q = L - 1 - seg
                if seg == L - 1:
                    cap = big - (bs[0] * scale if bs else 0)
                else:
                    b_hi = bs[q - 1]  # b(q+1) in 1-based level numbering
                    b_next = bs[q] if q < L - 1 else Fraction(0)
                    cap = (b_hi - b_next) * scale
                if cap < 0:
                    raise TransformError("negative capacity (non-convex curve leaked through)")
                assert Fraction(cap).denominator == 1, "capacity scale does not clear slopes"
                cap = int(cap)
                arcs.append(Arc(e.src, e.dst, -s[q], 0, cap, (k, seg)))
        elif e.kind == "E3":
            arcs.append(Arc(e.src, e.dst, -e.lower, 0, big, (k, 0)))
        else:  # E4: free forward arc plus a rewritten negative-bound arc
            arcs.append(Arc(e.dst, e.src, -g.nff_bar, 0, big, (k, 0)))
            arcs.append(Arc(e.src, e.dst, 0, 0, big, (k, 1)))
    return FlowNetwork(g.n_nodes, tuple(arcs), scale, m_cap, m_cost)
