"""Dual graph and its expansion into a min-cost circulation.

Every gate i becomes one node i carrying its scaled arrival variable; one
reference node n is the common tail of the slack windows.  There are no
retiming-label nodes or label-legality edges: the retiming comes from the
feasibility search (retime._feas), not from the flow.  Edge classes:

  E1  n -> i           per gate: the gate's slack window, one uncapacitated
                       arc at its lower bound d_i + first slack; accepted
                       curves never rise, so the flattened (Q-transformed)
                       cost the paper puts here is a constant
  E2  i -> j           per circuit edge: arrival propagation, cost = the
                       sink gate's curve scaled by 1/kappa and shifted by
                       d_j - T*w
  E4  v0 -> every node: variable bounds via the start node

Expansion turns each E2 edge into parallel arcs, one per usable curve
level: arc costs are the negated level abscissae and arc capacities the
slope drops between consecutive breakpoints, scaled by D to integers; a
level whose slope drop is zero gives no arc.  The result is a pure
circulation instance with all lower bounds zero and no zero-capacity arc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .circuit import Circuit
from .power import (PowerSlackCurve, breakpoints, penalty_divisor,
                    scale_powers, shift_slacks)


class TransformError(ValueError):
    """The instance admits no feasible slack assignment, or a curve leaked
    through validation."""


@dataclass(frozen=True)
class DualEdge:
    src: int
    dst: int
    kind: str  # "E1" | "E2" | "E4"
    lower: int
    upper: int
    curve: PowerSlackCurve | None  # E2 only: abscissae pre-shifted, powers pre-scaled
    origin: int  # gate id (E1), circuit edge index (E2), node id (E4)


@dataclass(frozen=True)
class DualGraph:
    n_gates: int
    period: int
    nff_bar: int  # N_ff * T
    edges: tuple[DualEdge, ...]

    @property
    def n_nodes(self) -> int:
        return self.n_gates + 2

    @property
    def v0(self) -> int:
        return self.n_gates + 1

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
        edges.append(DualEdge(c.n, i, "E1",
                              d + cur.slacks[0], d + cur.slacks[-1], None, i))
    for k, e in enumerate(c.edges):
        j = e.dst
        d = c.delays[j]
        cur = curves[j]
        kappa = penalty_divisor(c, j)
        pen = shift_slacks(scale_powers(cur, Fraction(1, kappa)), d - T * e.w)
        edges.append(DualEdge(e.src, j, "E2",
                              d + cur.slacks[0] - T * e.w,
                              d + cur.slacks[-1] - T * e.w, pen, k))
    v0 = c.n + 1
    for node in range(v0):
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

    def __post_init__(self):
        for a in self.arcs:
            if a.lower > a.upper:
                raise TransformError(f"arc {a}: lower bound exceeds capacity")


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def expand(g: DualGraph) -> FlowNetwork:
    """Expand the dual graph into an integer min-cost circulation network."""
    all_bs = [breakpoints(e.curve) if e.curve is not None else [] for e in g.edges]
    if any(b < 0 for bs in all_bs for b in bs):
        raise TransformError("negative capacity slope on an E2 edge")
    scale = 1
    for bs in all_bs:
        for b in bs:
            scale = _lcm(scale, b.denominator)
    total_b = sum((b for bs in all_bs for b in bs), Fraction(0))
    m_cap = 1 + math.ceil(total_b)
    big = m_cap * scale

    arcs: list[Arc] = []
    for k, e in enumerate(g.edges):
        if e.kind == "E1":
            arcs.append(Arc(e.src, e.dst, -e.lower, 0, big, (k, 0)))
        elif e.kind == "E2":
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
                if cap:
                    arcs.append(Arc(e.src, e.dst, -s[q], 0, int(cap), (k, seg)))
        else:  # E4: free forward arc plus a rewritten negative-bound arc
            arcs.append(Arc(e.dst, e.src, -g.nff_bar, 0, big, (k, 0)))
            arcs.append(Arc(e.src, e.dst, 0, 0, big, (k, 1)))
    return FlowNetwork(g.n_nodes, tuple(arcs), scale, m_cap)
