"""Dual graph and its expansion into a min-cost circulation.

Every gate i becomes one node i carrying its scaled arrival variable; one
reference node n is the common tail of the slack windows.  There are no
retiming-label nodes or label-legality edges: the retiming comes from
retime.feasible_retiming, not from the flow.  Edge classes:

  E1  n -> i           per gate: the gate's slack window, one uncapacitated
                       arc at its lower bound d_i + first slack; accepted
                       curves never rise, so the flattened (Q-transformed)
                       cost the paper puts here is a constant
  E2  i -> j           per circuit edge: arrival propagation, cost = the
                       sink gate's curve divided by its penalty divisor
                       kappa_j and shifted by d_j - T*w
  E4  v0 -> every node: variable bounds via the start node

Every fanin edge of gate j carries the same cost up to its shift, so the
dual graph keeps each gate's slack levels and its slopes divided by kappa_j
once.  Expansion builds one template per sink gate, one parallel arc per
usable curve level: the level's slack offset and its capacity, the slope
drop between consecutive breakpoints scaled by D to an integer; a level
whose slope drop is zero gives no arc.  Each E2 edge emits its sink's
template at arc cost -(edge lower bound + offset).  The result is a pure
circulation instance with all lower bounds zero and no zero-capacity arc.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .circuit import Circuit
from .power import PowerSlackCurve, breakpoints, penalty_divisor


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
    origin: int  # gate id (E1), circuit edge index (E2), node id (E4)


@dataclass(frozen=True)
class DualGraph:
    n_gates: int
    period: int
    nff_bar: int  # N_ff * T
    edges: tuple[DualEdge, ...]
    slacks: tuple[tuple[int, ...], ...]  # per gate: its curve's slack levels
    slopes: tuple[tuple[Fraction, ...], ...]  # per gate: breakpoints / kappa

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
                              d + cur.slacks[0], d + cur.slacks[-1], i))
    for k, e in enumerate(c.edges):
        j = e.dst
        d = c.delays[j]
        cur = curves[j]
        edges.append(DualEdge(e.src, j, "E2",
                              d + cur.slacks[0] - T * e.w,
                              d + cur.slacks[-1] - T * e.w, k))
    v0 = c.n + 1
    for node in range(v0):
        edges.append(DualEdge(v0, node, "E4", 0, nff_bar, node))
    slopes = []
    for j in range(c.n):
        kappa = penalty_divisor(c, j)
        slopes.append(tuple(b / kappa for b in breakpoints(curves[j])))
    return DualGraph(c.n, T, nff_bar, tuple(edges),
                     tuple(curves[j].slacks for j in range(c.n)), tuple(slopes))


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    cost: int
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
            if a.upper < 0:
                raise TransformError(f"arc {a}: negative capacity")


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _template(slacks: tuple[int, ...], bs: tuple[Fraction, ...], scale: int,
              big: int) -> list[tuple[int, int, int]]:
    """(slack offset, capacity, segment) of each arc of a costed edge into a
    gate with these levels and slopes; segment `seg` is level L-1-seg."""
    L = len(slacks)
    out = []
    for seg in range(L):
        q = L - 1 - seg
        if seg == L - 1:
            cap = big - (bs[0] * scale if bs else 0)
        else:
            b_next = bs[q] if q < L - 1 else 0  # bs[q - 1] is b(q+1), 1-based
            cap = (bs[q - 1] - b_next) * scale
        if cap < 0:
            raise TransformError("negative capacity (non-convex curve leaked through)")
        assert cap.denominator == 1, "capacity scale does not clear slopes"
        if cap:
            out.append((slacks[q] - slacks[0], int(cap), seg))
    return out


def expand(g: DualGraph) -> FlowNetwork:
    """Expand the dual graph into an integer min-cost circulation network."""
    fanins = Counter(e.dst for e in g.edges if e.kind == "E2")
    if any(b < 0 for j in fanins for b in g.slopes[j]):
        raise TransformError("negative capacity slope on an E2 edge")
    scale = 1
    total_b = Fraction(0)
    for j, count in fanins.items():
        for b in g.slopes[j]:
            scale = _lcm(scale, b.denominator)
        total_b += count * sum(g.slopes[j])
    m_cap = 1 + math.ceil(total_b)
    big = m_cap * scale
    templates = {j: _template(g.slacks[j], g.slopes[j], scale, big) for j in fanins}

    arcs: list[Arc] = []
    for k, e in enumerate(g.edges):
        if e.kind == "E1":
            arcs.append(Arc(e.src, e.dst, -e.lower, big, (k, 0)))
        elif e.kind == "E2":
            for off, cap, seg in templates[e.dst]:
                arcs.append(Arc(e.src, e.dst, -(e.lower + off), cap, (k, seg)))
        else:  # E4: free forward arc plus a rewritten negative-bound arc
            arcs.append(Arc(e.dst, e.src, -g.nff_bar, big, (k, 0)))
            arcs.append(Arc(e.src, e.dst, 0, big, (k, 1)))
    return FlowNetwork(g.n_nodes, tuple(arcs), scale, m_cap)
