"""Dual graph and its expansion into a min-cost circulation.

The dual graph is the circuit at period T plus per-gate data.  Every gate i
is one node i carrying its scaled arrival variable; one reference node
v0 = n is the common tail of the slack windows and anchors the potentials.
There are no retiming-label nodes or label-legality edges: the retiming
comes from retime.feasible_retiming, not from the flow.  `expand` emits two
arc classes, those of the convex-cost dual flow of Ahuja, Hochbaum & Orlin
(Management Science 2003), straight from the circuit:

  E1  n -> i           per gate: the gate's slack window [lower_i, upper_i],
                       its delay plus its first and last slack, as one
                       uncapacitated arc at the lower bound; accepted curves
                       never rise, so the flattened (Q-transformed) cost the
                       paper puts here is a constant
  E2  i -> j           per circuit edge: arrival propagation, cost = the
                       sink gate's curve divided by its penalty divisor
                       kappa_j, its window shifted by -T*w

The reference node has only out-arcs, so in every circulation its E1 arcs
carry no flow and keep room, and every gate is reached from it in the
residual network.

Every fanin edge of gate j carries the same cost up to its shift, so the
dual graph keeps each gate's slack levels and its slopes divided by kappa_j
once.  Expansion builds one template per sink gate, one parallel arc per
usable curve level: the level's slack offset and its capacity, the slope
drop between consecutive breakpoints scaled by D to an integer; a level
whose slope drop is zero gives no arc.  Each circuit edge emits its sink's
template at arc cost -(lower_j - T*w + offset).  The result is a pure
circulation instance with all lower bounds zero and no zero-capacity arc.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .circuit import Circuit
from .power import PowerSlackCurve, breakpoints


class TransformError(ValueError):
    """The instance admits no feasible slack assignment, or a curve leaked
    through validation."""


@dataclass(frozen=True)
class DualGraph:
    circuit: Circuit
    period: int
    nff_bar: int  # N_ff * T
    lower: tuple[int, ...]  # per gate: delay + first slack
    upper: tuple[int, ...]  # per gate: delay + last slack
    slacks: tuple[tuple[int, ...], ...]  # per gate: its curve's slack levels
    slopes: tuple[tuple[Fraction, ...], ...]  # per gate: breakpoints / kappa

    @property
    def n_gates(self) -> int:
        return self.circuit.n

    @property
    def n_nodes(self) -> int:
        return self.circuit.n + 1

    @property
    def v0(self) -> int:
        return self.circuit.n


def penalty_divisor(c: Circuit, j: int) -> int:
    """Number of zero-FF fanin edges of gate j, clamped to at least 1."""
    k = sum(1 for e in c.fanin[j] if c.edges[e].w == 0)
    return max(1, k)


def split_graph(c: Circuit, T: int, curves: dict[int, PowerSlackCurve],
                n_ff: int | None = None) -> DualGraph:
    """Build the dual graph for circuit c at period T."""
    if n_ff is None:
        n_ff = max(1, c.total_ffs)
    if n_ff < 1:
        raise ValueError("n_ff must be >= 1")
    cs = [curves[j] for j in range(c.n)]
    lower = tuple(d + cur.slacks[0] for d, cur in zip(c.delays, cs))
    for i, lo in enumerate(lower):
        if lo > T:
            raise TransformError(
                f"gate {c.gates[i].name}: delay plus minimum slack {lo} exceeds period {T}")
    slopes = []
    for j, cur in enumerate(cs):
        kappa = penalty_divisor(c, j)
        slopes.append(tuple(b / kappa for b in breakpoints(cur)))
    return DualGraph(c, T, n_ff * T, lower,
                     tuple(d + cur.slacks[-1] for d, cur in zip(c.delays, cs)),
                     tuple(cur.slacks for cur in cs), tuple(slopes))


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    cost: int
    upper: int


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: tuple[Arc, ...]
    scale: int = 1  # capacity scale D

    def __post_init__(self):
        for a in self.arcs:
            if a.upper < 0:
                raise TransformError(f"arc {a}: negative capacity")


def _template(slacks: tuple[int, ...], bs: tuple[Fraction, ...], scale: int,
              big: int) -> list[tuple[int, int]]:
    """(slack offset, capacity) of each arc of a costed edge into a gate with
    these levels and slopes, highest level first."""
    L = len(slacks)
    out = []
    for q in range(L - 1, -1, -1):
        if q == 0:
            cap = big - (bs[0] * scale if bs else 0)
        else:
            b_next = bs[q] if q < L - 1 else 0  # bs[q - 1] is b(q+1), 1-based
            cap = (bs[q - 1] - b_next) * scale
        if cap < 0:
            raise TransformError("negative capacity (non-convex curve leaked through)")
        assert cap.denominator == 1, "capacity scale does not clear slopes"
        if cap:
            out.append((slacks[q] - slacks[0], int(cap)))
    return out


def expand(g: DualGraph) -> FlowNetwork:
    """Expand the dual graph into an integer min-cost circulation network."""
    c, T = g.circuit, g.period
    fanins = Counter(e.dst for e in c.edges)
    if any(b < 0 for j in fanins for b in g.slopes[j]):
        raise TransformError("negative capacity slope on an E2 arc")
    scale = 1
    total_b = Fraction(0)
    for j, count in fanins.items():
        for b in g.slopes[j]:
            scale = math.lcm(scale, b.denominator)
        total_b += count * sum(g.slopes[j])
    big = (1 + math.ceil(total_b)) * scale
    templates = {j: _template(g.slacks[j], g.slopes[j], scale, big) for j in fanins}

    arcs = [Arc(g.v0, i, -lo, big) for i, lo in enumerate(g.lower)]  # E1
    for e in c.edges:  # E2
        shift = g.lower[e.dst] - T * e.w
        for off, cap in templates[e.dst]:
            arcs.append(Arc(e.src, e.dst, -(shift + off), cap))
    return FlowNetwork(g.n_nodes, tuple(arcs), scale)
