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
dual graph keeps each gate's slack levels and its slopes divided by kappa_j,
computed once per distinct curve and penalty divisor: gates with an equal
pair share one levels tuple and one slopes tuple.  Expansion builds one
template per shared pair of tuples, so again once per distinct curve and
penalty divisor: one parallel arc per usable curve level, at the level's
slack offset, its capacity the slope drop between consecutive breakpoints
scaled by D to an integer; a level whose slope drop is zero gives no arc.
Each circuit edge emits its sink's template at arc cost
-(lower_j - T*w + offset).  The result is a pure circulation instance with
all lower bounds zero and no zero-capacity arc; each arc is an `Arc`
named tuple (src, dst, cost, upper).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
    # gates with an equal curve and penalty divisor share one levels tuple
    # and one slopes tuple, which lets expand build their template once
    shared: dict[tuple[PowerSlackCurve, int], tuple] = {}
    per_gate = []
    for j, cur in enumerate(cs):
        kappa = penalty_divisor(c, j)
        pair = shared.get((cur, kappa))
        if pair is None:
            pair = shared[cur, kappa] = (cur.slacks,
                                         tuple(b / kappa for b in breakpoints(cur)))
        per_gate.append(pair)
    return DualGraph(c, T, n_ff * T, lower,
                     tuple(d + cur.slacks[-1] for d, cur in zip(c.delays, cs)),
                     tuple(lv for lv, _ in per_gate), tuple(bs for _, bs in per_gate))


class Arc(NamedTuple):
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
        n = self.n_nodes
        for a in self.arcs:
            src, dst, _, upper = a
            if upper < 0:
                raise TransformError(f"arc {a}: negative capacity")
            if not (0 <= src < n and 0 <= dst < n):
                raise TransformError(f"arc {a}: endpoint outside nodes 0..{n - 1}")


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
    # sink gates whose levels and slopes are the same tuple objects, as
    # split_graph makes them per distinct curve and penalty divisor, share
    # one template
    groups: dict[tuple[int, int], list[int]] = {}
    for j in fanins:
        groups.setdefault((id(g.slacks[j]), id(g.slopes[j])), []).append(j)
    if any(b < 0 for js in groups.values() for b in g.slopes[js[0]]):
        raise TransformError("negative capacity slope on an E2 arc")
    scale = 1
    total_b = Fraction(0)
    for js in groups.values():
        bs = g.slopes[js[0]]
        for b in bs:
            scale = math.lcm(scale, b.denominator)
        total_b += sum(fanins[j] for j in js) * sum(bs)
    big = (1 + math.ceil(total_b)) * scale
    templates = {}
    for js in groups.values():
        t = _template(g.slacks[js[0]], g.slopes[js[0]], scale, big)
        templates.update((j, t) for j in js)

    arcs = [Arc(g.v0, i, -lo, big) for i, lo in enumerate(g.lower)]  # E1
    for e in c.edges:  # E2
        shift = g.lower[e.dst] - T * e.w
        arcs += [Arc(e.src, e.dst, -(shift + off), cap)
                 for off, cap in templates[e.dst]]
    return FlowNetwork(g.n_nodes, tuple(arcs), scale)
