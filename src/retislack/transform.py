"""Dual graph and its expansion into a min-cost circulation.

The dual graph is the circuit at period T plus what the paper attaches to
each gate: its slack window and its power-slack curve.  Every gate i is
one node i carrying its scaled arrival variable; one reference node v0 = n
is the common tail of the slack windows and anchors the potentials.  There
are no retiming-label nodes or label-legality edges: the retiming comes
from retime.feasible_retiming, not from the flow.  `expand` emits two arc
classes, those of the convex-cost dual flow of Ahuja, Hochbaum & Orlin
(Management Science 2003), straight from the circuit:

  E1  n -> i           per gate: the bottom lower_i of the gate's slack
                       window, its delay plus its first slack, as one
                       uncapacitated arc (the top is left to the level grid
                       recovery snaps onto); curves never rise, so the
                       flattened (Q-transformed) cost here is a constant
  E2  i -> j           per circuit edge: arrival propagation, cost = the
                       sink gate's curve, its window shifted by -T*w

The reference node has only out-arcs, so in every circulation its E1 arcs
carry no flow and keep room, and every gate is reached from it in the
residual network.

Every fanin edge of gate j carries the same cost up to its shift, and so
does every fanin edge of a gate with the same curve object.  `expand`
groups the sink gates by curve object and builds one template per group:
one parallel arc per usable curve level, at the level's slack offset, its
capacity the drop between consecutive breakpoints, times D; a level whose
drop is zero gives no arc.  D is the lcm of the reduced denominators of
the slopes, read off the integer pairs (power drop, slack step) of
`power.breakpoints`.  Curves are convex and never rise by construction,
so no capacity is negative.  Each circuit edge emits its sink's template
at arc cost -(lower_j - T*w + offset).  The result is a pure circulation
instance with all lower bounds zero and no zero-capacity arc; each arc is
a plain tuple (src, dst, cost, upper).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .circuit import Circuit
from .power import PowerSlackCurve, breakpoints


class TransformError(ValueError):
    """The instance admits no feasible slack assignment, or a flow network
    is malformed."""


@dataclass(frozen=True)
class DualGraph:
    circuit: Circuit
    period: int
    nff_bar: int  # N_ff * T; kept only because the traced replay reads it
    lower: tuple[int, ...]  # per gate: delay + first slack
    curves: tuple[PowerSlackCurve, ...]  # per gate: its power-slack curve

    @property
    def n_nodes(self) -> int:
        return self.circuit.n + 1

    @property
    def v0(self) -> int:
        return self.circuit.n


def split_graph(c: Circuit, T: int, curves: dict[int, PowerSlackCurve],
                n_ff: int | None = None) -> DualGraph:
    """Build the dual graph for circuit c at period T."""
    # n_ff is kept only because the traced replay passes it
    if n_ff is None:
        n_ff = max(1, sum(e.w for e in c.edges))
    if n_ff < 1:
        raise ValueError("n_ff must be >= 1")
    cs = tuple(curves[j] for j in range(c.n))
    lower = tuple(d + cur.slacks[0] for d, cur in zip(c.delays, cs))
    for i, lo in enumerate(lower):
        if lo > T:
            raise TransformError(
                f"gate {c.gates[i].name}: delay plus minimum slack {lo} exceeds period {T}")
    return DualGraph(c, T, n_ff * T, lower, cs)


@dataclass(frozen=True)
class FlowNetwork:
    n_nodes: int
    arcs: tuple[tuple[int, int, int, int], ...]  # (src, dst, cost, upper)
    scale: int = 1  # capacity scale D

    def __post_init__(self):
        n = self.n_nodes
        for a in self.arcs:
            src, dst, _, upper = a
            if upper < 0:
                raise TransformError(f"arc {a}: negative capacity")
            if not (0 <= src < n and 0 <= dst < n):
                raise TransformError(f"arc {a}: endpoint outside nodes 0..{n - 1}")


def _template(slacks: tuple[int, ...], scaled: list[int],
              big: int) -> list[tuple[int, int]]:
    """(slack offset, capacity) of each arc of a costed edge into a gate with
    these levels and slopes times D, highest level first."""
    drops = [big] + scaled + [0]  # big, then b(2)..b(L) times D, then 0
    caps = [drops[q] - drops[q + 1] for q in range(len(slacks))]
    return [(slacks[q] - slacks[0], caps[q])
            for q in range(len(slacks) - 1, -1, -1) if caps[q]]


def expand(g: DualGraph) -> FlowNetwork:
    """Expand the dual graph into an integer min-cost circulation network."""
    c, T, lower = g.circuit, g.period, g.lower
    fanins = Counter(e.dst for e in c.edges)
    # sink gates with the same curve object share one template; equal
    # curves give equal templates, so grouping by id(curve) hashes no curve
    groups: dict[int, list[int]] = {}
    for j in fanins:
        groups.setdefault(id(g.curves[j]), []).append(j)
    curves = [g.curves[js[0]] for js in groups.values()]
    slopes = [breakpoints(cur) for cur in curves]
    scale = math.lcm(1, *(den // math.gcd(num, den) for bs in slopes for num, den in bs))
    scaled = [[num * scale // den for num, den in bs] for bs in slopes]
    total = sum(sum(fanins[j] for j in js) * sum(xs)
                for js, xs in zip(groups.values(), scaled))
    # (1 + ceil(total / D)) * D: more than any E2 edge can carry
    big = (1 - -total // scale) * scale
    templates = {}
    for cur, js, xs in zip(curves, groups.values(), scaled):
        t = _template(cur.slacks, xs, big)
        templates.update((j, t) for j in js)

    v0 = g.v0
    arcs = [(v0, i, -lo, big) for i, lo in enumerate(lower)]  # E1
    for e in c.edges:  # E2
        src, dst = e.src, e.dst
        shift = lower[dst] - T * e.w
        arcs += [(src, dst, -(shift + off), cap) for off, cap in templates[dst]]
    return FlowNetwork(g.n_nodes, tuple(arcs), scale)
