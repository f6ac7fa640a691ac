"""Synchronous circuit model: parsing, validation, static timing analysis.

A circuit is a directed graph of combinational gates.  Each gate carries an
integer delay; each edge carries an integer flip-flop (FF) count.  Timing is
propagated only along edges with zero FFs, so the zero-FF subgraph must be
acyclic.  All times are integers, which keeps every computation in the rest
of the pipeline exact.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
import re

_NAME_RE = re.compile(r"[A-Za-z0-9_.]+")


class CircuitError(ValueError):
    """Malformed circuit text or a violated structural invariant."""


@dataclass(frozen=True)
class Gate:
    id: int
    name: str
    delay: int


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    w: int  # FF count


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.gates:
            raise CircuitError("no gates")
        names = set()
        for q, g in enumerate(self.gates):
            if g.id != q:
                raise CircuitError(f"gate ids must be 0..{len(self.gates) - 1} in order")
            if g.delay < 0:
                raise CircuitError(f"gate {g.name}: negative delay {g.delay}")
            if g.name in names:
                raise CircuitError(f"duplicate gate name {g.name}")
            names.add(g.name)
        n = len(self.gates)
        for e in self.edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise CircuitError(f"edge ({e.src}, {e.dst}) references unknown gate")
            if e.w < 0:
                raise CircuitError(f"edge ({e.src}, {e.dst}): negative FF count {e.w}")
        arrivals(self, self.delays)  # raises on a combinational cycle

    @property
    def n(self) -> int:
        return len(self.gates)

    @cached_property
    def delays(self) -> tuple[int, ...]:
        return tuple(g.delay for g in self.gates)

    @cached_property
    def fanin(self) -> tuple[tuple[int, ...], ...]:
        """Incoming edge indices per gate."""
        fi = [[] for _ in range(self.n)]
        for k, e in enumerate(self.edges):
            fi[e.dst].append(k)
        return tuple(tuple(x) for x in fi)

    @cached_property
    def fanout(self) -> tuple[tuple[int, ...], ...]:
        """Outgoing edge indices per gate."""
        fo = [[] for _ in range(self.n)]
        for k, e in enumerate(self.edges):
            fo[e.src].append(k)
        return tuple(tuple(x) for x in fo)

    @cached_property
    def pi(self) -> frozenset[int]:
        """Gates with no fanin are treated as primary inputs."""
        return frozenset(i for i in range(self.n) if not self.fanin[i])

    @cached_property
    def po(self) -> frozenset[int]:
        """Gates with no fanout are treated as primary outputs."""
        return frozenset(i for i in range(self.n) if not self.fanout[i])

    def gate_id(self, name: str) -> int:
        return self._name_index[name]

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {g.name: g.id for g in self.gates}

    @cached_property
    def total_ffs(self) -> int:
        return sum(e.w for e in self.edges)


@dataclass(frozen=True)
class TimingReport:
    period: int
    arrival: tuple[int, ...]
    required: tuple[int, ...]
    slack: tuple[int, ...]


def _forward(c: Circuit, eff, weights):
    """Zero-FF topological order and latest arrival time per gate.

    Kahn's algorithm over the edges whose weight is 0, relaxing each gate's
    fanout as it is popped.  Raises CircuitError on a zero-FF cycle.
    """
    n = c.n
    edges = c.edges
    indeg = [0] * n
    for k, w in enumerate(weights):
        if w == 0:
            indeg[edges[k].dst] += 1
    a = [0] * n  # latest fanin arrival until the gate is popped
    stack = [i for i in range(n) if indeg[i] == 0]
    order = []
    fanout = c.fanout
    while stack:
        u = stack.pop()
        order.append(u)
        au = a[u] + eff[u]
        a[u] = au
        for k in fanout[u]:
            if weights[k] == 0:
                v = edges[k].dst
                if au > a[v]:
                    a[v] = au
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
    if len(order) != n:
        raise CircuitError("combinational cycle (zero-FF cycle)")
    return order, a


def arrivals(c: Circuit, eff, weights=None) -> list[int]:
    """Latest arrival time per gate under effective delays `eff`.

    `weights` optionally overrides the per-edge FF counts (a retiming's
    weights).  Arrival is the gate's own effective delay plus the maximum
    arrival over zero-FF fanin edges.
    """
    if weights is None:
        weights = [e.w for e in c.edges]
    return _forward(c, eff, weights)[1]


def sta(c: Circuit, T: int, eff=None, weights=None) -> TimingReport:
    """Arrival / required / slack per gate at clock period T.

    eff is the per-gate effective delay (delay plus any granted slack);
    defaults to the raw gate delays.  `weights` overrides the per-edge FF
    counts as in `arrivals`.
    """
    if eff is None:
        eff = c.delays
    for i, e in enumerate(eff):
        if e < 0:
            raise CircuitError(f"gate {c.gates[i].name}: negative effective delay")
    if weights is None:
        weights = [e.w for e in c.edges]
    order, a = _forward(c, eff, weights)
    g = [T] * c.n
    edges = c.edges
    for i in reversed(order):
        for k in c.fanout[i]:
            if weights[k] == 0:
                j = edges[k].dst
                v = g[j] - eff[j]
                if v < g[i]:
                    g[i] = v
    s = [g[i] - a[i] for i in range(c.n)]
    return TimingReport(T, tuple(a), tuple(g), tuple(s))


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    ``gate <name> <delay>`` lines followed by ``edge <src> <dst> <ff_count>``
    lines; ``#`` starts a comment.
    """
    gates: list[Gate] = []
    edges: list[Edge] = []
    names: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "gate":
            if len(parts) != 3:
                raise CircuitError(f"line {ln}: expected 'gate <name> <delay>'")
            name = parts[1]
            if not _NAME_RE.fullmatch(name):
                raise CircuitError(f"line {ln}: bad gate name {name!r}")
            if name in names:
                raise CircuitError(f"line {ln}: duplicate gate {name}")
            try:
                delay = int(parts[2])
            except ValueError:
                raise CircuitError(f"line {ln}: bad delay {parts[2]!r}") from None
            if delay < 0:
                raise CircuitError(f"line {ln}: negative delay {delay}")
            names[name] = len(gates)
            gates.append(Gate(len(gates), name, delay))
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise CircuitError(f"line {ln}: expected 'edge <src> <dst> <ff_count>'")
            for g in (parts[1], parts[2]):
                if g not in names:
                    raise CircuitError(f"line {ln}: unknown gate {g!r}")
            try:
                w = int(parts[3])
            except ValueError:
                raise CircuitError(f"line {ln}: bad FF count {parts[3]!r}") from None
            if w < 0:
                raise CircuitError(f"line {ln}: negative FF count {w}")
            edges.append(Edge(names[parts[1]], names[parts[2]], w))
        else:
            raise CircuitError(f"line {ln}: unknown record {parts[0]!r}")
    if not gates:
        raise CircuitError("no gates")
    return Circuit(tuple(gates), tuple(edges))


def render_circuit(c: Circuit) -> str:
    """Canonical text form; parse(render(c)) == c."""
    out = []
    for g in c.gates:
        out.append(f"gate {g.name} {g.delay}")
    for e in c.edges:
        out.append(f"edge {c.gates[e.src].name} {c.gates[e.dst].name} {e.w}")
    return "\n".join(out) + "\n"


def generate_random(n_gates: int, edge_density: float = 2.0, ff_prob: float = 0.3,
                    delay_range: tuple[int, int] = (1, 10), seed: int = 0) -> Circuit:
    """Random benchmark circuit, deterministic for a fixed seed.

    Gates are laid out in a random topological order; backward edges always
    receive an FF so the zero-FF subgraph stays acyclic.
    """
    if n_gates < 1:
        raise ValueError("n_gates must be >= 1")
    if not (0.0 <= ff_prob <= 1.0):
        raise ValueError("ff_prob must be in [0, 1]")
    rng = random.Random(seed)
    lo, hi = delay_range
    gates = tuple(Gate(i, f"g{i}", rng.randint(lo, hi)) for i in range(n_gates))
    target = int(round(edge_density * n_gates))
    seen = set()
    edges = []
    attempts = 30 * target + 100
    while len(edges) < target and attempts > 0:
        attempts -= 1
        i = rng.randrange(n_gates)
        j = rng.randrange(n_gates)
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        if i < j:
            w = 1 if rng.random() < ff_prob else 0
        else:
            w = 1  # would close a zero-FF cycle otherwise
        edges.append(Edge(i, j, w))
    return Circuit(gates, tuple(edges))
