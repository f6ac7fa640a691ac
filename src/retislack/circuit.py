"""Synchronous circuit model: parsing, validation, static timing analysis.

A circuit is a directed graph of combinational gates.  Each gate carries an
integer delay; each edge carries an integer flip-flop (FF) count.  Timing is
propagated only along edges with zero FFs, so the zero-FF subgraph must be
acyclic.  All times are integers, which keeps every computation in the rest
of the pipeline exact.  `Gate` and `Edge` are immutable slotted records
whose own `__init__` enforces their fields' rules (a bool is not an int;
names in the text format's alphabet) once, before it stores them;
`Circuit` checks the rules across records, so parse(render(c)) == c and
the reader checks only syntax, in one pass over the lines.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields
from functools import cached_property

_NAME_RE = re.compile(r"[A-Za-z0-9_.]+")
_SHAPES = {"edge": "edge <src> <dst> <ff_count>", "gate": "gate <name> <delay>"}


class CircuitError(ValueError):
    """Malformed circuit text or a violated structural invariant."""


def _slot_setters(cls):
    """Each field's slot descriptor setter, in field order.  A frozen record's
    own __init__ stores its checked fields through these, past the
    __setattr__ that freezes it."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    id: int
    name: str
    delay: int

    def __init__(self, id: int, name: str, delay: int):
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise CircuitError(f"bad gate name {name!r}")
        if type(delay) is not int or delay < 0:
            raise CircuitError(f"gate {name}: bad delay {delay!r}")
        _set_id(self, id)
        _set_name(self, name)
        _set_delay(self, delay)


_set_id, _set_name, _set_delay = _slot_setters(Gate)


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    src: int
    dst: int
    w: int  # FF count

    def __init__(self, src: int, dst: int, w: int):
        if type(w) is not int or w < 0:
            raise CircuitError(f"edge ({src!r}, {dst!r}): bad FF count {w!r}")
        _set_src(self, src)
        _set_dst(self, dst)
        _set_w(self, w)


_set_src, _set_dst, _set_w = _slot_setters(Edge)


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.gates:
            raise CircuitError("no gates")
        names: dict[str, int] = {}
        for q, g in enumerate(self.gates):
            if type(g.id) is not int or g.id != q:
                raise CircuitError(f"gate ids must be 0..{len(self.gates) - 1} in order")
            if g.name in names:
                raise CircuitError(f"duplicate gate name {g.name}")
            names[g.name] = q
        object.__setattr__(self, "_name_index", names)  # gate id by name
        n = len(self.gates)
        for e in self.edges:
            if not (type(e.src) is type(e.dst) is int and 0 <= e.src < n and 0 <= e.dst < n):
                raise CircuitError(f"edge ({e.src!r}, {e.dst!r}) references unknown gate")
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

    def gate_id(self, name: str) -> int:
        return self._name_index[name]


@dataclass(frozen=True)
class TimingReport:
    arrival: tuple[int, ...]
    required: tuple[int, ...]
    slack: tuple[int, ...]


def _forward(c: Circuit, eff, weights, cone=None, a=None, src=None):
    """Zero-FF topological order, latest arrival and critical source per gate.

    Kahn's algorithm over the edges whose weight is 0, relaxing each gate's
    fanout as it is popped.  src[v] starts a zero-FF path ending at v whose
    delay is a[v]: the source inherited from the fanin that set a[v], or v
    itself when no fanin arrives later than 0.  Raises CircuitError on a
    zero-FF cycle.

    Given `cone`, some gates, and the lists `a` and `src` of an earlier
    pass, only the cone's closure under zero-FF fanout is re-timed, in place,
    and `order` holds just those gates; every other gate's entries are read
    as they stand.  That is exact when each gate outside the closure has kept
    its zero-FF fanin edges and its effective delay since `a` and `src` were
    computed.  Two callers use it so: the rounds of
    retime.feasible_retiming re-time the relabeled gates' cone, and
    recovery.finalize's fill re-times a raised gate's cone to try a level
    step, then once more to undo a step that misses T.
    """
    n = c.n
    edges, fanout = c.edges, c.fanout
    if cone is None:
        indeg = [0] * n
        for k, w in enumerate(weights):
            if w == 0:
                indeg[edges[k].dst] += 1
        a = [0] * n  # latest fanin arrival until the gate is popped
        src = list(range(n))
        cone = range(n)
    else:
        indeg = dict.fromkeys(cone, 0)  # zero-FF fanins inside the closure
        stack = list(indeg)
        while stack:
            for k in fanout[stack.pop()]:
                if weights[k] == 0:
                    v = edges[k].dst
                    if v in indeg:
                        indeg[v] += 1
                    else:
                        indeg[v] = 1
                        stack.append(v)
        fanin = c.fanin
        for v in indeg:  # start from the fanins outside the closure
            av, sv = 0, v
            for k in fanin[v]:
                u = edges[k].src
                if a[u] > av and weights[k] == 0 and u not in indeg:
                    av, sv = a[u], src[u]
            a[v], src[v] = av, sv
        cone = indeg
    stack = [i for i in cone if indeg[i] == 0]
    order = []
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
                    src[v] = src[u]
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
    if len(order) != len(cone):
        raise CircuitError("combinational cycle (zero-FF cycle)")
    return order, a, src


def _backward(c: Circuit, T: int, eff, weights, order) -> list[int]:
    """Required time per gate at period T, over the reversed `order`."""
    g = [T] * c.n
    edges = c.edges
    for i in reversed(order):
        for k in c.fanout[i]:
            if weights[k] == 0:
                j = edges[k].dst
                v = g[j] - eff[j]
                if v < g[i]:
                    g[i] = v
    return g


def arrivals(c: Circuit, eff) -> list[int]:
    """Latest arrival time per gate under effective delays `eff`.

    Arrival is the gate's own effective delay plus the maximum arrival over
    zero-FF fanin edges.
    """
    return _forward(c, eff, [e.w for e in c.edges])[1]


def sta(c: Circuit, T: int, eff=None, weights=None) -> TimingReport:
    """Arrival / required / slack per gate at clock period T.

    eff is the per-gate effective delay (delay plus any granted slack);
    defaults to the raw gate delays.  `weights` overrides the per-edge FF
    counts (a retiming's weights).
    """
    if eff is None:
        eff = c.delays
    for i, e in enumerate(eff):
        if e < 0:
            raise CircuitError(f"gate {c.gates[i].name}: negative effective delay")
    if weights is None:
        weights = [e.w for e in c.edges]
    order, a, _ = _forward(c, eff, weights)
    g = _backward(c, T, eff, weights, order)
    s = [g[i] - a[i] for i in range(c.n)]
    return TimingReport(tuple(a), tuple(g), tuple(s))


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    ``gate <name> <delay>`` lines followed by ``edge <src> <dst> <ff_count>``
    lines; ``#`` starts a comment.  Any error raised while reading line N,
    the record constructors' too, is reported as ``line N: <message>``.
    """
    gates: list[Gate] = []
    edges: list[Edge] = []
    names: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "edge" and len(parts) == 4:  # the most common record
                _, src, dst, w = parts
                i = names.get(src)
                if i is None:
                    raise CircuitError(f"unknown gate {src!r}")
                j = names.get(dst)
                if j is None:
                    raise CircuitError(f"unknown gate {dst!r}")
                edges.append(Edge(i, j, int(w)))
            elif kind == "gate" and len(parts) == 3:
                _, name, delay = parts
                if name in names:
                    raise CircuitError(f"duplicate gate name {name}")
                names[name] = len(gates)
                gates.append(Gate(len(gates), name, int(delay)))
            elif kind in _SHAPES:
                raise CircuitError(f"expected {_SHAPES[kind]!r}")
            else:
                raise CircuitError(f"unknown record {kind!r}")
        except CircuitError as e:
            raise CircuitError(f"line {ln}: {e}") from None
        except ValueError:  # int() of the record's last token
            what = "FF count" if kind == "edge" else "delay"
            raise CircuitError(f"line {ln}: bad {what} {parts[-1]!r}") from None
    return Circuit(tuple(gates), tuple(edges))


def render_circuit(c: Circuit) -> str:
    """Canonical text form; parse(render(c)) == c."""
    out = [f"gate {g.name} {g.delay}" for g in c.gates]
    out += [f"edge {c.gates[e.src].name} {c.gates[e.dst].name} {e.w}" for e in c.edges]
    return "\n".join(out) + "\n"


def generate_random(n_gates: int, edge_density: float = 2.0, ff_prob: float = 0.3,
                    delay_range: tuple[int, int] = (1, 10), seed: int = 0) -> Circuit:
    """Random benchmark circuit, deterministic for a fixed seed.

    Gates are laid out in a random topological order; backward edges always
    receive an FF so the zero-FF subgraph stays acyclic.
    """
    if not (0.0 <= ff_prob <= 1.0):
        raise ValueError("ff_prob must be in [0, 1]")
    if edge_density < 0:
        raise ValueError("edge_density must be nonnegative")
    rng = random.Random(seed)
    gates = tuple(Gate(i, f"g{i}", rng.randint(*delay_range)) for i in range(n_gates))
    target = int(round(edge_density * n_gates))
    seen = set()
    edges = []
    attempts = 30 * target + 100
    target = min(target, n_gates * (n_gates - 1))  # one edge per ordered gate pair
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
