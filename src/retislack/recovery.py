"""Recover a per-gate slack budget from optimal-flow potentials, then retime.

The dual distances fix a potential per dual-graph node.  Differences of
potentials across the slack-carrying edges give edge slack values; the
per-gate slack is the minimum of its own window value, the propagation
values arriving over fanin edges and the period.  Snapping down onto the
discrete level grid is the one clamp into each gate's slack window.  The
retiming does not come from the flow: `finalize` bisects on a uniform
scaling of the snapped budget down towards every gate's smallest level,
with one feasibility search (retime.feasible_retiming) per probe, and then
raises levels under the winning retiming while static timing shows slack
for them.  The arithmetic is integer throughout: each gate's levels along
the scaling rise at thresholds computed once, a probe above a feasible one
starts its search from that one's retiming, and the fill orders its steps
by integer keys, each slope scaled by the lcm of the curves' slack steps.
The fill times on the one kernel, circuit._forward: one full pass, then a
pass over each raised gate's zero-FF cone.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from time import perf_counter

from .circuit import Circuit, CircuitError, _backward, _forward, sta
from .mcf import residual_potentials, solve_mcf, ssp_oracle
from .power import PowerSlackCurve, breakpoints
from .retime import RetimingError, feasible_retiming, min_period, retimed_weights
from .transform import DualGraph, expand, split_graph


K = 1024  # bisection resolution of finalize: k / K of each gate's budget

# diagnostics["stages"] keys: wall seconds of run_pipeline's stage groups in
# call order; the last two are timed with check=True only
STAGE_NAMES = ("retime.min_period_s", "transform.split_graph_s", "transform.expand_s",
               "mcf.solve_s", "mcf.potentials_s", "recovery.recover_s",
               "recovery.finalize_s", "mcf.oracle_s", "recovery.verify_s")


class RecoveryError(RuntimeError):
    """Recovered duals violate a constraint, or a result fails re-verification."""


class InfeasiblePeriodError(ValueError):
    """Requested period is below the minimum even at minimum slack."""


@dataclass(frozen=True)
class SlackAssignment:
    levels: tuple[int, ...]  # level index per gate (0-based)
    slacks: tuple[int, ...]  # chosen slack per gate
    powers: tuple[int, ...]  # power at the chosen slack

    @property
    def total_power(self) -> int:
        return sum(self.powers)

    @property
    def total_slack(self) -> int:
        return sum(self.slacks)


@dataclass(frozen=True)
class BudgetResult:
    assignment: SlackAssignment
    retiming: tuple[int, ...]  # label per gate, smallest 0
    period: int            # period constraint used
    achieved_period: int   # max arrival under the final retiming
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def total_power(self) -> int:
        return self.assignment.total_power

    @property
    def total_slack(self) -> int:
        return self.assignment.total_slack


def recover_duals(g: DualGraph, dist: tuple[int, ...]):
    """Potentials and slack values satisfying the dual constraint set.

    The potentials mu are the negated shortest-path distances, shifted so
    the smallest is 0; the potential difference across every gate window
    (E1, reference node -> gate) and every circuit edge (E2) must cover its
    lower bound.  Returns (mu, (s1, s2)): s1[i] is gate i's window value and
    s2[k] circuit edge k's value, each the potential gap itself.
    """
    top = max(dist)
    mu = tuple(top - d for d in dist)

    def gap(what: str, k: int, src: int, dst: int, shift: int) -> int:
        # the bottom of gate dst's window, moved down by shift
        x = mu[dst] - mu[src]
        if x < g.lower[dst] - shift:
            raise RecoveryError(
                f"recovered duals infeasible: {what} {k} gap {x} below its "
                f"lower bound {g.lower[dst] - shift}")
        return x

    ref, T = g.v0, g.period
    s1 = [gap("E1 edge of gate", i, ref, i, 0) for i in range(ref)]
    s2 = [gap("E2 edge", k, e.src, e.dst, T * e.w)
          for k, e in enumerate(g.circuit.edges)]
    return mu, (s1, s2)


def recover_slacks(g: DualGraph, c: Circuit, s_vals) -> list[int]:
    """Per-gate delay-plus-slack values from the recovered slack values
    (s1, s2) of recover_duals.

    Each gate takes the minimum of its own window value, the propagated
    value plus T per FF over each fanin edge, and the period.  recover_duals
    keeps each value at or above the gate's smallest level, and snap_levels
    alone clamps it to the curve.  c must be g.circuit itself: a ValueError
    says a graph and circuit were mixed up.
    """
    if c is not g.circuit:
        raise ValueError(
            "recover_slacks: c is not the circuit of the dual graph g")
    T, (s1, s2) = g.period, s_vals
    out = [min(v, T) for v in s1]
    for x, e in zip(s2, c.edges):
        if x + T * e.w < out[e.dst]:
            out[e.dst] = x + T * e.w
    return out


def _at_levels(cs, levels) -> SlackAssignment:
    return SlackAssignment(tuple(levels),
                           tuple(cur.slacks[q] for cur, q in zip(cs, levels)),
                           tuple(cur.powers[q] for cur, q in zip(cs, levels)))


def _snap(cur: PowerSlackCurve, slack: int) -> int:
    """Highest level whose slack is at most `slack`; level 0 if there is none."""
    return max(bisect_right(cur.slacks, slack) - 1, 0)


def _thresholds(cur: PowerSlackCurve, s: int) -> list[int]:
    """For each level q >= 1 with slack at most s, the least k at which
    s0 + k (s - s0) // K reaches it: ceil((slack_q - s0) K / (s - s0)).
    The number of thresholds at most k is the level _snap gives at k."""
    s0 = cur.slacks[0]
    return [-((x - s0) * K // (s0 - s))
            for x in cur.slacks[1:bisect_right(cur.slacks, s)]]


def snap_levels(sbar, curves: dict[int, PowerSlackCurve], delays) -> SlackAssignment:
    """Project delay-plus-slack values down onto each gate's level grid."""
    cs = [curves[j] for j in range(len(sbar))]
    levels = [_snap(cur, v - d) for cur, v, d in zip(cs, sbar, delays)]
    return _at_levels(cs, levels)


def finalize(c: Circuit, T: int, curves: dict[int, PowerSlackCurve],
             assignment: SlackAssignment) -> BudgetResult:
    """Make the assignment legal at period T, then spend the slack left over.

    Bisection: at integer k in [0, K], gate j gets s0 + k (s - s0) // K, its
    assigned slack s scaled towards its smallest level s0, snapped down:
    one bisect of k into the gate's level thresholds.  Feasibility is
    monotone in k, since lower delays keep every retiming feasible.  k = K
    goes first, so a feasible assignment is kept; at most 12 probes find the
    largest feasible k, and a failure at k = 0 means T is below the minimum
    period.  A probe above a feasible k starts FEAS from that k's witness:
    delays only rise with k, so the witness is a lower bound of the probe's
    least solution, and the answer is the cold one.  Fill (the discrete
    zero-slack algorithm of Nair, Berman, Hauge & Yoffa, IEEE TCAD 1989):
    under that retiming, gates rise one level at a time while their slack
    covers the step, largest power drop per slack unit first (ties: gate
    id), keyed exactly by drop * (L // step) for L the lcm of the slack
    steps of the call's curves.  Required times come from one backward pass
    before the fill and only fall as it raises delays, so a step above that
    stale slack is rejected at once.  Any other step is tried by re-timing
    the gate's zero-FF cone with _forward, exact since every gate outside
    the cone keeps its zero-FF fanins and delay, and undone by the same
    pass if an arrival there passes T.
    """
    cs = [curves[j] for j in range(c.n)]
    thresholds = [_thresholds(cur, s) for cur, s in zip(cs, assignment.slacks)]
    # every k >= hi is infeasible; lo is the largest feasible k probed.
    # seen maps each probed level vector to (eff, retiming or None):
    # neighbouring k often snap alike, and a repeat costs no search
    seen, lo, hi, k, best = {}, -1, K + 1, K, None
    while hi - lo > 1:
        levels = tuple(bisect_right(t, k) for t in thresholds)
        if levels not in seen:
            eff = [d + cur.slacks[q] for d, cur, q in zip(c.delays, cs, levels)]
            warm = None if best is None else seen[best][1]
            seen[levels] = eff, feasible_retiming(c, T, eff, warm)
        if seen[levels][1] is None:
            hi = k
        else:
            lo, best = k, levels
        k = (lo + hi) // 2
    if best is None:
        raise InfeasiblePeriodError(
            f"period {T} infeasible even at minimum slack")
    (eff, r), levels = seen[best], list(best)
    weights = retimed_weights(c, r)
    order, a, src = _forward(c, eff, weights)
    # never re-timed: an upper bound of each required time from here on
    required = _backward(c, T, eff, weights, order)
    # each gate's (slack step, heap key) per level, from one table per curve
    # object, so the heap loop hashes no curve
    distinct = {id(cur): cur for cur in cs}
    bps = {i: breakpoints(cur) for i, cur in distinct.items()}
    lcm = math.lcm(*(step for bs in bps.values() for _, step in bs))
    tables = {i: [(step, -drop * (lcm // step)) for drop, step in bs]
              for i, bs in bps.items()}
    fill = [tables[id(cur)] for cur in cs]
    heap = [(bs[q][1], j) for j, (bs, q) in enumerate(zip(fill, levels)) if q < len(bs)]
    heapify(heap)
    start = sum(levels)
    # slacks only fall as levels rise, so a gate that fails once is dropped
    while heap:
        _, j = heappop(heap)
        bs, q = fill[j], levels[j]
        step = bs[q][0]
        if required[j] - a[j] < step:
            continue
        eff[j] += step
        if max(a[v] for v in _forward(c, eff, weights, (j,), a, src)[0]) > T:
            eff[j] -= step
            _forward(c, eff, weights, (j,), a, src)
            continue
        levels[j] = q + 1
        if q + 1 < len(bs):
            heappush(heap, (bs[q + 1][1], j))
    # one gate id per level the gate ends below its snapped level
    drained = [j for j, (q0, q) in enumerate(zip(assignment.levels, levels))
               for _ in range(q0 - q)]
    return BudgetResult(_at_levels(cs, levels), r, T, max(a),
                        {"repair_steps": drained,
                         "snap_power": assignment.total_power,
                         "fill_steps": sum(levels) - start, "probes": len(seen)})


def min_slack_period(c: Circuit, curves: dict[int, PowerSlackCurve]):
    """Minimum period and witness retiming at every gate's smallest level."""
    eff = [c.delays[j] + curves[j].slacks[0] for j in range(c.n)]
    return min_period(c, eff)


def run_pipeline(c: Circuit, curves: dict[int, PowerSlackCurve],
                 T: int | None = None, check: bool = False) -> BudgetResult:
    """Full budgeting flow: split, expand, solve, recover, snap, finalize."""
    if T is not None and type(T) is not int:
        raise ValueError(f"period must be an integer, got {T!r}")
    ticks = [perf_counter()]  # a clock read after each stage group
    tmin, _ = min_slack_period(c, curves)
    ticks.append(perf_counter())
    if T is None:
        T = tmin
    elif T < tmin:
        raise InfeasiblePeriodError(
            f"period {T} infeasible even at minimum slack (minimum {tmin})")
    g = split_graph(c, T, curves)
    ticks.append(perf_counter())
    net = expand(g)
    ticks.append(perf_counter())
    sol = solve_mcf(net)
    ticks.append(perf_counter())
    dist = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    ticks.append(perf_counter())
    mu, s_vals = recover_duals(g, dist)
    sbar = recover_slacks(g, c, s_vals)
    assignment = snap_levels(sbar, curves, c.delays)
    ticks.append(perf_counter())
    result = finalize(c, T, curves, assignment)
    ticks.append(perf_counter())
    result.diagnostics.update({
        "tmin": tmin,
        "mu": mu,
        "sbar": tuple(sbar),
        "flow_cost": sol.cost,
        "solver_iterations": sol.iterations,
        "solver_phases": sol.phases,
        "arcs": len(net.arcs),
        "nodes": net.n_nodes,
        "scale": net.scale,
    })
    if check:
        # the certificate distances only speed the re-solve up: it builds its
        # own flow and reaches the optimum from any start
        oracle = ssp_oracle(net, dist)
        if oracle.cost != sol.cost:
            raise RecoveryError(
                f"flow cost {sol.cost} disagrees with the cross-check {oracle.cost}")
        ticks.append(perf_counter())
        verify_result(c, result)
        ticks.append(perf_counter())
        result.diagnostics["checked"] = True
        result.diagnostics["oracle_augmentations"] = oracle.iterations
        result.diagnostics["oracle_phases"] = oracle.phases
    result.diagnostics["stages"] = {
        name: b - a for name, a, b in zip(STAGE_NAMES, ticks, ticks[1:])}
    return result


def verify_result(c: Circuit, result: BudgetResult) -> None:
    """Independent re-verification: legal retiming and period met."""
    eff = [c.delays[j] + result.assignment.slacks[j] for j in range(c.n)]
    try:  # an illegal retiming names its edge, a negative delay its gate
        rep = sta(c, result.period, eff, retimed_weights(c, result.retiming))
    except (RetimingError, CircuitError) as e:
        raise RecoveryError(f"re-verification failed: {e}") from None
    if max(rep.arrival) > result.period:
        raise RecoveryError("re-verification failed: period violated")
    if max(rep.arrival) != result.achieved_period:
        raise RecoveryError("re-verification failed: achieved period mismatch")
