"""Recover per-gate slacks and a legal retiming from optimal-flow potentials.

The dual distances fix a potential per split node.  Differences of
potentials across the slack-carrying edges give edge slack values; the
per-gate slack is the minimum of its own window value and the propagation
values arriving over fanin edges.  Slacks are snapped down onto the
discrete level grid and the result is made legal by recomputing a fresh
retiming, decrementing levels of critical gates if the period is missed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import Circuit, arrivals, sta
from .mcf import Potentials, residual_potentials, solve_mcf, ssp_oracle
from .power import PowerSlackCurve
from .retime import Retiming, _feas, min_period, retimed_weights
from .transform import DualGraph, expand, split_graph


class RecoveryError(RuntimeError):
    """Recovered duals violate a constraint, or a result fails re-verification."""


class InfeasiblePeriodError(ValueError):
    """Requested period is below the minimum even at minimum slack."""


@dataclass(frozen=True)
class SlackAssignment:
    levels: tuple[int, ...]       # level index per gate (0-based)
    slacks: tuple[int, ...]       # chosen slack per gate
    powers: tuple[Fraction, ...]  # power at the chosen slack

    @property
    def total_power(self) -> Fraction:
        return sum(self.powers, Fraction(0))

    @property
    def total_slack(self) -> int:
        return sum(self.slacks)


@dataclass(frozen=True)
class BudgetResult:
    assignment: SlackAssignment
    retiming: Retiming
    period: int            # period constraint used
    achieved_period: int   # max arrival under the final retiming
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def total_power(self) -> Fraction:
        return self.assignment.total_power

    @property
    def total_slack(self) -> int:
        return self.assignment.total_slack


def recover_duals(g: DualGraph, pot: Potentials):
    """Potentials and edge slack values satisfying the dual constraint set.

    The potentials are the negated shortest-path distances, shifted so the
    smallest is 0; every E1/E2/E3 edge's potential difference must cover its
    lower slack bound.  Returns (mu, s) where s maps dual edge index ->
    slack value for every E1/E2 edge.
    """
    top = max(pot.dist)
    mu = tuple(top - d for d in pot.dist)
    s = {}
    for k, e in enumerate(g.edges):
        if e.kind == "E4":
            continue
        gap = mu[e.dst] - mu[e.src]
        if gap < e.lower:
            raise RecoveryError(
                f"recovered duals infeasible: {e.kind} edge {k} gap {gap} "
                f"below its lower bound {e.lower}; potentials={pot.dist}")
        if e.kind != "E3":
            s[k] = min(e.upper, gap)
    return mu, s


def recover_slacks(g: DualGraph, c: Circuit, s_vals: dict) -> list[int]:
    """Per-gate delay-plus-slack values from the recovered edge slacks.

    Each gate takes the minimum of its own window value and, over zero-or-
    more fanin edges, the propagated value plus T per FF; floored at the
    smallest level so snapping always succeeds.
    """
    T = g.period
    out = []
    for j in range(c.n):
        e1 = g.edges[g.e1_index[j]]
        val = s_vals[g.e1_index[j]]
        for k in c.fanin[j]:
            t = s_vals[g.e2_index[k]]
            cand = t + T * c.edges[k].w
            if cand < val:
                val = cand
        out.append(max(val, e1.lower))
    return out


def snap_levels(sbar, curves: dict[int, PowerSlackCurve], delays) -> SlackAssignment:
    """Project delay-plus-slack values down onto each gate's level grid."""
    levels = []
    slacks = []
    powers = []
    for j, v in enumerate(sbar):
        cur = curves[j]
        budget = v - delays[j]
        q = 0
        for i, s in enumerate(cur.slacks):
            if s <= budget:
                q = i
        levels.append(q)
        slacks.append(cur.slacks[q])
        powers.append(cur.powers[q])
    return SlackAssignment(tuple(levels), tuple(slacks), tuple(powers))


def finalize(c: Circuit, T: int, curves: dict[int, PowerSlackCurve],
             assignment: SlackAssignment) -> BudgetResult:
    """Make the assignment legal at period T, repairing it if needed.

    If no retiming meets the period, the slack level of the gate with the
    worst negative slack under the last retiming attempt is decremented
    (ties: larger power change from the decrement, then gate id) and the
    search retries.  Terminates because the all-minimum assignment is
    feasible whenever T is at least the minimum period.
    """
    levels = list(assignment.levels)
    repairs = []
    budget = 1  # decrements allowed between feasibility retries; doubles
    while True:
        slacks = [curves[j].slacks[q] for j, q in enumerate(levels)]
        eff = [c.delays[j] + slacks[j] for j in range(c.n)]
        # probe with capped rounds: a success is always sound, a failure
        # during repair just means "drain more"
        ok, r = _feas(c, T, eff, max_rounds=64)
        if not ok and not any(levels):
            ok, r = _feas(c, T, eff)  # conclusive run before giving up
            if not ok:
                raise InfeasiblePeriodError(
                    f"period {T} infeasible even at minimum slack")
        weights = retimed_weights(c, r)
        if ok:
            ach = max(arrivals(c, eff, weights))
            powers = tuple(curves[j].powers[q] for j, q in enumerate(levels))
            final = SlackAssignment(tuple(levels), tuple(slacks), powers)
            return BudgetResult(final, r, T, ach,
                                {"repair_steps": repairs})
        # drain violations under this (fixed) retiming attempt; the budget
        # doubles each retry so feasibility searches stay logarithmic in
        # the number of repairs while early repairs remain one at a time
        steps = 0
        while steps < budget:
            rep = sta(c, T, eff, weights).slack
            if min(rep) >= 0:
                break
            cands = []
            for j in range(c.n):
                if levels[j] == 0:
                    continue
                cur = curves[j]
                dpow = cur.powers[levels[j] - 1] - cur.powers[levels[j]]
                cands.append((rep[j], -dpow, j))
            if not cands:
                # this particular retiming cannot meet T even at minimum
                # levels; a fresh feasibility search may still find one
                break
            cands.sort()
            _, _, j = cands[0]
            levels[j] -= 1
            eff[j] = c.delays[j] + curves[j].slacks[levels[j]]
            repairs.append(j)
            steps += 1
        budget *= 2


def min_slack_period(c: Circuit, curves: dict[int, PowerSlackCurve]):
    """Minimum period and witness retiming at every gate's smallest level."""
    eff = [c.delays[j] + curves[j].slacks[0] for j in range(c.n)]
    return min_period(c, eff)


def run_pipeline(c: Circuit, curves: dict[int, PowerSlackCurve],
                 T: int | None = None, n_ff: int | None = None,
                 check: bool = False) -> BudgetResult:
    """Full budgeting flow: split, expand, solve, recover, snap, finalize."""
    t0 = time.perf_counter()
    tmin, _ = min_slack_period(c, curves)
    if T is None:
        T = tmin
    elif T < tmin:
        raise InfeasiblePeriodError(
            f"period {T} infeasible even at minimum slack (minimum {tmin})")
    g = split_graph(c, T, curves, n_ff)
    net = expand(g)
    sol = solve_mcf(net)
    pot = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    mu, s_vals = recover_duals(g, pot)
    sbar = recover_slacks(g, c, s_vals)
    assignment = snap_levels(sbar, curves, c.delays)
    result = finalize(c, T, curves, assignment)
    diag = dict(result.diagnostics)
    diag.update({
        "tmin": tmin,
        "mu": mu,
        "sbar": tuple(sbar),
        "flow_cost": sol.cost,
        "solver_iterations": sol.iterations,
        "runtime": time.perf_counter() - t0,
    })
    if check:
        oracle = ssp_oracle(net)
        if oracle.cost != sol.cost:
            raise RecoveryError(
                f"flow cost {sol.cost} disagrees with the cross-check {oracle.cost}")
        verify_result(c, result)
        diag["checked"] = True
    return BudgetResult(result.assignment, result.retiming, result.period,
                        result.achieved_period, diag)


def verify_result(c: Circuit, result: BudgetResult) -> None:
    """Independent re-verification: legal retiming and period met."""
    weights = retimed_weights(c, result.retiming)  # raises if illegal
    eff = [c.delays[j] + result.assignment.slacks[j] for j in range(c.n)]
    rep = sta(c, result.period, eff, weights)
    if max(rep.arrival) > result.period:
        raise RecoveryError("re-verification failed: period violated")
    if max(rep.arrival) != result.achieved_period:
        raise RecoveryError("re-verification failed: achieved period mismatch")
