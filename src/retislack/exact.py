"""Exhaustive reference solver for tiny instances.

Ground truth for the main pipeline: brute_force enumerates every slack
level assignment (with power and feasibility pruning) and checks each by a
retiming search.  It refuses instances beyond desk scale with OracleError.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .power import PowerSlackCurve
from .retime import feasible_retiming


class OracleError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    power: int
    levels: tuple[int, ...]
    slacks: tuple[int, ...]

    @property
    def total_slack(self) -> int:
        return sum(self.slacks)


def brute_force(c: Circuit, T: int, curves: dict[int, PowerSlackCurve]) -> OracleResult | None:
    """Minimum-power feasible level assignment, or None when T is infeasible.

    Enumerates level vectors in lexicographic order (so the first optimum
    found is the lexicographically smallest), pruning subtrees whose
    optimistic power bound cannot beat the incumbent and whose minimum-
    slack completion already misses the period.
    """
    n = c.n
    if n > 12:
        raise OracleError(f"{n} gates exceeds the 12-gate oracle guard")
    for cur in curves.values():
        if cur.nlevels > 4:
            raise OracleError("more than 4 levels exceeds the oracle guard")
    delays = c.delays
    minpow = [min(curves[j].powers) for j in range(n)]
    # suffix sums of the optimistic per-gate power
    tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] + minpow[j]
    best: list = [None, None]  # power, levels

    levels = [0] * n
    eff = [delays[j] + curves[j].slacks[0] for j in range(n)]

    def dfs(j: int, acc: int) -> None:
        if best[0] is not None and acc + tail[j] >= best[0]:
            return
        # minimum-slack completion of this prefix
        if feasible_retiming(c, T, eff) is None:
            return
        if j == n:
            best[0] = acc
            best[1] = tuple(levels)
            return
        cur = curves[j]
        for q in range(cur.nlevels):
            levels[j] = q
            eff[j] = delays[j] + cur.slacks[q]
            dfs(j + 1, acc + cur.powers[q])
        levels[j] = 0
        eff[j] = delays[j] + cur.slacks[0]

    dfs(0, 0)
    if best[0] is None:
        return None
    lv = best[1]
    slacks = tuple(curves[j].slacks[lv[j]] for j in range(n))
    return OracleResult(best[0], lv, slacks)
