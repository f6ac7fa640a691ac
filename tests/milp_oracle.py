"""Exact minimum power of joint retiming and level choice, by a MILP.

Variables: an integer label r_i in [-n, n] per gate (FEAS of Leiserson &
Saxe 1991 meets any feasible period with labels 0..n), an arrival a_i in
[0, T] per gate and one binary x_iq per curve level.  Rows: r_src - r_dst
<= w per edge; a_i >= d_i + sum_q s_q x_iq and sum_q x_iq = 1 per gate;
per edge u -> v, a_v >= a_u + d_v + sum_q s_q x_vq - T (w + r_v - r_u),
the FF count of `retimed_weights` (with one FF or more the row is slack,
as a_u <= T).  Objective: sum_q p_q x_iq, solved by scipy/HiGHS.

As a script: `run_pipeline` against the optimum on 40- and 50-gate circuits
at Tmin and ceil(1.3 Tmin); exits 1 if any pipeline power is below it or
the mean excess over it is above 10%.
"""
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array


def optimum(c, T, curves):
    """Minimum total power at period T, or None when no retiming meets T."""
    n = c.n
    x0 = np.cumsum([2 * n] + [curves[j].nlevels for j in range(n)])
    nx = x0[-1] - 2 * n

    def minus_slack(j):
        return [(x0[j] + q, -s) for q, s in enumerate(curves[j].slacks)]

    rows = []  # (terms, lower, upper); a term is (column, coefficient)
    for j in range(n):
        rows.append(([(n + j, 1)] + minus_slack(j), c.delays[j], np.inf))
        rows.append(([(x, 1) for x in range(x0[j], x0[j + 1])], 1, 1))
    for u, v, w in ((e.src, e.dst, e.w) for e in c.edges):
        rows.append(([(u, 1), (v, -1)], -np.inf, w))
        rows.append(([(n + v, 1), (n + u, -1), (v, T), (u, -T)] + minus_slack(v),
                     c.delays[v] - T * w, np.inf))
    i, k, a = zip(*[(i, k, a) for i, r in enumerate(rows) for k, a in r[0]])
    A = coo_array((a, (i, k)), shape=(len(rows), x0[-1]))
    res = milp([0] * (2 * n) + [p for j in range(n) for p in curves[j].powers],
               constraints=LinearConstraint(A, [r[1] for r in rows],
                                            [r[2] for r in rows]),
               integrality=[1] * n + [0] * n + [1] * nx,
               bounds=Bounds([-n] * n + [0] * (n + nx), [n] * n + [T] * n + [1] * nx),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"MILP not solved to optimality: {res.message}")
    return round(res.fun)


if __name__ == "__main__":
    from retislack import generate_random, run_pipeline
    from retislack.recovery import min_slack_period
    from conftest import curves_for

    excess = []
    for n, seed in [(n, seed) for n in (40, 50) for seed in range(1, 5)]:
        c = generate_random(n, 2.2, 0.4, seed=seed)
        curves = curves_for(c)
        tmin, _ = min_slack_period(c, curves)
        for T in (tmin, -(-13 * tmin // 10)):
            opt, power = optimum(c, T, curves), run_pipeline(c, curves, T).total_power
            excess.append(power / opt - 1)
            print(f"{n} gates, seed {seed}, T = {T}: power {power}, optimum {opt}")
    below = sum(x < 0 for x in excess)
    mean = sum(excess) / len(excess)
    print(f"{len(excess)} cases, {below} below the optimum, mean excess "
          f"{100 * mean:.1f}% (bound 10%), max {100 * max(excess):.1f}%")
    sys.exit(1 if below or mean > 0.10 else 0)
