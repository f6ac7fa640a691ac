"""Independent LP-based oracle for the two relaxed budgeting formulations.

Solves the continuous relaxation of the joint retiming/slack problem with
an external LP solver (scipy/HiGHS), modelling every convex piecewise-
linear cost term with epigraph constraints.  Two variants are exposed:

  variant "bounded":      gate windows capped at the period T, gate cost =
                          the raw curve (flat beyond its last level)
  variant "substituted":  gate windows capped at the curve's own top level,
                          period cap dropped, gate cost = the flattened
                          curve (its minimum power at every level)

The label polytope is a difference system with integer data and all cost
breakpoints are integers, so the optimum is attained at integer labels and
every cost term is evaluated at an integer point: the true optimum is a
multiple of 1/K with K = lcm over gates of (fanin divisor x level-gap
lcm).  Float LP results are rounded onto that grid, making comparisons
between the two variants exact.
"""
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linprog

from retislack.power import penalty_divisor


def _round_to_grid(x: float, K: int) -> Fraction:
    return Fraction(round(x * K), K)


def _denominator(c, curves) -> int:
    K = 1
    for j in range(c.n):
        gaps = 1
        s = curves[j].slacks
        for q in range(1, len(s)):
            gaps = lcm(gaps, s[q] - s[q - 1])
        K = lcm(K, penalty_divisor(c, j) * gaps)
    return K


def relaxed_optimum(c, T, curves, variant):
    """Exact optimum of the chosen relaxed formulation, or None if infeasible.

    Variables: lo[0..n) hi[n..2n) t[2n..2n+m) y_edge[..+m) y_gate[..+n).
    """
    n = c.n
    m = len(c.edges)
    nff_bar = max(1, c.total_ffs) * T
    if any(c.delays[j] + curves[j].slacks[0] > T for j in range(n)):
        return None
    nv = 2 * n + 2 * m + n
    ye0 = 2 * n + m
    yg0 = 2 * n + 2 * m
    A_ub, b_ub = [], []
    A_eq, b_eq = [], []

    def row(entries):
        r = [0.0] * nv
        for idx, val in entries:
            r[idx] += val
        return r

    def epigraph(yvar, arg, pairs):
        """y >= PWL(pairs) at the point Sum of arg's (var, coeff) terms.

        Adds one inequality per segment plus a flat floor at the cheapest
        level (the curves never increase, so points past the last segment
        cost exactly the minimum); a single-level curve pins y outright.
        """
        s = [a for a, _ in pairs]
        p = [Fraction(b) for _, b in pairs]
        if len(s) == 1:
            A_eq.append(row([(yvar, 1.0)]))
            b_eq.append(float(p[0]))
            return
        for q in range(1, len(s)):
            slope = (p[q] - p[q - 1]) / (s[q] - s[q - 1])
            const = p[q - 1] - slope * s[q - 1]
            A_ub.append(row([(yvar, -1.0)] +
                            [(v, float(slope * k)) for v, k in arg]))
            b_ub.append(float(-const))
        A_ub.append(row([(yvar, -1.0)]))
        b_ub.append(float(-min(p)))

    # labels sit in [0, nff_bar]; arrivals add at most one period on top
    bounds = [(0.0, float(nff_bar))] * n + [(0.0, float(nff_bar + T))] * n
    for j in range(n):
        d = c.delays[j]
        cur = curves[j]
        if variant == "bounded":
            win_hi = T
            pairs = list(zip(cur.slacks, cur.powers))
        else:
            win_hi = d + cur.slacks[-1]
            pairs = [(s, min(cur.powers)) for s in cur.slacks]
        # gate window: d + first slack <= hi - lo <= win_hi
        A_ub.append(row([(j, 1.0), (n + j, -1.0)]))
        b_ub.append(float(-(d + cur.slacks[0])))
        A_ub.append(row([(n + j, 1.0), (j, -1.0)]))
        b_ub.append(float(win_hi))
        # gate cost over the realized window hi - lo
        epigraph(yg0 + j, [(n + j, 1), (j, -1)],
                 [(s + d, p) for s, p in pairs])
    for k, e in enumerate(c.edges):
        # label legality: lo_src - lo_dst <= T * w
        A_ub.append(row([(e.src, 1.0), (e.dst, -1.0)]))
        b_ub.append(float(T * e.w))
        # propagation: t_e <= hi_dst - hi_src
        A_ub.append(row([(2 * n + k, 1.0), (n + e.src, 1.0),
                         (n + e.dst, -1.0)]))
        b_ub.append(0.0)
        # penalty: the sink gate's curve scaled by 1/kappa along t + T*w
        j = e.dst
        d = c.delays[j]
        kappa = penalty_divisor(c, j)
        epigraph(ye0 + k, [(2 * n + k, 1)],
                 [(s + d - T * e.w, Fraction(p, kappa))
                  for s, p in zip(curves[j].slacks, curves[j].powers)])
    for e in c.edges:
        s = curves[e.dst].slacks
        d = c.delays[e.dst]
        bounds.append((float(d + s[0] - T * e.w), float(d + s[-1] - T * e.w)))
    bounds += [(None, None)] * (m + n)
    obj = [0.0] * nv
    for v in range(ye0, nv):
        obj[v] = 1.0
    res = linprog(obj, A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=b_ub or None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=b_eq or None, bounds=bounds, method="highs")
    if not res.success:
        return None
    return _round_to_grid(res.fun, _denominator(c, curves))
