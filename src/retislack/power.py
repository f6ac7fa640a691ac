"""Discrete power-slack curves.

A curve is an ordered list of (slack, power) levels.  Power must be
nonincreasing and convex in slack: the magnitudes of the segment slopes
(the breakpoints) are nonincreasing from left to right.  Powers are read
as integers from input files, but all derived quantities (breakpoints,
penalty-scaled curves, interpolated values) are exact rationals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .circuit import Circuit


class CurveError(ValueError):
    """Invalid power-slack curve."""


@dataclass(frozen=True)
class PowerSlackCurve:
    levels: tuple[tuple[int, Fraction], ...]  # (slack, power), slack strictly increasing
    gate: int | None = None  # owner gate id, None for shared curves

    @property
    def slacks(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.levels)

    @property
    def powers(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.levels)

    @property
    def nlevels(self) -> int:
        return len(self.levels)


def make_curve(pairs, gate=None) -> PowerSlackCurve:
    levels = tuple((int(s), Fraction(p)) for s, p in pairs)
    c = PowerSlackCurve(levels, gate)
    validate_curve(c)
    return c


def validate_curve(curve: PowerSlackCurve) -> None:
    """Check monotone slack grid, nonincreasing power, and convexity."""
    if not curve.levels:
        raise CurveError("empty curve")
    slacks = curve.slacks
    powers = curve.powers
    if slacks[0] < 0:
        raise CurveError(f"negative slack level {slacks[0]}")
    for q in range(1, len(slacks)):
        if slacks[q] <= slacks[q - 1]:
            raise CurveError(f"slack levels not strictly increasing at {slacks[q]}")
        if powers[q] > powers[q - 1]:
            raise CurveError(f"increasing power at slack {slacks[q]}")
    bs = breakpoints(curve)
    for q in range(1, len(bs)):
        if bs[q] > bs[q - 1]:
            raise CurveError(
                f"non-convex curve: slope magnitude rises from {bs[q - 1]} to {bs[q]}")


def breakpoints(curve: PowerSlackCurve) -> list[Fraction]:
    """Slope magnitudes b(2)..b(L); empty for a single-level curve."""
    s = curve.slacks
    p = curve.powers
    return [(p[q - 1] - p[q]) / (s[q] - s[q - 1]) for q in range(1, len(s))]


def q_transform(curve: PowerSlackCurve) -> PowerSlackCurve:
    """Flatten the curve left of its power minimum.

    Levels at or below the minimum-power slack (the smallest such slack on
    ties) take the minimum power, levels above keep theirs.  Idempotent.
    """
    powers = curve.powers
    pmin = min(powers)
    idx = powers.index(pmin)
    s_star = curve.slacks[idx]
    levels = tuple((s, pmin if s <= s_star else p) for s, p in curve.levels)
    return PowerSlackCurve(levels, curve.gate)


def penalty_divisor(c: Circuit, j: int) -> int:
    """Number of zero-FF fanin edges of gate j, clamped to at least 1."""
    k = sum(1 for e in c.fanin[j] if c.edges[e].w == 0)
    return max(1, k)


def scale_powers(curve: PowerSlackCurve, factor: Fraction) -> PowerSlackCurve:
    return PowerSlackCurve(tuple((s, p * factor) for s, p in curve.levels), curve.gate)


def shift_slacks(curve: PowerSlackCurve, delta: int) -> PowerSlackCurve:
    """Translate the slack axis by delta; powers unchanged."""
    return PowerSlackCurve(tuple((s + delta, p) for s, p in curve.levels), curve.gate)


def eval_power(curve: PowerSlackCurve, slack) -> Fraction:
    """Exact piecewise-linear interpolation between level points."""
    s = curve.slacks
    p = curve.powers
    x = Fraction(slack)
    if x < s[0] or x > s[-1]:
        raise CurveError(f"slack {slack} out of range [{s[0]}, {s[-1]}]")
    for q in range(1, len(s)):
        if x <= s[q]:
            if x == s[q]:
                return p[q]
            return p[q - 1] + (p[q] - p[q - 1]) * (x - s[q - 1]) / (s[q] - s[q - 1])
    return p[0]  # single level, x == s[0]


def load_curves(text: str, c: Circuit) -> dict[int, PowerSlackCurve]:
    """Resolve a JSON curve file against a circuit.

    The document maps gate names to arrays of [slack, power] integer pairs;
    the "default" entry applies to gates without an explicit one.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CurveError(f"bad curve file: {e}") from None
    if not isinstance(doc, dict):
        raise CurveError("curve file must be a JSON object")
    parsed: dict[str, PowerSlackCurve] = {}
    for name, pairs in doc.items():
        try:
            parsed[name] = make_curve(pairs)
        except (CurveError, TypeError, ValueError) as e:
            raise CurveError(f"curve for {name!r}: {e}") from None
    default = parsed.get("default")
    out: dict[int, PowerSlackCurve] = {}
    for g in c.gates:
        cur = parsed.get(g.name, default)
        if cur is None:
            raise CurveError(f"no curve for gate {g.name} and no default")
        out[g.id] = PowerSlackCurve(cur.levels, g.id)
    return out
