"""Discrete power-slack curves.

A curve is two tuples of integers: strictly increasing slack levels and
the power at each.  Power must be nonincreasing and convex in slack: the
magnitudes of the segment slopes (the breakpoints) are nonincreasing from
left to right.  Breakpoints are exact rationals.  Every gate that uses the
same curve-file entry gets the same object.  Curves compare and hash by
value, and `transform` expands each distinct curve and penalty divisor
once, so equal curves from separate entries are expanded once too.
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
    slacks: tuple[int, ...]  # strictly increasing
    powers: tuple[int, ...]  # power at each slack level

    @property
    def nlevels(self) -> int:
        return len(self.slacks)


def make_curve(pairs) -> PowerSlackCurve:
    """Curve from (slack, power) pairs of ints (a bool is not an int)."""
    for s, p in pairs:
        if type(s) is not int or type(p) is not int:
            raise CurveError(f"level [{s!r}, {p!r}]: slack and power must be integers")
    c = PowerSlackCurve(tuple(s for s, _ in pairs), tuple(p for _, p in pairs))
    validate_curve(c)
    return c


def validate_curve(curve: PowerSlackCurve) -> None:
    """Check monotone slack grid, nonincreasing power, and convexity."""
    if not curve.slacks:
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
    return [Fraction(p[q - 1] - p[q], s[q] - s[q - 1]) for q in range(1, len(s))]


def load_curves(text: str, c: Circuit) -> dict[int, PowerSlackCurve]:
    """Resolve a JSON curve file against a circuit.

    The document maps gate names to arrays of [slack, power] integer pairs;
    the "default" entry applies to gates without an explicit one.  Any other
    entry must name a gate of the circuit.
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
        out[g.id] = cur
    names = {g.name for g in c.gates}
    for name in parsed:
        if name != "default" and name not in names:
            raise CurveError(f"curve file names unknown gate {name!r}")
    return out
