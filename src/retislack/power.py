"""Discrete power-slack curves.

A curve is two equal-length tuples of integers: strictly increasing slack
levels, none negative, and the power at each.  Power is nonincreasing and
convex in slack: the segment slope magnitudes (the breakpoints) are
nonincreasing from left to right.  `PowerSlackCurve` is an immutable
slotted record whose own `__init__` enforces all of this once, before it
stores the levels, so every curve is valid.  `breakpoints` gives each
slope as the integer pair (power drop, slack step), so callers compare
and scale slopes exactly without rationals.  Every gate that uses the
same curve-file entry gets the same object.  Curves compare and hash by
value, and `transform` expands each curve object once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import Circuit, _slot_setters


class CurveError(ValueError):
    """Invalid power-slack curve."""


@dataclass(frozen=True, slots=True, init=False)
class PowerSlackCurve:
    slacks: tuple[int, ...]  # strictly increasing, from at least 0
    powers: tuple[int, ...]  # power at each slack level

    def __init__(self, slacks: tuple[int, ...], powers: tuple[int, ...]):
        s, p = slacks, powers
        if len(s) != len(p):
            raise CurveError(f"{len(s)} slack levels but {len(p)} powers")
        if not s:
            raise CurveError("empty curve")
        for x in (*s, *p):  # a bool is not an int
            if type(x) is not int:
                raise CurveError(f"level value {x!r}: slack and power must be integers")
        if s[0] < 0:
            raise CurveError(f"negative slack level {s[0]}")
        for q in range(1, len(s)):
            if s[q] <= s[q - 1]:
                raise CurveError(f"slack levels not strictly increasing at {s[q]}")
            if p[q] > p[q - 1]:
                raise CurveError(f"increasing power at slack {s[q]}")
            # convex: slope magnitude q at most slope magnitude q - 1
            if q > 1 and ((p[q - 1] - p[q]) * (s[q - 1] - s[q - 2])
                          > (p[q - 2] - p[q - 1]) * (s[q] - s[q - 1])):
                raise CurveError(
                    f"non-convex curve: slope magnitude rises at slack {s[q - 1]}")
        _set_slacks(self, slacks)
        _set_powers(self, powers)

    @property
    def nlevels(self) -> int:
        return len(self.slacks)


_set_slacks, _set_powers = _slot_setters(PowerSlackCurve)


def make_curve(pairs) -> PowerSlackCurve:
    """Curve from (slack, power) pairs."""
    return PowerSlackCurve(tuple(s for s, _ in pairs), tuple(p for _, p in pairs))


def breakpoints(curve: PowerSlackCurve) -> list[tuple[int, int]]:
    """Slope magnitudes b(2)..b(L), each as the unreduced integer pair
    (power drop, slack step) of its segment; empty for a single-level curve."""
    s, p = curve.slacks, curve.powers
    return [(p0 - p1, s1 - s0) for s0, s1, p0, p1 in zip(s, s[1:], p, p[1:])]


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
