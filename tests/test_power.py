"""Power-slack curves: validation, breakpoints, loading."""
import random
from fractions import Fraction

import pytest

from retislack import (CurveError, PowerSlackCurve, load_curves, make_curve,
                       parse_circuit)
from retislack.power import breakpoints
from conftest import CURVE4_PAIRS, fraction_breakpoints


def test_breakpoints_four_level(curve4):
    assert breakpoints(curve4) == [(40, 10), (30, 10), (20, 13)]
    assert all(type(x) is int for pair in breakpoints(curve4) for x in pair)
    assert fraction_breakpoints(curve4) == [4, 3, Fraction(20, 13)]


def test_breakpoints_flat_and_single_segment():
    assert breakpoints(make_curve([(0, 5), (10, 5)])) == [(0, 10)]
    assert breakpoints(make_curve([(0, 100), (33, 10)])) == [(90, 33)]
    assert breakpoints(make_curve([(0, 7)])) == []


def test_validate_rejects_non_convex():
    # slopes 2 then 5: power falls faster later, not convex
    with pytest.raises(CurveError, match="non-convex"):
        make_curve([(0, 100), (10, 80), (20, 30)])


def test_validate_rejects_bad_grids():
    with pytest.raises(CurveError, match="empty"):
        make_curve([])
    with pytest.raises(CurveError, match="not strictly increasing"):
        make_curve([(0, 100), (0, 90)])
    with pytest.raises(CurveError, match="not strictly increasing"):
        make_curve([(5, 100), (3, 90)])
    with pytest.raises(CurveError, match="increasing power"):
        make_curve([(0, 10), (10, 20)])
    with pytest.raises(CurveError, match="negative slack"):
        make_curve([(-1, 10), (10, 5)])


def test_constructor_rejects_invalid_curves():
    # the same rules hold for a curve built directly, not from a curve file
    for slacks, powers, msg in (
            ((0, 10, 20), (100, 50), "3 slack levels but 2 powers"),
            ((), (), "empty curve"),
            ((0, 10), (True, False), "must be integers"),
            ((0, 1.5), (100, 50), "must be integers"),
            ((-1, 10), (10, 5), "negative slack"),
            ((0, 10, 10), (100, 50, 40), "not strictly increasing"),
            ((0, 10), (100, 105), "increasing power"),
            ((0, 10, 20), (100, 80, 30), "non-convex")):
        with pytest.raises(CurveError, match=msg):
            PowerSlackCurve(slacks, powers)


def test_convexity_check_matches_rational_breakpoints():
    # the integer cross-multiplication accepts exactly the curves whose
    # Fraction breakpoints are nonincreasing
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randint(2, 5)
        slacks = tuple(sorted(rng.sample(range(0, 12), n)))
        powers = tuple(sorted((rng.randint(0, 30) for _ in range(n)), reverse=True))
        steps = [Fraction(powers[q - 1] - powers[q], slacks[q] - slacks[q - 1])
                 for q in range(1, n)]
        convex = all(a >= b for a, b in zip(steps, steps[1:]))
        try:
            cur = PowerSlackCurve(slacks, powers)
        except CurveError as e:
            assert not convex and "non-convex" in str(e)
        else:
            assert convex and fraction_breakpoints(cur) == steps


def test_single_level_ok():
    c = make_curve([(0, 10)])
    assert c.nlevels == 1


def test_curve_drop_matches_breakpoint_times_gap(curve4):
    s, p = curve4.slacks, curve4.powers
    bs = breakpoints(curve4)
    for q in range(1, curve4.nlevels):
        assert bs[q - 1] == (p[q - 1] - p[q], s[q] - s[q - 1])


def test_load_curves_default_and_override():
    c = parse_circuit("gate a 1\ngate b 2\ngate c 1\nedge a b 0\nedge b c 0\n")
    text = ('{"default": [[0, 100], [10, 60], [20, 30], [33, 10]],'
            ' "b": [[0, 50], [5, 40]]}')
    curves = load_curves(text, c)
    assert curves[0].slacks == tuple(s for s, _ in CURVE4_PAIRS)
    assert curves[0].powers == tuple(p for _, p in CURVE4_PAIRS)
    assert all(type(p) is int for p in curves[0].powers)
    assert (curves[1].slacks, curves[1].powers) == ((0, 5), (50, 40))
    assert curves[2] is curves[0]  # gates on the default share one curve


def test_load_curves_errors():
    c = parse_circuit("gate a 1\n")
    with pytest.raises(CurveError, match="bad curve file"):
        load_curves("{not json", c)
    with pytest.raises(CurveError, match="JSON object"):
        load_curves("[1, 2]", c)
    with pytest.raises(CurveError, match="no curve for gate a"):
        load_curves('{"zz": [[0, 1]]}', c)
    # an entry that names no gate is an error, not silently unused
    with pytest.raises(CurveError, match="names unknown gate 'typo_gate'"):
        load_curves('{"default": [[0, 1]], "typo_gate": [[0, 2]]}', c)
    with pytest.raises(CurveError, match="curve for 'a'"):
        load_curves('{"a": [[0, 10], [5, 20]]}', c)
    # slacks and powers are ints: no truncation, no bool or string coercion
    for bad in ('[[0, 100], [1.9, 50], [2.5, 10]]',
                '[[0, 100.1], [10, 60], [20, 30.3], [33, 10]]',
                '[[0, true], [10, false]]',
                '[[0, "100"], [10, "60"]]'):
        with pytest.raises(CurveError, match="curve for 'a': .*must be integers"):
            load_curves('{"a": %s}' % bad, c)


@pytest.mark.parametrize("entry, message", [
    ('[5, 6]', "level 1 is not a [slack, power] pair"),
    ('null', "not a list of [slack, power] pairs"),
    ('"ab"', "not a list of [slack, power] pairs"),
    ('{"0": 10}', "not a list of [slack, power] pairs"),
    ('["ab"]', "level 1 is not a [slack, power] pair"),
    ('[{"0": 10, "5": 4}]', "level 1 is not a [slack, power] pair"),
    ('[[0, 10, 5], [5, 4]]', "level 1 is not a [slack, power] pair"),
    ('[[0, 10], [5]]', "level 2 is not a [slack, power] pair"),
], ids=["ints", "null", "string", "object", "string_pair", "object_pair",
        "three_values", "one_value"])
def test_load_curves_names_a_malformed_level(entry, message):
    # each shape is reported as such, not by Python's unpacking error, and
    # a two-character string or a two-key object is not read as a pair
    c = parse_circuit("gate a 1\n")
    with pytest.raises(CurveError) as err:
        load_curves('{"a": %s}' % entry, c)
    assert str(err.value) == f"curve for 'a': {message}"


def _two_pass(pairs):
    """The reference reader: one generator pass for the slacks, one for
    the powers."""
    return PowerSlackCurve(tuple(s for s, _ in pairs), tuple(p for _, p in pairs))


def _outcome(read, pairs):
    """The curve `read` makes of `pairs`, or what it raises: a CurveError's
    message, or any other error's type."""
    try:
        return read(pairs)
    except CurveError as e:
        return str(e)
    except (TypeError, ValueError) as e:
        return type(e)


def test_one_pass_reader_matches_the_two_pass_reference():
    # make_curve gives the reference's curve or its CurveError message on
    # every pair list; a wrong-length pair, which the reference fails to
    # unpack, is the one new message
    rng = random.Random(11)
    curves, messages = 0, set()
    for _ in range(3000):
        n = rng.randint(0, 5)
        cols = [sorted(rng.sample(range(12), n)),
                sorted((rng.randint(0, 30) for _ in range(n)), reverse=True)]
        kind = rng.choice(("valid", "ragged", "non-integer", "bool", "shuffled"))
        if kind == "shuffled":  # slacks out of order, or power that rises
            rng.shuffle(cols[rng.randrange(2)])
        pairs = [rng.choice((list, tuple))(sp) for sp in zip(*cols)]
        if n and kind == "ragged":
            q = rng.randrange(n)
            pairs[q] = rng.choice(([pairs[q][0]], [*pairs[q], 0], []))
        elif n and kind in ("non-integer", "bool"):
            q, k = rng.randrange(n), rng.randrange(2)
            bad = rng.choice((0.5, "7", None)) if kind == "non-integer" else rng.random() < 0.5
            pairs[q] = [bad, pairs[q][1]] if k == 0 else [pairs[q][0], bad]
        got, want = _outcome(make_curve, pairs), _outcome(_two_pass, pairs)
        if isinstance(got, str) and got.endswith("is not a [slack, power] pair"):
            assert kind == "ragged" and want is ValueError, pairs
        else:
            assert got == want, pairs
        if isinstance(got, PowerSlackCurve):
            curves += 1
        else:
            messages.add(got)
    assert curves > 100
    for part in ("is not a [slack, power] pair", "empty curve", "must be integers",
                 "not strictly increasing", "increasing power", "non-convex"):
        assert any(part in m for m in messages), part
