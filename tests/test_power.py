"""Power-slack curves: validation, breakpoints, flattening, interpolation."""
from fractions import Fraction

import pytest

from retislack import (CurveError, breakpoints, eval_power, load_curves,
                       make_curve, parse_circuit, penalty_divisor, q_transform)
from retislack.power import scale_powers, shift_slacks
from conftest import CURVE4_PAIRS


def test_breakpoints_four_level(curve4):
    assert breakpoints(curve4) == [4, 3, Fraction(20, 13)]


def test_breakpoints_flat_and_single_segment():
    assert breakpoints(make_curve([(0, 5), (10, 5)])) == [0]
    assert breakpoints(make_curve([(0, 100), (33, 10)])) == [Fraction(90, 33)]
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


def test_single_level_ok():
    c = make_curve([(0, 10)])
    assert c.nlevels == 1


def test_curve_drop_matches_breakpoint_times_gap(curve4):
    s, p = curve4.slacks, curve4.powers
    bs = breakpoints(curve4)
    for q in range(1, curve4.nlevels):
        assert p[q - 1] - p[q] == bs[q - 1] * (s[q] - s[q - 1])


def test_q_transform_decreasing_curve(curve4):
    q = q_transform(curve4)
    assert all(p == 10 for p in q.powers)
    assert q.slacks == curve4.slacks


def test_q_transform_tie_takes_smallest_slack():
    q = q_transform(make_curve([(0, 5), (10, 5)]))
    assert q.powers == (5, 5)


def test_q_transform_idempotent(curve4):
    q = q_transform(curve4)
    assert q_transform(q).levels == q.levels


def test_penalty_divisor_counts_zero_ff_fanins():
    c = parse_circuit(
        "gate a 1\ngate b 1\ngate c 1\ngate d 1\n"
        "edge a d 0\nedge b d 1\nedge c d 0\n")
    assert penalty_divisor(c, c.gate_id("d")) == 2
    assert penalty_divisor(c, c.gate_id("a")) == 1  # no fanins, clamped


def test_penalty_divisor_mixed():
    c = parse_circuit("gate a 1\ngate b 1\nedge a b 0\nedge a b 1\n")
    assert penalty_divisor(c, 1) == 1


def test_eval_power_table_and_interpolation(curve4):
    assert eval_power(curve4, 10) == 60
    assert eval_power(curve4, 5) == 80
    assert eval_power(curve4, 0) == 100
    assert eval_power(curve4, 33) == 10
    assert eval_power(curve4, 26) == 30 - Fraction(20, 13) * 6


def test_eval_power_out_of_range(curve4):
    with pytest.raises(CurveError, match="out of range"):
        eval_power(curve4, 40)
    with pytest.raises(CurveError, match="out of range"):
        eval_power(curve4, -1)


def test_scale_and_shift(curve4):
    half = scale_powers(curve4, Fraction(1, 2))
    assert half.powers == (50, 30, 15, 5)
    assert half.slacks == curve4.slacks
    moved = shift_slacks(curve4, 7)
    assert moved.slacks == (7, 17, 27, 40)
    assert moved.powers == curve4.powers


def test_load_curves_default_and_override():
    c = parse_circuit("gate a 1\ngate b 2\nedge a b 0\n")
    text = ('{"default": [[0, 100], [10, 60], [20, 30], [33, 10]],'
            ' "b": [[0, 50], [5, 40]]}')
    curves = load_curves(text, c)
    assert curves[0].levels == tuple(
        (s, Fraction(p)) for s, p in CURVE4_PAIRS)
    assert curves[1].slacks == (0, 5)
    assert curves[1].gate == 1


def test_load_curves_errors():
    c = parse_circuit("gate a 1\n")
    with pytest.raises(CurveError, match="bad curve file"):
        load_curves("{not json", c)
    with pytest.raises(CurveError, match="JSON object"):
        load_curves("[1, 2]", c)
    with pytest.raises(CurveError, match="no curve for gate a"):
        load_curves('{"zz": [[0, 1]]}', c)
    with pytest.raises(CurveError, match="curve for 'a'"):
        load_curves('{"a": [[0, 10], [5, 20]]}', c)
