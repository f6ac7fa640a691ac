"""Exhaustive and MILP reference solvers."""
import dataclasses

import pytest

from retislack import brute_force, generate_random, make_curve, parse_circuit
from retislack.exact import OracleError, OracleResult
from retislack.retime import min_period
from conftest import curves_for
from milp_oracle import optimum
from period_oracle import oracle_min_period
from test_acceptance import _tiny_suite


def test_brute_force_ring3(ring3):
    curves = curves_for(ring3)
    opt = brute_force(ring3, 5, curves)
    assert opt is not None
    assert opt.power == 300
    assert opt.levels == (0, 0, 0)
    assert opt.total_slack == 0


def test_brute_force_infeasible_period(ring3):
    assert brute_force(ring3, 4, curves_for(ring3)) is None


def test_brute_force_generous_period(ring3):
    opt = brute_force(ring3, 200, curves_for(ring3))
    assert opt.power == 30
    assert opt.slacks == (33, 33, 33)


def test_brute_force_single_level_curves(ring3):
    curves = {g.id: make_curve([(0, 7)]) for g in ring3.gates}
    opt = brute_force(ring3, 5, curves)
    assert opt.power == 21
    assert opt.levels == (0, 0, 0)


def test_brute_force_tie_breaks_lexicographically():
    c = parse_circuit("gate a 1\ngate b 1\n")
    flat = {0: make_curve([(0, 5), (10, 5)]),
            1: make_curve([(0, 5), (10, 5)])}
    opt = brute_force(c, 50, flat)
    assert opt.power == 10
    assert opt.levels == (0, 0)  # every vector ties; smallest wins


def test_oracle_result_keeps_no_witness_retiming():
    names = [f.name for f in dataclasses.fields(OracleResult)]
    assert names == ["power", "levels", "slacks"]


def test_brute_force_guards():
    big = generate_random(13, seed=0)
    with pytest.raises(OracleError, match="12-gate"):
        brute_force(big, 100, curves_for(big))
    small = generate_random(3, seed=0)
    five = [(0, 50), (1, 40), (2, 30), (3, 20), (4, 10)]
    with pytest.raises(OracleError, match="4 levels"):
        brute_force(small, 100, curves_for(small, five))


def test_oracle_min_period_examples(ring3):
    assert oracle_min_period(ring3) == 5
    loop = parse_circuit("gate g 20\nedge g g 1\n")
    assert oracle_min_period(loop) == 20
    # labels may pipeline a pure combinational chain (w + r_j - r_i >= 0
    # permits new FFs), so the floor is the largest single gate delay
    chain = parse_circuit("gate a 2\ngate b 3\ngate c 4\n"
                          "edge a b 0\nedge b c 0\n")
    assert oracle_min_period(chain) == 4
    t, _ = min_period(chain)
    assert t == 4


def test_oracle_min_period_guard():
    big = generate_random(9, seed=1)
    with pytest.raises(OracleError, match="8-gate"):
        oracle_min_period(big)


def test_oracle_min_period_agrees_with_search():
    for seed in range(25):
        c = generate_random(6, edge_density=1.7, ff_prob=0.5, seed=seed)
        t, _ = min_period(c)
        assert t == oracle_min_period(c)


def test_brute_force_is_lower_bound_for_any_feasible_assignment(ring3):
    # any feasible level vector has power >= the oracle's optimum
    import itertools
    from retislack import feasible_retiming
    curves = curves_for(ring3)
    opt = brute_force(ring3, 6, curves)
    for levels in itertools.product(range(4), repeat=3):
        eff = [ring3.delays[j] + curves[j].slacks[q]
               for j, q in enumerate(levels)]
        if feasible_retiming(ring3, 6, eff) is not None:
            power = sum(curves[j].powers[q] for j, q in enumerate(levels))
            assert power >= opt.power


def test_milp_optimum_matches_brute_force():
    # every tiny-suite case at its period, and one period below Tmin
    suite = _tiny_suite()
    for c, curves, res, opt in suite:
        assert optimum(c, res.period, curves) == opt.power
    c, curves, res, _ = suite[0]
    below = res.diagnostics["tmin"] - 1
    assert brute_force(c, below, curves) is None
    assert optimum(c, below, curves) is None
