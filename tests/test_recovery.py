"""Dual recovery, level snapping, and the end-to-end budgeting pipeline."""
from fractions import Fraction

import pytest

from retislack import (apply_retiming, brute_force, generate_random,
                       make_curve, parse_circuit, run_pipeline, sta)
from retislack.mcf import residual_potentials, solve_mcf
from retislack.recovery import (BudgetResult, InfeasiblePeriodError,
                                RecoveryError, SlackAssignment, finalize,
                                min_slack_period, recover_duals,
                                recover_slacks, snap_levels, verify_result)
from retislack.transform import expand, split_graph
from conftest import CURVE3_PAIRS, curves_for


def test_recover_slacks_takes_min_over_fanins_and_window():
    c = parse_circuit("gate x 1\ngate y 1\ngate j 1\n"
                      "edge x j 0\nedge y j 1\n")
    curves = curves_for(c)
    T = 10
    g = split_graph(c, T, curves)
    j = c.gate_id("j")
    s_vals = {g.e1_index[i]: 7 for i in range(c.n)}
    s_vals[g.e2_index[0]] = 5    # the w=0 fanin
    s_vals[g.e2_index[1]] = -4   # the w=1 fanin contributes -4 + T = 6
    out = recover_slacks(g, c, s_vals)
    assert out[j] == 5
    # gates without fanins keep their own window value
    assert out[c.gate_id("x")] == 7


def test_recover_slacks_floors_at_window_lower():
    c = parse_circuit("gate x 1\ngate j 2\nedge x j 0\n")
    curves = curves_for(c)
    g = split_graph(c, 40, curves)
    s_vals = {g.e1_index[0]: 1, g.e1_index[1]: 2, g.e2_index[0]: -100}
    out = recover_slacks(g, c, s_vals)
    assert out[c.gate_id("j")] == 2  # delay + smallest slack


def test_snap_levels_floor_to_grid(curve4):
    curves = {0: curve4, 1: curve4, 2: curve4}
    delays = (1, 1, 1)
    sbar = [1 + 3, 1 + 33, 1 + 12]
    asn = snap_levels(sbar, curves, delays)
    assert asn.levels == (0, 3, 1)
    assert asn.slacks == (0, 33, 10)
    assert asn.powers == (100, 10, 60)
    assert asn.total_power == 170
    assert asn.total_slack == 43


def test_snap_levels_monotone(curve4):
    curves = {0: curve4}
    prev = -1
    for budget in range(0, 34):
        lvl = snap_levels([budget], curves, (0,)).levels[0]
        assert lvl >= prev
        prev = lvl


def test_recover_duals_feasible_on_ring(ring3):
    curves = curves_for(ring3)
    g = split_graph(ring3, 5, curves)
    net = expand(g)
    sol = solve_mcf(net)
    pot = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    mu, s_vals = recover_duals(g, pot)
    assert all(0 <= x <= g.nff_bar for x in mu)
    for k, e in enumerate(g.edges):
        gap = mu[e.dst] - mu[e.src]
        if e.kind in ("E1", "E2"):
            assert gap >= e.lower
            assert s_vals[k] == min(e.upper, gap)
        elif e.kind == "E3":
            assert gap >= e.lower


def test_recover_duals_single_level_curve_forced():
    c = parse_circuit("gate g 3\n")
    curves = {0: make_curve([(2, 9)], gate=0)}
    g = split_graph(c, 9, curves)
    net = expand(g)
    sol = solve_mcf(net)
    pot = residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
    _, s_vals = recover_duals(g, pot)
    assert s_vals[g.e1_index[0]] == 5  # delay 3 + the only slack level 2


def test_recover_duals_potentials_above_nff_bar():
    # potentials here reach 31 > nff_bar = 18; clamping them broke the E1/E2
    # gaps and the pipeline used to raise RecoveryError
    c = generate_random(6, edge_density=1.8, ff_prob=0.4, seed=506 * 10007 + 138)
    curves = curves_for(c)
    res = run_pipeline(c, curves, T=18, check=True)
    verify_result(c, res)
    assert max(res.diagnostics["mu"]) > split_graph(c, 18, curves).nff_bar
    assert res.total_power >= brute_force(c, 18, curves).power


def test_finalize_keeps_feasible_assignment(ring3):
    curves = curves_for(ring3)
    asn = SlackAssignment((0, 0, 0), (0, 0, 0),
                          (Fraction(100),) * 3)
    res = finalize(ring3, 5, curves, asn)
    assert res.diagnostics["repair_steps"] == []
    assert res.assignment == asn
    assert res.achieved_period <= 5


def test_finalize_repairs_overbudget_assignment(ring3):
    curves = curves_for(ring3)
    asn = SlackAssignment((3, 3, 3), (33, 33, 33),
                          (Fraction(10),) * 3)
    res = finalize(ring3, 5, curves, asn)
    assert len(res.diagnostics["repair_steps"]) > 0
    moved = apply_retiming(ring3, res.retiming)
    eff = [ring3.delays[j] + res.assignment.slacks[j] for j in range(3)]
    assert max(sta(moved, 5, eff).arrival) <= 5


def test_pipeline_ring3_matches_oracle(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=5, check=True)
    opt = brute_force(ring3, 5, curves)
    assert opt.power == 300  # all gates pinned to the zero-slack level
    assert res.total_power >= opt.power
    assert res.total_power == 300
    assert res.period == 5
    assert res.achieved_period <= 5
    assert res.diagnostics["checked"]


def test_pipeline_defaults_to_min_period(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves)
    assert res.period == 5
    assert res.diagnostics["tmin"] == 5


def test_pipeline_rejects_period_below_minimum(ring3):
    with pytest.raises(InfeasiblePeriodError, match="minimum"):
        run_pipeline(ring3, curves_for(ring3), T=4)


def test_pipeline_generous_period_grants_slack(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=200, check=True)
    # plenty of headroom: some slack granted, power strictly below all-minimum
    assert res.diagnostics["repair_steps"] == []
    assert res.total_slack >= 33
    assert 30 <= res.total_power < 300


def test_pipeline_sound_on_random_circuits():
    for seed in range(12):
        c = generate_random(9, edge_density=1.8, ff_prob=0.4, seed=seed)
        curves = curves_for(c, CURVE3_PAIRS)
        res = run_pipeline(c, curves, check=True)
        moved = apply_retiming(c, res.retiming)
        eff = [c.delays[j] + res.assignment.slacks[j] for j in range(c.n)]
        rep = sta(moved, res.period, eff)
        assert max(rep.arrival) <= res.period
        for j in range(c.n):
            assert res.assignment.slacks[j] in curves[j].slacks


def test_verify_result_catches_corruption(ring3):
    curves = curves_for(ring3)
    res = run_pipeline(ring3, curves, T=6)
    bad = BudgetResult(res.assignment, res.retiming, res.period,
                       res.achieved_period + 1)
    with pytest.raises(RecoveryError, match="achieved period"):
        verify_result(ring3, bad)


def test_min_slack_period_accounts_for_mandatory_slack(ring3):
    curves = {g.id: make_curve([(2, 50), (4, 20)], gate=g.id)
              for g in ring3.gates}
    t, _ = min_slack_period(ring3, curves)
    # every gate is 2 units slower than its raw delay
    assert t == 9
