"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a
single pass/fail summary line (run pytest with -s to see them).
"""
import json
import random
import time
from fractions import Fraction

from retislack import (brute_force, generate_random, make_curve, parse_circuit,
                       render_circuit, run_pipeline)
from retislack.cli import main
from retislack.mcf import solve_mcf, ssp_oracle
from retislack.recovery import min_slack_period
from retislack.retime import min_period
from retislack.transform import expand

from conftest import (CURVE3_PAIRS, CURVE4_PAIRS, RING3_TEXT, curves_for,
                      one_edge_graph)
from test_mcf import random_net
from milp_oracle import optimum
from period_oracle import oracle_min_period

CURVES_TEXT = json.dumps({"default": CURVE4_PAIRS})


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_soundness(tmp_path):
    curves_path = tmp_path / "curves.json"
    curves_path.write_text(CURVES_TEXT)
    cases = 200
    worst = 0.0
    failures = 0
    for i in range(cases):
        n = 5 + (i * 7) % 36  # 5..40
        c = generate_random(n, edge_density=1.8, ff_prob=0.4, seed=1000 + i)
        ckt = tmp_path / f"c{i}.ckt"
        ckt.write_text(render_circuit(c))
        t0 = time.perf_counter()
        code = main(["budget", str(ckt), str(curves_path), "--check"])
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if code != 0 or dt >= 1.0:
            failures += 1
    _report(1, "soundness", failures == 0 and worst < 1.0,
            f"{cases - failures}/{cases} verified budgets, "
            f"worst case {worst:.2f} s")


_TINY_CACHE: list = []


def _tiny_suite():
    if _TINY_CACHE:
        return _TINY_CACHE
    out = _TINY_CACHE
    for i in range(50):
        n = 4 + i % 7  # 4..10
        c = generate_random(n, edge_density=1.8, ff_prob=0.4, seed=2000 + i)
        curves = curves_for(c, CURVE3_PAIRS)
        res = run_pipeline(c, curves, check=True)
        opt = brute_force(c, res.period, curves)
        assert opt is not None
        out.append((c, curves, res, opt))
    return out


def test_criterion_2_power_gap():
    suite = _tiny_suite()
    sound = all(res.total_power >= opt.power for _, _, res, opt in suite)
    excess = [float((res.total_power - opt.power) / opt.power)
              for _, _, res, opt in suite]
    avg = sum(excess) / len(excess)
    _report(2, "power vs oracle", sound and avg <= 0.01,
            f"never below the optimum, average excess {avg * 100.0:.1f}% "
            f"(bound 1%)")


def test_criterion_3_slack_retention():
    suite = _tiny_suite()
    ours = sum(res.total_slack for _, _, res, _ in suite)
    theirs = sum(opt.total_slack for _, _, _, opt in suite)
    ratio = ours / theirs
    _report(3, "slack retention", ratio >= 0.55,
            f"kept {ratio * 100.0:.0f}% of the oracle's total slack "
            f"(bound 55%)")


def test_criterion_4_min_period_exact():
    ring3 = parse_circuit(RING3_TEXT)
    t_ring, _ = min_period(ring3)
    matches = int(t_ring == 5 and oracle_min_period(ring3) == 5)
    cases = 1
    for i in range(100):
        n = 3 + i % 6  # 3..8
        c = generate_random(n, edge_density=1.6, ff_prob=0.5, seed=3000 + i)
        t, _ = min_period(c)
        matches += int(t == oracle_min_period(c))
        cases += 1
    _report(4, "minimum period", matches == cases,
            f"{matches}/{cases} exact matches against exhaustive retiming")


def test_criterion_5_solver_equivalence():
    rng = random.Random(4000)
    matches = 0
    cases = 100
    for _ in range(cases):
        n = rng.randint(2, 30)
        net = random_net(n, rng.randint(1, 3 * n), rng, cost_range=1000)
        matches += int(solve_mcf(net).cost == ssp_oracle(net).cost)
    _report(5, "flow solver cross-check", matches == cases,
            f"{matches}/{cases} identical optimal costs")


def _expanded_cost_matches_direct_minimum(curve, shift):
    """Check the parallel-arc encoding of one costed edge, integer by integer:
    the curve with its slack axis moved by shift."""
    s = [x + shift for x in curve.slacks]
    p = curve.powers
    g = one_edge_graph(curve, shift)
    net = expand(g)
    D = net.scale
    # the self-loop's (cost, upper) pairs
    arcs = [(cost, upper) for src, dst, cost, upper in net.arcs if (src, dst) == (0, 0)]
    saturation = sum(upper for _, upper in arcs[:-1])
    for X in range(saturation + 5):
        rem = X
        cost = 0
        for arc_cost, upper in arcs:  # already ordered cheapest first
            take = min(rem, upper)
            cost += take * arc_cost
            rem -= take
        assert rem == 0
        h = min(p[q] + s[q] * Fraction(X, D) for q in range(len(s)))
        if cost != D * (p[-1] - h):
            return False
    return True


def test_criterion_6_expanded_edge_costs():
    base = make_curve(CURVE4_PAIRS)
    alt = make_curve([(0, 90), (7, 55), (15, 25), (26, 3)])
    checked = 0
    ok = True
    for cur in (base, alt):
        for shift in (0, 4, -6):
            ok = ok and _expanded_cost_matches_direct_minimum(cur, shift)
            checked += 1
    _report(6, "arc-expansion cost identity", ok,
            f"{checked} four-level curve variants, every integer flow "
            f"value bit-exact")


def test_criterion_7_power_vs_exact_optimum():
    excess = []
    for n, loose in ((20, False), (20, True), (30, False)):
        for seed in range(1, 7):
            c = generate_random(n, 2.2, 0.4, seed=seed)
            curves = curves_for(c)
            tmin, _ = min_slack_period(c, curves)
            T = -(-13 * tmin // 10) if loose else tmin  # ceil(1.3 Tmin)
            opt = optimum(c, T, curves)
            excess.append(run_pipeline(c, curves, T).total_power / opt - 1)
    mean = sum(excess) / len(excess)
    _report(7, "power vs exact optimum", min(excess) >= 0 and mean <= 0.07,
            f"{len(excess)} cases of 20-30 gates, never below the MILP "
            f"optimum, mean excess {mean * 100.0:.1f}% (bound 7%), "
            f"max {max(excess) * 100.0:.1f}%")


def test_criterion_8_scale(tmp_path):
    c = generate_random(650, edge_density=2.2, ff_prob=0.4, seed=42)
    assert 1300 <= len(c.edges) <= 1500
    ckt = tmp_path / "big.ckt"
    ckt.write_text(render_circuit(c))
    curves_path = tmp_path / "curves.json"
    curves_path.write_text(CURVES_TEXT)
    out_path = tmp_path / "big.json"
    t0 = time.perf_counter()
    code = main(["budget", str(ckt), str(curves_path), "--json", str(out_path)])
    dt = time.perf_counter() - t0
    # pinned answer (recovered values capped at the period, one dual node per
    # gate, potentials anchored at the reference node; bisection of the
    # snapped budget, then the fill; relabels of the solver with eps / 8 per
    # phase from the largest negative cost of an arc some circulation can
    # use, global price updates, one residual pair per group of parallel arcs,
    # no arc out of the reference node, price refinement before each phase,
    # and no penalty divisor); any change to it must be explained
    doc = json.loads(out_path.read_text()) if code == 0 else {"diagnostics": {}}
    doc["diagnostics"].pop("stages", None)  # wall times, not part of the answer
    got = (doc.get("period"), doc.get("achieved_period"), doc.get("total_power"),
           doc.get("diagnostics"))
    want = (21, 21, "54450", {"tmin": 21, "repair_steps": 156,
                              "solver_iterations": 10188,
                              "solver_phases": 4,
                              "flow_cost": -567575,
                              "snap_power": "53010",
                              "fill_steps": 251, "probes": 3,
                              "arcs": 6370, "nodes": 651, "scale": 13})
    _report(8, "scale", code == 0 and dt < 10.0 and got == want,
            f"650 gates / {len(c.edges)} edges budgeted in {dt:.2f} s "
            f"(bound 10 s), answer {'as pinned' if got == want else got}")
