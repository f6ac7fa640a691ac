"""Command-line front end.

Subcommands: sta, retime, budget, bench.  Exit codes: 0 success, 1 input
error, 2 infeasible, 3 internal verification failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from .circuit import Circuit, CircuitError, generate_random, parse_circuit, sta
from .exact import brute_force
from .mcf import SolverError
from .power import CurveError, load_curves
from .recovery import InfeasiblePeriodError, RecoveryError, run_pipeline
from .retime import feasible_retiming, min_period
from .transform import TransformError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise CircuitError(f"cannot read {path}: {e}") from None


def _load_circuit(path: str) -> Circuit:
    return parse_circuit(_read(path))


def _fmt_power(p: Fraction) -> str:
    return str(p) if p.denominator != 1 else str(p.numerator)


def cmd_sta(args) -> int:
    c = _load_circuit(args.circuit)
    eff = list(c.delays)
    if args.slacks:
        doc = json.loads(_read(args.slacks))
        for name, s in doc.items():
            eff[c.gate_id(name)] += int(s)
    rep = sta(c, args.period, eff)
    print(f"{'gate':<12}{'arrival':>8}{'required':>9}{'slack':>7}")
    for g in c.gates:
        print(f"{g.name:<12}{rep.arrival[g.id]:>8}{rep.required[g.id]:>9}"
              f"{rep.slack[g.id]:>7}")
    if max(rep.arrival) > args.period:
        print(f"period {args.period} violated (max arrival {max(rep.arrival)})")
        return EXIT_INFEASIBLE
    print(f"period {args.period} met")
    return EXIT_OK


def cmd_retime(args) -> int:
    c = _load_circuit(args.circuit)
    if args.period is None:
        tmin, r = min_period(c)
        print(f"Tmin {tmin}")
        print("retiming " + " ".join(
            f"{g.name}={r.labels[g.id]}" for g in c.gates))
        return EXIT_OK
    r = feasible_retiming(c, args.period)
    if r is None:
        print("infeasible")
        return EXIT_INFEASIBLE
    print("retiming " + " ".join(f"{g.name}={r.labels[g.id]}" for g in c.gates))
    return EXIT_OK


def cmd_budget(args) -> int:
    c = _load_circuit(args.circuit)
    curves = load_curves(_read(args.curves), c)
    t0 = time.perf_counter()
    result = run_pipeline(c, curves, T=args.period, check=args.check)
    runtime = time.perf_counter() - t0
    print(f"period      {result.period}")
    print(f"achieved    {result.achieved_period}")
    print(f"total_power {_fmt_power(result.total_power)}")
    print(f"total_slack {result.total_slack}")
    print(f"runtime_ms  {runtime * 1000.0:.1f}")
    if args.json:
        doc = {
            "period": result.period,
            "achieved_period": result.achieved_period,
            "total_power": _fmt_power(result.total_power),
            "total_slack": result.total_slack,
            "gates": {
                g.name: {
                    "slack": result.assignment.slacks[g.id],
                    "power": _fmt_power(result.assignment.powers[g.id]),
                }
                for g in c.gates
            },
            "retiming": {g.name: result.retiming.labels[g.id] for g in c.gates},
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    return EXIT_OK


_BENCH_FIELDS = ["name", "gates", "edges", "Tmin", "power_flow", "power_oracle",
                 "slack_flow", "slack_oracle", "runtime_ms"]


def cmd_bench(args) -> int:
    cases = []
    if args.dir:
        for fn in sorted(os.listdir(args.dir)):
            if fn.endswith(".ckt"):
                cases.append((fn[:-4], _load_circuit(os.path.join(args.dir, fn))))
    else:
        sizes = [6, 8, 10, 14, 20, 30]
        for i in range(args.gen):
            n = sizes[i % len(sizes)]
            cases.append((f"case{i:03d}",
                          generate_random(n, edge_density=1.8, ff_prob=0.4,
                                          seed=args.seed * 10007 + i)))
    cases.sort(key=lambda t: t[0])
    default_curve = _read(args.levels) if args.levels else json.dumps(
        {"default": [[0, 100], [10, 60], [20, 30], [33, 10]]})
    rows = []
    for name, c in cases:
        curves = load_curves(default_curve, c)
        t0 = time.perf_counter()
        result = run_pipeline(c, curves, check=args.check)
        ms = (time.perf_counter() - t0) * 1000.0
        tmin = result.diagnostics["tmin"]
        row = {
            "name": name, "gates": c.n, "edges": len(c.edges), "Tmin": tmin,
            "power_flow": _fmt_power(result.total_power),
            "power_oracle": "", "slack_flow": result.total_slack,
            "slack_oracle": "", "runtime_ms": f"{ms:.1f}",
        }
        if c.n <= 10 and max(cur.nlevels for cur in curves.values()) <= 4:
            opt = brute_force(c, tmin, curves)
            if opt is not None:
                row["power_oracle"] = _fmt_power(opt.power)
                row["slack_oracle"] = opt.total_slack
        rows.append(row)
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=_BENCH_FIELDS)
    w.writeheader()
    for row in rows:
        w.writerow(row)
    if rows:
        compared = [r for r in rows if r["power_oracle"] != ""]
        avg = {
            "name": "Avg", "gates": "", "edges": "",
            "Tmin": "",
            "power_flow": f"{sum(Fraction(r['power_flow']) for r in rows) / len(rows)}",
            "power_oracle": "",
            "slack_flow": f"{sum(r['slack_flow'] for r in rows) / len(rows):.1f}",
            "slack_oracle": "",
            "runtime_ms": f"{sum(float(r['runtime_ms']) for r in rows) / len(rows):.1f}",
        }
        diff = {k: "" for k in _BENCH_FIELDS}
        diff["name"] = "Diff"
        if compared:
            pgap = sum(
                (Fraction(r["power_flow"]) - Fraction(r["power_oracle"]))
                / Fraction(r["power_oracle"]) for r in compared) / len(compared)
            sgap = sum(
                Fraction(r["slack_flow"] - r["slack_oracle"],
                         r["slack_oracle"]) if r["slack_oracle"] else Fraction(0)
                for r in compared) / len(compared)
            diff["power_flow"] = f"{float(pgap) * 100.0:+.1f}%"
            diff["slack_flow"] = f"{float(sgap) * 100.0:+.1f}%"
        w.writerow(avg)
        w.writerow(diff)
    text = out.getvalue()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="retislack",
        description="Joint retiming and discrete slack budgeting for low power")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sta", help="static timing report at a given period")
    ps.add_argument("circuit")
    ps.add_argument("--period", type=int, required=True)
    ps.add_argument("--slacks", help="JSON file of per-gate extra slack")
    ps.set_defaults(func=cmd_sta)

    pr = sub.add_parser("retime", help="minimum-period or fixed-period retiming")
    pr.add_argument("circuit")
    pr.add_argument("--period", type=int)
    pr.set_defaults(func=cmd_retime)

    pb = sub.add_parser("budget", help="run the full budgeting pipeline")
    pb.add_argument("circuit")
    pb.add_argument("curves")
    pb.add_argument("--period", type=int)
    pb.add_argument("--check", action="store_true",
                    help="cross-check the flow solver and re-verify the result")
    pb.add_argument("--json", help="write the result document to this path")
    pb.set_defaults(func=cmd_budget)

    pn = sub.add_parser("bench", help="benchmark harness producing a CSV table")
    g = pn.add_mutually_exclusive_group(required=True)
    g.add_argument("--gen", type=int, help="number of generated cases")
    g.add_argument("--dir", help="directory of .ckt circuit files")
    pn.add_argument("--seed", type=int, default=1)
    pn.add_argument("--levels", help="default curve JSON file")
    pn.add_argument("--csv", help="output CSV path (default stdout)")
    pn.add_argument("--check", action="store_true")
    pn.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, CurveError, TransformError, ValueError) as e:
        if isinstance(e, InfeasiblePeriodError):
            print(f"infeasible: {e}", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (RecoveryError, SolverError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
