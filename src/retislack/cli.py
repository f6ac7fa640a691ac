"""Command-line front end.

Subcommands: sta, retime, budget, bench.  Exit codes: 0 success, 1 input
error (a usage error too), 2 infeasible, 3 internal verification failure.
A reader that closes standard output early (`| head`) ends the command
quietly with 0: the rest of the output was not wanted.

The flow stages are reached through the package's front door, so each loads
only when a command uses it: `sta` imports none and `retime` only `retime`.
`main` looks up the stage errors it maps to exit codes only when a command
fails.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import retislack

from .circuit import Circuit, CircuitError, generate_random, parse_circuit, sta
from .power import load_curves

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as e:
        raise CircuitError(f"cannot write {path}: {e}") from None


def _load(path: str, parse, *args):
    """parse(text, *args) on the file's text; a parse error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise CircuitError(f"cannot read {path}: {e}") from None
    try:
        return parse(text, *args)
    except ValueError as e:  # CircuitError, CurveError and json.JSONDecodeError
        raise CircuitError(f"{path}: {e}") from None


def _slack_delays(text: str, c: Circuit) -> list[int]:
    """Gate delays plus the per-gate extra slack of a JSON slack file."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise CircuitError("slack file must be a JSON object")
    eff = list(c.delays)
    for name, s in doc.items():
        try:
            j = c.gate_id(name)
        except KeyError:
            raise CircuitError(f"slack file names unknown gate {name!r}") from None
        if isinstance(s, bool) or not isinstance(s, int):
            raise CircuitError(f"slack for {name!r} is not an integer")
        eff[j] += s
        if eff[j] < 0:
            raise CircuitError(f"gate {name}: negative effective delay")
    return eff


def cmd_sta(args) -> int:
    c = _load(args.circuit, parse_circuit)
    eff = _load(args.slacks, _slack_delays, c) if args.slacks else None
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
    c = _load(args.circuit, parse_circuit)
    if args.period is None:
        tmin, r = retislack.min_period(c)
        print(f"Tmin {tmin}")
    else:
        r = retislack.feasible_retiming(c, args.period)
        if r is None:
            print("infeasible")
            return EXIT_INFEASIBLE
    print("retiming " + " ".join(f"{g.name}={r[g.id]}" for g in c.gates))
    return EXIT_OK


def cmd_budget(args) -> int:
    c = _load(args.circuit, parse_circuit)
    curves = _load(args.curves, load_curves, c)
    result = retislack.run_pipeline(c, curves, T=args.period, check=args.check)
    print(f"period      {result.period}")
    print(f"achieved    {result.achieved_period}")
    print(f"total_power {result.total_power}")
    print(f"total_slack {result.total_slack}")
    print(f"runtime_ms  {sum(result.diagnostics['stages'].values()) * 1000.0:.1f}")
    if args.json:
        # every diagnostic but the per-node vectors, powers as strings
        diag = {k: v for k, v in result.diagnostics.items() if k not in ("mu", "sbar")}
        diag["repair_steps"] = len(diag["repair_steps"])
        diag["snap_power"] = str(diag["snap_power"])
        doc = {
            "period": result.period,
            "achieved_period": result.achieved_period,
            "total_power": str(result.total_power),
            "total_slack": result.total_slack,
            "gates": {
                g.name: {
                    "slack": result.assignment.slacks[g.id],
                    "power": str(result.assignment.powers[g.id]),
                }
                for g in c.gates
            },
            "retiming": {g.name: result.retiming[g.id] for g in c.gates},
            "diagnostics": diag,
        }
        _write(args.json, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


_BENCH_FIELDS = ["name", "gates", "edges", "Tmin", "power_flow", "power_oracle",
                 "slack_flow", "slack_oracle", "runtime_ms"]


def _gap(got, best) -> Fraction:
    """Relative excess of `got` over `best`; 0 where `best` is 0."""
    return Fraction(got - best, best) if best else Fraction(0)


def cmd_bench(args) -> int:
    cases = []
    if args.dir:
        try:
            names = sorted(fn[:-4] for fn in os.listdir(args.dir) if fn.endswith(".ckt"))
        except OSError as e:
            raise CircuitError(f"cannot read {args.dir}: {e}") from None
        for name in names:
            cases.append((name, _load(os.path.join(args.dir, name + ".ckt"), parse_circuit)))
    else:
        if args.gen < 0:
            raise CircuitError(f"--gen {args.gen}: negative case count")
        sizes = [6, 8, 10, 14, 20, 30]
        for i in range(args.gen):
            n = sizes[i % len(sizes)]
            cases.append((f"case{i:03d}",
                          generate_random(n, edge_density=1.8, ff_prob=0.4,
                                          seed=args.seed * 10007 + i)))
    default_curve = json.dumps({"default": [[0, 100], [10, 60], [20, 30], [33, 10]]})
    rows = []
    for name, c in cases:
        curves = (_load(args.levels, load_curves, c) if args.levels
                  else load_curves(default_curve, c))
        result = retislack.run_pipeline(c, curves, check=args.check)
        ms = sum(result.diagnostics["stages"].values()) * 1000.0
        tmin = result.diagnostics["tmin"]
        row = {"name": name, "gates": c.n, "edges": len(c.edges), "Tmin": tmin,
               "power_flow": result.total_power, "slack_flow": result.total_slack,
               "runtime_ms": f"{ms:.1f}"}
        if c.n <= 10 and max(cur.nlevels for cur in curves.values()) <= 4:
            opt = retislack.brute_force(c, tmin, curves)
            if opt is not None:
                row["power_oracle"] = opt.power
                row["slack_oracle"] = opt.total_slack
        rows.append(row)
    if rows:  # a field a row does not hold is written blank
        compared = [r for r in rows if "power_oracle" in r]
        avg = {
            "name": "Avg",
            "power_flow": f"{Fraction(sum(r['power_flow'] for r in rows), len(rows))}",
            "slack_flow": f"{sum(r['slack_flow'] for r in rows) / len(rows):.1f}",
            "runtime_ms": f"{sum(float(r['runtime_ms']) for r in rows) / len(rows):.1f}",
        }
        diff = {"name": "Diff"}
        if compared:
            pgap = sum(_gap(r["power_flow"], r["power_oracle"])
                       for r in compared) / len(compared)
            sgap = sum(_gap(r["slack_flow"], r["slack_oracle"])
                       for r in compared) / len(compared)
            diff["power_flow"] = f"{float(pgap) * 100.0:+.1f}%"
            diff["slack_flow"] = f"{float(sgap) * 100.0:+.1f}%"
        rows += [avg, diff]
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=_BENCH_FIELDS)
    w.writeheader()
    w.writerows(rows)
    text = out.getvalue()
    if args.csv:
        _write(args.csv, text)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse printed usage (code 2) or --help (0)
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here when stdout is buffered
        return status
    except BrokenPipeError:
        # the interpreter's exit flush would raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValueError as e:  # CircuitError, CurveError and TransformError too
        if isinstance(e, retislack.InfeasiblePeriodError):
            print(f"infeasible: {e}", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (retislack.RecoveryError, retislack.SolverError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
