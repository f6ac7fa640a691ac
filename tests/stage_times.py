"""Stage times of `run_pipeline` on seed-42 random circuits, from its telemetry.

Usage: python tests/stage_times.py [--sizes 650 1300 2600] [--reps 5]

Each size n is `generate_random(n, edge_density=2.2, ff_prob=0.4, seed=42)`
with fixtures/curves4.json, budgeted at T = Tmin.  Each rep parses a fresh
copy of the circuit and its curves for a plain call and another for a
`check=True` call.  The table gives medians over the reps, in process: every
`diagnostics["stages"]` entry in ms (the plain call's; the two check-only
stages from the checked call), the wall time of both calls,
`solver_iterations`, `oracle_phases` and total power.  Printed, not gated.
"""
import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

from retislack import (generate_random, load_curves, parse_circuit, render_circuit,
                       run_pipeline)

CURVES = Path(__file__).resolve().parents[1] / "fixtures" / "curves4.json"


def _call(text: str, curves_text: str, check: bool):
    """(wall seconds, result) of one call on a freshly parsed copy."""
    c = parse_circuit(text)
    curves = load_curves(curves_text, c)
    t0 = perf_counter()
    res = run_pipeline(c, curves, check=check)
    return perf_counter() - t0, res


def _rep(text: str, curves_text: str) -> dict:
    """Every figure of one rep, by column: stage seconds, both calls' wall
    seconds, the counters and the power."""
    plain_s, plain = _call(text, curves_text, False)
    check_s, checked = _call(text, curves_text, True)
    return {"T": plain.period, **checked.diagnostics["stages"],
            **plain.diagnostics["stages"], "run_pipeline": plain_s,
            "check=True": check_s,
            "solver_iterations": plain.diagnostics["solver_iterations"],
            "oracle_phases": checked.diagnostics["oracle_phases"],
            "power": plain.total_power}


def row(n: int, reps: int, curves_text: str) -> dict[str, str]:
    """Table cells for n gates, by column: medians over the reps (of the
    counts, the lower median, so a count stays an integer)."""
    text = render_circuit(generate_random(n, edge_density=2.2, ff_prob=0.4, seed=42))
    runs = [_rep(text, curves_text) for _ in range(reps)]
    cells = {"n": str(n)}
    for key, first in runs[0].items():
        if isinstance(first, float):  # seconds
            m = statistics.median(r[key] for r in runs)
            if "." in key:  # a diagnostics["stages"] entry
                cells[key.split(".")[1].removesuffix("_s")] = f"{1000 * m:.1f} ms"
            else:
                cells[key] = f"{m:.3f} s"
        else:
            cells[key] = str(statistics.median_low(r[key] for r in runs))
    ratio = (statistics.median(r["check=True"] for r in runs)
             / statistics.median(r["run_pipeline"] for r in runs))
    cells["check=True"] += f" ({ratio:.2f}×)"
    return cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[650, 1300, 2600])
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    curves_text = CURVES.read_text()
    print(f"Seed 42, curves4, T = Tmin; medians of {args.reps} in-process runs.\n")
    for k, n in enumerate(args.sizes):
        cells = row(n, args.reps, curves_text)
        if not k:
            print("| " + " | ".join(cells) + " |")
            print("|" + "|".join("---" for _ in cells) + "|")
        print("| " + " | ".join(cells.values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
