"""retislack benchmark: budget time, power quality and per-stage times.

Usage (from the repository root):

    python3 perfbench/run.py --workload tight_650 --seed 42 --seconds 20 --trace 0
    python3 -m pytest -q perfbench      # fast self-test on few-gate instances

The runner imports ``retislack`` from ``src/`` of the checkout it sits in,
builds the workload's circuit and curve text from the seed, and calls the
public API (``parse_circuit``, ``load_curves``, ``run_pipeline``) in a closed
loop with one caller, in whole passes over the workload's instances until
``--seconds`` have passed.  Each call gets a circuit and curves freshly parsed
from the text before its timer starts, so no call profits from data an earlier
call cached on the input objects.  Every call goes through a correctness gate
outside the timed region: ``verify_result``, the same answer on every repeat of
an instance, and power at or above the ``brute_force`` optimum on instances of
at most 10 gates with at most 4 levels.

Times are scaled to a nominal host speed by a reference loop timed between
calls, because the speed of a shared host drifts (see ``hostspeed.py``); the
raw wall-clock median is printed next to them.  ``--trace 0`` reports the
end-to-end metrics:

- ``setup_s``: median over repetitions of a fresh import of ``retislack``
  plus ``parse_circuit`` and ``load_curves`` on every instance.  Each
  repetition re-runs the bodies of retislack's modules and of every module
  that retislack's import loaded beyond those the benchmark had already
  loaded, so a new dependency is paid in every repetition.  Interpreter start
  and the standard-library modules the benchmark itself imports are not
  counted: the median of repeated set-ups is steadier than one cold start;
- ``budget_s``: median wall time of one ``run_pipeline`` call;
- ``instances_per_s``: calls that passed the gate per second of call time;
- ``total_power``: final power summed over the workload's instances (exact);
- ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs every call a second time through the stage functions, in
``run_pipeline``'s order with a span around each, checks that both runs give
the same answer, reports per-layer metrics (seconds per call, and exact counts
summed over the instances) and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object.  The exit code is 1 if
any call failed and 2 if the benchmark could not run.  One process and one
thread throughout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_MIN_REPS, SETUP_MIN_SECONDS = 9, 1.5  # set-up is timed until both are met

END_TO_END = {
    "setup_s": "s",
    "budget_s": "s",
    "instances_per_s": "1/s",
    "total_power": "power",
    "peak_rss_mb": "MB",
}
# per-layer time metric -> the stage spans it sums (seconds per pipeline call);
# ssp_oracle runs only with check=True, so its time, which would read 0 on the
# other workloads, is a report line and mcf.ssp_augmentations the metric
LAYER_SPANS = {
    "retime.min_period_s": ("min_slack_period",),
    "transform.split_graph_s": ("split_graph",),
    "transform.expand_s": ("expand",),
    "mcf.solve_s": ("solve_mcf",),
    "mcf.potentials_s": ("residual_potentials",),
    "recovery.recover_s": ("recover_duals", "recover_slacks", "snap_levels"),
    "recovery.finalize_s": ("finalize",),
    "recovery.verify_s": ("verify_result",),
}
PER_LAYER = {
    "circuit.parse_s": "s",
    "power.load_curves_s": "s",
    **{name: "s" for name in LAYER_SPANS},
    "transform.arcs": "count",
    "transform.nodes": "count",
    "transform.scale": "count",
    "mcf.relabels": "count",
    "mcf.ssp_augmentations": "count",
    "recovery.repair_steps": "count",
    "recovery.repaired_share": "share",
    "recovery.snap_power": "power",
    "recovery.repair_power_loss": "share",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


_program_modules: set[str] = set()  # modules the last import of retislack loaded


def fresh_import():
    """Import retislack from src/ anew, re-running every module body it loads."""
    for name in _program_modules | {m for m in sys.modules if m == "retislack"
                                    or m.startswith("retislack.")}:
        sys.modules.pop(name, None)
    before = set(sys.modules)
    rs = importlib.import_module("retislack")
    _program_modules.update(set(sys.modules) - before)
    if not Path(rs.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"retislack imported from {rs.__file__}, not from {SRC}")
    return rs


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "cpu_model": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(make, seed: int, tracer):
    """Generate the text, then time fresh import + parse + load repeatedly.

    Returns the workload, the last repetition's module, the repetition times
    (a HostSpeed), and per repetition the seconds spent in parse_circuit and
    load_curves.
    """
    wl = make(fresh_import(), seed)
    walls = hostspeed.HostSpeed()
    parse_s, load_s, spent = [], [], 0.0
    while len(parse_s) < SETUP_MIN_REPS or spent < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        rs = fresh_import()
        for k, inst in enumerate(wl.instances):
            with tracer.span("parse_circuit", k):
                c = rs.parse_circuit(inst.circuit_text)
            with tracer.span("load_curves", k):
                rs.load_curves(inst.curves_text, c)
        rep_s = perf_counter() - t0
        walls.add(rep_s)
        spent += rep_s
        spans = tracer.spans[-2 * len(wl.instances):]
        parse_s.append(sum(s.end - s.start for s in spans if s.name == "parse_circuit"))
        load_s.append(sum(s.end - s.start for s in spans if s.name == "load_curves"))
    walls.flush()
    return wl, rs, walls, parse_s, load_s


def load(rs, inst):
    """A fresh circuit and curves parsed from the instance's text."""
    c = rs.parse_circuit(inst.circuit_text)
    return c, rs.load_curves(inst.curves_text, c)


class NullTracer:
    """Stands in for tracing.Tracer when tracing is off."""
    spans: list = []

    def span(self, name, instance):
        return nullcontext()


class Gate:
    """Correctness checks on every call, run outside the timed region."""

    def __init__(self, rs, wl, tracer):
        self.rs, self.wl, self.tracer = rs, wl, tracer
        self.first = {}    # instance -> answer of its first call
        self.optimum = {}  # instance -> brute_force power; None: too big; False: infeasible
        self.failures: list[str] = []

    def fail(self, k: int, why: str) -> None:
        self.failures.append(f"{self.wl.instances[k].name}: {why}")

    def check(self, k: int, c, curves, res) -> bool:
        before = len(self.failures)
        # with check=True the call ran verify_result inside and it is timed there
        span = nullcontext() if self.wl.check else self.tracer.span("verify_result", k)
        try:
            with span:
                self.rs.recovery.verify_result(c, res)
        except (self.rs.RecoveryError, ValueError) as e:
            self.fail(k, f"verify_result: {e}")
        answer = (res.assignment, res.retiming, res.period, res.achieved_period)
        if self.first.setdefault(k, answer) != answer:
            self.fail(k, "answer differs from the first call on this instance")
        if k not in self.optimum:
            self.optimum[k] = self._oracle(c, curves, res.period)
        opt = self.optimum[k]
        if opt is False:
            self.fail(k, "brute_force finds the period infeasible")
        elif opt is not None and res.total_power < opt:
            self.fail(k, f"power {res.total_power} below the optimum {opt}")
        return len(self.failures) == before

    def _oracle(self, c, curves, T):
        """Optimal power on small instances; None if too big, False if infeasible."""
        if c.n > workloads.ORACLE_MAX_GATES or any(cur.nlevels > 4 for cur in curves.values()):
            return None
        opt = self.rs.brute_force(c, T, curves)
        return False if opt is None else opt.power

    def power_gap_pct(self) -> float | None:
        gaps = [(ans[0].total_power - self.optimum[k]) / self.optimum[k]
                for k, ans in self.first.items() if self.optimum.get(k)]
        return float(100 * sum(gaps) / len(gaps)) if gaps else None


def periods(rs, wl) -> list[int | None]:
    """Per-instance period argument: None (Tmin) or ceil(factor * Tmin)."""
    if wl.period_factor is None:
        return [None] * len(wl.instances)
    out = []
    for inst in wl.instances:
        tmin, _ = rs.recovery.min_slack_period(*load(rs, inst))
        out.append(math.ceil(wl.period_factor * tmin))
    return out


def closed_loop(seconds: float, count: int):
    """Instance order for one caller: one whole pass, then on until `seconds`."""
    start = perf_counter()
    i = 0
    while i < count or perf_counter() - start < seconds:
        yield i % count
        i += 1


def run(args) -> tuple[dict, dict, list[str]]:
    """Run one workload; returns (result line, extra report figures, failures)."""
    make = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else NullTracer()
    if args.trace:
        tracing.check_stage_order(fresh_import())
    wl, rs, walls, parse_s, load_s = setup(make, args.seed, tracer)
    Ts = periods(rs, wl)
    gate = Gate(rs, wl, tracer)
    times = hostspeed.HostSpeed()  # raw and scaled call times
    verified = attempted = 0
    traced, runs = [], {}
    for k in closed_loop(args.seconds, len(wl.instances)):
        c, curves = load(rs, wl.instances[k])
        attempted += 1
        t0 = perf_counter()
        try:
            res = rs.run_pipeline(c, curves, T=Ts[k], check=wl.check)
        except Exception as e:  # a failed call is counted, never dropped
            times.add(perf_counter() - t0)
            gate.fail(k, f"run_pipeline raised {e!r}")
            continue
        dt = perf_counter() - t0
        times.add(dt)
        ok = gate.check(k, c, curves, res)
        if args.trace:
            try:
                run_k = tracing.traced_pipeline(rs, tracer, k, *load(rs, wl.instances[k]),
                                                Ts[k], wl.check)
                tracing.assert_same(res, run_k)
            except Exception as e:  # counted like any other failure
                gate.fail(k, f"traced run: {e!r}")
                ok = False
            else:
                traced.append(dt)
                runs.setdefault(k, run_k)
        verified += ok

    times.flush()
    failed = attempted - verified
    extras = {"calls": attempted, "failed_share": failed / attempted,
              "budget_wall_s": statistics.median(times.raw),
              "host_speed_factor": times.factor()}
    if attempted >= 100:
        extras["budget_p90_s"] = statistics.quantiles(times.scaled, n=10)[-1]
    gap = gate.power_gap_pct()
    if gap is not None:
        extras["power_gap_pct"] = gap
    if args.trace:
        metrics, stages = layer_metrics(tracer, traced, runs, parse_s, load_s,
                                        times.factor())
        extras["stage_s_per_call"] = " ".join(f"{n}={t!r}" for n, t in stages.items())
        counts = instance_counts(wl, runs)
        write_spans(args, tracer, counts)
        if len(counts) <= 16:
            extras.update((row["instance"], " ".join(
                f"{key}={val}" for key, val in row.items() if key != "instance"))
                for row in counts)
    else:
        metrics = {
            "setup_s": statistics.median(walls.scaled),
            "budget_s": statistics.median(times.scaled),
            "instances_per_s": verified / sum(times.scaled),
            "total_power": float(sum(ans[0].total_power for ans in gate.first.values())),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and len(gate.first) == len(wl.instances),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, extras, gate.failures


def layer_metrics(tracer, untraced: list[float], runs: dict, parse_s, load_s,
                  factor: float) -> tuple[dict, dict]:
    """Per-layer figures: times per traced call, counts over distinct instances.

    Also returns each stage's self time per traced call.  Times are scaled to
    the nominal host speed by the run's factor.
    """
    per_call = factor / max(1, len(untraced))  # scaled seconds per traced call
    own = tracer.self_times()
    by_name: dict[str, float] = {}
    pipeline_total = 0.0
    for s, t in zip(tracer.spans, own):
        if s.name == "pipeline":
            pipeline_total += s.end - s.start
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    out = {name: per_call * sum(by_name.get(n, 0.0) for n in spans)
           for name, spans in LAYER_SPANS.items()}
    stages = {n: per_call * by_name.get(n, 0.0) for n in tracing.STAGES}
    snap = sum(r.snapped.total_power for r in runs.values())
    final = sum(r.result.total_power for r in runs.values())
    repaired = [r for r in runs.values() if r.result.diagnostics["repair_steps"]]
    out.update({
        "circuit.parse_s": factor * statistics.median(parse_s),
        "power.load_curves_s": factor * statistics.median(load_s),
        "transform.arcs": sum(len(r.net.arcs) for r in runs.values()),
        "transform.nodes": sum(r.net.n_nodes for r in runs.values()),
        "transform.scale": max((r.net.scale for r in runs.values()), default=0),
        "mcf.relabels": sum(r.sol.iterations for r in runs.values()),
        "mcf.ssp_augmentations": sum(r.ssp_augmentations for r in runs.values()),
        "recovery.repair_steps": sum(len(r.result.diagnostics["repair_steps"])
                                     for r in runs.values()),
        "recovery.repaired_share": len(repaired) / max(1, len(runs)),
        "recovery.snap_power": float(snap),
        "recovery.repair_power_loss": float((final - snap) / snap) if snap else 0.0,
        "trace.overhead_s": per_call * (pipeline_total - sum(untraced)),
    })
    return out, stages


def instance_counts(wl, runs: dict) -> list[dict]:
    """Exact per-instance counts of the traced run, in instance order."""
    return [{
        "instance": wl.instances[k].name,
        "relabels": r.sol.iterations,
        "repair_steps": len(r.result.diagnostics["repair_steps"]),
        "arcs": len(r.net.arcs),
        "scale": r.net.scale,
        "snap_power": str(r.snapped.total_power),
        "power": str(r.result.total_power),
    } for k, r in sorted(runs.items())]


def write_spans(args, tracer, counts: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    doc = {"meta": metadata(args), "instances": counts,
           "columns": ["name", "start", "end", "parent", "instance"],
           "spans": tracer.to_json()}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "retislack" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'retislack'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        result, extras, failures = run(args)
    except (SetupError, ImportError, tracing.TraceMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']!r:>24} {m['unit']}")
    for name, value in extras.items():
        print(f"({name}) {value}")
    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
