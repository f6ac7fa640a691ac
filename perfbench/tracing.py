"""Spans around the program's public stage functions.

``traced_pipeline`` calls the stages of ``run_pipeline`` one by one, in the
order ``run_pipeline`` calls them, with a span around each call.
``check_stage_order`` reads that order from the source of ``run_pipeline``
and fails if it no longer matches, so a stage that is added, dropped or
moved stops the traced run instead of being timed under the wrong name.
"""
from __future__ import annotations

import ast
import inspect
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# run_pipeline's stage calls in source order; the last two run with check=True
STAGES = ("min_slack_period", "split_graph", "expand", "solve_mcf",
          "residual_potentials", "recover_duals", "recover_slacks",
          "snap_levels", "finalize", "ssp_oracle", "verify_result")


class TraceMismatch(RuntimeError):
    """The traced stages no longer reproduce run_pipeline."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    instance: int


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance: int):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, instance)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.instance] for s in self.spans]


def check_stage_order(rs) -> None:
    """Raise TraceMismatch unless run_pipeline calls exactly STAGES in order."""
    module = rs.recovery
    tree = ast.parse(textwrap.dedent(inspect.getsource(module.run_pipeline)))
    calls = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Call)),
                   key=lambda n: (n.lineno, n.col_offset))
    found = []
    for call in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        target = module.__dict__.get(name)
        if inspect.isfunction(target) and target.__module__.startswith("retislack"):
            found.append(name)
    if tuple(found) != STAGES:
        raise TraceMismatch(
            f"run_pipeline stages changed: expected {STAGES}, found {tuple(found)}")


@dataclass(frozen=True)
class TracedRun:
    tmin: int
    mu: tuple
    sbar: tuple
    net: object       # FlowNetwork
    sol: object       # FlowSolution
    snapped: object   # SlackAssignment before repair
    result: object    # BudgetResult
    ssp_augmentations: int


def traced_pipeline(rs, tr: Tracer, inst: int, c, curves, T=None,
                    check=False) -> TracedRun:
    """run_pipeline(c, curves, T, check=check), one span per stage call."""
    rec, mcf, tf = rs.recovery, rs.mcf, rs.transform
    with tr.span("pipeline", inst):
        with tr.span("min_slack_period", inst):
            tmin, _ = rec.min_slack_period(c, curves)
        if T is None:
            T = tmin
        elif T < tmin:
            raise rec.InfeasiblePeriodError(f"period {T} below minimum {tmin}")
        with tr.span("split_graph", inst):
            g = tf.split_graph(c, T, curves, None)
        with tr.span("expand", inst):
            net = tf.expand(g)
        with tr.span("solve_mcf", inst):
            sol = mcf.solve_mcf(net)
        with tr.span("residual_potentials", inst):
            pot = mcf.residual_potentials(net, sol, g.v0, sentinel=g.nff_bar)
        with tr.span("recover_duals", inst):
            mu, s_vals = rec.recover_duals(g, pot)
        with tr.span("recover_slacks", inst):
            sbar = rec.recover_slacks(g, c, s_vals)
        with tr.span("snap_levels", inst):
            snapped = rec.snap_levels(sbar, curves, c.delays)
        with tr.span("finalize", inst):
            result = rec.finalize(c, T, curves, snapped)
        augmentations = 0
        if check:
            with tr.span("ssp_oracle", inst):
                oracle = mcf.ssp_oracle(net)
            if oracle.cost != sol.cost:
                raise rec.RecoveryError(
                    f"flow cost {sol.cost} disagrees with the cross-check {oracle.cost}")
            augmentations = oracle.iterations
            with tr.span("verify_result", inst):
                rec.verify_result(c, result)
    return TracedRun(tmin, tuple(mu), tuple(sbar), net, sol, snapped, result,
                     augmentations)


def assert_same(ref, run: TracedRun) -> None:
    """Raise TraceMismatch unless the traced run equals run_pipeline's result."""
    got = run.result
    d = ref.diagnostics
    pairs = {
        "levels": (ref.assignment.levels, got.assignment.levels),
        "slacks": (ref.assignment.slacks, got.assignment.slacks),
        "powers": (ref.assignment.powers, got.assignment.powers),
        "retiming": (ref.retiming, got.retiming),
        "period": (ref.period, got.period),
        "achieved_period": (ref.achieved_period, got.achieved_period),
        "flow_cost": (d["flow_cost"], run.sol.cost),
        "solver_iterations": (d["solver_iterations"], run.sol.iterations),
        "repair_steps": (d["repair_steps"], got.diagnostics["repair_steps"]),
        "tmin": (d["tmin"], run.tmin),
        "mu": (tuple(d["mu"]), run.mu),
        "sbar": (tuple(d["sbar"]), run.sbar),
    }
    diff = [k for k, (a, b) in pairs.items() if a != b]
    if diff:
        raise TraceMismatch(f"traced run differs from run_pipeline in {diff}")
