"""Fast checks of the benchmark harness itself, on few-gate instances.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""
import dataclasses
import json
from pathlib import Path

import pytest

import hostspeed
import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(capsys, trace, seed=3, errors=None):
    code = run.main(["--workload", "smoke", "--seed", str(seed),
                     "--seconds", "0.2", "--trace", str(trace)])
    captured = capsys.readouterr()
    if errors is not None:
        errors.append(captured.err)
    return code, json.loads(captured.out.strip().splitlines()[-1])


def _assert_matches_spec(result, key):
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_end_to_end_metrics(capsys):
    code, res = _bench(capsys, 0)
    assert code == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    _assert_matches_spec(res, "end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_matches_and_reports_every_layer(capsys):
    code, res = _bench(capsys, 1)
    assert code == 0 and res["correct"]
    _assert_matches_spec(res, "per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # the smoke workload runs with check=True, so every stage is reached
    for name in run.LAYER_SPANS:
        assert m[name] > 0, name
    assert m["mcf.relabels"] > 0 and m["mcf.ssp_augmentations"] > 0
    assert m["transform.arcs"] > m["transform.nodes"] > 0
    spans = json.loads((run.OUT / "spans-smoke-seed3.json").read_text())
    assert spans["meta"]["seed"] == 3 and spans["spans"]


def test_counts_repeat_for_a_seed(capsys):
    _, a = _bench(capsys, 1, seed=5)
    _, b = _bench(capsys, 1, seed=5)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert [a["metrics"][k] for k in counts] == [b["metrics"][k] for k in counts]


def test_stage_order_change_fails_loudly(monkeypatch):
    rs = run.fresh_import()
    tracing.check_stage_order(rs)
    monkeypatch.setattr(tracing, "STAGES", tracing.STAGES[:-1])
    with pytest.raises(tracing.TraceMismatch):
        tracing.check_stage_order(rs)


def test_traced_difference_is_detected():
    rs = run.fresh_import()
    wl = run.workloads.smoke(rs, 1)
    c = rs.parse_circuit(wl.instances[0].circuit_text)
    curves = rs.load_curves(wl.instances[0].curves_text, c)
    ref = rs.run_pipeline(c, curves)
    traced = tracing.traced_pipeline(rs, tracing.Tracer(), 0, c, curves)
    tracing.assert_same(ref, traced)
    bad = dataclasses.replace(ref, achieved_period=ref.achieved_period + 1)
    with pytest.raises(tracing.TraceMismatch):
        tracing.assert_same(bad, traced)


def _raise(res, n):
    raise RuntimeError("solver crashed")


def _below_optimum(res, n):
    a = res.assignment
    return dataclasses.replace(res, assignment=dataclasses.replace(
        a, powers=tuple(p - 1 for p in a.powers)))


def _wrong_period(res, n):
    return dataclasses.replace(res, achieved_period=res.achieved_period + 1)


def _changes_on_repeat(res, n):
    return res if n <= 3 else dataclasses.replace(res, period=res.period + 1)


@pytest.mark.parametrize("corrupt, why", [
    (_raise, "run_pipeline raised"),
    (_below_optimum, "below the optimum"),
    (_wrong_period, "achieved period mismatch"),
    (_changes_on_repeat, "differs from the first call"),
])
def test_wrong_answer_fails_the_run(monkeypatch, capsys, corrupt, why):
    real_import = run.fresh_import
    calls = []

    def corrupted_import():
        rs = real_import()
        real = rs.run_pipeline

        def run_pipeline(*args, **kwargs):
            calls.append(None)
            return corrupt(real(*args, **kwargs), len(calls))
        monkeypatch.setattr(rs, "run_pipeline", run_pipeline)
        return rs
    monkeypatch.setattr(run, "fresh_import", corrupted_import)
    errors = []
    code, res = _bench(capsys, 0, errors=errors)
    assert code == 1 and why in errors[0]
    assert not res["correct"] and res["failed"] > 0
    assert res["attempted"] == len(calls) > 3


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    code = run.main(["--workload", "smoke", "--seed", "1", "--seconds", "0.1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_host_speed_scales_by_bracketing_reference(monkeypatch):
    refs = iter([0.004, 0.004, 0.001])
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda window: next(refs))
    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", float("inf"))
    hs = hostspeed.HostSpeed()
    hs.add(1.0)
    hs.add(2.0)
    hs.flush()
    hs.add(1.0)
    hs.flush()
    nominal = hostspeed.REF_NOMINAL_S
    assert hs.raw == [1.0, 2.0, 1.0]
    assert hs.scaled == pytest.approx([nominal / 0.004, 2 * nominal / 0.004,
                                       nominal / 0.0025])
