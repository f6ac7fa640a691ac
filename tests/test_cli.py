"""Command-line interface: exit codes, reports, CSV/JSON artifacts."""
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import retislack
from retislack import cli, load_curves, parse_circuit, recovery, run_pipeline
from retislack.cli import main
from conftest import RING3_TEXT

ROOT = Path(__file__).resolve().parents[1]
CURVES_TEXT = '{"default": [[0, 100], [10, 60], [20, 30], [33, 10]]}'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_sta_ok(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    assert main(["sta", ckt, "--period", "6"]) == 0
    out = capsys.readouterr().out
    assert "period 6 met" in out
    rows = [line.split() for line in out.splitlines()[1:4]]
    assert [r[0] for r in rows] == ["a", "b", "c"]
    assert [r[3] for r in rows] == ["1", "1", "2"]


def test_sta_violated(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    assert main(["sta", ckt, "--period", "4"]) == 2
    assert "violated" in capsys.readouterr().out


def test_sta_with_extra_slack(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    slacks = write(tmp_path, "s.json", '{"a": 1}')
    assert main(["sta", ckt, "--period", "7", "--slacks", slacks]) == 0


def test_sta_bad_slack_file_is_input_error(tmp_path, capsys):
    # one error line that names the slack file
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    for text, msg in (('{"zz": 1}', "unknown gate 'zz'"),
                      ("[1, 2]", "must be a JSON object"),
                      ('{"a": null}', "not an integer"),
                      ('{"a": 1.5}', "not an integer"),
                      ('{"a": -5}', "gate a: negative effective delay"),
                      ('{"a": ', "Expecting value")):
        slacks = write(tmp_path, "s.json", text)
        assert main(["sta", ckt, "--period", "7", "--slacks", slacks]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {slacks}: ")
        assert msg in err[0]


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["sta", str(tmp_path / "nope.ckt"), "--period", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_circuit_is_input_error(tmp_path, capsys):
    ckt = write(tmp_path, "bad.ckt", "gate a x\n")
    assert main(["sta", ckt, "--period", "5"]) == 1


def test_bench_parse_error_names_its_file(tmp_path, capsys):
    write(tmp_path, "good.ckt", RING3_TEXT)
    bad = write(tmp_path, "z_bad.ckt", "gate a 1\nedge a zz 1\n")
    assert main(["bench", "--dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: unknown gate 'zz'\n"


@pytest.mark.parametrize("argv", [["budget"],
                                  ["sta", "fixtures/ring3.ckt", "--period", "x"],
                                  []])
def test_usage_error_is_input_error(capsys, argv):
    # exit 1, not argparse's 2, which means an infeasible period
    assert main(argv) == 1
    assert "usage: retislack" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: retislack" in capsys.readouterr().out


def test_retime_reports_min_period(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    assert main(["retime", ckt]) == 0
    out = capsys.readouterr().out
    assert "Tmin 5" in out
    assert "retiming" in out


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_quietly(unbuffered):
    # the read end is closed before the child starts, so its first write (or
    # its flush, when stdout is buffered) fails every time
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r, w = os.pipe()
    os.close(r)
    try:
        run = subprocess.run([sys.executable, "-m", "retislack.cli", "retime",
                              "fixtures/correlator.ckt"], cwd=ROOT, env=env,
                             stdout=w, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(w)
    assert run.stderr == b""
    assert run.returncode == cli.EXIT_OK


def test_retime_fixed_period(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    assert main(["retime", ckt, "--period", "9"]) == 0
    assert main(["retime", ckt, "--period", "4"]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_budget_ring3(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    assert main(["budget", ckt, cur, "--check"]) == 0
    out = capsys.readouterr().out
    assert "period      5" in out
    assert "total_power 300" in out


def _fix_stages(monkeypatch):
    """Make the run_pipeline the CLI reaches through the package's front door
    report stage times summing to 1.75 s."""
    def run(*args, **kwargs):
        result = run_pipeline(*args, **kwargs)
        result.diagnostics["stages"] = {"a": 0.25, "b": 1.5}
        return result
    monkeypatch.setattr(retislack, "run_pipeline", run)


def test_budget_runtime_is_the_sum_of_the_stages(tmp_path, capsys, monkeypatch):
    _fix_stages(monkeypatch)
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    assert main(["budget", ckt, cur]) == 0
    assert "runtime_ms  1750.0\n" in capsys.readouterr().out


def test_bench_runtime_is_the_sum_of_the_stages(tmp_path, capsys, monkeypatch):
    _fix_stages(monkeypatch)
    assert main(["bench", "--gen", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["runtime_ms"] for r in rows] == ["1750.0", "1750.0", "1750.0", ""]


def test_budget_below_min_period(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    assert main(["budget", ckt, cur, "--period", "4"]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_budget_bad_curves(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", '{"default": [[0, 10], [5, 20]]}')
    assert main(["budget", ckt, cur]) == 1


def test_budget_fractional_power_is_input_error(tmp_path, capsys):
    # an input error, not a solver guard tripping on unscalable rationals
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json",
                '{"default": [[0, 100.1], [10, 60], [20, 30.3], [33, 10]]}')
    assert main(["budget", ckt, cur]) == 1
    assert f"error: {cur}: curve for 'default'" in capsys.readouterr().err


def test_bench_bad_levels_file_names_it(tmp_path, capsys):
    levels = write(tmp_path, "c.json", '{"default": [[0, 10], [5, 20]]}')
    assert main(["bench", "--gen", "1", "--levels", levels]) == 1
    assert capsys.readouterr().err == (
        f"error: {levels}: curve for 'default': increasing power at slack 5\n")


def test_budget_prime_curve_ring_checks(tmp_path, capsys):
    # slopes 1000/p over 20 primes p: the capacity scale is their product,
    # so cost x capacity is far beyond 64 bits, and the budget still verifies
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83)
    ckt = write(tmp_path, "ring.ckt",
                "".join(f"gate g{i} 3\n" for i in range(20)) +
                "".join(f"edge g{i} g{(i + 1) % 20} {int(i % 3 == 2)}\n"
                        for i in range(20)))
    cur = write(tmp_path, "c.json", json.dumps(
        {f"g{i}": [[0, 1000], [p, 0]] for i, p in enumerate(primes)}))
    assert main(["budget", ckt, cur, "--check"]) == 0
    out = capsys.readouterr().out
    assert "achieved    12" in out and "total_power 19000" in out


def _spoil(monkeypatch, stage, **changes):
    """Make run_pipeline's `stage` return its result with these fields."""
    real = getattr(recovery, stage)
    monkeypatch.setattr(recovery, stage,
                        lambda *args: dataclasses.replace(real(*args), **changes))


@pytest.mark.parametrize("stage, changes, msg", [
    ("ssp_oracle", {"cost": -1}, "disagrees with the cross-check -1"),
    # an illegal retiming, not an input error
    ("finalize", {"retiming": (5, 0, 0)},
     "edge (0, 1): FF count -5 negative under retiming"),
    ("finalize", {"achieved_period": 4}, "achieved period mismatch"),
], ids=["flow_cost", "retiming", "achieved_period"])
def test_budget_check_failure_exits_3(tmp_path, capsys, monkeypatch, stage,
                                      changes, msg):
    _spoil(monkeypatch, stage, **changes)
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    assert main(["budget", ckt, cur, "--check"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and msg in err


def test_budget_json_document(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    out_path = tmp_path / "out.json"
    assert main(["budget", ckt, cur, "--period", "6",
                 "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["period"] == 6
    assert set(doc["gates"]) == {"a", "b", "c"}
    for rec in doc["gates"].values():
        assert set(rec) == {"slack", "power"}
    assert set(doc["retiming"]) == {"a", "b", "c"}
    diag = doc["diagnostics"]
    assert set(diag) == {"tmin", "repair_steps", "solver_iterations",
                         "solver_phases", "flow_cost", "snap_power",
                         "fill_steps", "probes", "arcs", "nodes", "scale",
                         "stages"}
    assert diag["tmin"] == 5
    assert isinstance(diag["repair_steps"], int) and diag["repair_steps"] >= 0
    assert isinstance(diag["solver_iterations"], int)
    assert isinstance(diag["solver_phases"], int) and diag["solver_phases"] >= 0
    assert isinstance(diag["flow_cost"], int)
    assert isinstance(diag["fill_steps"], int) and diag["fill_steps"] >= 0
    assert 1 <= diag["probes"] <= 12
    # power strings as in the rest of the document; the fill never leaves
    # the answer above the all-minimum power (3 gates at 100)
    assert Fraction(diag["snap_power"]) <= 300
    assert Fraction(doc["total_power"]) <= 300


def test_budget_check_json_reports_the_cross_check(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    out_path = tmp_path / "out.json"
    assert main(["budget", ckt, cur, "--period", "6", "--check",
                 "--json", str(out_path)]) == 0
    diag = json.loads(out_path.read_text())["diagnostics"]
    assert set(diag) == {"tmin", "repair_steps", "solver_iterations",
                         "solver_phases", "flow_cost", "snap_power",
                         "fill_steps", "probes", "checked",
                         "oracle_augmentations", "oracle_phases", "arcs",
                         "nodes", "scale", "stages"}
    assert diag["checked"] is True
    assert 0 <= diag["oracle_phases"] <= diag["oracle_augmentations"]


@pytest.mark.parametrize("check", [False, True])
def test_budget_json_diagnostics_match_run_pipeline(tmp_path, capsys, check):
    # every diagnostic but the per-node vectors, with the two conversions
    out_path = tmp_path / "out.json"
    argv = ["budget", "fixtures/ring11.ckt", "fixtures/curves4.json",
            "--json", str(out_path)]
    assert main(argv + ["--check"] * check) == 0
    got = json.loads(out_path.read_text())["diagnostics"]
    with open("fixtures/ring11.ckt") as f:
        c = parse_circuit(f.read())
    with open("fixtures/curves4.json") as f:
        want = dict(run_pipeline(c, load_curves(f.read(), c),
                                 check=check).diagnostics)
    del want["mu"], want["sbar"]
    want["repair_steps"] = len(want["repair_steps"])
    want["snap_power"] = str(want["snap_power"])
    # the document sorts its keys; run_pipeline lists the stages in call order
    assert sorted(got.pop("stages")) == sorted(want.pop("stages"))
    assert got == want


def test_budget_json_unwritable_path_is_input_error(tmp_path, capsys):
    ckt = write(tmp_path, "r.ckt", RING3_TEXT)
    cur = write(tmp_path, "c.json", CURVES_TEXT)
    path = str(tmp_path / "missing" / "out.json")
    assert main(["budget", ckt, cur, "--json", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")


def test_bench_generated_deterministic(tmp_path, capsys):
    args = ["bench", "--gen", "4", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def strip_runtime(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    # identical apart from the measured wall-clock column
    assert strip_runtime(second) == strip_runtime(first)
    lines = first.strip().splitlines()
    assert lines[0].split(",") == [
        "name", "gates", "edges", "Tmin", "power_flow", "power_oracle",
        "slack_flow", "slack_oracle", "runtime_ms"]
    assert len(lines) == 1 + 4 + 2  # header, cases, Avg + Diff footers
    assert lines[-2].startswith("Avg,")
    assert lines[-1].startswith("Diff,")


def test_bench_zero_cases(tmp_path, capsys):
    assert main(["bench", "--gen", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # header only


def test_bench_negative_count_is_input_error(capsys):
    assert main(["bench", "--gen", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --gen -2")


def test_bench_rows_keep_the_case_order_past_999(capsys, monkeypatch):
    # case1000 comes after case999; a sort by name puts it after case100
    one = parse_circuit("gate a 1\n")
    monkeypatch.setattr(cli, "generate_random", lambda *args, **kwargs: one)
    assert main(["bench", "--gen", "1001"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["name"] for r in rows[:-2]] == [f"case{i:03d}" for i in range(1001)]


def test_bench_dir_rows_follow_the_case_names(tmp_path, capsys):
    # by case name, "a" before "a-b"; by file name, "a-b.ckt" sorts first
    for name in ("a-b", "a"):
        write(tmp_path, name + ".ckt", "gate g 1\n")
    write(tmp_path, "notes.txt", "not a circuit\n")
    assert main(["bench", "--dir", str(tmp_path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["name"] for r in rows[:-2]] == ["a", "a-b"]


def test_bench_footer_rows_leave_unset_fields_blank(tmp_path, capsys):
    # Avg fills name, power_flow, slack_flow and runtime_ms; Diff fills name,
    # and power_flow and slack_flow only when some case met the oracle
    blank_avg = ["gates", "edges", "Tmin", "power_oracle", "slack_oracle"]
    with open("fixtures/ring11.ckt") as f:
        write(tmp_path, "ring11.ckt", f.read())  # too large for the oracle
    for argv, compared in ((["bench", "--gen", "3", "--seed", "3"], True),
                           (["bench", "--dir", str(tmp_path)], False)):
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        avg, diff = rows[-2], rows[-1]
        assert avg["name"] == "Avg" and diff["name"] == "Diff"
        assert all(avg[k] == "" for k in blank_avg)
        assert all(avg[k] != "" for k in ("power_flow", "slack_flow", "runtime_ms"))
        filled = {"name", "power_flow", "slack_flow"} if compared else {"name"}
        assert {k for k, v in diff.items() if v != ""} == filled
        cases = rows[:-2]
        assert all(r["power_oracle"] != "" for r in cases) == compared
        assert all(r["gates"] != "" and r["runtime_ms"] != "" for r in cases)


def test_bench_directory_and_csv_file(tmp_path, capsys):
    write(tmp_path, "ring3.ckt", RING3_TEXT)
    # the fixtures' first row is the Leiserson-Saxe correlator, 24 -> Tmin 13
    for path, first_row in ((tmp_path, "ring3,3,3,5,300,300,"),
                            (ROOT / "fixtures", "correlator,8,11,13,")):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(path), "--check",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[1].startswith(first_row)


def test_bench_zero_optimum_power(tmp_path, capsys):
    # a zero-power curve makes the brute-force optimum 0: the Diff footer
    # must not divide by it
    write(tmp_path, "ring3.ckt", RING3_TEXT)
    levels = write(tmp_path, "zero.json", '{"default": [[0, 0]]}')
    assert main(["bench", "--dir", str(tmp_path), "--levels", levels]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("ring3,3,3,") and ",0,0," in lines[1]
    assert lines[-1].startswith("Diff,")
    assert len(lines) == 1 + 1 + 2  # header, one case, Avg + Diff footers


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_unreadable_dir_is_input_error(tmp_path, capsys, kind):
    # a missing directory, or a path that is a file, is one error line
    path = (str(tmp_path / "missing") if kind == "missing"
            else write(tmp_path, "ring3.ckt", RING3_TEXT))
    assert main(["bench", "--dir", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}: ")


def test_bench_csv_unwritable_path_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "missing" / "bench.csv")
    assert main(["bench", "--gen", "1", "--csv", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")
