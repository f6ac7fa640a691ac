"""The README's library example runs as printed, on the standard library alone,
its list of the package's exports is the package's front door, and
`import retislack` loads only the input layer it describes."""
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import retislack

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str) -> list[str]:
    """Lines that `script` prints in a fresh interpreter importing src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_readme_library_example_needs_only_the_standard_library():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    expected = re.search(r"^# (.*)$", example, re.M).group(1)
    # modules imported before the example (site hooks) are not its doing
    script = ("import sys\nbefore = set(sys.modules)\n" + example +
              "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
              "print(sorted(new - set(sys.stdlib_module_names) - {'retislack'}))\n")
    printed, foreign = _run(script)
    assert printed == expected
    assert ast.literal_eval(foreign) == []


def test_package_exports_exactly_the_readmes_front_door():
    # a name joins or leaves the front door only with the README's list
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"exports the pipeline's front door.*\n\n((?:[- ] .*\n)+)",
                      readme).group(1)
    listed = re.findall(r"`(\w+)`", block)
    assert len(listed) == len(set(listed))
    assert listed == retislack.__all__
    for name in listed:
        assert name in dir(retislack)
        assert not isinstance(getattr(retislack, name), types.ModuleType), name
    public = {n for n in dir(retislack) if not n.startswith("_")
              and not isinstance(getattr(retislack, n), types.ModuleType)}
    assert public == set(listed)
    ns = {}
    exec("from retislack import *", ns)
    assert set(ns) - {"__builtins__"} == set(listed)
    with pytest.raises(AttributeError, match="'retislack' has no attribute 'nope'"):
        retislack.nope
    assert not hasattr(retislack, "nope")
    # perfbench reads rs.recovery, rs.mcf and rs.transform straight after a
    # fresh `import retislack`: the hook resolves each stage module
    for stage in ("retime", "transform", "mcf", "recovery", "exact"):
        assert stage in dir(retislack)
        assert retislack.__getattr__(stage) is sys.modules[f"retislack.{stage}"]


def test_import_loads_only_the_input_layer_and_stages_on_first_use():
    # a fresh interpreter, so no earlier import in this process can mask it;
    # the console script's sta and retime commands load no more than they run
    script = """
import contextlib, io, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "retislack")
import retislack
print(loaded())
from retislack import cli
for argv in (["sta", "fixtures/ring3.ckt", "--period", "6"],
             ["retime", "fixtures/ring3.ckt"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(loaded())
retislack.run_pipeline
print(loaded())
retislack.brute_force
print(loaded())
print(retislack.recovery.verify_result.__module__,
      retislack.mcf.solve_mcf.__module__, retislack.transform.expand.__module__)
"""
    *sets, modules = _run(script)
    start, sta, retime, pipeline, oracle = map(ast.literal_eval, sets)
    assert start == ["retislack", "retislack.circuit", "retislack.power"]
    assert sta == sorted(start + ["retislack.cli"])
    assert retime == sorted(sta + ["retislack.retime"])
    stages = ["retislack.mcf", "retislack.recovery", "retislack.transform"]
    assert pipeline == sorted(retime + stages)
    assert oracle == sorted(pipeline + ["retislack.exact"])
    assert modules == "retislack.recovery retislack.mcf retislack.transform"
