"""The README's library example runs as printed, on the standard library alone,
and its list of the package's exports is the package's public names."""
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import retislack

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_needs_only_the_standard_library():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    expected = re.search(r"^# (.*)$", example, re.M).group(1)
    # modules imported before the example (site hooks) are not its doing
    script = ("import sys\nbefore = set(sys.modules)\n" + example +
              "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
              "print(sorted(new - set(sys.stdlib_module_names) - {'retislack'}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed, foreign = run.stdout.splitlines()
    assert printed == expected
    assert ast.literal_eval(foreign) == []


def test_package_exports_exactly_the_readmes_front_door():
    # a name joins or leaves the front door only with the README's list
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"exports the pipeline's front door.*\n\n((?:[- ] .*\n)+)",
                      readme).group(1)
    listed = re.findall(r"`(\w+)`", block)
    public = {name for name, value in vars(retislack).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(listed) == len(set(listed))
    assert set(listed) == public
