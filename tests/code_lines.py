"""Line counts of the library, per module and in total.

Usage: python tests/code_lines.py

`lines` is what `wc -l` prints.  `code` leaves out blank lines, lines that
hold only a `#` comment, and the lines of module, class and function
docstrings.
"""
import ast
import os
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one Python source text."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in doc)
    return text.count("\n"), code


def main() -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "retislack")
    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as f:
                lines, code = counts(f.read())
            total[0] += lines
            total[1] += code
            print(f"{name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
