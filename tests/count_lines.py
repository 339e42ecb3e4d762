"""Line counts of the ``latcon`` package, one row per module, then the totals.

Each row gives a module's lines and its code lines: lines that are not
blank, not a comment and not inside a module, class or function
docstring, found with ``ast``.  Run from anywhere::

    python tests/count_lines.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latcon"


def _docstring_lines(tree: ast.Module) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(path: Path) -> tuple[int, int]:
    """All lines of ``path`` and its code lines."""
    text = path.read_text()
    doc = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1 for i, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in doc
    )
    return len(lines), code


def main() -> int:
    total_all = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        n_all, n_code = counts(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.stem:<16}{n_all:>7}{n_code:>7}")
    print(f"{'total':<16}{total_all:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
