"""Line counts of the ``latcon`` package, one row per module, then the totals.

Each row gives a module's lines and its code lines: lines that are not
blank, not a comment and not inside a module, class or function
docstring, found with ``ast``.  Run from anywhere::

    python tests/count_lines.py
    python tests/count_lines.py --against HEAD~1

With ``--against REV`` each row also gives the change in both counts
since the git revision ``REV``, whose modules are read with
``git show REV:src/latcon/<module>.py``; a module present on one side
only counts as empty on the other.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latcon"


def _docstring_lines(tree: ast.Module) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(text: str) -> tuple[int, int]:
    """All lines of the module source ``text`` and its code lines."""
    doc = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1 for i, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in doc
    )
    return len(lines), code


def table(new: dict[str, str], old: dict[str, str] | None = None) -> list[str]:
    """The rows for the module texts ``new``, by module name, then the
    totals; given the texts ``old`` of another revision, each row also
    gives the change in lines and in code lines since it."""
    delta = old is not None
    head = f"{'module':<16}{'lines':>7}{'code':>7}"
    rows = [head + f"{'Δlines':>8}{'Δcode':>7}" if delta else head]
    total = [0, 0, 0, 0]
    for name in sorted(new.keys() | (old or {}).keys()):
        n_all, n_code = counts(new.get(name, ""))
        o_all, o_code = counts(old.get(name, "")) if delta else (0, 0)
        cells = (n_all, n_code, n_all - o_all, n_code - o_code)
        total = [t + c for t, c in zip(total, cells)]
        rows.append(_row(name, cells, delta))
    rows.append(_row("total", total, delta))
    return rows


def _row(name: str, cells, delta: bool) -> str:
    row = f"{name:<16}{cells[0]:>7}{cells[1]:>7}"
    return row + f"{cells[2]:>+8}{cells[3]:>+7}" if delta else row


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def modules_at(rev: str) -> dict[str, str]:
    """The package's module texts at the git revision ``rev``."""
    names = _git("ls-tree", "--name-only", f"{rev}:src/latcon").split()
    return {
        name[:-3]: _git("show", f"{rev}:src/latcon/{name}")
        for name in names if name.endswith(".py")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print each module's change since this git revision")
    args = parser.parse_args(argv)
    new = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    old = None if args.against is None else modules_at(args.against)
    print("\n".join(table(new, old)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
