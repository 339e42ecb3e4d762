"""Who reaches ``core._trusted_lattice``, found with ``ast`` and by running.

The trusted entry numbers and closes cover rows with none of the checks of
``make_lattice_with_map``, so only constructors whose rows are a lattice's
by theorem may call it: ``grid_with_eyes``, ``insert_eye`` and
``_assemble`` (so ``glue`` and ``triple_glue``).  The modules that read
outside input, ``jsonio`` and ``cli``, build through the checked entry.
"""

import ast
import json
from pathlib import Path

import pytest

from latcon import catalog, core
from latcon import jsonio as jio
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import LatconError

PACKAGE = Path(core.__file__).resolve().parent
TRUSTED = "_trusted_lattice"


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _referencing_functions(tree, name):
    """The names of the outermost functions of ``tree`` that mention
    ``name`` as a bare name or an attribute; ``<module>`` for a mention at
    the top level."""
    out = set()
    for node in tree.body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name) or (
                    isinstance(sub, ast.Attribute) and sub.attr == name):
                out.add(where)
    return out


def test_only_the_planar_constructors_reference_the_trusted_entry():
    found = {(module, f) for module, tree in _modules().items()
             for f in _referencing_functions(tree, TRUSTED)}
    assert found == {("rectangular", "grid_with_eyes"), ("rectangular", "insert_eye"),
                     ("rectangular", "_assemble")}


def test_input_readers_build_through_the_checked_entry():
    modules = _modules()
    for module in ("jsonio", "cli"):
        for name in (TRUSTED, "grid_with_eyes", "insert_eye", "_assemble", "glue"):
            assert not _referencing_functions(modules[module], name), (module, name)
    assert "lattice_from_obj_with_map" in _referencing_functions(
        modules["jsonio"], "make_lattice_with_map")
    assert "rect_from_obj" in _referencing_functions(modules["jsonio"], "make_rectangular")


def test_the_guard_sees_a_reference():
    tree = ast.parse("def f():\n    return core._trusted_lattice(u, l)\nx = _trusted_lattice\n")
    assert _referencing_functions(tree, TRUSTED) == {"f", "<module>"}


@pytest.fixture
def no_trusted_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("the trusted entry was reached")

    monkeypatch.setattr(core, TRUSTED, refuse)


def test_reading_files_never_reaches_the_trusted_entry(no_trusted_build, tmp_path):
    grid = {"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]], "lc": 1, "rc": 2, "eyes": []}
    R = jio.rect_from_obj(grid)
    assert R.n == 4 and (R.lc, R.rc) == (1, 2)
    assert jio.lattice_from_obj({"size": 2, "covers": [[0, 1]]}).n == 2
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["con", str(path)]) == 0
    assert main(["check-ideal", str(path)]) == 0


def test_a_bad_file_is_refused_by_the_checks(no_trusted_build):
    with pytest.raises(LatconError):
        jio.rect_from_obj({"size": 4, "covers": [[0, 1], [0, 2], [1, 3]], "lc": 2, "rc": 1,
                           "eyes": []})


def test_the_planar_constructors_do_reach_it(no_trusted_build):
    for build in (lambda: rl.grid(2, 2), lambda: catalog.s7_eye(0),
                  lambda: rl.glue(core.chain(2), core.chain(2), {1: 0})):
        with pytest.raises(AssertionError, match="trusted entry was reached"):
            build()
