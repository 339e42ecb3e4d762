"""Who reaches the trusted entries of ``core``, found with ``ast`` and by
running.

``core._trusted_lattice`` numbers and closes cover rows with none of the
checks of ``make_lattice_with_map``, and ``core._poset_of_up_sets`` reads a
poset off up-set masks with none of the checks of ``Poset``.  So only code
whose rows or masks are a lattice's or an order's by theorem may call
them: the planar constructors ``grid_with_eyes``, ``insert_eye`` and
``_assemble`` (so ``glue`` and ``triple_glue``), ``direct_product`` and
``ConLattice.as_lattice`` the one, ``join_irreducibles`` and
``congruence``'s order of the colors the other.  The modules that read
outside input, ``jsonio`` and ``cli``, reference neither.  The checked
entry is reached only where the element set or the rows come from outside
the library: ``jsonio``, the catalog's literal constructors, ``chain`` and
``sublattice``; and no module of the package constructs a ``Poset``.
Likewise only a lattice from outside goes through ``make_rectangular``:
files, catalog names and the literal diamonds and fork.
"""

import ast
import json
from pathlib import Path

import pytest

from latcon import catalog, core
from latcon import congruence as cg
from latcon import jsonio as jio
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import LatconError

PACKAGE = Path(core.__file__).resolve().parent
TRUSTED = "_trusted_lattice"
POSET_READER = "_poset_of_up_sets"

# each trusted entry and the (module, function) pairs that may call it
ALLOWED = {
    TRUSTED: {("rectangular", "grid_with_eyes"), ("rectangular", "insert_eye"),
              ("rectangular", "_assemble"), ("core", "direct_product"),
              ("congruence", "ConLattice.as_lattice")},
    POSET_READER: {("core", "join_irreducibles"), ("congruence", "_color_poset")},
}

# the callers of the checked entry, through ``make_lattice`` or directly
CHECKED_CALLERS = {("jsonio", "lattice_from_obj_with_map"), ("catalog", "s7"),
                   ("catalog", "n5"), ("catalog", "diamond"), ("core", "chain"),
                   ("core", "sublattice")}


# the callers of the rectangular recognizer: a file, a catalog name, and
# the two literal rectangular lattices of the catalog
RECOGNIZER_CALLERS = {("jsonio", "rect_from_obj"), ("cli", "_catalog_rect"),
                      ("catalog", "diamond"), ("catalog", "s7")}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _mentions(node, name):
    return any((isinstance(sub, ast.Name) and sub.id == name)
               or (isinstance(sub, ast.Attribute) and sub.attr == name)
               for sub in ast.walk(node))


def _referencing_functions(tree, name):
    """The names of the functions of ``tree`` that mention ``name`` as a
    bare name or an attribute: an outermost function by its name, a
    method as ``Class.method``, and ``<module>`` for a mention at the top
    level or in a class body outside its methods."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if _mentions(item, name):
                        out.add(f"{node.name}.{item.name}")
                elif _mentions(item, name):
                    out.add("<module>")
        elif _mentions(node, name):
            out.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return out


def _callers(name):
    return {(module, f) for module, tree in _modules().items()
            for f in _referencing_functions(tree, name)}


@pytest.mark.parametrize("entry", sorted(ALLOWED))
def test_each_trusted_entry_has_its_allowed_callers(entry):
    assert _callers(entry) == ALLOWED[entry]


def test_input_readers_build_through_the_checked_entry():
    modules = _modules()
    for module in ("jsonio", "cli"):
        for name in (*ALLOWED, "grid_with_eyes", "insert_eye", "_assemble", "glue"):
            assert not _referencing_functions(modules[module], name), (module, name)
    assert "lattice_from_obj_with_map" in _referencing_functions(
        modules["jsonio"], "make_lattice_with_map")
    assert "rect_from_obj" in _referencing_functions(modules["jsonio"], "make_rectangular")


def test_the_checked_entry_has_its_listed_callers():
    found = _callers("make_lattice_with_map") | _callers("make_lattice")
    assert found - {("core", "make_lattice")} == CHECKED_CALLERS


def test_the_recognizer_has_its_listed_callers():
    # the constructors of ``rectangular`` state their corners and eyes
    assert _callers("make_rectangular") == RECOGNIZER_CALLERS


def _poset_calls(tree):
    """The lines of ``tree`` that call ``Poset`` as a bare name or an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "Poset" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_no_module_constructs_a_poset():
    assert {module: _poset_calls(tree) for module, tree in _modules().items()
            if _poset_calls(tree)} == {}
    assert _poset_calls(ast.parse("P = core.Poset(2, [])\nQ = Poset(1, [])\n")) == [1, 2]


def test_the_guard_sees_a_reference():
    tree = ast.parse("def f():\n    return core._trusted_lattice(u, l)\nx = _trusted_lattice\n"
                     "class C:\n    y = _trusted_lattice\n    def g(self):\n"
                     "        return _trusted_lattice\n")
    assert _referencing_functions(tree, TRUSTED) == {"f", "<module>", "C.g"}


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


def test_the_allowed_callers_do_reach_it(no_trusted_build):
    con = cg.congruence_lattice(core.chain(3))
    for build in (lambda: rl.grid(2, 2), lambda: catalog.s7_eye(0),
                  lambda: rl.glue(core.chain(2), core.chain(2), {1: 0}),
                  lambda: core.direct_product(core.chain(2), core.chain(2)), con.as_lattice):
        with pytest.raises(AssertionError, match="trusted entry was reached"):
            build()
