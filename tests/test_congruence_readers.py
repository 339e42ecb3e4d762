"""Who reads congruences as class tables, found with ``ast``.

Con L keeps its join-irreducible congruences only as the coloring, so a
class table or a :class:`~latcon.congruence.Congruence` is built in
``latcon.congruence`` alone, and no other module reads one: ``jsonio``
writes Con L off the numbered covers, and the verifier reads no list of
all congruences at all.
"""

import ast
from pathlib import Path

from latcon import congruence as cg

PACKAGE = Path(cg.__file__).resolve().parent


def _modules():
    """Each module of the package by name, as its parsed tree."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _attributes(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _read(tree):
    """The attributes ``tree`` reads other than as a method it calls, so
    ``row.index(x)`` of a list or a tuple does not count."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in called}


def _called(tree):
    """The names of what ``tree`` calls, as a bare name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            out.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return out


def test_no_module_reads_class_tables_outside_congruence():
    readers = sorted(name for name, tree in _modules().items()
                     if name != "congruence" and _read(tree) & {"theta_cls", "index", "cls"})
    assert readers == []


def test_a_called_index_method_is_no_read():
    tree = ast.parse("row.index(b)\ncon.index[c]\nt.cls")
    assert _read(tree) == {"index", "cls"}
    assert _read(ast.parse("row.index(b)")) == set()


def test_only_congruence_builds_a_congruence():
    builders = sorted(name for name, tree in _modules().items() if "Congruence" in _called(tree))
    assert builders == ["congruence"]


def test_verify_reads_no_list_of_congruences():
    tree = _modules()["verify"]
    assert _attributes(tree) & {"index", "congruences", "theta_cls", "_build"} == set()
    assert "Congruence" not in _called(tree)


def test_con_lattice_has_no_index():
    assert not hasattr(cg.ConLattice, "index")
    assert "index" not in cg._Partitions._fields


def test_con_lattice_has_no_theta_cls():
    assert not hasattr(cg.ConLattice, "theta_cls")


def test_con_lattice_keeps_no_class_table():
    assert "theta_cls" not in cg.ConLattice.__slots__
    names = {node.id for tree in _modules().values() for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    names |= {a for tree in _modules().values() for a in _attributes(tree)}
    assert names & {"_restricted_key", "_ji_restriction"} == set()
