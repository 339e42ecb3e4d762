"""Equality, hashing and ``repr`` of the library's value classes, and the
one form of its records.

Each factory builds a fresh object, so two calls give equal objects that
are not the same one.  Every record, a report or the bookkeeping of a
gluing, is a ``typing.NamedTuple``: immutable, compared by value, and
unpacked in the order of its fields.  ``dataclasses`` is neither imported
by the package nor loaded by ``import latcon``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from latcon import birkhoff as bk
from latcon import congruence as cg
from latcon import construction as cn
from latcon import core
from latcon import rectangular as rl
from latcon import render as rd
from latcon import verify as vf

PACKAGE = Path(core.__file__).resolve().parent


def _poset():
    return core.Poset(3, [(0, 1), (0, 2)])


FACTORIES = {
    "FiniteLattice": lambda: core.chain(3),
    "Poset": _poset,
    "Congruence": lambda: cg.principal_congruence(core.chain(3), 0, 1),
    "RectLattice": lambda: rl.grid(2, 2),
    "IsotoneMap": lambda: bk.IsotoneMap(_poset(), _poset(), [0, 2, 1]),
    "BoundedHom": lambda: bk.make_bounded_hom(core.chain(3), core.chain(3), range(3)),
}

REPRS = {
    **FACTORIES,
    "GluedLattice": lambda: rl.glue(core.chain(2), core.chain(3), {1: 0}),
    "TripleGluingAssembly": lambda: rl.triple_glue(*[rl.grid(2, 2)] * 4)[1],
}

TEXTS = {
    "FiniteLattice": "FiniteLattice(n=3, covers=2)",
    "Poset": "Poset(n=3, covers=[(0, 1), (0, 2)])",
    "Congruence": "Congruence({0,1}, {2})",
    "RectLattice": "RectLattice(n=4, lc=2, rc=1, chains=(2,2,2,2), eyes=[])",
    "IsotoneMap": "IsotoneMap((0, 2, 1))",
    "BoundedHom": "BoundedHom((0, 1, 2))",
    "GluedLattice": "GluedLattice(n=4, lower=2, upper=3, shared=1)",
    "TripleGluingAssembly": "TripleGluingAssembly(n=9, c=3, pieces=(4,4,4,4))",
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_no_object_of_another_class_is_equal(name):
    x = FACTORIES[name]()
    assert x.__eq__(object()) is NotImplemented
    assert x != object() and not x == object()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_objects_hash_equal(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b and a == b and a == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_exact(name):
    assert repr(REPRS[name]()) == TEXTS[name]


# each record of the package and its fields, in order
RECORDS = {
    bk.BrtReport: ("round_trip_ok", "injective", "ji_onto", "onto", "ji_embedding", "witness"),
    cg._Partitions: ("congruences", "rows"),
    cn.EyeRecord: ("flap", "cell", "color_x", "color_y"),
    cn.ConstructionReport: ("embedded_f", "embedded_g", "eye_log", "assembly", "inner",
                            "verification"),
    cn.ChainCollapseReport: ("holds", "witnesses"),
    vf.CheckResult: ("name", "passed", "witness"),
    vf.VerificationReport: ("checks",),
    rl.Cell: ("bottom", "top", "left", "right", "middles"),
    rl.GluedLattice: ("lattice", "a_lattice", "b_lattice", "a_map", "b_map", "shared", "iso"),
    rl.TripleGluingAssembly: ("top", "bottom", "left", "right", "c", "result",
                              "t_map", "b_map", "lf_map", "rf_map"),
    rd.RenderSpec: ("coords", "steep"),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_frozen_named_tuple(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == RECORDS[cls]
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.stem, name) for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONPATH, so the program puts the package on its path itself
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import latcon, latcon.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
