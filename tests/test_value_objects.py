"""Equality, hashing and ``repr`` of the library's value classes.

Each factory builds a fresh object, so two calls give equal objects that
are not the same one.
"""

import pytest

from latcon import birkhoff as bk
from latcon import congruence as cg
from latcon import core
from latcon import rectangular as rl


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

