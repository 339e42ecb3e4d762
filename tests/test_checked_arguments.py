"""The checked public surface: a bad element id or size fails as a named
``LatconError``, never as a silent wrong answer or a bare
``IndexError``/``TypeError``/``ValueError``.

``ID_ROWS`` and ``ROWS`` pin the exact error and text of cases that once
went wrong.  ``CONTRACT`` is the contract itself: one row per argument
that takes an element id, a collection of ids or a size, for every public
function and class constructor of ``core``, ``congruence``, ``birkhoff``,
``rectangular``, ``catalog``, ``construction`` and ``verify`` and every
public method of ``FiniteLattice``, ``Poset``, ``BoundedHom``,
``IsotoneMap``, ``ConLattice``, ``Congruence`` and ``RectLattice``.  An id
is tried as ``-1``, the size ``n`` of what it indexes, ``1.5``, ``"a"``
and ``None``; a collection holds one of these or ``[0]``; a size is tried
as ``-1``, ``1.5``, ``"a"``, ``None`` and ``True``.  ``NO_ID`` lists the
public callables that take no id or size, ``BUILT_BY_LIBRARY`` the public
classes whose instances the library builds, and a guard fails on any
callable or class in none of the three.

The contract covers ids and sizes only, and the shape of a list of pairs
from outside: the cover pairs of ``make_lattice`` and ``Poset`` and the
identification of ``rectangular.glue`` are read by one pair reader,
``core._pairs``, so a list that is not iterable or an entry that is no
pair fails as a named ``LatconError``, pinned in ``ROWS``.
``NOT_ITERABLE`` pins the error and text of each collection argument
given ``5`` or ``None`` in place of a collection.  Out of its scope:

- an argument of the wrong object type, such as ``cells(L)`` on a
  ``FiniteLattice`` or ``congruence_lattice("a")``, which raises a bare
  error: that is a caller bug, not outside input;
- the ``KeyError`` of the ``ConLattice.colors`` mapping on a pair that is
  no cover, which is its documented ``Mapping`` protocol;
- the constructors in ``BUILT_BY_LIBRARY``: ``Congruence(L, labels)``
  takes any hashable labels, and ``RectLattice(...)`` and ``Cell(...)``
  store their ids unchecked, as the library builds all three from lattices
  it has validated; the others are records or are built through a checked
  function (``make_lattice``, ``make_bounded_hom``);
- the ``inputs`` keyword of the ``verify`` functions, which takes
  lattices, not ids.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import latcon
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
from latcon import construction as cn
from latcon import core
from latcon import rectangular as rl
from latcon import verify as vf
from latcon.cli import main
from latcon.errors import (
    ElementOutOfRange,
    IndexOutOfRange,
    InvalidLattice,
    LatconError,
    NotACell,
    SizeTooSmall,
    ZeroSize,
)

C3SQ = catalog.get("c3xc3")
G33 = rl.grid(3, 3).lattice
THETA = cg.principal_congruence(G33, 0, 1)  # a congruence of grid-3x3


def _phi():
    """The first bounded endomorphism of c3xc3."""
    return bk.enumerate_bounded_homs(C3SQ, C3SQ)[0]


def _psi():
    """The dual map of :func:`_phi`, on a 4-element poset."""
    return bk.ji_of_hom(_phi())


def _restriction_mismatch(emb):
    """``restriction_mismatch`` from Con grid-3x3 to Con of the 3-chain."""
    return cg.restriction_mismatch(
        cg.congruence_lattice(G33), emb, cg.congruence_lattice(core.chain(3)))


# each used to return a wrong answer or raise a bare error on grid-3x3
ID_ROWS = [
    # a negative id used to read the top's row
    ("lower_covers(-1)", lambda: G33.lower_covers(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("upper_covers(-1)", lambda: G33.upper_covers(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("upper_covers(99)", lambda: G33.upper_covers(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("lower_covers(1.5)", lambda: G33.lower_covers(1.5), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    # the cover rows, which callers read for a cover test, take each bad id
    ("lower_covers(99)", lambda: G33.lower_covers(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("upper_covers(1.5)", lambda: G33.upper_covers(1.5), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    # a negative id used to read the top's masks
    ("join(-1, 0)", lambda: G33.join(-1, 0), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("meet(0, 99)", lambda: G33.meet(0, 99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("leq(0, 'a')", lambda: G33.leq(0, "a"), ElementOutOfRange,
     "element id 'a' is not an integer"),
    ("restriction-emb-99", lambda: _restriction_mismatch([0, 1, 99]), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("diamond(2)", lambda: catalog.diamond(2), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got 2"),
    ("diamond(3.5)", lambda: catalog.diamond(3.5), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got 3.5"),
    ("diamond('4')", lambda: catalog.diamond("4"), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got '4'"),
    ("diamond(None)", lambda: catalog.diamond(None), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got None"),
    ("diamond(True)", lambda: catalog.diamond(True), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got True"),
    # a negative index used to pick the eye in cell 2
    ("s7_eye(-1)", lambda: catalog.s7_eye(-1), IndexOutOfRange, "fork cell -1 is not 0, 1 or 2"),
    ("s7_eye(5)", lambda: catalog.s7_eye(5), IndexOutOfRange, "fork cell 5 is not 0, 1 or 2"),
    ("s7_eye(1.5)", lambda: catalog.s7_eye(1.5), IndexOutOfRange,
     "fork cell 1.5 is not 0, 1 or 2"),
    ("s7_eye('a')", lambda: catalog.s7_eye("a"), IndexOutOfRange,
     "fork cell 'a' is not 0, 1 or 2"),
    # an unhashable id used to raise a bare TypeError from set()
    ("is_ideal([[0], 1])", lambda: core.is_ideal(G33, [[0], 1]), ElementOutOfRange,
     "element id [0] is not an integer"),
    ("is_filter([[0], 1])", lambda: core.is_filter(G33, [[0], 1]), ElementOutOfRange,
     "element id [0] is not an integer"),
]

ROWS = ID_ROWS + [
    # a negative id used to wrap round to the last element's image
    ("phi(-1)", lambda: _phi()(-1), ElementOutOfRange, "element -1 out of range for size 9"),
    ("psi(-1)", lambda: _psi()(-1), ElementOutOfRange, "element -1 out of range for size 4"),
    ("phi(99)", lambda: _phi()(99), ElementOutOfRange, "element 99 out of range for size 9"),
    ("phi(1.5)", lambda: _phi()(1.5), ElementOutOfRange, "element id 1.5 is not an integer"),
    ("phi(None)", lambda: _phi()(None), ElementOutOfRange, "element id None is not an integer"),
    ("eye-coordinate", lambda: rl.grid_with_eyes(2, 2, [(0, "a")]), ElementOutOfRange,
     "element id 'a' is not an integer"),
    ("eye-not-a-pair", lambda: rl.grid_with_eyes(3, 3, [0]), LatconError,
     "eye cell 0 is not a (row, column) pair"),
    ("eye-triple", lambda: rl.grid_with_eyes(3, 3, [(0, 0, 0)]), LatconError,
     "eye cell (0, 0, 0) is not a (row, column) pair"),
    ("max-size-float", lambda: catalog.search_rectangular(2.5), SizeTooSmall,
     "max_size must be an integer >= 0, got 2.5"),
    ("max-size-str", lambda: catalog.search_rectangular("a"), SizeTooSmall,
     "max_size must be an integer >= 0, got 'a'"),
    ("max-size-negative", lambda: catalog.search_rectangular(-3), SizeTooSmall,
     "max_size must be an integer >= 0, got -3"),
    # Poset takes no upper_order, yet its error for no covers used to name one
    ("poset-covers-none", lambda: core.Poset(3, None), InvalidLattice,
     "poset covers must be cover pairs, got None"),
    # a cover entry that is no pair used to raise a bare TypeError or ValueError
    ("covers-entry-int", lambda: core.make_lattice(2, [0, 1]), InvalidLattice,
     "covers must be cover pairs, got entry 0"),
    ("covers-int", lambda: core.make_lattice(2, 5), InvalidLattice,
     "covers must be cover pairs, got 5"),
    ("covers-entry-triple", lambda: core.make_lattice(3, [(0, 1, 2)]), InvalidLattice,
     "covers must be cover pairs, got entry (0, 1, 2)"),
    ("covers-entry-after-pairs", lambda: core.make_lattice_with_map(3, iter([(0, 1), [1]])),
     InvalidLattice, "covers must be cover pairs, got entry [1]"),
    ("poset-covers-int", lambda: core.Poset(2, 5), InvalidLattice,
     "covers must be cover pairs, got 5"),
    ("poset-covers-entry-single", lambda: core.Poset(2, [(0,)]), InvalidLattice,
     "covers must be cover pairs, got entry (0,)"),
    # a pair list of the wrong shape used to raise a bare TypeError or ValueError
    ("glue-entry-single", lambda: rl.glue(core.chain(2), core.chain(2), [(1,)]), LatconError,
     "iso must be a mapping or id pairs, got entry (1,)"),
    ("glue-iso-int", lambda: rl.glue(core.chain(2), core.chain(2), 5), LatconError,
     "iso must be a mapping or id pairs, got 5"),
    # order rows of the wrong shape used to raise a bare TypeError
    ("rows-int", lambda: core.make_lattice(2, None, 5), InvalidLattice,
     "without covers, upper_order must be 2 rows, one per element"),
    ("rows-row-int", lambda: core.make_lattice(2, None, [5, []]), InvalidLattice,
     "upper_order for element 0 is not a row of ids, got 5"),
    ("order-rows-int", lambda: core.make_lattice(3, [(0, 1), (1, 2)], 5), InvalidLattice,
     "upper_order must be a mapping or a sequence of rows, got 5"),
    ("order-mapping-row-int", lambda: core.make_lattice(3, [(0, 1), (1, 2)], {0: 5}),
     InvalidLattice, "upper_order for element 0 is not a row of ids, got 5"),
]


@pytest.mark.parametrize("call, error, text", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_bad_argument_is_named(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


HUGE = 10**5000  # more digits than ``repr`` of an int writes

# an outside value that is long, or an int too long to write, named in a
# short text: each once raised a text of up to 688,927 characters or a
# bare ValueError
LONG_VALUES = [
    ("cover-entry-of-100000-ids", lambda: core.make_lattice(3, [[0] * 100000]), InvalidLattice,
     "covers must be cover pairs, got entry [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, … (99990 more)]"),
    ("eye-cell-of-100000-ids", lambda: rl.grid_with_eyes(3, 3, [tuple(range(100000))]),
     LatconError, "eye cell (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, … (99990 more)) is not a (row,"
     " column) pair"),
    ("covers-huge-int", lambda: core.make_lattice(3, HUGE), InvalidLattice,
     "covers must be cover pairs, got <integer of 16610 bits>"),
    ("cover-huge-id", lambda: core.make_lattice(3, [(0, HUGE)]), ElementOutOfRange,
     "cover (0, <integer of 16610 bits>) out of range for size 3"),
    ("eye-cell-huge-id", lambda: rl.grid_with_eyes(3, 3, [(0, HUGE)]), IndexOutOfRange,
     "cell (0, <integer of 16610 bits>) outside the 3x3 grid"),
    ("size-huge-negative", lambda: core.make_lattice(-HUGE, []), ZeroSize,
     "lattice size must be an integer >= 1, got <negative integer of 16610 bits>"),
    ("id-long-string", lambda: core.sublattice(G33, ["a" * 100000]), ElementOutOfRange,
     f"element id {'a' * 20!r}… (99960 more characters) …{'a' * 20!r} is not an integer"),
    ("catalog-long-name", lambda: catalog.get("a" * 100000), LatconError,
     f"unknown catalog lattice {'a' * 20!r}… (99960 more characters) …{'a' * 20!r}"),
    ("fork-cell-huge", lambda: catalog.s7_eye(HUGE), IndexOutOfRange,
     "fork cell <integer of 16610 bits> is not 0, 1 or 2"),
    ("image-huge", lambda: bk.make_bounded_hom(C3SQ, C3SQ, [0] * 8 + [HUGE]), ElementOutOfRange,
     "image <integer of 16610 bits> out of range for size 9"),
    ("pair-huge", lambda: cg.principal_congruence(G33, HUGE, 0), ElementOutOfRange,
     "pair (<integer of 16610 bits>, 0) out of range for size 9"),
    ("order-row-nested", lambda: core.make_lattice(2, None, [[[[[0] * 100000]]], []]),
     ElementOutOfRange, "element id [[[…]]] is not an integer"),
]


@pytest.mark.parametrize("call, error, text", [r[1:] for r in LONG_VALUES],
                         ids=[r[0] for r in LONG_VALUES])
def test_long_value_is_named_in_a_short_text(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text and len(text) < 200


@pytest.mark.parametrize("value", [
    0, -7, 2**256 - 1, True, None, 1.5, "a'b\n", "a" * 40, [], (), (1,), (0, (1, 2)), [0] * 10,
    set(), {3, 1}, {}, {"k": [1, "v"]}, frozenset({1}), range(5), cn.CHAIN_NAMES,
])
def test_short_value_is_quoted_as_repr_writes_it(value):
    assert core._quoted(value) == repr(value)


@pytest.mark.parametrize("size", [0, 1, 39, 40])
def test_short_text_is_clipped_to_itself(size):
    text = "".join(chr(ord("a") + i % 26) for i in range(size))
    assert core._clipped(text) == text and core._clipped(text, repr) == repr(text)


def test_long_text_keeps_its_head_and_tail():
    # a path under pytest's tmp_path keeps the end of its file name
    path = "/tmp/pytest-of-root/pytest-7/test_json_text_unchanged0/bad.json"
    assert core._clipped(path) == (
        "/tmp/pytest-of-root/… (23 more characters) …_unchanged0/bad.json")
    assert core._clipped("a" * 41, repr) == f"{'a' * 20!r}… (1 more characters) …{'a' * 20!r}"
    assert core._quoted("a" * 41) == core._clipped("a" * 41, repr)


def test_quoted_text_is_bounded():
    # ten entries of ten entries of a bounded entry at most
    worst = [[("a" * 1000, -HUGE)] * 100] * 100
    assert len(core._quoted(worst)) < 5000
    assert core._quoted(object.__new__(type("A" * 200, (), {})))[-1] == "…"


def test_id_checks_run_under_optimize():
    # a check written as ``assert`` would vanish under ``python -O``
    code = (
        "import test_checked_arguments as t\n"
        "for _, call, error, _ in t.ID_ROWS:\n"
        "    try:\n"
        "        call()\n"
        "    except error as e:\n"
        "        print(e)\n"
    )
    src = Path(rl.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [row[3] for row in ID_ROWS]


def test_good_arguments_unchanged():
    assert core._heights(G33)[0] == [0, 1, 2, 1, 2, 3, 2, 3, 4]
    assert [G33.upper_covers(x) for x in range(9)] == [
        (3, 1), (4, 2), (5,), (6, 4), (7, 5), (8,), (7,), (8,), ()]
    assert [G33.lower_covers(x) for x in range(9)] == [
        (), (0,), (1,), (0,), (3, 1), (4, 2), (3,), (6, 4), (7, 5)]
    assert G33.upper_covers(True) == (4, 2) and G33.lower_covers(helpers.IntLike(8)) == (7, 5)
    # the corners are the doubly irreducible elements
    assert [x for x in range(9) if len(G33.lower_covers(x)) == 1 == len(G33.upper_covers(x))] == [2, 6]
    assert G33.join(2, 6) == 8 and G33.meet(2, 6) == 0 and G33.leq(True, helpers.IntLike(4))
    assert G33._up[4] == 0b110110000 and G33._down[4] == 0b000011011
    con = cg.congruence_lattice(G33)
    assert cg.restriction_mismatch(con, range(9), con) is None
    assert catalog.diamond(helpers.IntLike(3)).n == 5
    assert [THETA.cls[x] == THETA.cls[y] for x, y in ((0, 1), (6, 7), (0, 3))] == [
        True, True, False]
    assert catalog.s7_eye(helpers.IntLike(2)) == catalog.s7_eye(2) != catalog.s7_eye()
    assert core.is_ideal(G33, iter([0, 1, 3, 4])) and core.is_filter(G33, iter([4, 5, 7, 8]))
    assert not core.is_ideal(G33, [0, 4]) and not core.is_filter(G33, [8, 4])
    assert core.is_convex_sublattice(G33, iter([4, 1, 5, 2]))
    assert not core.is_convex_sublattice(G33, [0, 8])
    phi, psi = _phi(), _psi()
    assert [phi(x) for x in range(C3SQ.n)] == list(phi.assignment)
    assert [psi(x) for x in range(psi.source.n)] == list(psi.assignment)
    with pytest.raises(IndexOutOfRange, match=r"^cell \(2, 0\) outside the 3x3 grid$"):
        rl.grid_with_eyes(3, 3, [(2, 0)])
    with pytest.raises(LatconError, match=r"^cell \(0, 0\) listed twice$"):
        rl.grid_with_eyes(3, 3, [(0, 0), (0, 0)])
    assert catalog.search_rectangular(0) == catalog.search_rectangular(3) == []
    assert [n for n, _ in catalog.search_rectangular(12)][:2] == ["grid-2x2", "diamond-3"]


def test_negative_max_size_is_bad_input(capsys):
    assert main(["check-ideal", "--search", "--max-size", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_size must be an integer >= 0, got -3\n"


# -- the contract table ------------------------------------------------------

S7 = catalog.s7()
CHAIN3 = core.chain(3)
P4 = core.join_irreducibles(C3SQ)  # four join-irreducibles


def _cell(bottom):
    """The first cell of the fork lattice with its bottom replaced."""
    return rl.cells(S7)[0]._replace(bottom=bottom)


# (callable, argument, kind, n, call with a bad value in that argument);
# kind "id" takes one id below n, "ids" a collection of them, "size" a size
CONTRACT = [
    ("core.make_lattice", "size", "size", None, lambda v: core.make_lattice(v, [])),
    ("core.make_lattice", "covers", "ids", 3,
     lambda v: core.make_lattice(3, [(0, 1), (1, v)])),
    ("core.make_lattice", "upper_order", "ids", 3,
     lambda v: core.make_lattice(3, None, [[1], [v], []])),
    ("core.make_lattice", "lower_order", "ids", 3,
     lambda v: core.make_lattice(3, [(0, 1), (1, 2)], None, [[], [v], [1]])),
    ("core.make_lattice_with_map", "size", "size", None,
     lambda v: core.make_lattice_with_map(v, [])),
    ("core.make_lattice_with_map", "covers", "ids", 3,
     lambda v: core.make_lattice_with_map(3, [(v, 1), (1, 2)])),
    ("core.make_lattice_with_map", "upper_order", "ids", 3,
     lambda v: core.make_lattice_with_map(3, [(0, 1), (1, 2)], {0: [v]})),
    ("core.make_lattice_with_map", "lower_order", "ids", 3,
     lambda v: core.make_lattice_with_map(3, None, [[1], [2], []], [[], [0], [v]])),
    ("core.chain", "n", "size", None, core.chain),
    ("core.is_convex_sublattice", "S", "ids", 9, lambda v: core.is_convex_sublattice(G33, [0, v])),
    ("core.is_ideal", "S", "ids", 9, lambda v: core.is_ideal(G33, [0, v])),
    ("core.is_filter", "S", "ids", 9, lambda v: core.is_filter(G33, [8, v])),
    ("core.sublattice", "S", "ids", 9, lambda v: core.sublattice(G33, [0, v])),
    ("FiniteLattice.leq", "y", "id", 9, lambda v: G33.leq(0, v)),
    ("FiniteLattice.up", "x", "id", 9, G33.up),
    ("FiniteLattice.down", "x", "id", 9, G33.down),
    ("FiniteLattice.upper_covers", "x", "id", 9, G33.upper_covers),
    ("FiniteLattice.lower_covers", "x", "id", 9, G33.lower_covers),
    ("FiniteLattice.meet", "y", "id", 9, lambda v: G33.meet(8, v)),
    ("FiniteLattice.join", "x", "id", 9, lambda v: G33.join(v, 0)),
    ("core.Poset", "n", "size", None, lambda v: core.Poset(v, [])),
    ("core.Poset", "covers", "ids", 3, lambda v: core.Poset(3, [(0, 1), (1, v)])),
    ("Poset.leq", "x", "id", 4, lambda v: P4.leq(v, 0)),
    ("Poset.up", "x", "id", 4, P4.up),
    ("Poset.down", "x", "id", 4, P4.down),
    ("Poset.upper_covers", "x", "id", 4, P4.upper_covers),
    ("Poset.lower_covers", "x", "id", 4, P4.lower_covers),
    ("BoundedHom.__call__", "x", "id", 9, lambda v: _phi()(v)),
    ("birkhoff.IsotoneMap", "assignment", "ids", 4,
     lambda v: bk.IsotoneMap(P4, P4, [0, 1, 2, v])),
    ("IsotoneMap.__call__", "x", "id", 4, lambda v: _psi()(v)),
    ("congruence.principal_congruence", "b", "id", 9,
     lambda v: cg.principal_congruence(G33, 0, v)),
    ("congruence.principal_congruence", "a", "id", 9,
     lambda v: cg.principal_congruence(G33, v, 0)),
    ("congruence.restriction_mismatch", "emb", "ids", 9,
     lambda v: _restriction_mismatch([0, 1, v])),
    ("congruence.is_cp_extension", "K", "ids", 9, lambda v: cg.is_cp_extension(G33, [0, v])),
    ("birkhoff.make_bounded_hom", "assignment", "ids", 9,
     lambda v: bk.make_bounded_hom(C3SQ, C3SQ, [*range(8), v])),
    ("rectangular.grid_with_eyes", "m", "size", None, lambda v: rl.grid_with_eyes(v, 3, [])),
    ("rectangular.grid_with_eyes", "n", "size", None, lambda v: rl.grid_with_eyes(3, v, [])),
    ("rectangular.grid_with_eyes", "eye_cells", "ids", 2,
     lambda v: rl.grid_with_eyes(3, 3, [(0, 0), (1, v)])),
    ("rectangular.grid", "m", "size", None, lambda v: rl.grid(v, 2)),
    ("rectangular.grid", "n", "size", None, lambda v: rl.grid(2, v)),
    ("rectangular.insert_eye", "cell", "ids", 7, lambda v: rl.insert_eye(S7, _cell(v))),
    ("rectangular.glue", "iso", "ids", 3, lambda v: rl.glue(CHAIN3, CHAIN3, [(2, v)])),
    ("rectangular.glue", "iso", "ids", 3, lambda v: rl.glue(CHAIN3, CHAIN3, [(v, 0)])),
    ("catalog.diamond", "k", "size", None, catalog.diamond),
    ("catalog.s7_eye", "cell_index", "id", 3, catalog.s7_eye),
    ("catalog.search_rectangular", "max_size", "size", None, catalog.search_rectangular),
    ("verify.verify_filter_representation", "f_emb", "ids", 9,
     lambda v: vf.verify_filter_representation(G33, [0, v], range(9), _phi())),
    ("verify.verify_filter_representation", "g_emb", "ids", 9,
     lambda v: vf.verify_filter_representation(G33, range(9), [8, v], _phi())),
    ("verify.verify_ideal_representation", "f_emb", "ids", 9,
     lambda v: vf.verify_ideal_representation(G33, [0, v], range(9), _phi())),
    ("verify.verify_ideal_representation", "g_emb", "ids", 9,
     lambda v: vf.verify_ideal_representation(G33, range(9), [0, v], _phi())),
]

# public callables that take no element id and no size
NO_ID = {
    "core.direct_product", "core.is_distributive", "core.is_semimodular",
    "core.join_irreducibles", "core.invariant", "core.find_isomorphism",
    "core.are_isomorphic",
    "FiniteLattice.covers", "FiniteLattice.ji_elements", "Poset.covers",
    "congruence.congruence_lattice", "congruence.is_simple",
    "ConLattice.as_lattice", "ConLattice.covers",
    "birkhoff.ji_of_hom", "birkhoff.hom_of_isotone", "birkhoff.brt_report",
    "birkhoff.enumerate_isotone_maps", "birkhoff.enumerate_bounded_homs",
    "rectangular.make_rectangular", "rectangular.cells", "rectangular.triple_glue",
    "catalog.m3", "catalog.m4", "catalog.s7", "catalog.n5", "catalog.cube",
    "catalog.stacked_m3", "catalog.rect_catalog", "catalog.congruence_catalog",
    "catalog.brt_catalog", "catalog.get",
    "construction.boundary_color_extension", "construction.filter_representation",
    "construction.upper_chain_collapse_check", "construction.ideal_representation",
    "construction.simple_ideal_embedding",
}

# public classes whose instances the library builds; their constructors
# are out of the contract (see the module docstring)
BUILT_BY_LIBRARY = {
    "core.FiniteLattice", "congruence.Congruence", "congruence.ConLattice",
    "birkhoff.BoundedHom", "birkhoff.BrtReport",
    "rectangular.RectLattice", "rectangular.Cell", "rectangular.GluedLattice",
    "rectangular.TripleGluingAssembly",
    "construction.EyeRecord", "construction.ConstructionReport",
    "construction.ChainCollapseReport",
    "verify.CheckResult", "verify.VerificationReport",
}

CONTRACT_MODULES = (core, cg, bk, rl, catalog, cn, vf)
CONTRACT_CLASSES = (core.FiniteLattice, core.Poset, bk.BoundedHom, bk.IsotoneMap,
                    cg.ConLattice, cg.Congruence, rl.RectLattice)


def _bad_values(kind, n):
    if kind == "size":
        return [-1, 1.5, "a", None, True]
    ids = [-1, n, 1.5, "a", None]
    return ids + [[0]] if kind == "ids" else ids


CASES = [
    pytest.param(call, value, id=f"{name}:{arg}={value!r}")
    for name, arg, kind, n, call in CONTRACT
    for value in _bad_values(kind, n)
]


@pytest.mark.parametrize("call, value", CASES)
def test_contract_bad_id_or_size_is_a_latcon_error(call, value):
    with pytest.raises(LatconError):
        call(value)


_IDS = (ElementOutOfRange, "element ids must be iterable")

# (callable, argument, error and text before the value, call with the
# value in that argument, values): 5 and None in place of a collection,
# unless None is the documented default
NOT_ITERABLE = [
    ("core.sublattice", "S", _IDS, lambda v: core.sublattice(G33, v)),
    ("core.is_convex_sublattice", "S", _IDS, lambda v: core.is_convex_sublattice(G33, v)),
    ("core.is_ideal", "S", _IDS, lambda v: core.is_ideal(G33, v)),
    ("core.is_filter", "S", _IDS, lambda v: core.is_filter(G33, v)),
    ("congruence.is_cp_extension", "K", _IDS, lambda v: cg.is_cp_extension(G33, v)),
    ("congruence.restriction_mismatch", "emb", _IDS, _restriction_mismatch),
    ("birkhoff.make_bounded_hom", "assignment", _IDS,
     lambda v: bk.make_bounded_hom(C3SQ, C3SQ, v)),
    ("birkhoff.IsotoneMap", "assignment", _IDS, lambda v: bk.IsotoneMap(P4, P4, v)),
    ("verify.verify_filter_representation", "f_emb", _IDS,
     lambda v: vf.verify_filter_representation(G33, v, range(9), _phi())),
    ("verify.verify_filter_representation", "g_emb", _IDS,
     lambda v: vf.verify_filter_representation(G33, range(9), v, _phi())),
    ("verify.verify_ideal_representation", "f_emb", _IDS,
     lambda v: vf.verify_ideal_representation(G33, v, range(9), _phi())),
    ("verify.verify_ideal_representation", "g_emb", _IDS,
     lambda v: vf.verify_ideal_representation(G33, range(9), v, _phi())),
    ("core.Poset", "labels", (InvalidLattice, "labels must be iterable"),
     lambda v: core.Poset(2, [(0, 1)], v)),
    ("rectangular.grid_with_eyes", "eye_cells", (LatconError, "eye cells must be iterable"),
     lambda v: rl.grid_with_eyes(3, 3, v)),
]

NOT_ITERABLE_CASES = [
    pytest.param(call, value, error, f"{what}, got {value!r}", id=f"{name}:{arg}={value!r}")
    for name, arg, (error, what), call in NOT_ITERABLE
    for value in ((5,) if (name, arg) == ("core.Poset", "labels") else (5, None))
]


@pytest.mark.parametrize("call, value, error, text", NOT_ITERABLE_CASES)
def test_collection_that_is_not_iterable_is_named(call, value, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


def test_poset_labels_default_to_the_ids():
    assert core.Poset(2, [(0, 1)], None).labels == (0, 1)


def test_insert_eye_refuses_a_plain_tuple_equal_to_a_cell():
    # a cell is a named tuple, so it equals the plain tuple of its fields
    c = rl.cells(S7)[0]
    with pytest.raises(NotACell, match=r"is not a cell of this lattice$"):
        rl.insert_eye(S7, (c.bottom, c.top, c.left, c.right, c.middles))


def _public_callables():
    """``module.name`` for each public function and class defined in a
    contract module, and ``Class.method`` for each public method,
    ``__call__`` included, of a contract class; properties are no
    callables."""
    names = set()
    for module in CONTRACT_MODULES:
        stem = module.__name__.rpartition(".")[2]
        names |= {f"{stem}.{name}" for name, obj in vars(module).items()
                  if (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__ and not name.startswith("_")}
    for cls in CONTRACT_CLASSES:
        names |= {f"{cls.__name__}.{name}" for name in dir(cls)
                  if (name == "__call__" or not name.startswith("_"))
                  and inspect.isfunction(inspect.getattr_static(cls, name))}
    return names


def test_every_public_callable_has_a_contract_row():
    rows = {name for name, *_ in CONTRACT}
    assert rows.isdisjoint(NO_ID) and rows.isdisjoint(BUILT_BY_LIBRARY)
    assert NO_ID.isdisjoint(BUILT_BY_LIBRARY)
    listed = rows | NO_ID | BUILT_BY_LIBRARY
    assert sorted(_public_callables() - listed) == []
    assert sorted(listed - _public_callables()) == []  # no stale name


# members that no module read, deleted for the cover rows, one set of a
# map's images and ``_keeps_up_sizes``, and then for what the library reads
# itself: the mask rows, ``_heights``, ``_upper[0]`` and ``cls``; the
# one-set method, ``_injective_onto``, went too, as ``brt_report`` reads
# both verdicts of each map off one set inline; ``generated_congruence``,
# whose only package caller was ``principal_congruence``, left the module
# and the package namespace, as ``principal_congruence`` calls the kernel
DELETED = [
    (core.FiniteLattice, "is_cover"),
    (core.FiniteLattice, "is_doubly_irreducible"),
    (bk._Map, "is_onto"),
    (bk.BoundedHom, "is_injective"),
    (bk.IsotoneMap, "is_order_embedding"),
    (bk._Map, "_injective_onto"),
    (core.FiniteLattice, "up_mask"),
    (core.FiniteLattice, "down_mask"),
    (core.FiniteLattice, "atoms"),
    (core.FiniteLattice, "height"),
    (cg.Congruence, "collapses"),
    (cg, "generated_congruence"),
    (latcon, "generated_congruence"),
]


@pytest.mark.parametrize("cls, name", DELETED, ids=[f"{c.__name__}.{n}" for c, n in DELETED])
def test_deleted_member_stays_deleted(cls, name):
    assert not hasattr(cls, name)
    package = Path(core.__file__).resolve().parent
    readers = [path.stem for path in sorted(package.glob("*.py"))
               if re.search(rf"\.{name}\b", path.read_text())]
    assert readers == []
