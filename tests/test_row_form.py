"""``make_lattice_with_map``'s row form against its cover-pair form.

The cover-pair form, ``covers`` with full ``upper_order`` and
``lower_order`` mappings, is the oracle.  For the same rows both forms must
build an equal lattice, with the same masks and the same renumbering map,
and must fail with the same error class and text.  The rows are those the
planar constructors hand over, as they hand them over and under seeded
random relabellings, so that the renumbering runs."""

import random
import re

import pytest

from latcon import birkhoff, catalog, core, verify
from latcon import congruence as cg
from latcon import construction as cn
from latcon import rectangular as rl
from latcon.errors import (
    Cyclic,
    ElementOutOfRange,
    InvalidLattice,
    LatconError,
    NotALattice,
    NotReduced,
)


def _row_form(n, upper, lower):
    return core.make_lattice_with_map(n, None, upper, lower)


def _pair_form(n, upper, lower):
    covers = [(x, y) for x, row in enumerate(upper) for y in row]
    return core.make_lattice_with_map(n, covers, dict(enumerate(upper)), dict(enumerate(lower)))


def _relabelled(n, upper, lower, perm):
    """The rows with element ``x`` called ``perm[x]``."""
    new_up, new_low = [()] * n, [()] * n
    for x in range(n):
        new_up[perm[x]] = tuple(perm[y] for y in upper[x])
        new_low[perm[x]] = tuple(perm[y] for y in lower[x])
    return n, new_up, new_low


@pytest.fixture(scope="module")
def planar_rows():
    """Every row-form build, as ``(n, upper, lower)``, made by
    ``search_rectangular(16)``, the catalogs, the A6 filter representations
    with their triple gluings and verification, sublattice copies taken in
    and against a linear extension, and direct products."""
    calls = []
    make = core.make_lattice_with_map

    def record(*args):
        if args[1] is None:
            n, _, upper, lower = args
            calls.append((n, [tuple(r) for r in upper], [tuple(r) for r in lower]))
        return make(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "make_lattice_with_map", record)
        catalog.search_rectangular(16)
        catalog.congruence_catalog()
        rect = catalog.rect_catalog()
        for f in ("grid-2x2", "m3", "s7"):
            for g in ("grid-2x2", "m3", "s7"):
                D = cg.congruence_lattice(rect[f].lattice).as_lattice()
                E = cg.congruence_lattice(rect[g].lattice).as_lattice()
                for phi in birkhoff.enumerate_bounded_homs(D, E):
                    L, rep = cn.filter_representation(rect[f], rect[g], phi)
                    verify.verify_filter_representation(
                        L.lattice, rep.embedded_f, rep.embedded_g, phi)
        G = rl.grid_with_eyes(3, 4, [(0, 1), (1, 2)])[0].lattice
        intervals = [[x for x in range(G.n) if G.leq(a, x) and G.leq(x, b)]
                     for a, b in ((0, 5), (1, G.n - 1), (0, G.n - 1))]
        for S in intervals:
            core.sublattice(G, S)
            core.sublattice(G, S[::-1])
        for A, B in ((catalog.s7().lattice, core.chain(3)), (G, core.chain(2)),
                     (catalog.m4().lattice, catalog.m3().lattice)):
            core.direct_product(A, B)
    return calls


def _assert_same_build(n, upper, lower):
    K, k_map = _row_form(n, upper, lower)
    P, p_map = _pair_form(n, upper, lower)
    assert K == P
    assert (K._upper, K._lower, K._up, K._down) == (P._upper, P._lower, P._up, P._down)
    assert k_map == p_map
    return k_map


def test_recorded_builds_cover_the_constructors(planar_rows):
    assert len(planar_rows) > 300
    renumbered = [r for r in planar_rows if _row_form(*r)[1] != tuple(range(r[0]))]
    assert renumbered  # grid_with_eyes appends its eyes out of order


def test_row_form_matches_pair_form(planar_rows):
    for rows in planar_rows:
        _assert_same_build(*rows)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_form_matches_pair_form_relabelled(planar_rows, seed):
    rng = random.Random(seed)
    moved = 0
    for n, upper, lower in planar_rows:
        perm = rng.sample(range(n), n)
        moved += _assert_same_build(*_relabelled(n, upper, lower, perm)) != tuple(range(n))
    assert moved > len(planar_rows) // 2


def test_row_form_accepts_integer_types_and_any_rows():
    one = True
    rows = ([1, 2], (3,), iter([3]), [])
    L, renum = core.make_lattice_with_map(4, None, rows, [(), [False], (0,), (2, one)])
    assert renum == (0, 1, 2, 3)
    assert L._upper == [(1, 2), (3,), (3,), ()] and L._lower == [(), (0,), (0,), (2, 1)]
    assert all(type(e) is int for row in L._upper + L._lower for e in row)


# (name, n, upper, lower, error, text); upper and lower rows of a 4-element
# diamond 0 < 1, 2 < 3, or of a small order showing the fault
DIAMOND_UP = [(1, 2), (3,), (3,), ()]
DIAMOND_LOW = [(), (0,), (0,), (2, 1)]


def _up(x, row):
    return [row if i == x else r for i, r in enumerate(DIAMOND_UP)]


def _low(x, row):
    return [row if i == x else r for i, r in enumerate(DIAMOND_LOW)]


FAULTS = [
    ("entry-too-large", 4, _up(0, (1, 5)), DIAMOND_LOW, ElementOutOfRange,
     "cover (0, 5) out of range for size 4"),
    ("entry-negative", 4, _up(1, (-1,)), DIAMOND_LOW, ElementOutOfRange,
     "cover (1, -1) out of range for size 4"),
    ("entry-float", 4, _up(0, (1, 2.5)), DIAMOND_LOW, ElementOutOfRange,
     "element id 2.5 is not an integer"),
    ("entry-str", 4, _up(2, ("3",)), DIAMOND_LOW, ElementOutOfRange,
     "element id '3' is not an integer"),
    ("self-loop", 4, _up(1, (1, 3)), DIAMOND_LOW, Cyclic, "self-loop at element 1"),
    ("self-loop-before-range", 4, _up(0, (0, 9)), DIAMOND_LOW, Cyclic,
     "self-loop at element 0"),
    ("repeated-entry", 4, _up(0, (1, 2, 1)), DIAMOND_LOW, NotReduced, "duplicate cover pair"),
    ("lower-short", 4, DIAMOND_UP, _low(3, (1,)), InvalidLattice,
     "lower_order for element 3 is not a permutation of its covers"),
    ("lower-repeated", 4, DIAMOND_UP, _low(3, (1, 1)), InvalidLattice,
     "lower_order for element 3 is not a permutation of its covers"),
    ("lower-foreign", 4, DIAMOND_UP, _low(1, (2,)), InvalidLattice,
     "lower_order for element 1 is not a permutation of its covers"),
    ("lower-out-of-range", 4, DIAMOND_UP, _low(3, (1, 7)), ElementOutOfRange,
     "lower_order names element 7, out of range for size 4"),
    ("lower-float", 4, DIAMOND_UP, _low(3, (2, 1.5)), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    ("cycle", 3, [(1,), (2,), (1,)], [(), (0, 2), (1,)], Cyclic,
     "cover relation contains a directed cycle"),
    ("transitive", 3, [(1, 2), (2,), ()], [(), (0,), (0, 1)], NotReduced,
     "cover (0, 2) is implied by transitivity through [1]"),
    ("two-bottoms", 3, [(2,), (2,), ()], [(), (), (0, 1)], NotALattice,
     "no unique bottom: minimal elements [0, 1]"),
    ("two-tops", 3, [(1, 2), (), ()], [(), (0,), (0,)], NotALattice,
     "no unique top: maximal elements [1, 2]"),
    ("missing-join", 6, [(1, 2), (3, 4), (3, 4), (5,), (5,), ()],
     [(), (0,), (0,), (1, 2), (1, 2), (3, 4)], NotALattice,
     "elements 1 and 2 have no least upper bound"),
]


def _failure(build, *args):
    with pytest.raises(LatconError) as info:
        build(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n, upper, lower, error, text", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_row_form_fails_as_pair_form(n, upper, lower, error, text):
    assert _failure(_row_form, n, upper, lower) == (error, text)
    assert _failure(_pair_form, n, upper, lower) == (error, text)


@pytest.mark.parametrize("n, upper, lower", [f[1:4] for f in FAULTS], ids=[f[0] for f in FAULTS])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_faults_fail_alike(n, upper, lower, seed):
    """Under a relabelling the texts name the input's ids in both forms."""
    perm = random.Random(seed).sample(range(n), n)
    ints = [[perm[y] if isinstance(y, int) and 0 <= y < n else y for y in row]
            for row in upper]
    lows = [[perm[y] if isinstance(y, int) and 0 <= y < n else y for y in row]
            for row in lower]
    up, low = [()] * n, [()] * n
    for x in range(n):
        up[perm[x]], low[perm[x]] = ints[x], lows[x]
    assert _failure(_row_form, n, up, low) == _failure(_pair_form, n, up, low)


@pytest.mark.parametrize("order", ["mapping", "rows"])
def test_lattice_fault_named_before_cover_order_fault(order):
    """Two tops and an upper_order row that is no permutation: the order
    check comes last, so the lattice fault is named, as it always was."""
    bad = {0: [2]} if order == "mapping" else [(2,), (), ()]
    with pytest.raises(NotALattice, match=r"^no unique top: maximal elements \[1, 2\]$"):
        core.make_lattice_with_map(3, [(0, 1), (0, 2)], bad)
    with pytest.raises(NotALattice, match=r"^no unique top: maximal elements \[1, 2\]$"):
        core.make_lattice_with_map(3, None, [(1, 2), (), ()], [(), (0,), (1,)])


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: core.make_lattice_with_map(2, None), InvalidLattice,
         "without covers, upper_order must be 2 rows, one per element"),
        (lambda: core.make_lattice_with_map(2, None, {0: [1]}), InvalidLattice,
         "without covers, upper_order must be 2 rows, one per element"),
        (lambda: core.make_lattice_with_map(2, None, [(1,)]), InvalidLattice,
         "without covers, upper_order must be 2 rows, one per element"),
        (lambda: core.make_lattice_with_map(2, None, [(1,), ()], [(), (0,), ()]),
         ElementOutOfRange, "lower_order names element 2, out of range for size 2"),
        (lambda: core.make_lattice_with_map(2, [(0, 1)], [(1,), (), ()]), ElementOutOfRange,
         "upper_order names element 2, out of range for size 2"),
        (lambda: core.make_lattice_with_map(3, [(0, 1), (1, 2)], [(2,), (1,), ()]), InvalidLattice,
         "upper_order for element 0 is not a permutation of its covers"),
    ],
    ids=["no-rows", "mapping-rows", "upper-row-count", "lower-row-too-many",
         "order-row-too-many", "order-rows-permutation"],
)
def test_row_count_and_shape_named(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


def test_order_rows_read_as_mapping_from_positions():
    """In the cover-pair form a sequence of rows fixes the rows it reaches,
    as the mapping from each position to its row would."""
    covers = [(0, 1), (0, 2), (1, 3), (2, 3)]
    short = core.make_lattice(4, covers, [(2, 1)], [(), (0,), (0,), (2, 1)])
    assert short == core.make_lattice(4, covers, {0: [2, 1]}, {3: [2, 1]})
    assert short._upper == [(2, 1), (3,), (3,), ()]
