"""Lattice construction, canonical numbering, and order arithmetic."""

import functools
import itertools
import random
import re
import tracemalloc

import pytest

import helpers
import lemmas
from latcon import birkhoff, catalog, core, verify
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import (
    Cyclic,
    ElementOutOfRange,
    InvalidLattice,
    LatconError,
    NotALattice,
    NotConvexSublattice,
    NotReduced,
    PostconditionFailed,
    SizeTooSmall,
    ZeroSize,
)

S7_COVERS = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]


def s7():
    return core.make_lattice(7, S7_COVERS)


class TestMakeLattice:
    def test_singleton(self):
        L = core.make_lattice(1, [])
        assert (L.n, L.bottom, L.top) == (1, 0, 0)
        assert L.meet(0, 0) == L.join(0, 0) == 0

    def test_canonical_input_keeps_ids(self):
        L, renum = core.make_lattice_with_map(7, S7_COVERS)
        assert renum == tuple(range(7))
        assert L.covers() == S7_COVERS

    def test_non_canonical_input_renumbered(self):
        # same diamond twice: ids descending on input
        L, renum = core.make_lattice_with_map(4, [(3, 1), (3, 2), (1, 0), (2, 0)])
        assert renum[3] == 0 and renum[0] == 3
        assert {renum[1], renum[2]} == {1, 2}
        assert L.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_numbering_is_linear_extension(self):
        L = s7()
        for x, y in L.covers():
            assert x < y

    def test_rejects_zero_size(self):
        with pytest.raises(ZeroSize):
            core.make_lattice(0, [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ElementOutOfRange):
            core.make_lattice(2, [(0, 5)])

    def test_rejects_cycle(self):
        with pytest.raises(Cyclic):
            core.make_lattice(2, [(0, 1), (1, 0)])

    def test_rejects_duplicate_cover(self):
        with pytest.raises(NotReduced):
            core.make_lattice(2, [(0, 1), (0, 1)])

    def test_rejects_transitive_edge(self):
        with pytest.raises(NotReduced):
            core.make_lattice(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_two_maximal_elements(self):
        with pytest.raises(NotALattice):
            core.make_lattice(3, [(0, 1), (0, 2)])

    def test_rejects_join_ambiguity(self):
        # hexagon 0 < {1,2} < {3,4} < 5 with 1,2 both under 3,4: no lub(1,2)
        with pytest.raises(NotALattice):
            core.make_lattice(
                6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
            )

    def test_cover_order_maps(self):
        L = core.make_lattice(
            4,
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            upper_order={0: [2, 1]},
            lower_order={3: [2, 1]},
        )
        assert L.upper_covers(0) == (2, 1)
        assert L.lower_covers(3) == (2, 1)
        # unspecified elements fall back to ascending ids
        assert L.upper_covers(1) == (3,)

    @pytest.mark.parametrize(
        "size, covers, upper",
        [
            (2, [(0, 1)], {0: [5]}),
            (2, [(0, 1)], {0: [-1]}),
            (3, [(0, 1), (1, 2)], {7: [1]}),
        ],
        ids=["entry-too-large", "entry-negative", "key-names-no-element"],
    )
    def test_cover_order_ids_in_range(self, size, covers, upper):
        with pytest.raises(ElementOutOfRange):
            core.make_lattice_with_map(size, covers, upper)

    def test_cover_order_must_be_permutation(self):
        with pytest.raises(InvalidLattice):
            core.make_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)], upper_order={0: [1, 1]})


def _relabelled(L, rng):
    """L's covers under a random numbering, so the build renumbers them."""
    perm = rng.sample(range(L.n), L.n)
    return L.n, [(perm[a], perm[b]) for a, b in L.covers()]


def _lacks_join(size, covers, a, b):
    """Do ``a`` and ``b`` lack a least upper bound in the order the covers
    generate?  By reachability, without the library."""
    succ = {x: [] for x in range(size)}
    for x, y in covers:
        succ[x].append(y)

    def above(x):
        seen, todo = {x}, [x]
        while todo:
            for y in succ[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    ub = above(a) & above(b)
    return not any(ub <= above(u) for u in ub)


class TestMakeLatticeAgainstReference:
    """The join check on pairs of upper covers and the meet and join read
    off the masks, against the pair loop that filled n-by-n tables."""

    def _agree(self, size, covers, rng):
        try:
            meet, join = helpers.reference_make_lattice(size, covers)
        except NotALattice:
            meet = join = None
        try:
            L, renum = core.make_lattice_with_map(size, covers)
        except NotALattice as exc:
            assert meet is None, covers
            # a pair lacking a meet is reported as one lacking a join
            got = re.fullmatch(r"elements (\d+) and (\d+) have no least upper bound", str(exc))
            assert got and _lacks_join(size, covers, *map(int, got.groups())), str(exc)
            return False
        assert meet is not None, covers
        for x in range(size):
            for y in range(size):
                assert L.meet(renum[x], renum[y]) == renum[meet[x][y]]
                assert L.join(renum[x], renum[y]) == renum[join[x][y]]
        for _ in range(3):
            S = rng.sample(range(size), rng.randint(0, size))
            m = j = None
            for x in S:
                m = x if m is None else meet[m][x]
                j = x if j is None else join[j][x]
            assert functools.reduce(L.meet, (renum[x] for x in S), L.top) == (
                L.top if m is None else renum[m])
            assert functools.reduce(L.join, (renum[x] for x in S), L.bottom) == (
                L.bottom if j is None else renum[j])
        return True

    def test_catalog_as_given_and_relabelled(self):
        rng = random.Random(5)
        for name in lemmas.names():
            L = catalog.get(name)
            assert self._agree(L.n, L.covers(), rng), name
            assert self._agree(*_relabelled(L, rng), rng), name

    def test_rectangular_search(self):
        rng = random.Random(7)
        found = [R.lattice for _, R in catalog.search_rectangular(24)]
        assert len(found) == 564
        assert all(self._agree(L.n, L.covers(), rng) for L in found)

    def test_random_closure_lattices(self):
        rng = random.Random(23)
        drawn = [helpers.random_closure_lattice(rng) for _ in range(300)]
        assert all(self._agree(*_relabelled(L, rng), rng) for L in drawn)

    def test_random_bounded_posets(self):
        rng = random.Random(29)
        verdicts = [
            self._agree(*helpers.random_bounded_poset(rng, rng.randint(2, 14)), rng)
            for _ in range(600)
        ]
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100


class TestJoinTestOnEveryBoundedPoset:
    """The join test on pairs of upper covers against the scan of every
    join-irreducible ``p`` and every ``x`` incomparable to it, on every
    bounded poset on at most 8 elements."""

    def test_same_verdict_and_text(self):
        rng = random.Random(33)
        verdicts = []
        for size, covers in helpers.bounded_posets(8):
            perm = rng.sample(range(size), size)
            covers = [(perm[a], perm[b]) for a, b in covers]
            rng.shuffle(covers)
            try:
                helpers.reference_join_scan(size, covers)
                want = None
            except NotALattice as exc:
                want = str(exc)
            try:
                core.make_lattice_with_map(size, covers)
                got = None
            except NotALattice as exc:
                got = str(exc)
            assert got == want, (size, covers)
            verdicts.append(got is None)
        assert len(verdicts) == 5231
        assert (verdicts.count(True), verdicts.count(False)) == (4006, 1225)

    def test_scan_finds_no_pair_in_a_lattice(self):
        for name in ("s7", "n5", "m3", "grid-2x3"):
            L = catalog.get(name)
            assert core._unjoined(L._up, L._down, L._lower, range(L.n)) is None

    def test_failed_pair_that_the_scan_misses_is_a_postcondition(self, monkeypatch):
        # 1 and 2 cover 0 and have the two minimal upper bounds 3 and 4
        covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
        with pytest.raises(NotALattice, match="^elements 1 and 2 have no least upper bound$"):
            core.make_lattice(6, covers)
        monkeypatch.setattr(core, "_unjoined", lambda *args: None)
        with pytest.raises(PostconditionFailed, match="yet every join with a join-irreducible"):
            core.make_lattice(6, covers)

    def test_large_boolean_lattices_against_the_scan(self):
        # 2^10, with 45 pairs of covers at most elements, and 2^10 with one
        # element doubled, which breaks joins: the same verdict and text
        B = core.chain(2)
        for _ in range(9):
            B = core.direct_product(B, core.chain(2))
        x = 300
        doubled = B.covers() + [(y, B.n) for y in B.lower_covers(x)]
        doubled += [(B.n, z) for z in B.upper_covers(x)]
        cases = [_relabelled(B, random.Random(10)), (B.n + 1, doubled)]
        texts = []
        for size, covers in cases:
            try:
                helpers.reference_join_scan(size, covers)
                want = None
            except NotALattice as exc:
                want = str(exc)
            try:
                core.make_lattice_with_map(size, covers)
                got = None
            except NotALattice as exc:
                got = str(exc)
            assert got == want
            texts.append(got)
        assert texts[0] is None and texts[1].endswith("have no least upper bound")


class TestResourceBounds:
    """No n-by-n table: memory and time grow with the masks, not with n²."""

    def test_long_chain_memory(self):
        tracemalloc.start()
        try:
            C = core.chain(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert C.join(3, 1999) == 1999
        assert peak < 40 * 2**20, peak

    def test_downset_lattice_of_con_grid_2x12(self):
        con = cg.congruence_lattice(rl.grid(2, 12).lattice)
        ds = helpers.brute_downsets(con.ji_order)
        rows = core._downset_rows(con.ji_order, ds)
        covers = [(i, j) for i, row in enumerate(rows) for j in row]
        assert len(ds) == 4096
        tracemalloc.start()
        try:
            L = core.make_lattice(len(ds), covers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert L.n == 4096
        # two 4096-by-4096 tables would take over 256 MB; the masks take 9 MB
        assert peak < 40 * 2**20, peak


def _verify_with_float_embedding():
    A = catalog.get("grid-2x2")
    D = cg.congruence_lattice(A).as_lattice()
    phi = birkhoff.make_bounded_hom(D, D, range(D.n))
    verify.verify_filter_representation(A, (0, 1, 2, 3.0), range(4), phi)


class TestNonIntegralIds:
    """Element ids must be what ``operator.index`` accepts; int() would truncate."""

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda: core.make_lattice(2, [(0, 1.7)]), "1.7"),
            (lambda: core.make_lattice(2, [(0, 1)], upper_order={0: [1.0]}), "1.0"),
            (lambda: core.make_lattice(2, [(0, 1)], lower_order={"1": [0]}), "'1'"),
            (lambda: core.is_ideal(core.chain(3), [0, 1.2]), "1.2"),
            (lambda: core.is_convex_sublattice(core.chain(3), [0.5, 1]), "0.5"),
            (lambda: lemmas.singleton_extension(core.chain(3), [0, 1.9], [[0, 1]]), "1.9"),
            (lambda: lemmas.singleton_extension(core.chain(3), [0, 1], [[0, 1.0]]), "1.0"),
            (lambda: rl.glue(core.chain(2), core.chain(2), {1: 0.5}), "0.5"),
            (_verify_with_float_embedding, "3.0"),
            (lambda: birkhoff.make_bounded_hom(core.chain(2), core.chain(2), [0, 1.6]), "1.6"),
            (lambda: birkhoff.IsotoneMap(core.Poset(1, []), core.Poset(1, []), [0.0]), "0.0"),
            (lambda: birkhoff.make_bounded_hom(core.chain(3), core.chain(3), [0, "1", 2.5]), "'1'"),
            (lambda: birkhoff.IsotoneMap(core.Poset(2, []), core.Poset(2, []), [0, "1"]), "'1'"),
            (lambda: birkhoff.make_bounded_hom(
                core.chain(3), core.chain(3), (x for x in [0, 1, 2.0])), "2.0"),
            (lambda: cg.principal_congruence(core.chain(3), 0, 1.5), "1.5"),
            (lambda: cg.principal_congruence(core.chain(3), "2", 1), "'2'"),
        ],
        ids=[
            "cover", "upper-order", "lower-order-key", "ideal", "convex", "singleton-ideal",
            "singleton-blocks", "glue", "verify-embedding", "bounded-hom",
            "isotone-map", "bounded-hom-text", "isotone-map-text", "bounded-hom-generator",
            "principal-congruence", "principal-congruence-first",
        ],
    )
    def test_rejected_naming_the_value(self, call, bad):
        with pytest.raises(ElementOutOfRange, match=f"^element id {re.escape(bad)} is not an integer$"):
            call()

    def test_integer_types_accepted(self):
        L = core.make_lattice(3, [(False, True), (True, 2)])
        assert L.covers() == [(0, 1), (1, 2)]
        assert core.is_ideal(L, [0, True])
        one = helpers.IntLike(1)
        V = core.make_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)], upper_order={0: [2, one]})
        assert V.upper_covers(0) == (2, 1)
        W = core.make_lattice(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], lower_order={helpers.IntLike(3): [2, one]}
        )
        assert W.lower_covers(3) == (2, 1)
        S = s7()
        four, six = helpers.IntLike(4), helpers.IntLike(6)
        assert cg.principal_congruence(S, four, six) == cg.principal_congruence(S, 4, 6)
        assert cg.principal_congruence(S, True, 0) == cg.principal_congruence(S, 1, 0)
        C = core.chain(3)
        ints = [0, True, helpers.IntLike(2)]
        assert birkhoff.make_bounded_hom(C, C, ints).assignment == (0, 1, 2)
        assert birkhoff.IsotoneMap(C, C, iter(ints)).assignment == (0, 1, 2)

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda: birkhoff.make_bounded_hom(core.chain(3), core.chain(3), [0, 7, -1]),
             "image 7 out of range for size 3"),
            (lambda: birkhoff.make_bounded_hom(core.chain(3), core.chain(3), [0, -1, 7]),
             "image -1 out of range for size 3"),
            (lambda: birkhoff.IsotoneMap(core.Poset(3, []), core.Poset(3, []), [0, 3, -2]),
             "image 3 out of range for size 3"),
        ],
        ids=["bounded-hom", "bounded-hom-negative", "isotone-map"],
    )
    def test_first_image_out_of_range_named(self, call, text):
        """The range is checked by ``min``/``max``; the text still names the
        first image out of range (texts frozen on the per-entry loop)."""
        with pytest.raises(ElementOutOfRange, match=f"^{re.escape(text)}$"):
            call()

    @pytest.mark.parametrize("kind", ["upper_order", "lower_order"])
    @pytest.mark.parametrize(
        "row", [[1.5], ["1"], [5], [-1], [2, 2], [2], [helpers.IntLike(2), 1.0]],
        ids=["float", "str", "too-large", "negative", "repeated", "short", "float-late"],
    )
    def test_iterator_rows_fail_as_list_rows(self, kind, row):
        """A cover-order row is read once, so an iterator gives the list's text."""
        key = 0 if kind == "upper_order" else 3

        def build(r):
            with pytest.raises(LatconError) as info:
                core.make_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)], **{kind: {key: r}})
            return type(info.value), str(info.value)

        assert build(iter(row)) == build(row)

    @pytest.mark.parametrize("kind", ["upper_order", "lower_order"])
    def test_iterator_rows_build_as_list_rows(self, kind):
        covers = [(0, 1), (0, 2), (1, 3), (2, 3)]
        rows = {0: [2, helpers.IntLike(1)], True: [3]} if kind == "upper_order" else \
            {3: [2, 1], 1: [0], 0: []}
        want = core.make_lattice(4, covers, **{kind: rows})
        got = core.make_lattice(4, covers, **{kind: {k: iter(r) for k, r in rows.items()}})
        assert got == want != core.make_lattice(4, covers)  # equality compares cover orders

    def test_bulk_conversion(self):
        one = helpers.IntLike(1)
        assert core._element_ids(x for x in [0, one, True]) == (0, 1, 1)
        assert core._element_ids(range(3)) == (0, 1, 2)
        assert core._element_ids([4, 5]) == (4, 5)
        with pytest.raises(ElementOutOfRange, match=r"^element id 2\.5 is not an integer$"):
            core._element_ids(iter([0, one, 2.5]))

    def test_json_text_unchanged(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"size": 2, "covers": [[0, 1.7]]}')
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: cover entry must be an integer, got 1.7\n"


def _unread_covers():
    """A cover list that fails if read: a size is checked before the covers."""
    raise AssertionError("covers read before the size was checked")
    yield


class TestSizeArguments:
    """A size is what ``operator.index`` takes, but not a ``bool``; a bad one
    raises the constructor's size error, naming the value."""

    @pytest.mark.parametrize(
        "call, error, text",
        [
            (lambda: core.chain(True), ZeroSize, "chain size must be an integer >= 1, got True"),
            (lambda: core.chain(1.5), ZeroSize, "chain size must be an integer >= 1, got 1.5"),
            (lambda: core.chain("3"), ZeroSize, "chain size must be an integer >= 1, got '3'"),
            (lambda: core.chain(0), ZeroSize, "chain size must be an integer >= 1, got 0"),
            (lambda: core.make_lattice(True, []), ZeroSize,
             "lattice size must be an integer >= 1, got True"),
            (lambda: core.make_lattice(2.0, _unread_covers()), ZeroSize,
             "lattice size must be an integer >= 1, got 2.0"),
            (lambda: core.make_lattice(None, _unread_covers()), ZeroSize,
             "lattice size must be an integer >= 1, got None"),
            (lambda: core.make_lattice_with_map(-3, _unread_covers()), ZeroSize,
             "lattice size must be an integer >= 1, got -3"),
            (lambda: core.Poset(1.5, _unread_covers()), ZeroSize,
             "poset size must be an integer >= 0, got 1.5"),
            (lambda: core.Poset(False, []), ZeroSize, "poset size must be an integer >= 0, got False"),
            (lambda: core.Poset(-1, []), ZeroSize, "poset size must be an integer >= 0, got -1"),
            (lambda: rl.grid(2.5, 2), SizeTooSmall, "grid side must be an integer >= 2, got 2.5"),
            (lambda: rl.grid(2, True), SizeTooSmall, "grid side must be an integer >= 2, got True"),
            (lambda: rl.grid(1, 5), SizeTooSmall, "grid side must be an integer >= 2, got 1"),
            (lambda: rl.grid_with_eyes("2", 2, []), SizeTooSmall,
             "grid side must be an integer >= 2, got '2'"),
        ],
        ids=[
            "chain-bool", "chain-float", "chain-str", "chain-zero", "lattice-bool",
            "lattice-float", "lattice-none", "lattice-negative", "poset-float", "poset-bool",
            "poset-negative", "grid-float", "grid-bool", "grid-small", "eyes-str",
        ],
    )
    def test_rejected_naming_the_value(self, call, error, text):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            call()

    def test_integer_types_accepted(self):
        two, three = helpers.IntLike(2), helpers.IntLike(3)
        assert core.chain(three) == core.chain(3)
        assert core.make_lattice(two, [(0, 1)]) == core.chain(2)
        assert core.Poset(two, [(0, 1)]) == core.Poset(2, [(0, 1)])
        assert core.Poset(0, []).n == 0
        assert rl.grid(two, three).lattice == rl.grid(2, 3).lattice
        assert all(type(L.n) is int for L in (core.chain(three), rl.grid(two, three).lattice))


class TestOrderArithmetic:
    def test_meet_join_against_order_scan(self):
        L = s7()
        height = core._heights(L)[0].__getitem__
        for x in range(L.n):
            for y in range(L.n):
                lower = [z for z in range(L.n) if L.leq(z, x) and L.leq(z, y)]
                upper = [z for z in range(L.n) if L.leq(x, z) and L.leq(y, z)]
                assert L.meet(x, y) == max(lower, key=height)
                assert L.join(x, y) == min(upper, key=height)

    def test_leq_is_reflexive_transitive_antisymmetric(self):
        L = s7()
        n = L.n
        for x in range(n):
            assert L.leq(x, x)
            for y in range(n):
                if x != y and L.leq(x, y):
                    assert not L.leq(y, x)
                for z in range(n):
                    if L.leq(x, y) and L.leq(y, z):
                        assert L.leq(x, z)

    def test_interval_and_updown(self):
        L = s7()
        assert L.up(4) == (4, 6)
        assert L.down(4) == (0, 1, 2, 4)

    @pytest.mark.parametrize(
        "order", [core.chain(3), core.join_irreducibles(rl.grid(2, 2).lattice)],
        ids=["lattice", "poset"],
    )
    @pytest.mark.parametrize("side", ["up", "down"])
    def test_updown_reject_bad_ids(self, order, side):
        # the id is range-checked, not used as a list index: -1 is no
        # alias for the top
        query = getattr(order, side)
        for x in (-1, order.n, order.n + 3):
            with pytest.raises(
                ElementOutOfRange, match=f"^element {x} out of range for size {order.n}$"
            ):
                query(x)
        for x, shown in ((1.5, "1.5"), ("0", "'0'"), (None, "None")):
            with pytest.raises(ElementOutOfRange, match=f"^element id {re.escape(shown)} is not an integer$"):
                query(x)
        masks = order._up if side == "up" else order._down
        for x in range(order.n):
            want = core._bits(masks[x])
            assert query(x) == query(helpers.IntLike(x)) == want

    def test_height_depth(self):
        L = s7()
        assert core._heights(L)[0] == [0, 1, 1, 2, 2, 2, 3]

    def test_irreducibles(self):
        L = s7()
        assert L.ji_elements() == (1, 2, 3, 5)
        # doubly irreducible: 4 has two lower covers, 0 none
        assert [x for x in range(7) if len(L.lower_covers(x)) == 1 == len(L.upper_covers(x))] == [3, 5]


class TestConstructors:
    def test_chain(self):
        C = core.chain(4)
        assert C.covers() == [(0, 1), (1, 2), (2, 3)]
        assert C.meet(1, 3) == 1 and C.join(1, 3) == 3

    def test_direct_product_square(self):
        P = core.direct_product(core.chain(2), core.chain(3))
        assert P.n == 6
        assert core.is_distributive(P)
        assert len(P._upper[0]) == 2

    def test_glued_sum_of_chains_is_chain(self):
        G = rl.glue(core.chain(3), core.chain(2), {2: 0}).lattice
        assert core.are_isomorphic(G, core.chain(4))

    def test_glued_sum_sizes(self):
        A = core.direct_product(core.chain(2), core.chain(2))
        G = rl.glue(A, A, {A.top: A.bottom}).lattice
        assert G.n == 7
        assert set(G._upper[0]) == {1, 2}

    def test_sublattice_of_ideal(self):
        L = s7()
        K, to_parent, to_sub = core.sublattice(L, [0, 1, 2, 4])
        assert K.n == 4
        assert [to_parent[x] for x in range(4)] == [0, 1, 2, 4]
        assert to_sub[4] == 3
        assert K.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_sublattice_requires_convex_closure(self):
        L = s7()
        with pytest.raises(NotConvexSublattice):
            core.sublattice(L, [1, 2])  # missing meet 0 and join 4
        with pytest.raises(NotConvexSublattice):
            core.sublattice(L, [0, 1, 2, 6])  # closed but not convex

    @pytest.mark.parametrize(
        "check", [core.is_convex_sublattice, core.sublattice, cg.is_cp_extension],
        ids=["convex", "sublattice", "cp-extension"],
    )
    @pytest.mark.parametrize("bad, shown", [("a", "'a'"), (None, "None")], ids=["str", "none"])
    def test_set_ids_checked_before_sorting(self, check, bad, shown):
        # a mixed set that cannot be sorted names its first bad id, as
        # is_ideal always did, instead of failing inside sorted()
        L = rl.grid(2, 2).lattice
        with pytest.raises(ElementOutOfRange, match=f"^element id {re.escape(shown)} is not an integer$"):
            check(L, [0, bad])

    def test_set_ids_of_integer_types(self):
        L = rl.grid(2, 2).lattice
        ids = [True, helpers.IntLike(0), 2, helpers.IntLike(3)]
        assert core.is_convex_sublattice(L, ids)
        K, to_parent, to_sub = core.sublattice(L, ids)
        assert K == L and to_parent == (0, 1, 2, 3) and to_sub == {0: 0, 1: 1, 2: 2, 3: 3}
        assert cg.is_cp_extension(L, ids)


class TestPredicates:
    def test_distributive(self):
        assert core.is_distributive(core.chain(4))
        assert core.is_distributive(core.direct_product(core.chain(3), core.chain(3)))
        assert not core.is_distributive(s7())

    def test_semimodular(self):
        assert core.is_semimodular(s7())
        # both N5s on atoms 1, 2: 1 v 2 = 4 covers one of them only
        for long_side in (1, 2):
            N5 = core.make_lattice(5, [(0, 1), (0, 2), (long_side, 3), (3 - long_side, 4), (3, 4)])
            assert not core.is_semimodular(N5)

    def test_ideal_filter_masks(self):
        L = s7()
        ideal, filt = L.down(4), L.up(4)
        assert ideal == (0, 1, 2, 4)
        assert filt == (4, 6)

    def test_convexity_and_subuniverse(self):
        L = s7()
        assert lemmas.is_sublattice(L, [0, 1, 2, 4])
        assert not lemmas.is_sublattice(L, [1, 2])
        assert core.is_convex_sublattice(L, [1, 3, 4, 6])
        assert not core.is_convex_sublattice(L, [0, 6])
        assert core.is_ideal(L, [0, 1, 2, 4])
        assert not core.is_ideal(L, [1, 3])
        assert core.is_filter(L, [4, 6])
        assert not core.is_ideal(L, []) and not core.is_filter(L, [])

    def test_poset_labels_must_match_its_size(self):
        with pytest.raises(InvalidLattice, match="^labels length does not match poset size$"):
            core.Poset(2, [(0, 1)], labels=[7])


class TestConvexSublatticeAgainstReference:
    """The interval test against the pairwise definition in ``helpers``."""

    def test_seeded_subsets(self):
        lattices = [catalog.get(name) for name in lemmas.names()]
        lattices += [R.lattice for _, R in catalog.search_rectangular(14)]
        rng = random.Random(19)
        verdicts = []
        for L in lattices:
            for _ in range(60):
                a, b = sorted(rng.sample(range(L.n), 2)) if L.n > 1 else (0, 0)
                if rng.random() < 0.5 and L.leq(a, b):
                    S = set(L.up(a)) & set(L.down(b))
                    S ^= {rng.randrange(L.n)} if rng.random() < 0.5 else set()
                else:
                    S = set(rng.sample(range(L.n), rng.randint(1, L.n)))
                if not S:
                    continue
                got = core.is_convex_sublattice(L, S)
                assert got == helpers.reference_is_convex_sublattice(L, S), (L, S)
                verdicts.append(got)
        assert len(lattices) > 40
        assert 2_000 < len(verdicts) and verdicts.count(True) > 800 and verdicts.count(False) > 800

    @pytest.mark.parametrize("S", [[], [0, 7], [-1], [2, 1, 9]])
    def test_errors_as_the_reference(self, S):
        L = s7()
        with pytest.raises(LatconError) as want:
            helpers.reference_is_convex_sublattice(L, S)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            core.is_convex_sublattice(L, S)


def _order_dual(L):
    return core.make_lattice(L.n, [(b, a) for a, b in L.covers()])


class TestDistributivity:
    """The join-prime criterion against the exhaustive triple scan and, on
    lattices too large for it, against Birkhoff's scan of every element."""

    def _agree(self, lattices):
        verdicts = [core.is_distributive(L) for L in lattices]
        assert verdicts == [helpers.brute_is_distributive(L) for L in lattices]
        return verdicts

    def test_catalog(self):
        verdicts = self._agree([catalog.get(name) for name in lemmas.names()])
        assert 0 < sum(verdicts) < len(verdicts)

    def test_rectangular_search_and_order_duals(self):
        found = [R.lattice for _, R in catalog.search_rectangular(16)]
        verdicts = self._agree(found + [_order_dual(L) for L in found])
        assert 0 < sum(verdicts) < len(verdicts)

    def test_random_closure_lattices(self):
        rng = random.Random(11)
        drawn = [helpers.random_closure_lattice(rng) for _ in range(200)]
        verdicts = self._agree(drawn + [_order_dual(L) for L in drawn])
        assert verdicts[:200].count(False) > 100
        assert verdicts[200:] == verdicts[:200]  # distributivity is self-dual

    def test_downset_lattices_of_random_posets(self):
        rng = random.Random(13)
        lattices = [
            helpers.downset_lattice(helpers.random_poset(rng, rng.randint(0, 7)))
            for _ in range(40)
        ]
        assert all(self._agree(lattices))

    def test_products_of_chains_with_and_without_n5(self):
        n5, lattices = catalog.n5(), []
        for a, b in itertools.product(range(1, 5), range(1, 4)):
            C = core.direct_product(core.chain(a), core.chain(b))
            lattices += [C, core.direct_product(C, n5), core.direct_product(n5, C)]
        assert self._agree(lattices) == [True, False, False] * 12

    def test_con_lattices_of_the_catalog(self):
        lattices = [cg.congruence_lattice(catalog.get(name)).as_lattice()
                    for name in lemmas.names()]
        assert all(self._agree(lattices))

    def test_a6_outputs(self):
        assert len(helpers.a6_outputs()) == 34
        assert not any(self._agree(helpers.a6_outputs()))

    def test_large_lattices_against_birkhoffs_scan(self):
        lattices = [
            core.chain(512), core.chain(1024), rl.grid(24, 24).lattice,
            rl.grid_with_eyes(16, 16, [(i, i) for i in range(15)])[0].lattice,
            *(cg.congruence_lattice(rl.grid(k, k).lattice).as_lattice() for k in range(2, 7)),
        ]
        verdicts = [core.is_distributive(L) for L in lattices]
        assert verdicts == [helpers.reference_birkhoff_onto(L) for L in lattices]
        assert verdicts == [True, True, True, False, True, True, True, True, True]
        assert lattices[-1].n == 1024


class TestSemimodularity:
    """Birkhoff's local condition against the definition over every pair."""

    def _agree(self, lattices):
        verdicts = [core.is_semimodular(L) for L in lattices]
        assert verdicts == [helpers.brute_is_semimodular(L) for L in lattices]
        return verdicts

    def test_catalog(self):
        verdicts = self._agree([catalog.get(name) for name in lemmas.names()])
        assert 0 < sum(verdicts) < len(verdicts)

    def test_rectangular_search(self):
        found = [R.lattice for _, R in catalog.search_rectangular(24)]
        assert len(found) == 564
        assert all(self._agree(found))

    def test_random_closure_lattices_and_order_duals(self):
        rng = random.Random(17)
        drawn = [helpers.random_closure_lattice(rng) for _ in range(300)]
        verdicts = self._agree(drawn + [_order_dual(L) for L in drawn])
        assert verdicts[:300].count(False) > 100
        assert 0 < verdicts[300:].count(False) < 300


    def test_cover_rows_against_cover_masks(self):
        lattices = (
            [catalog.get(name) for name in lemmas.names()]
            + [R.lattice for _, R in catalog.search_rectangular(16)]
            + list(helpers.a6_outputs()) + list(helpers.small_lattices())
        )
        verdicts = [core.is_semimodular(L) for L in lattices]
        assert verdicts == [helpers.reference_is_semimodular(L) for L in lattices]
        assert 0 < verdicts.count(False) < len(verdicts)

    def test_joins_covering_neither_cover(self):
        for L in helpers.non_semimodular_lattices():
            assert any(
                L.join(a, b) not in L.upper_covers(a) + L.upper_covers(b)
                for c in range(L.n) for a, b in itertools.combinations(L.upper_covers(c), 2)
            )
            assert not core.is_semimodular(L)
            assert not helpers.reference_is_semimodular(L)
            assert not helpers.brute_is_semimodular(L)

    def test_catalog_verdicts_frozen(self):
        # n5 is the only catalog lattice that is not semimodular
        names = lemmas.names()
        assert [n for n in names if not core.is_semimodular(catalog.get(n))] == ["n5"]
        assert core.is_semimodular(catalog.stacked_m3())


@functools.cache
def _catalog_and_search16():
    return [catalog.get(name) for name in lemmas.names()] + [
        R.lattice for _, R in catalog.search_rectangular(16)
    ]


class TestDerivedPerCall:
    """A lattice stores only its order; heights, depths, the invariant and
    cover tests are derived per call and checked against oracles."""

    def test_storage_is_the_order_and_four_lazy_caches(self):
        # an eager per-element table would add a slot here
        L = s7()
        slots = {s for cls in type(L).__mro__ for s in getattr(cls, "__slots__", ())}
        assert slots == {
            "n", "_up", "_down", "_upper", "_lower",
            "_con", "_ji", "_distributive", "_birkhoff",
        }
        assert not hasattr(L, "__dict__")

    def test_heights_match_longest_chains(self):
        for L in _catalog_and_search16():
            height, depth = helpers.brute_heights(L)
            assert core._heights(L) == (height, depth)

    def test_invariant_matches_longest_chain_oracle(self):
        for L in _catalog_and_search16():
            height, depth = helpers.brute_heights(L)
            want = tuple(sorted(
                (
                    height[x],
                    depth[x],
                    len(L.upper_covers(x)),
                    len(L.lower_covers(x)),
                    bin(L._up[x]).count("1"),
                    bin(L._down[x]).count("1"),
                )
                for x in range(L.n)
            ))
            assert core.invariant(L) == want


class TestJoinIrreduciblePoset:
    def test_built_once_per_lattice(self):
        for name in lemmas.names():
            L = catalog.get(name)
            P = core.join_irreducibles(L)
            assert core.join_irreducibles(L) is P
            assert list(P.labels) == helpers.brute_join_irreducibles(L)

    def test_ji_poset_matches_brute_scan(self):
        for L in (
            s7(),
            core.chain(4),
            core.direct_product(core.chain(2), core.chain(3)),
            catalog.get("n5"),
            catalog.get("stacked-m3"),
            catalog.rect_catalog()["s7-eye"].lattice,
        ):
            P = core.join_irreducibles(L)
            assert list(P.labels) == helpers.brute_join_irreducibles(L)
            j = P.labels
            assert P.covers() == helpers.brute_covers(P.n, lambda a, b: L.leq(j[a], j[b]))
            con = cg.congruence_lattice(L)
            t = helpers.ji_congruences(con)
            assert con.ji_order.covers() == helpers.brute_covers(
                con.ji_order.n, lambda a, b: helpers.refines(t[a], t[b])
            )

    def test_downset_lattice_of_two_antichain(self):
        P = core.join_irreducibles(core.direct_product(core.chain(2), core.chain(2)))
        D = helpers.downset_lattice(P)
        assert core.are_isomorphic(D, core.direct_product(core.chain(2), core.chain(2)))

    def test_distributive_lattice_rebuilds_from_downsets(self):
        L = core.direct_product(core.chain(3), core.chain(2))
        D = helpers.downset_lattice(core.join_irreducibles(L))
        assert core.are_isomorphic(D, L)


class TestDownsets:
    @pytest.mark.parametrize(
        "n, covers",
        [(0, []), (4, []), (3, [(2, 0), (1, 0)]), (4, [(3, 1), (1, 0), (2, 0)])],
        ids=["empty", "antichain", "positions-not-extension", "chain-above-fork"],
    )
    def test_matches_brute_scan(self, n, covers):
        P = core.Poset(n, covers)
        assert sorted(core._downsets(P)) == sorted(helpers.brute_downsets(P))

    def test_random_posets(self):
        rng = random.Random(7)
        for _ in range(40):
            P = helpers.random_poset(rng, rng.randint(0, 8))
            ds = helpers.brute_downsets(P)
            assert sorted(core._downsets(P)) == sorted(ds)
            assert helpers.downset_lattice(P).covers() == helpers.brute_covers(
                len(ds), lambda a, b: not ds[a] & ~ds[b]
            )

    def test_bounded_count_stops_at_its_bound(self):
        # the first ``stop`` down-sets, and never more
        rng = random.Random(35)
        for _ in range(40):
            P = helpers.random_poset(rng, rng.randint(0, 8))
            found = list(core._downsets(P))
            assert sorted(found) == sorted(helpers.brute_downsets(P))
            for stop in range(1, len(found) + 2):
                assert list(itertools.islice(core._downsets(P), stop)) == found[:stop]
                assert core._count(core._downsets(P), stop) == min(stop, len(found))
        wide = core.Poset(63, [])  # 2^63 down-sets
        assert core._count(core._downsets(wide), 16385) == 16385

    def test_zero_sets_of_maps_to_two(self):
        # x -> [x not in d] is an isotone map to the 2-chain for each
        # down-set d, and every such map is one; numberings include ones
        # that are no linear extension
        two = core.Poset(2, [(0, 1)])
        rng = random.Random(46)
        for k in range(60):
            P = helpers.random_poset(rng, rng.randint(0, 9), shuffle=k % 2 == 0)
            zeros = [sum(1 << x for x, v in enumerate(f) if not v)
                     for f in birkhoff.enumerate_isotone_maps(P, two)]
            assert sorted(core._downsets(P)) == sorted(zeros)

    def test_depth_first_fills_nothing_once(self):
        def never(x):
            raise AssertionError(f"candidates({x}) read for n == 0")
        assert list(core._depth_first(0, never, [])) == [None]

    def test_depth_first_outlasts_the_recursion_limit(self):
        out = [0] * 5000
        assert sum(1 for _ in core._depth_first(5000, lambda x: (x,), out)) == 1
        assert out == list(range(5000))


class TestIsomorphism:
    def test_identity(self):
        L = s7()
        assert core.find_isomorphism(L, L) == list(range(7))

    def test_relabelled_diamond(self):
        A = core.make_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        B = core.make_lattice(4, [(0, 2), (0, 1), (2, 3), (1, 3)])
        iso = core.find_isomorphism(A, B)
        assert iso is not None
        for x, y in A.covers():
            assert iso[y] in B.upper_covers(iso[x])

    def test_distinguishes_different_shapes(self):
        A = core.direct_product(core.chain(2), core.chain(2))
        B = core.chain(4)
        assert core.find_isomorphism(A, B) is None
        assert not core.are_isomorphic(A, B)

    def test_long_chain_needs_no_recursion(self):
        C = core.chain(1500)
        assert core.find_isomorphism(C, C) == list(range(1500))

    def test_matches_recursive_reference(self):
        rng = random.Random(11)
        lattices = [R.lattice for _, R in catalog.search_rectangular(16)]
        relabelled = []
        for L in lattices:
            perm = rng.sample(range(L.n), L.n)
            relabelled.append(core.make_lattice(L.n, [(perm[a], perm[b]) for a, b in L.covers()]))
        found = 0
        for A in lattices:
            for B in lattices + relabelled:
                iso = core.find_isomorphism(A, B)
                assert iso == helpers.reference_find_isomorphism(A, B)
                found += iso is not None
        assert found == 2 * len(lattices)

    def test_search_alone_without_signatures(self, monkeypatch):
        # with every signature alike only the backtracking tells lattices apart
        monkeypatch.setattr(core, "_signatures", lambda L: [()] * L.n)
        assert core.find_isomorphism(catalog.n5(), catalog.m3().lattice) is None
        rng = random.Random(12)
        lattices = [catalog.n5(), s7()] + [R.lattice for R in catalog.rect_catalog().values()]
        found = 0
        for A in lattices:
            perm = rng.sample(range(A.n), A.n)
            B = core.make_lattice(A.n, [(perm[a], perm[b]) for a, b in A.covers()])
            for C in lattices + [B]:
                iso = core.find_isomorphism(A, C)
                assert iso == helpers.reference_find_isomorphism(A, C)
                found += iso is not None
        assert found > len(lattices)
