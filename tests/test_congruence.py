"""Congruences, their lattice, edge coloring, and extensions."""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
import types
from collections.abc import ItemsView, Mapping
from itertools import product
from pathlib import Path

import pytest

import helpers
import lemmas
from latcon import birkhoff, catalog, construction, core, jsonio
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import ElementOutOfRange, EmbeddingInvalid, PostconditionFailed

S7 = catalog.get("s7")
N5 = core.make_lattice(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


def _closure(L, pairs):
    """The kernel's least congruence collapsing ``pairs`` (ids in range)."""
    return cg.Congruence(L, cg._closure(L, list(pairs)))


# frozen: brute-force partition filtering, cross-checked below
CON_S7_BLOCKS = [
    ((0,), (1,), (2,), (3,), (4,), (5,), (6,)),
    ((0,), (1, 3), (2, 5), (4, 6)),
    ((0, 1, 3), (2, 4, 5, 6)),
    ((0, 2, 5), (1, 3, 4, 6)),
    ((0, 1, 2, 3, 4, 5, 6),),
]
S7_EDGE_COLOR = {
    (0, 1): 2, (0, 2): 3, (1, 3): 1, (1, 4): 3, (2, 4): 2,
    (2, 5): 1, (3, 6): 3, (4, 6): 1, (5, 6): 2,
}
CON_SIZES = {
    "m3": 2, "n5": 5, "chain-4": 8, "grid-2x2": 4, "grid-2x3": 8, "cube": 8,
}


def ji_labels(con):
    """The index in ``congruences`` of each join-irreducible congruence."""
    index = helpers.cls_index(con)
    return [index[c] for c in helpers.theta_tables(con)]


class TestCongruenceObject:
    def test_blocks_are_canonicalized(self):
        # the labels of the blocks [[6, 4], [5, 2], [3, 1], [0]], by position
        a = cg.Congruence(S7, [3, 2, 1, 2, 0, 1, 0])
        assert a.blocks == ((0,), (1, 3), (2, 5), (4, 6))
        assert a.cls == (0, 1, 2, 1, 3, 2, 3)
        assert a.cls[4] == a.cls[6] and a.cls[0] != a.cls[1]

    @pytest.mark.parametrize(
        "ideal_part",
        [[[0, 1], [2, 4], []], [[0, 1], [2, 4, 5]], [[0, 1], [1, 2, 4]], [[0, 1], [2]]],
        ids=["empty-block", "outside", "twice", "missing"],
    )
    def test_one_validator_for_both_entry_points(self, ideal_part):
        # each fault of a partition of the ideal raises NotAPartition
        with pytest.raises(lemmas.NotAPartition):
            lemmas.singleton_extension(S7, [0, 1, 2, 4], ideal_part)

    def test_refines_meet_join(self):
        # the order, meet and join of Con L come from the down-sets
        con = cg.congruence_lattice(S7)
        cs, lat, theta = con.congruences, con.as_lattice(), helpers.ji_congruences(con)
        ds = [sum(1 << p for p, t in enumerate(theta) if helpers.refines(t, c)) for c in cs]
        assert ds == [0b000, 0b001, 0b011, 0b101, 0b111]
        assert helpers.refines(cs[0], cs[1]) and helpers.refines(cs[1], cs[4])
        assert not helpers.refines(cs[2], cs[3])
        assert lat.meet(2, 3) == 1 and ds[2] & ds[3] == ds[1]
        assert lat.join(2, 3) == 4 and ds[2] | ds[3] == ds[4]

    def test_principal_generated(self):
        theta = cg.principal_congruence(S7, 4, 6)
        assert theta.blocks == ((0,), (1, 3), (2, 5), (4, 6))
        grown = _closure(S7, [(4, 6), (0, 1)])
        assert grown.blocks == ((0, 1, 3), (2, 4, 5, 6))


class TestConLattice:
    def test_s7_frozen(self):
        con = cg.congruence_lattice(S7)
        assert [c.blocks for c in con] == CON_S7_BLOCKS
        labels = ji_labels(con)
        assert labels == [1, 2, 3]
        assert [labels[p] for p in range(con.ji_order.n) if not con.ji_order.lower_covers(p)] == [1]
        assert {e: labels[p] for e, p in sorted(con.colors.items())} == S7_EDGE_COLOR

    def test_canonical_order_is_linear_extension(self):
        con = cg.congruence_lattice(S7)
        for i in range(len(con)):
            for j in range(len(con)):
                if helpers.refines(con.congruences[i], con.congruences[j]):
                    assert i <= j

    def test_counts_against_brute_force(self):
        for name, want in CON_SIZES.items():
            L = catalog.get(name)
            con = cg.congruence_lattice(L)
            assert len(con) == want, name
            got = {helpers.blocks_key(c.blocks) for c in con}
            assert got == helpers.brute_congruences(L), name

    def test_catalog_is_small_enough_for_brute_force(self):
        assert all(L.n <= 10 for L in catalog.congruence_catalog().values())

    def test_as_lattice_matches_refinement(self):
        con = cg.congruence_lattice(catalog.get("grid-2x3"))
        lat = con.as_lattice()
        assert lat.n == len(con)
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.leq(i, j) == helpers.refines(con.congruences[i], con.congruences[j])

    def test_edge_color_is_principal_congruence(self):
        for name in ("s7", "grid-2x3", "m3"):
            L = catalog.get(name)
            con = cg.congruence_lattice(L)
            theta = helpers.ji_congruences(con)
            for (a, b), p in con.colors.items():
                assert theta[p].blocks == cg.principal_congruence(L, a, b).blocks

    def test_ji_poset_labels_are_the_join_irreducible_congruences(self):
        con = cg.congruence_lattice(catalog.get("grid-2x3"))
        lat = con.as_lattice()
        assert tuple(ji_labels(con)) == lat.ji_elements()

    def test_restriction_indices(self, monkeypatch):
        con = cg.congruence_lattice(S7)
        down = con.ji_order._down
        assert helpers.reference_ji_restriction(con, range(7), con) == [0, 1, 2]
        assert cg._restricted(con, range(7), con) == down
        assert cg.restriction_mismatch(con, range(7), con) is None
        # the ideal below 3 is a 3-element chain: {0,1,3},{2,4,5,6} restricts to
        # all of it, and the other two both to {0},{1,3}
        sub, to_parent, _ = core.sublattice(S7, [0, 1, 3])
        con_k = cg.congruence_lattice(sub)
        assert [t.blocks for t in helpers.ji_congruences(con_k)] == [((0,), (1, 2)), ((0, 1), (2,))]
        assert helpers.reference_ji_restriction(con, to_parent, con_k) == [0, None, 0]
        assert cg._restricted(con, to_parent, con_k) == [0b01, 0b11, 0b01]
        assert cg.restriction_mismatch(con, to_parent, con_k) == (
            "join-irreducible congruence [[0, 1, 3], [2, 4, 5, 6]]"
            " restricts to no join-irreducible one"
        )
        # on the square below 4, {1,3},{2,5},{4,6} restricts to equality
        sub, to_parent, _ = core.sublattice(S7, [0, 1, 2, 4])
        con_k = cg.congruence_lattice(sub)
        assert helpers.reference_ji_restriction(con, to_parent, con_k) == [None, 0, 1]
        assert cg._restricted(con, to_parent, con_k) == [0b00, 0b01, 0b10]
        # N5's interval [2, 3] is a 2-element chain: two ordered join-irreducible
        # congruences both restrict to all of it
        N5 = catalog.n5()
        sub, to_parent, _ = core.sublattice(N5, [2, 3])
        con_n5 = cg.congruence_lattice(N5)
        assert cg.restriction_mismatch(con_n5, to_parent, cg.congruence_lattice(sub)) == (
            "join-irreducible congruences [[0, 1], [2, 3, 4]] and"
            " [[0], [1], [2, 3], [4]] are ordered unlike their restrictions"
        )
        # maps that no restriction gives here reach the other witnesses
        monkeypatch.setattr(cg, "_restricted", lambda *_: [down[1], down[2], down[0]])
        assert cg.restriction_mismatch(con, range(7), con) == (
            "join-irreducible congruences [[0], [1, 3], [2, 5], [4, 6]] and"
            " [[0, 1, 3], [2, 4, 5, 6]] are ordered unlike their restrictions"
        )
        monkeypatch.setattr(cg, "_restricted", lambda *_: [down[0], down[1], down[1]])
        assert cg.restriction_mismatch(con, range(7), con) == (
            "join-irreducible congruences [[0, 1, 3], [2, 4, 5, 6]] and"
            " [[0, 2, 5], [1, 3, 4, 6]] are ordered unlike their restrictions"
        )
        # a simple lattice whose interval [0, 2] is a 3-element chain, so
        # restriction must hit one of two join-irreducibles
        simple = rl.grid_with_eyes(3, 3, [(0, 0), (0, 1), (1, 0)])[0].lattice
        sub, to_parent, _ = core.sublattice(simple, [0, 1, 2])
        con_s, con_k = cg.congruence_lattice(simple), cg.congruence_lattice(sub)
        assert (con_s.ji_order.n, con_k.ji_order.n) == (1, 2)
        monkeypatch.setattr(cg, "_restricted", lambda *_: [con_k.ji_order._down[0]])
        assert cg.restriction_mismatch(con_s, to_parent, con_k) == (
            "only 1 of 2 join-irreducible congruences arise as restrictions"
        )

    def test_order_witness_is_the_first_pair_of_a_scan(self, monkeypatch):
        # every map of J(Con L) into itself, on lattices with 3 and 4
        # join-irreducible congruences, against the pair scan through ``leq``
        for L in (S7, rl.grid(3, 3).lattice):
            con = cg.congruence_lattice(L)
            P = con.ji_order
            for image in product(range(P.n), repeat=P.n):
                monkeypatch.setattr(cg, "_restricted", lambda *_: [P._down[q] for q in image])
                bad = next(((r, s) for r in range(P.n) for s in range(P.n)
                            if P.leq(r, s) != P.leq(image[r], image[s])), None)
                got = cg.restriction_mismatch(con, range(L.n), con)
                if bad is None:
                    assert got is None, image
                else:
                    r, s = (list(map(list, helpers.ji_congruences(con)[i].blocks)) for i in bad)
                    assert got == (f"join-irreducible congruences {r} and {s}"
                                   " are ordered unlike their restrictions"), image

    # from s7 to the 3-chain: no convex copy of the chain, numbered as it
    # is; each returned a witness text before the embedding was checked
    NOT_CARRIED = [[0, 3, 6], [6, 4, 0], [0, 1], [0, 1, 3, 4]]

    @pytest.mark.parametrize("emb", NOT_CARRIED, ids=map(str, NOT_CARRIED))
    def test_embedding_that_carries_no_copy_is_rejected(self, emb):
        con, con_k = cg.congruence_lattice(S7), cg.congruence_lattice(core.chain(3))
        with pytest.raises(EmbeddingInvalid, match=(
            rf"^\[{', '.join(map(str, emb))}\] does not list K as a convex sublattice of L$"
        )):
            cg.restriction_mismatch(con, emb, con_k)


def _assert_matches_reference(L):
    new = cg.congruence_lattice(L)
    old = helpers.reference_congruence_lattice(L)
    cs = old.congruences
    # the eager dual first: on a fresh lattice, len counts down-sets
    assert len(new) == len(cs)
    assert [t.blocks for t in helpers.ji_congruences(new)] == [cs[i].blocks for i in old.ji.labels]
    assert new.ji_order.covers() == old.ji.covers()
    assert {e: old.ji.labels[p] for e, p in new.colors.items()} == old.edge_color
    assert [c.blocks for c in new] == [c.blocks for c in cs]
    assert helpers.cls_index(new) == old.index
    assert ji_labels(new) == list(old.ji.labels)
    assert new.as_lattice().covers() == helpers.brute_covers(
        len(cs), lambda i, j: helpers.refines(cs[i], cs[j])
    )


@pytest.fixture(scope="module")
def searched():
    return [R.lattice for _, R in catalog.search_rectangular(16)]


class TestDownSetConstruction:
    """The down-set construction of Con L against the 2^j subset scan."""

    def test_searched_lattices(self, searched):
        assert len(searched) == 117
        for L in searched:
            _assert_matches_reference(L)

    def test_order_duals(self, searched):
        for L in searched:
            _assert_matches_reference(core.make_lattice(L.n, [(b, a) for a, b in L.covers()]))

    def test_random_relabellings(self):
        rng = random.Random(4)
        for name in ("s7", "n5", "grid-2x3", "cube", "m3"):
            L = catalog.get(name)
            for _ in range(3):
                perm = rng.sample(range(L.n), L.n)
                M = core.make_lattice(L.n, [(perm[a], perm[b]) for a, b in L.covers()])
                _assert_matches_reference(M)


class TestRandomLattices:
    """The D* kernel against the subset scan off planar lattices.

    Freese's characterization holds in every finite lattice; random
    intersection-closed families reach non-modular ones of other shapes.
    """

    def test_random_closure_lattices(self):
        rng = random.Random(7)
        lattices = [helpers.random_closure_lattice(rng) for _ in range(200)]
        assert sum(not core.is_distributive(L) for L in lattices) > 100
        for L in lattices:
            _assert_matches_reference(L)


@pytest.fixture(scope="module")
def a6_outputs():
    """The 34 filter representations of the A6 sweep, up to 65 elements."""
    return helpers.a6_outputs()


class TestDRowsFromMeetIrreducibles:
    """Freese's D rows read off meet-irreducible witnesses against the rows
    from every witness."""

    def _agree(self, lattices):
        for L in lattices:
            assert cg._d_rows(L) == helpers.reference_d_rows(L), L

    def test_catalog_and_search(self, searched):
        self._agree([catalog.get(name) for name in lemmas.names()] + searched)

    def test_a6_outputs(self, a6_outputs):
        self._agree(a6_outputs)

    def test_non_semimodular_lattices(self):
        self._agree(helpers.non_semimodular_lattices())

    def test_every_lattice_up_to_eight_elements(self):
        lattices = helpers.small_lattices()
        assert len(lattices) == 4006
        self._agree(lattices)

    def test_random_closure_lattices(self):
        rng = random.Random(33)
        self._agree([helpers.random_closure_lattice(rng) for _ in range(200)])


class TestDStarByReachability:
    """D* closed by one search per row against Warshall's pass, and the
    order of the colors read off its masks against the checked ``Poset``."""

    def test_below_and_rep_match_warshall(self, a6_outputs):
        searched = [R.lattice for _, R in catalog.search_rectangular(24)]
        assert len(searched) == 564
        classes = 0
        for L in list(helpers.small_lattices()) + searched + list(a6_outputs) + [core.chain(512)]:
            below, rep = cg._d_star(L)
            ref_below, ref_rep = helpers.reference_d_star(L)
            assert list(below.items()) == list(ref_below.items())
            assert rep == ref_rep
            classes += len(set(rep.values())) < len(rep)
        assert classes > 0  # some classes of mutual D* hold more than one element

    def test_ji_order_matches_the_checked_poset(self, a6_outputs):
        for L in list(helpers.small_lattices()) + list(a6_outputs):
            P = cg.congruence_lattice(L).ji_order
            Q = helpers.reference_ji_order(cg.congruence_lattice(L))
            assert type(P) is core.Poset and P == Q
            assert (P.n, P.labels, P._up, P._down, P._upper, P._lower) == (
                Q.n, Q.labels, Q._up, Q._down, Q._upper, Q._lower)


class TestGeneratedCongruence:
    """The Technical Lemma closure against the closure over every element."""

    def _agree(self, L, pairs):
        got = _closure(L, pairs)
        assert got.cls == helpers.reference_generated_congruence(L, pairs).cls, pairs
        return got

    def test_catalog(self):
        for name in lemmas.names():
            L = catalog.get(name)
            for a, b in L.covers():
                self._agree(L, [(a, b)])
            self._agree(L, [(0, L.n - 1)])

    def test_covers_of_searched_lattices(self):
        found = [R.lattice for _, R in catalog.search_rectangular(24)]
        assert len(found) == 564
        for L in found:
            for e in L.covers():
                self._agree(L, [e])

    def test_covers_of_a6_outputs(self, a6_outputs):
        assert len(a6_outputs) == 34 and max(L.n for L in a6_outputs) == 65
        for L in a6_outputs:
            for e in L.covers():
                self._agree(L, [e])

    def test_random_pairs_on_random_closure_lattices(self):
        # 0-3 pairs, every fourth one with equal ends
        rng = random.Random(19)
        sizes, counts = [], set()
        for _ in range(300):
            L = helpers.random_closure_lattice(rng)
            pairs = []
            for _ in range(rng.randint(0, 3)):
                a = rng.randrange(L.n)
                pairs.append((a, a) if rng.random() < 0.25 else (a, rng.randrange(L.n)))
            counts.add(len(pairs))
            sizes.append(self._agree(L, pairs).nblocks)
        assert counts == {0, 1, 2, 3}
        assert 1 in sizes and max(sizes) > 4

    def test_equal_ends_give_equality(self):
        for name in ("s7", "n5", "cube"):
            L = catalog.get(name)
            assert self._agree(L, [(3, 3)]) == helpers.delta(L)
            assert self._agree(L, []) == helpers.delta(L)

    @pytest.mark.parametrize("pair", [(0, 7), (-1, 2), (7, 7)])
    def test_out_of_range(self, pair):
        with pytest.raises(ElementOutOfRange, match="out of range for size 7"):
            cg.principal_congruence(S7, *pair)
        with pytest.raises(ElementOutOfRange, match="out of range for size 7"):
            helpers.reference_generated_congruence(S7, [(0, 1), pair])


def _numbered_lattices(source, a6_outputs):
    """The catalog, the lattices of ``search_rectangular(12)`` or the A6
    outputs."""
    if source == "catalog":
        lattices = [catalog.get(name) for name in lemmas.names()]
    elif source == "rect12":
        lattices = [R.lattice for _, R in catalog.search_rectangular(12)]
    else:
        lattices = list(a6_outputs)
    assert len(lattices) == {"catalog": 21, "rect12": 44, "a6": 34}[source]
    return lattices


@pytest.mark.parametrize("source", ["catalog", "rect12", "a6"])
class TestNumberedJoinIrreducibles:
    """``construction._tied_colors`` reads ``ji_of_hom(phi).assignment`` as
    positions in the ``ji_order`` of Con F, ``verify`` reads the j-th
    join-irreducible of a hom's endpoint as the congruence of color j, and
    ``jsonio`` writes the elements of the numbered Con L with one lower
    cover as the join-irreducibles by position.  All are right because the
    join-irreducibles of the numbered Con L, in id order, are the
    congruences at the positions of ``ji_order``, in the same order."""

    def test_ji_of_the_numbered_con_are_the_theta_positions(self, source, a6_outputs):
        for L in _numbered_lattices(source, a6_outputs):
            con = cg.congruence_lattice(L)
            J = core.join_irreducibles(con.as_lattice())
            assert [con.congruences[i] for i in J.labels] == list(helpers.ji_congruences(con))
            assert list(J._up) == list(con.ji_order._up)

    def test_con_file_against_class_table_lookup(self, source, a6_outputs):
        for L in _numbered_lattices(source, a6_outputs):
            con = cg.congruence_lattice(L)
            obj = jsonio.con_lattice_to_obj(con)
            assert obj == helpers.reference_con_lattice_obj(con)


class TestLazyPartitionList:
    """The dual is built eagerly, the list of congruences on first read."""

    def test_size_and_simplicity_leave_the_list_unbuilt(self):
        for name in lemmas.names():
            L = catalog.get(name)
            con = cg.congruence_lattice(L)
            size, simple = len(con), cg.is_simple(L)
            assert con._full is None, name
            assert size == len(con.congruences), name
            assert simple == (size == 2), name

    def test_theta_are_the_join_irreducible_congruences(self):
        con = cg.congruence_lattice(catalog.s7().lattice)
        assert [t.blocks for t in helpers.ji_congruences(con)] == CON_S7_BLOCKS[1:4]
        assert con.ji_order.covers() == [(0, 1), (0, 2)]
        assert {e: ji_labels(con)[p] for e, p in con.colors.items()} == S7_EDGE_COLOR

    def test_equal_joins_raise_on_first_read(self):
        con = cg.congruence_lattice(catalog.s7().lattice)
        con.colors = dict.fromkeys(con.colors, 0)  # every nonempty down-set collapses all
        assert len(con) == 5
        with pytest.raises(PostconditionFailed, match="same join"):
            con.congruences


def _fresh_lattices():
    """The catalog and the rectangular lattices of up to 12 elements, each
    rebuilt from its covers, so none has a Con L yet."""
    named = [catalog.get(name) for name in lemmas.names()]
    named += [R.lattice for _, R in catalog.search_rectangular(12)]
    return [core.make_lattice(L.n, L.covers()) for L in named]


def _reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, without
    going into types, modules or functions, which every object reaches."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(
                ref, (type, types.ModuleType, types.FunctionType)
            ):
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


class TestThetaAsClassTables:
    """Con L keeps no class table: a join-irreducible congruence is read
    off the coloring when a caller asks for it, and a :class:`Congruence`
    exists only while a caller holds one."""

    def test_no_congruence_object_is_reachable_from_the_lattice(self):
        rects = list(catalog.rect_catalog().values())
        rects += [R for _, R in catalog.search_rectangular(12)]
        for R in rects:
            L = R.lattice
            con = cg.congruence_lattice(L)
            assert len(con) > 1
            assert len(helpers.ji_congruences(con)) == con.ji_order.n
            assert cg.is_cp_extension(L, L.down(L.n // 2)) in (True, False)
            construction.upper_chain_collapse_check(R)
            reached = _reachable(L)
            assert any(o is con for o in reached)
            tables = helpers.theta_tables(con)
            assert [o for o in reached if type(o) is tuple and any(o == t for t in tables)] == []
            assert [o for o in reached if isinstance(o, cg.Congruence)] == []
            assert con._full is None

    def test_con_l_retains_under_6000_bytes_per_lattice(self):
        # 10,475 B when theta held Congruence objects, 4,665 B as class tables
        lattices = [core.make_lattice(R.n, R.lattice.covers())
                    for _, R in catalog.search_rectangular(24)]
        assert len(lattices) == 564
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cons = [cg.congruence_lattice(L) for L in lattices]
            gc.collect()  # also empties the free lists that the temporaries left
            kept = (tracemalloc.get_traced_memory()[0] - before) / len(cons)
        finally:
            tracemalloc.stop()
        assert kept < 6000, kept

    def test_con_l_retains_under_3000_bytes_per_lattice(self):
        # 4,665 B with colors as a dict keyed by cover, 2,481 B as a flat tuple
        lattices = [core.make_lattice(R.n, R.lattice.covers())
                    for _, R in catalog.search_rectangular(24)]
        assert len(lattices) == 564
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cons = [cg.congruence_lattice(L) for L in lattices]
            gc.collect()
            kept = (tracemalloc.get_traced_memory()[0] - before) / len(cons)
        finally:
            tracemalloc.stop()
        assert kept < 3000, kept

    def test_theta_against_principal_closures(self, a6_outputs):
        for L in _fresh_lattices() + list(a6_outputs):
            con = cg.congruence_lattice(L)
            theta = helpers.ji_congruences(con)
            assert all(t.lattice is L for t in theta)
            for j in L.ji_elements():
                a = L.lower_covers(j)[0]
                p = con.colors[a, j]
                assert theta[p].cls == cg.principal_congruence(L, a, j).cls
                assert theta[p].cls == helpers.reference_generated_congruence(L, [(a, j)]).cls

    def test_faulty_closures_raise_the_reference_text(self, monkeypatch):
        rng = random.Random(18)
        closure = cg.principal_congruence

        def merging(target, extra):
            """con(a, b) that also merges the ends of ``extra`` when b is ``target``."""
            def faulty(L, a, b):
                return _closure(L, [(a, b), extra]) if b == target else closure(L, a, b)
            return faulty

        seen = {"none": 0, "missed": 0, "unordered": 0}
        for L in _fresh_lattices():
            J, covers = L.ji_elements(), L.covers()
            faults = [closure, lambda L, a, b: helpers.delta(L), _nabla]
            faults += [merging(rng.choice(J), rng.choice(covers)) for _ in range(4)]
            for fault in faults:
                want = helpers.reference_theta_check(L, fault)
                fresh = core.make_lattice(L.n, covers)
                monkeypatch.setattr(cg, "principal_congruence", fault)
                if want is None:
                    seen["none"] += 1
                    cg.congruence_lattice(fresh)
                else:
                    seen["unordered" if "unlike D*" in want else "missed"] += 1
                    with pytest.raises(PostconditionFailed) as info:
                        cg.congruence_lattice(fresh)
                    assert str(info.value) == want
                monkeypatch.setattr(cg, "principal_congruence", closure)
        assert min(seen.values()) >= 20, seen

    def test_principal_closures_read_no_outside_pairs(self, monkeypatch):
        # Con L's closures take ids it made itself, so they pass no pair
        # list through the readers of outside input
        named = [R.lattice for _, R in catalog.search_rectangular(12)]
        named.append(catalog.s7_eye(1).lattice)

        def read_off(lattices):
            return [(con.ji_order, list(con.colors.items()))
                    for con in map(cg.congruence_lattice, lattices)]

        def outside_reader(*args):
            raise AssertionError("a pair list from outside was read")

        want = read_off([core.make_lattice(L.n, L.covers()) for L in named])
        fresh = [core.make_lattice(L.n, L.covers()) for L in named]
        monkeypatch.setattr(core, "_pairs", outside_reader)
        monkeypatch.setattr(core, "_entries", outside_reader)
        assert read_off(fresh) == want


def _filter_output():
    """A filter representation built with its own cover orders: s7 into m3."""
    rect = catalog.rect_catalog()
    F, G = rect["s7"], rect["m3"]
    D = cg.congruence_lattice(F.lattice).as_lattice()
    E = cg.congruence_lattice(G.lattice).as_lattice()
    phi = birkhoff.enumerate_bounded_homs(D, E)[-1]
    return construction.filter_representation(F, G, phi)[0].lattice


class TestColorsMapping:
    """``colors`` is a read-only mapping over one flat tuple in cover order,
    with the lookups of the dict keyed by cover it replaced."""

    def test_colors_against_principal_closures(self):
        for L in _fresh_lattices() + [_filter_output()]:
            con = cg.congruence_lattice(L)
            colors = con.colors
            assert isinstance(colors, Mapping) and not isinstance(colors, dict)
            assert dict(colors) == helpers.reference_colors(L, con)
            assert list(colors) == list(colors.keys()) == L.covers()
            assert list(colors.items()) == [(e, colors[e]) for e in L.covers()]
            assert list(colors.values()) == [colors[e] for e in L.covers()]
            assert len(colors) == len(colors.items()) == len(L.covers())
            assert isinstance(colors.items(), ItemsView)
            assert all((e, p) in colors.items() for e, p in colors.items())
            assert colors == dict(colors)

    def test_non_covers_raise_key_error(self):
        for L in _fresh_lattices():
            colors, n = cg.congruence_lattice(L).colors, L.n
            covers = set(L.covers())
            keys = [(a, b) for a in range(-n, 2 * n) for b in range(-n, 2 * n)]
            for key in keys:
                if key in covers:
                    continue
                with pytest.raises(KeyError):
                    colors[key]
                assert key not in colors and colors.get(key) is None

    def test_negative_ids_are_no_index_from_the_end(self):
        colors = cg.congruence_lattice(S7).colors
        assert colors[4, 6] == dict(colors)[4, 6]  # 4 is -3 from the end, which is no id
        for key in [(-3, 6), (4, -1), (-3, -1), (7, 8), (0, 7)]:
            with pytest.raises(KeyError):
                colors[key]

    def test_bool_keys_behave_as_with_the_dict(self):
        for L in _fresh_lattices():
            colors = cg.congruence_lattice(L).colors
            plain = dict(colors)
            for key in product([False, True, 0, 1, 2], repeat=2):
                assert (key in colors) == (key in plain), key
                assert colors.get(key) == plain.get(key), key

    @pytest.mark.parametrize(
        "key", [(0.0, 1), (0, 1.0), (0.5, 1), ("0", 1), 0, (0,), (0, 1, 2), None]
    )
    def test_non_integral_keys_raise_key_error(self, key):
        # the dict keyed by cover gave (0.0, 1) and (0, 1.0) the color of (0, 1)
        colors = cg.congruence_lattice(S7).colors
        with pytest.raises(KeyError):
            colors[key]
        assert key not in colors

    def test_integer_types_are_ids(self):
        colors = cg.congruence_lattice(S7).colors
        assert colors[helpers.IntLike(4), helpers.IntLike(6)] == colors[4, 6]

    def test_colors_keep_no_reference_to_the_lattice(self):
        for L in _fresh_lattices() + [_filter_output()]:
            con = cg.congruence_lattice(L)
            reached = _reachable(con.colors) + _reachable(con.colors.items())
            assert not any(isinstance(o, (core.FiniteLattice, cg.ConLattice)) for o in reached)

    def test_read_only(self):
        colors = cg.congruence_lattice(S7).colors
        with pytest.raises(TypeError):
            colors[0, 1] = 0
        with pytest.raises(AttributeError):
            colors.extra = 0


def _nabla(L, *args):
    return cg.Congruence(L, [0] * L.n)


_D_STAR_LATTICES = {
    "s7": lambda: catalog.s7().lattice,
    "grid-3x3": lambda: rl.grid(3, 3).lattice,
    "s7-eye-1": lambda: catalog.s7_eye(1).lattice,
    "eyed-grid-3x4": lambda: rl.grid_with_eyes(3, 4, [(0, 1), (1, 2)])[0].lattice,
}


def _gain_a_bit(below, rep):
    """D* whose first color row that lacks another color gains it."""
    colors = sorted(set(rep.values()))
    r, c = next((r, c) for r in colors for c in colors if not below[r] >> c & 1)
    return {**below, r: below[r] | 1 << c}, rep


def _lose_a_bit(below, rep):
    """D* whose largest color row loses its highest color bit."""
    colors = sorted(set(rep.values()))
    r = max(colors, key=lambda c: below[c].bit_count())
    c = max(c for c in colors if below[r] >> c & 1)
    return {**below, r: below[r] & ~(1 << c)}, rep


def _split(real, p):
    """``_d_star`` that keeps its rows and gives p its own color."""
    def fault(L):
        below, rep = real(L)
        return below, {**rep, p: p}
    return fault


class TestPostcondition:
    """Each join-irreducible congruence is a principal closure, checked cover by cover."""

    def test_wrong_closure_raises(self, monkeypatch):
        monkeypatch.setattr(cg, "principal_congruence", lambda L, a, b: helpers.delta(L))
        with pytest.raises(PostconditionFailed):
            cg.congruence_lattice(catalog.s7().lattice)

    def test_cli_reports_construction_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cg, "principal_congruence", lambda L, a, b: helpers.delta(L))
        assert main(["con", "s7"]) == 3
        assert capsys.readouterr().err.startswith("construction error: con(")

    def test_wrong_closure_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import catalog, congruence as cg\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "cg.principal_congruence = lambda L, a, b: cg.Congruence(L, range(L.n))\n"
            "try:\n"
            "    cg.congruence_lattice(catalog.s7().lattice)\n"
            "except PostconditionFailed:\n"
            "    print('raised')\n"
        )
        src = str(Path(cg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"

    def test_colors_off_the_order_raise(self, monkeypatch):
        # each closure collapses every cover, so none is missed
        monkeypatch.setattr(cg, "principal_congruence", _nabla)
        with pytest.raises(PostconditionFailed, match="ordered unlike D"):
            cg.congruence_lattice(catalog.s7().lattice)

    def test_colors_off_the_order_raise_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import catalog, congruence as cg\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "nabla = lambda L, *args: cg.Congruence(L, [0] * L.n)\n"
            "cg.principal_congruence = nabla\n"
            "try:\n"
            "    cg.congruence_lattice(catalog.s7().lattice)\n"
            "except PostconditionFailed as e:\n"
            "    print(e)\n"
        )
        src = str(Path(cg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ordered unlike D*" in proc.stdout

    @pytest.mark.parametrize("fault", [_gain_a_bit, _lose_a_bit], ids=["gained", "lost"])
    @pytest.mark.parametrize("name", sorted(_D_STAR_LATTICES))
    def test_d_star_faults_raise(self, monkeypatch, name, fault):
        L, real = _D_STAR_LATTICES[name](), cg._d_star
        monkeypatch.setattr(cg, "_d_star", lambda L: fault(*real(L)))
        with pytest.raises(PostconditionFailed):
            cg.congruence_lattice(L)

    def test_d_star_fault_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import catalog, congruence as cg\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "real = cg._d_star\n"
            "def lost(L):\n"
            "    below, rep = real(L)\n"
            "    return {**below, 1: below[1] & ~(1 << 3)}, rep\n"
            "cg._d_star = lost\n"
            "try:\n"
            "    cg.congruence_lattice(catalog.s7().lattice)\n"
            "except PostconditionFailed as e:\n"
            "    print(e)\n"
        )
        src = str(Path(cg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "colors 3 and 1 are ordered unlike D*\n"

    def test_split_class_raises(self, monkeypatch):
        # s7_eye(1) colors 3 as 2; with 3 its own color, 3 and 2 would give
        # 3 join-irreducible congruences and 4 congruences, not 2 and 3
        L = catalog.s7_eye(1).lattice
        assert cg._d_star(L)[1] == {1: 1, 2: 2, 3: 2, 5: 2, 6: 2}
        monkeypatch.setattr(cg, "_d_star", _split(cg._d_star, 3))
        with pytest.raises(PostconditionFailed, match="^colors 2 and 3 are one congruence$"):
            cg.congruence_lattice(L)
        assert L._con is None

    def test_every_split_over_the_search_raises(self, monkeypatch):
        real, splits = cg._d_star, 0
        for _, R in catalog.search_rectangular(12):
            for p, r in real(R.lattice)[1].items():
                if p != r:
                    monkeypatch.setattr(cg, "_d_star", _split(real, p))
                    with pytest.raises(PostconditionFailed,
                                       match=f"^colors {r} and {p} are one congruence$"):
                        cg.congruence_lattice(R.lattice)
                    splits += 1
        assert splits == 131

    def test_split_class_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import catalog, congruence as cg\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "real = cg._d_star\n"
            "def split(L):\n"
            "    below, rep = real(L)\n"
            "    return below, {**rep, 3: 3}\n"
            "cg._d_star = split\n"
            "try:\n"
            "    cg.congruence_lattice(catalog.s7_eye(1).lattice)\n"
            "except PostconditionFailed as e:\n"
            "    print(e)\n"
        )
        src = str(Path(cg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "colors 2 and 3 are one congruence\n"


class TestPartitionForm:
    """Class tables, joins, meets and restriction against block-set oracles."""

    def test_labels_match_reference_canonical(self):
        rng = random.Random(5)
        for n in (1, 2, 5, 9, 16):
            L = core.chain(n)
            for _ in range(40):
                labels = [rng.choice("abcdefg"[: rng.randint(1, 7)]) for _ in range(n)]
                groups = {}
                for x, c in enumerate(labels):
                    groups.setdefault(c, []).append(x)
                blocks = [rng.sample(b, len(b)) for b in groups.values()]
                rng.shuffle(blocks)
                c = cg.Congruence(L, labels)
                assert (c.blocks, c.cls) == helpers.reference_canonical(n, blocks)

    def test_join_meet_against_brute_force(self):
        # join and meet in Con L, read off the down-sets, are the partition ones
        for name, L in catalog.congruence_catalog().items():
            con = cg.congruence_lattice(L)
            cons, lat = con.congruences, con.as_lattice()
            for i, a in enumerate(cons):
                for k, b in enumerate(cons):
                    for got, want in (
                        (cons[lat.join(i, k)], helpers.brute_join(L.n, a.blocks, b.blocks)),
                        (cons[lat.meet(i, k)], helpers.brute_meet(a.blocks, b.blocks)),
                    ):
                        assert (got.blocks, got.cls) == helpers.reference_canonical(L.n, want), name

    def test_restriction_to_principal_ideals_and_filters(self, searched):
        # restriction on J(Con L) and the bijection test against the block-set
        # restriction of every congruence
        bijective = []
        for L in searched:
            con = cg.congruence_lattice(L)
            for x in range(L.n):
                for elems in (L.down(x), L.up(x)):
                    sub, to_parent, _ = core.sublattice(L, elems)
                    con_k = cg.congruence_lattice(sub)
                    want = helpers.brute_restriction(con, to_parent, con_k)
                    k_labels = ji_labels(con_k)
                    assert [
                        None if p is None else k_labels[p]
                        for p in helpers.reference_ji_restriction(con, to_parent, con_k)
                    ] == [want[i] if want[i] in k_labels else None for i in ji_labels(con)]
                    bijective.append(sorted(want) == list(range(len(con_k))))
                    assert cg.is_cp_extension(L, elems) == bijective[-1]
        assert (bijective.count(True), bijective.count(False)) == (732, 2250)


class TestPredicatesAndRestriction:
    def test_is_congruence_vs_brute(self):
        # the closure of many pairs: each partition's block pairs, for every
        # partition of each catalog lattice of at most 8 elements (4,140 at
        # 8), against the reference closure; the closure keeps the block
        # count exactly when the brute-force filter accepts the partition
        small = [catalog.get(name) for name in lemmas.names() if catalog.get(name).n <= 8]
        assert len(small) == 17
        for L in small:
            want = helpers.brute_congruences(L)
            for p in helpers.set_partitions(L.n):
                pairs = [(b[0], x) for b in p for x in b[1:]]
                got = _closure(L, pairs)
                assert got == helpers.reference_generated_congruence(L, pairs)
                assert (got.nblocks == len(p)) == (helpers.blocks_key(p) in want)
                if got.nblocks == len(p):
                    assert got.blocks == p

    def test_meet_congruence_strictly_weaker_on_n5(self):
        # collapses the long side only: meet-compatible but join breaks it
        blocks = [[0, 2], [1], [3], [4]]
        assert helpers.respects(N5, blocks, N5.meet)
        assert not helpers.respects(N5, blocks, N5.join)

    def test_is_simple(self):
        assert cg.is_simple(catalog.get("m3"))
        assert not cg.is_simple(S7)
        assert cg.is_simple(core.chain(2))

    def test_cp_extension_of_glued_sum(self):
        # stacking a chain on top adds no new congruence classes below
        A = catalog.get("grid-2x2")
        G = rl.glue(A, core.chain(2), {A.top: 0}).lattice
        assert cg.is_cp_extension(G, range(A.n)) is False  # chain edge adds a congruence
        assert cg.is_cp_extension(A, range(A.n))


def _restriction_agrees(L, K):
    """``restriction_mismatch`` of L to the copy of K that
    ``core.sublattice`` builds, which must equal the text read off class
    tables, and agree with ``is_cp_extension``; returns the text."""
    sub, to_parent, _ = core.sublattice(L, K)
    con_l, con_k = cg.congruence_lattice(L), cg.congruence_lattice(sub)
    got = cg.restriction_mismatch(con_l, to_parent, con_k)
    assert got == helpers.reference_restriction_mismatch(con_l, to_parent, con_k)
    assert cg.is_cp_extension(L, K) == (got is None)
    return got


class TestRestrictionOffTheColoring:
    """``restriction_mismatch`` on the masks read off the colorings against
    the class-table restriction it replaced."""

    def test_every_interval_of_the_rectangular_lattices(self):
        rects = list(catalog.rect_catalog().values())
        rects += [R for _, R in catalog.search_rectangular(12)]
        texts = []
        for R in rects:
            L = R.lattice
            for a in range(L.n):
                for b in L.up(a):
                    texts.append(_restriction_agrees(L, [x for x in L.up(a) if L.leq(x, b)]))
        # 318 bijections, 1,499 restrictions that are not one-to-one and 21
        # that reorder J(Con L)
        assert (len(rects), len(texts), texts.count(None)) == (52, 1838, 318)
        assert sum("ordered unlike" in t for t in texts if t) == 21

    def test_the_extensions_and_assemblies_of_a4_and_a5(self):
        # A5 tests each boundary color extension on F's copy; A4's
        # assemblies are restricted to each of their four pieces
        for name in ("grid-2x2", "m3", "s7", "s7-eye"):
            R, rep = construction.boundary_color_extension(catalog.rect_catalog()[name])
            assert _restriction_agrees(R.lattice, rep.embedded_f) is None
        texts = [_restriction_agrees(asm.result.lattice, m)
                 for asm in lemmas.assemblies().values()
                 for m in (asm.t_map, asm.lf_map, asm.rf_map, asm.b_map)]
        assert len(texts) == 20


class TestSingletonExtension:
    def test_congruence_input_extends(self):
        # principal ideal {0,1,2,4} of S7, congruence ((0,1),(2,4)) of it
        ext = lemmas.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4]])
        assert ext == ((0, 1), (2, 4), (3,), (5,), (6,))

    def test_meet_only_input_is_accepted(self):
        # ((0,1),(2),(4)) breaks join-substitution on the diamond ideal
        # (0 v 2 = 2 but 1 v 2 = 4) yet satisfies meet-substitution
        ext = lemmas.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2], [4]])
        assert ext == ((0, 1), (2,), (3,), (4,), (5,), (6,))
        assert not helpers.respects(S7, ext, S7.join)

    def test_rejects_non_meet_congruence(self):
        # 0 and 4 meet 1 to different classes
        with pytest.raises(lemmas.NotACongruence):
            lemmas.singleton_extension(S7, [0, 1, 2, 4], [[0, 4], [1], [2]])

    def test_rejects_empty_block(self):
        with pytest.raises(lemmas.NotAPartition):
            lemmas.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4], []])

    def test_rejects_non_ideal(self):
        from latcon.errors import NotAnIdeal

        with pytest.raises(NotAnIdeal):
            lemmas.singleton_extension(S7, [0, 1, 3, 4], [[0, 1], [3], [4]])

    def test_extension_is_meet_congruence_of_whole(self):
        ext = lemmas.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4]])
        assert helpers.respects(S7, ext, S7.meet)


class TestCallContract:
    """Con L runs exactly one principal closure per join-irreducible congruence;
    the benchmark's traced ``principal_congruence`` counts rely on it."""

    def test_one_closure_per_color(self, monkeypatch):
        lattices = [catalog.s7().lattice] + [R.lattice for _, R in catalog.search_rectangular(12)]
        assert len(lattices) > 1
        calls = []
        closure = cg.principal_congruence
        monkeypatch.setattr(cg, "principal_congruence", lambda *a: calls.append(a) or closure(*a))
        for L in lattices:
            fresh = core.make_lattice(L.n, L.covers())
            del calls[:]
            con = cg.congruence_lattice(fresh)
            assert len(calls) == con.ji_order.n
            cg.congruence_lattice(fresh)
            assert len(calls) == con.ji_order.n
