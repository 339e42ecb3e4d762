"""Congruences, their lattice, edge coloring, and extensions."""

import pytest

import helpers
from latcon import catalog, core
from latcon import congruence as cg
from latcon.errors import NotACongruence, NotAPartition

S7 = catalog.get("s7")
N5 = core.make_lattice(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])

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


class TestCongruenceObject:
    def test_blocks_are_canonicalized(self):
        a = cg.congruence_from_blocks(S7, [[6, 4], [5, 2], [3, 1], [0]])
        assert a.blocks == ((0,), (1, 3), (2, 5), (4, 6))
        assert a.collapses(4, 6) and not a.collapses(0, 1)
        assert a.block_of(5) == (2, 5)

    def test_rejects_non_partition(self):
        with pytest.raises(NotAPartition):
            cg.congruence_from_blocks(S7, [[0, 1], [1, 2], [3, 4, 5, 6]])

    def test_rejects_non_congruence(self):
        with pytest.raises(NotACongruence):
            cg.congruence_from_blocks(S7, [[0, 1], [2], [3], [4], [5], [6]])

    def test_refines_meet_join(self):
        con = cg.congruence_lattice(S7)
        cs = con.congruences
        assert cs[0].refines(cs[1]) and cs[1].refines(cs[4])
        assert not cs[2].refines(cs[3])
        assert cs[2].meet(cs[3]).blocks == cs[1].blocks
        assert cs[2].join(cs[3]).blocks == cs[4].blocks

    def test_principal_generated(self):
        theta = cg.principal_congruence(S7, 4, 6)
        assert theta.blocks == ((0,), (1, 3), (2, 5), (4, 6))
        grown = cg.generated_congruence(S7, [(4, 6), (0, 1)])
        assert grown.blocks == ((0, 1, 3), (2, 4, 5, 6))


class TestConLattice:
    def test_s7_frozen(self):
        con = cg.congruence_lattice(S7)
        assert [c.blocks for c in con] == CON_S7_BLOCKS
        assert con.ji_indices == (1, 2, 3)
        assert con.atoms() == (1,)
        assert dict(sorted(con.edge_color.items())) == S7_EDGE_COLOR

    def test_canonical_order_is_linear_extension(self):
        con = cg.congruence_lattice(S7)
        for i in range(len(con)):
            for j in range(len(con)):
                if con.leq(i, j):
                    assert i <= j

    def test_counts_against_brute_force(self):
        for name, want in CON_SIZES.items():
            L = catalog.get(name)
            con = cg.congruence_lattice(L)
            assert len(con) == want, name
            got = {helpers.blocks_key(c.blocks) for c in con}
            assert got == helpers.brute_congruences(L), name

    def test_as_lattice_matches_refinement(self):
        con = cg.congruence_lattice(catalog.get("grid-2x3"))
        lat = con.as_lattice()
        assert lat.n == len(con)
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.leq(i, j) == con.leq(i, j)

    def test_edge_color_is_principal_congruence(self):
        for name in ("s7", "grid-2x3", "m3"):
            L = catalog.get(name)
            con = cg.congruence_lattice(L)
            for (a, b), idx in con.edge_color.items():
                assert con.congruences[idx].blocks == cg.principal_congruence(L, a, b).blocks

    def test_ji_poset_labels_are_the_join_irreducible_congruences(self):
        con = cg.congruence_lattice(catalog.get("grid-2x3"))
        lat = con.as_lattice()
        assert tuple(con.ji_indices) == lat.ji_elements()

    def test_index_lookup(self):
        con = cg.congruence_lattice(S7)
        gamma = cg.congruence_from_blocks(S7, [[0], [1, 3], [2, 5], [4, 6]])
        assert con.index_of(gamma) == 1
        assert con.index_of_key(gamma.cls) == 1
        assert con.index_of_key(tuple([0] * 7)) == 4


class TestPredicatesAndRestriction:
    def test_is_congruence_vs_brute(self):
        for name in ("n5", "m3", "grid-2x2"):
            L = catalog.get(name)
            want = helpers.brute_congruences(L)
            want_meet = helpers.brute_meet_congruences(L)
            for p in helpers.set_partitions(L.n):
                key = helpers.blocks_key(p)
                assert cg.is_congruence(L, p) == (key in want)
                assert cg.is_meet_congruence(L, p) == (key in want_meet)

    def test_meet_congruence_strictly_weaker_on_n5(self):
        # collapses the long side only: meet-compatible but join breaks it
        blocks = [[0, 2], [1], [3], [4]]
        assert cg.is_meet_congruence(N5, blocks)
        assert not cg.is_congruence(N5, blocks)

    def test_is_simple(self):
        assert cg.is_simple(catalog.get("m3"))
        assert not cg.is_simple(S7)
        assert cg.is_simple(core.chain(2))

    def test_cp_extension_of_glued_sum(self):
        # stacking a chain on top adds no new congruence classes below
        A = catalog.get("grid-2x2")
        G = core.glued_sum(A, core.chain(2))
        assert cg.is_cp_extension(G, range(A.n)) is False  # chain edge adds a congruence
        assert cg.is_cp_extension(A, range(A.n))


class TestSingletonExtension:
    def test_congruence_input_extends(self):
        # principal ideal {0,1,2,4} of S7, congruence ((0,1),(2,4)) of it
        ext = cg.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4]])
        assert ext == ((0, 1), (2, 4), (3,), (5,), (6,))

    def test_meet_only_input_is_accepted(self):
        # ((0,1),(2),(4)) breaks join-substitution on the diamond ideal
        # (0 v 2 = 2 but 1 v 2 = 4) yet satisfies meet-substitution
        ext = cg.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2], [4]])
        assert ext == ((0, 1), (2,), (3,), (4,), (5,), (6,))
        assert not cg.is_congruence(S7, ext)

    def test_rejects_non_meet_congruence(self):
        # 0 and 4 meet 1 to different classes
        with pytest.raises(NotACongruence):
            cg.singleton_extension(S7, [0, 1, 2, 4], [[0, 4], [1], [2]])

    def test_rejects_empty_block(self):
        with pytest.raises(NotAPartition):
            cg.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4], []])

    def test_rejects_non_ideal(self):
        from latcon.errors import NotAnIdeal

        with pytest.raises(NotAnIdeal):
            cg.singleton_extension(S7, [0, 1, 3, 4], [[0, 1], [3], [4]])

    def test_extension_is_meet_congruence_of_whole(self):
        ext = cg.singleton_extension(S7, [0, 1, 2, 4], [[0, 1], [2, 4]])
        assert cg.is_meet_congruence(S7, ext)
