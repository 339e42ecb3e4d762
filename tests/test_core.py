"""Lattice construction, canonical numbering, and order arithmetic."""

import random

import pytest

import helpers
from latcon import catalog, core
from latcon import congruence as cg
from latcon.errors import (
    Cyclic,
    ElementOutOfRange,
    InvalidLattice,
    NotALattice,
    NotConvexSublattice,
    NotReduced,
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


class TestOrderArithmetic:
    def test_meet_join_against_order_scan(self):
        L = s7()
        for x in range(L.n):
            for y in range(L.n):
                lower = [z for z in range(L.n) if L.leq(z, x) and L.leq(z, y)]
                upper = [z for z in range(L.n) if L.leq(x, z) and L.leq(y, z)]
                assert L.meet(x, y) == max(lower, key=L.height)
                assert L.join(x, y) == min(upper, key=L.height)

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
        assert L.interval(1, 6) == (1, 3, 4, 6)

    def test_height_depth(self):
        L = s7()
        assert [L.height(x) for x in range(7)] == [0, 1, 1, 2, 2, 2, 3]
        assert L.length == 3

    def test_meet_join_of_sets(self):
        L = s7()
        assert L.join_of([1, 2]) == 4
        assert L.meet_of([3, 5]) == 0
        assert L.join_of([]) == L.bottom
        assert L.meet_of([]) == L.top

    def test_irreducibles(self):
        L = s7()
        assert L.ji_elements() == (1, 2, 3, 5)
        assert L.mi_elements() == (3, 4, 5)
        assert L.is_doubly_irreducible(3)
        assert not L.is_doubly_irreducible(4)  # two lower covers
        assert not L.is_doubly_irreducible(0)


class TestConstructors:
    def test_chain(self):
        C = core.chain(4)
        assert C.covers() == [(0, 1), (1, 2), (2, 3)]
        assert C.meet(1, 3) == 1 and C.join(1, 3) == 3

    def test_direct_product_square(self):
        P = core.direct_product(core.chain(2), core.chain(3))
        assert P.n == 6
        assert core.is_distributive(P)
        assert len(P.atoms()) == 2

    def test_glued_sum_of_chains_is_chain(self):
        G = core.glued_sum(core.chain(3), core.chain(2))
        assert core.are_isomorphic(G, core.chain(4))

    def test_glued_sum_sizes(self):
        A = core.direct_product(core.chain(2), core.chain(2))
        G = core.glued_sum(A, A)
        assert G.n == 7
        assert set(G.atoms()) == {1, 2}

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


class TestPredicates:
    def test_distributive(self):
        assert core.is_distributive(core.chain(4))
        assert core.is_distributive(core.direct_product(core.chain(3), core.chain(3)))
        assert not core.is_distributive(s7())

    def test_semimodular(self):
        assert core.is_semimodular(s7())
        N5 = core.make_lattice(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])
        assert not core.is_semimodular(N5)

    def test_ideal_filter_masks(self):
        L = s7()
        ideal, filt = core.ideal_filter(L, 4)
        assert ideal == (0, 1, 2, 4)
        assert filt == (4, 6)

    def test_convexity_and_subuniverse(self):
        L = s7()
        assert core.is_sublattice(L, [0, 1, 2, 4])
        assert not core.is_sublattice(L, [1, 2])
        assert core.is_convex_sublattice(L, [1, 3, 4, 6])
        assert not core.is_convex_sublattice(L, [0, 6])
        assert core.is_ideal(L, [0, 1, 2, 4])
        assert not core.is_ideal(L, [1, 3])
        assert core.is_filter(L, [4, 6])


class TestJoinIrreduciblePoset:
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
            c = con.ji_indices
            assert con.ji.covers() == helpers.brute_covers(
                con.ji.n, lambda a, b: con.leq(c[a], c[b])
            )

    def test_downset_lattice_of_two_antichain(self):
        P = core.join_irreducibles(core.direct_product(core.chain(2), core.chain(2)))
        D = core.downset_lattice(P)
        assert core.are_isomorphic(D, core.direct_product(core.chain(2), core.chain(2)))

    def test_distributive_lattice_rebuilds_from_downsets(self):
        L = core.direct_product(core.chain(3), core.chain(2))
        D = core.downset_lattice(core.join_irreducibles(L))
        assert core.are_isomorphic(D, L)


class TestDownsets:
    @pytest.mark.parametrize(
        "n, covers",
        [(0, []), (4, []), (3, [(2, 0), (1, 0)]), (4, [(3, 1), (1, 0), (2, 0)])],
        ids=["empty", "antichain", "positions-not-extension", "chain-above-fork"],
    )
    def test_matches_brute_scan(self, n, covers):
        P = core.Poset(n, covers)
        assert core.downsets(P) == helpers.brute_downsets(P)

    def test_random_posets(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(0, 8)
            perm = rng.sample(range(n), n)
            up = [1 << x for x in range(n)]
            for i in reversed(range(n)):
                for k in range(i + 1, n):
                    if rng.random() < 0.3:
                        up[perm[i]] |= up[perm[k]]
            P = core.Poset(n, core._reduce(range(n), up))
            ds = core.downsets(P)
            assert ds == helpers.brute_downsets(P)
            assert core.downset_lattice(P).covers() == helpers.brute_covers(
                len(ds), lambda a, b: not ds[a] & ~ds[b]
            )


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
            assert B.is_cover(iso[x], iso[y])

    def test_distinguishes_different_shapes(self):
        A = core.direct_product(core.chain(2), core.chain(2))
        B = core.chain(4)
        assert core.find_isomorphism(A, B) is None
        assert not core.are_isomorphic(A, B)
