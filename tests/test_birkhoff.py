"""Duality between bounded homs and isotone maps of join-irreducible posets."""

import pytest

import helpers
from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import congruence as cg
from latcon.errors import (
    NotBounded,
    NotDistributive,
    NotHomomorphic,
    NotIsotone,
)

C2 = catalog.get("c2")
C3 = catalog.get("c3")
C2SQ = catalog.get("c2xc2")
C3SQ = catalog.get("c3xc3")
CON_S7 = cg.congruence_lattice(catalog.get("s7")).as_lattice()

PAIR_POOL = [C2, C3, C2SQ, C3SQ, CON_S7]

# frozen: sum of hom counts over all 25 ordered pairs of the pool
TOTAL_HOMS = 167


class TestMakeBoundedHom:
    def test_identity(self):
        phi = bk.make_bounded_hom(C3SQ, C3SQ, range(9))
        assert phi.is_injective and phi.is_onto
        assert phi(4) == 4

    def test_rejects_unbounded(self):
        with pytest.raises(NotBounded):
            bk.make_bounded_hom(C2, C3, (0, 1))

    def test_rejects_non_homomorphic(self):
        # collapse one atom of the square but not the other side of its cell
        with pytest.raises(NotHomomorphic):
            bk.make_bounded_hom(C2SQ, C2SQ, (0, 0, 2, 3))

    def test_rejects_non_distributive_endpoint(self):
        with pytest.raises(NotDistributive):
            bk.make_bounded_hom(catalog.get("m3"), C2, (0, 1, 1, 1, 1))


class TestEnumeration:
    def test_counts_match_raw_scan(self):
        checked = 0
        for D in PAIR_POOL:
            for E in PAIR_POOL:
                if E.n**D.n > 5_000_000:
                    continue  # raw scan infeasible; the duality count test covers it
                got = [phi.assignment for phi in bk.enumerate_bounded_homs(D, E)]
                assert got == helpers.brute_bounded_homs(D, E)
                checked += 1
        assert checked == 24  # everything but the 9-element self-pair

    def test_total_count_frozen(self):
        total = sum(
            len(bk.enumerate_bounded_homs(D, E))
            for D in PAIR_POOL
            for E in PAIR_POOL
        )
        assert total == TOTAL_HOMS

    def test_c3sq_endomorphisms(self):
        assert len(bk.enumerate_bounded_homs(C3SQ, C3SQ)) == 36

    def test_con_s7_endomorphisms(self):
        assert len(bk.enumerate_bounded_homs(CON_S7, CON_S7)) == 11

    def test_isotone_enumeration_matches_raw_scan(self):
        for D in (C2SQ, C3SQ, CON_S7):
            P = core.join_irreducibles(D)
            got = sorted(bk.enumerate_isotone_maps(P, P))
            assert got == helpers.brute_isotone_maps(P, P)

    def test_rejects_non_distributive(self):
        with pytest.raises(NotDistributive):
            bk.enumerate_bounded_homs(catalog.get("m3"), C2)


class TestDuality:
    def test_hom_count_equals_isotone_count_reversed(self):
        for D in PAIR_POOL:
            for E in PAIR_POOL:
                homs = bk.enumerate_bounded_homs(D, E)
                maps = list(
                    bk.enumerate_isotone_maps(
                        core.join_irreducibles(E), core.join_irreducibles(D)
                    )
                )
                assert len(homs) == len(maps)

    def test_round_trip_is_identity_both_ways(self):
        for D in PAIR_POOL:
            for E in PAIR_POOL:
                jd = core.join_irreducibles(D)
                je = core.join_irreducibles(E)
                for phi in bk.enumerate_bounded_homs(D, E):
                    psi = bk.ji_of_hom(phi)
                    assert bk.hom_of_isotone(psi, D, E) == phi
                for f in bk.enumerate_isotone_maps(je, jd):
                    psi = bk.IsotoneMap(je, jd, f)
                    phi = bk.hom_of_isotone(psi, D, E)
                    assert bk.ji_of_hom(phi) == psi

    def test_injective_iff_dual_onto_and_onto_iff_dual_embedding(self):
        for D in PAIR_POOL:
            for E in PAIR_POOL:
                for phi in bk.enumerate_bounded_homs(D, E):
                    rep = bk.brt_report(phi)
                    assert rep.ok, rep.witness

    def test_ji_map_direction_reversed(self):
        # projecting the square onto one coordinate: the dual picks, for
        # C2's single join-irreducible, the atom that still maps up
        phi = bk.make_bounded_hom(C2SQ, C2, (0, 1, 0, 1))
        psi = bk.ji_of_hom(phi)
        assert psi.source.n == 1  # join-irreducibles of the target C2
        assert psi.target.n == 2  # join-irreducibles of the source square
        assert psi.target.labels[psi(0)] == 1  # the surviving atom


class TestIsotoneMap:
    def test_rejects_order_violation(self):
        P = core.join_irreducibles(C3)  # 2-chain
        with pytest.raises(NotIsotone):
            bk.IsotoneMap(P, P, (1, 0))

    def test_onto_and_embedding_flags(self):
        P = core.join_irreducibles(C3SQ)  # two 2-chains side by side
        ident = bk.IsotoneMap(P, P, tuple(range(P.n)))
        assert ident.is_onto and ident.is_order_embedding
        collapse = bk.IsotoneMap(P, P, (0, 0, 0, 0))
        assert not collapse.is_onto and not collapse.is_order_embedding
