"""Duality between bounded homs and isotone maps of join-irreducible posets."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.errors import (
    LatconError,
    NotBounded,
    NotDistributive,
    NotHomomorphic,
    NotIsotone,
    PostconditionFailed,
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


def _outcome(make, D, E, f):
    try:
        return make(D, E, f).assignment
    except LatconError as exc:
        return type(exc), str(exc)


class TestMakeBoundedHomAgainstReference:
    """Pull-back checks against the per-pair scan on brute-force tables."""

    def test_random_assignments(self):
        pool = [catalog.get("m3"), catalog.get("n5"), C3SQ, CON_S7]
        rng = random.Random(3)
        kinds = set()
        for D in pool:
            for E in pool:
                homs = []
                if helpers.brute_is_distributive(D) and helpers.brute_is_distributive(E):
                    homs = [h.assignment for h in bk.enumerate_bounded_homs(D, E)]
                for _ in range(60):
                    if homs and rng.random() < 0.5:
                        f = list(rng.choice(homs))
                        if rng.random() < 0.8:
                            f[rng.randrange(D.n)] = rng.randrange(E.n)
                    else:
                        f = [rng.randrange(E.n) for _ in range(D.n)]
                        if rng.random() < 0.7:
                            f[D.bottom], f[D.top] = E.bottom, E.top
                        if rng.random() < 0.05:
                            f[rng.randrange(D.n)] = E.n
                    got = _outcome(bk.make_bounded_hom, D, E, f)
                    assert got == _outcome(helpers.reference_make_bounded_hom, D, E, f)
                    kinds.add(got[0] if isinstance(got[0], type) else "hom")
        assert {"hom", NotHomomorphic, NotBounded, NotDistributive} <= kinds


    def test_random_assignments_over_36_pairs(self):
        # pull-backs of join-irreducibles against the per-pair scan, on
        # near-homs: a hom with one or two entries moved
        pool = [C2, C3, C2SQ, catalog.get("cube"), C3SQ, CON_S7]
        rng = random.Random(41)
        kinds = {}
        for D in pool:
            for E in pool:
                homs = [h.assignment for h in bk.enumerate_bounded_homs(D, E)]
                for _ in range(50):
                    if homs and rng.random() < 0.8:
                        f = list(rng.choice(homs))
                        for _ in range(rng.randint(0, 2)):
                            f[rng.randrange(D.n)] = rng.randrange(E.n)
                    else:
                        f = [rng.randrange(E.n) for _ in range(D.n)]
                        f[D.bottom], f[D.top] = E.bottom, E.top
                    got = _outcome(bk.make_bounded_hom, D, E, f)
                    assert got == _outcome(helpers.reference_make_bounded_hom, D, E, f)
                    kind = got[0] if isinstance(got[0], type) else "hom"
                    kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["hom"] > 300 and kinds[NotHomomorphic] > 300

    def test_dual_map_is_the_meet_of_each_pull_back(self):
        for D in PAIR_POOL:
            meet = helpers.brute_tables(D)[0]
            for E in PAIR_POOL:
                jd, je = core.join_irreducibles(D), core.join_irreducibles(E)
                for phi in bk.enumerate_bounded_homs(D, E):
                    psi = bk.ji_of_hom(phi)
                    for i, q in enumerate(je.labels):
                        m = D.top
                        for x in range(D.n):
                            if E.leq(q, phi(x)):
                                m = meet[m][x]
                        assert jd.labels[psi(i)] == m


class TestJiOfHomPostcondition:
    """An unvalidated non-hom whose dual image is not join-irreducible."""

    def test_raises(self):
        phi = bk.BoundedHom(rl.grid(2, 2).lattice, C3, (0, 1, 1, 2))
        with pytest.raises(PostconditionFailed):
            bk.ji_of_hom(phi)

    def test_pull_back_that_is_no_filter_raises(self):
        # the pull-back of 1 is {1, 2, 3}: its least id 1 is join-irreducible,
        # but the set is no principal filter
        phi = bk.BoundedHom(C2SQ, C2, (0, 1, 1, 1))
        with pytest.raises(PostconditionFailed, match="^pull-back of join-irreducible 1 is no principal filter$"):
            bk.ji_of_hom(phi)

    def test_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import birkhoff as bk, catalog, rectangular as rl\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "phi = bk.BoundedHom(rl.grid(2, 2).lattice, catalog.get('c3'), (0, 1, 1, 2))\n"
            "try:\n"
            "    bk.ji_of_hom(phi)\n"
            "except PostconditionFailed:\n"
            "    print('raised')\n"
        )
        src = str(Path(bk.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"


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

    def test_random_posets_match_raw_scan(self):
        rng = random.Random(17)
        for _ in range(60):
            P = helpers.random_poset(rng, rng.randint(0, 6), shuffle=False)
            Q = helpers.random_poset(rng, rng.randint(1, 4), shuffle=False)
            assert list(bk.enumerate_isotone_maps(P, Q)) == helpers.brute_isotone_maps(P, Q)

    def test_ids_off_a_linear_extension_match_raw_scan(self):
        P, Q = core.Poset(2, [(1, 0)]), core.Poset(2, [(0, 1)])
        assert list(bk.enumerate_isotone_maps(P, Q)) == [(0, 0), (1, 0), (1, 1)]
        rng = random.Random(23)
        for _ in range(80):
            P = helpers.random_poset(rng, rng.randint(0, 6))
            Q = helpers.random_poset(rng, rng.randint(1, 4))
            assert list(bk.enumerate_isotone_maps(P, Q)) == helpers.brute_isotone_maps(P, Q)

    def test_long_chain_needs_no_recursion(self):
        n = 1500
        P = core.Poset(n, [(i, i + 1) for i in range(n - 1)])
        assert list(bk.enumerate_isotone_maps(P, core.Poset(1, []))) == [(0,) * n]
        two = core.Poset(2, [(0, 1)])
        maps = list(bk.enumerate_isotone_maps(core.Poset(300, P.covers()[:299]), two))
        assert maps == [(0,) * k + (1,) * (300 - k) for k in range(300, -1, -1)]


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
