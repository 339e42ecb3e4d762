"""Duality between bounded homs and isotone maps of join-irreducible posets."""

import functools
import gc
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import helpers
import lemmas
from latcon import birkhoff as bk
from latcon import catalog, construction, core
from latcon import jsonio as jio
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.errors import (
    ElementOutOfRange,
    LatconError,
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

    def test_rejects_fresh_non_distributive_lattice(self):
        # a fresh m3 keeps no verdict yet, and C2 keeps True: the check
        # must still run on whichever end has none
        for fresh_source in (True, False):
            M3 = catalog.m3().lattice
            assert M3._distributive is None and core.is_distributive(C2)
            if fresh_source:
                with pytest.raises(NotDistributive, match="^source lattice is not distributive$"):
                    bk.make_bounded_hom(M3, C2, (0, 1, 1, 1, 1))
            else:
                with pytest.raises(NotDistributive, match="^target lattice is not distributive$"):
                    bk.make_bounded_hom(C2, M3, (0, 4))
            assert M3._distributive is False


class TestOnlyValidatedHoms:
    """``make_bounded_hom`` is the one way to build a hom, and every hom
    carries the pull-backs that validated it."""

    @pytest.mark.parametrize(
        "D, E, f",
        [
            ("c2xc2", "c2", (0, 1, 0, 1)),
            ("c2xc2", "c2", (0, 1, 1, 1)),
            ("c2xc2", "c3", (0, 1, 1, 5)),
            ("m3", "c2", (0, 1, 0, 0, 1)),
        ],
        ids=["hom", "non-hom", "out-of-range", "non-distributive"],
    )
    def test_class_cannot_be_called(self, D, E, f):
        D, E = catalog.get(D), catalog.get(E)
        with pytest.raises(TypeError):
            bk.BoundedHom(D, E, f)
        with pytest.raises(TypeError):
            bk.BoundedHom(source=D, target=E, assignment=f)

    def test_call_without_arguments_raises(self):
        # an instance with no slot set would fail on its first read
        C = catalog.get("c2")
        for call in (lambda: bk.BoundedHom(), lambda: bk.BoundedHom(C, C, (0, 1))):
            with pytest.raises(TypeError, match="^a BoundedHom is built by make_bounded_hom$"):
                call()

    def test_every_builder_keeps_the_pullbacks(self):
        def carried(phi):
            return phi._pulled == tuple(bk._pullbacks(phi.assignment, phi.target))

        built = 0
        for D in PAIR_POOL:
            jd = core.join_irreducibles(D)
            for E in PAIR_POOL:
                je = core.join_irreducibles(E)
                for phi in bk.enumerate_bounded_homs(D, E):
                    assert carried(phi)
                    assert carried(bk.make_bounded_hom(D, E, phi.assignment))
                    assert carried(jio.hom_from_obj(helpers.hom_to_obj(phi)))
                    built += 1
                for a in bk.enumerate_isotone_maps(je, jd):
                    assert carried(bk.hom_of_isotone(bk.IsotoneMap(je, jd, a), D, E))
        assert built == TOTAL_HOMS


def _outcome(make, D, E, f):
    """The assignment ``make`` validates, or its error's type and text;
    ``make`` returns a hom or, as the reference does, the assignment."""
    try:
        got = make(D, E, f)
    except LatconError as exc:
        return type(exc), str(exc)
    return getattr(got, "assignment", got)


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


@functools.lru_cache(maxsize=1)
def _duality_pairs():
    """The 49 ordered pairs among ``brt_catalog``, Con(grid-3x3) and c4xc4,
    with their 2,909 bounded homs."""
    lats = list(catalog.brt_catalog().values())
    lats += [cg.congruence_lattice(rl.grid(3, 3).lattice).as_lattice(), rl.grid(4, 4).lattice]
    return [(D, E, bk.enumerate_bounded_homs(D, E)) for D in lats for E in lats]


def _old_brt_report(phi):
    """``brt_report`` with a second sweep: ``ji_of_hom``, then
    ``hom_of_isotone``, then ``==``."""
    psi = bk.ji_of_hom(phi)
    back = bk.hom_of_isotone(psi, phi.source, phi.target)
    round_trip_ok = back == phi
    injective, ji_onto = phi.is_injective, psi.is_onto
    onto, ji_embedding = phi.is_onto, psi.is_order_embedding
    witness = None
    if not round_trip_ok:
        witness = f"round trip produced {back.assignment}, expected {phi.assignment}"
    elif injective != ji_onto:
        witness = f"injective={injective} but dual map onto={ji_onto}"
    elif onto != ji_embedding:
        witness = f"onto={onto} but dual map order-embedding={ji_embedding}"
    return bk.BrtReport(round_trip_ok, injective, ji_onto, onto, ji_embedding, witness)


class TestOneSweepPerHom:
    """A validated hom carries its pull-backs; ``brt_report`` sweeps none."""

    def test_against_the_unvalidated_path_and_the_old_report(self):
        # the dual read off a fresh sweep of the assignment, not off the
        # pull-backs the hom carries: each one's least id, placed in J(D)
        total = 0
        for D, E, homs in _duality_pairs():
            labels = core.join_irreducibles(D).labels
            for phi in homs:
                fresh = bk._pullbacks(phi.assignment, E)
                dual = tuple(labels.index((s & -s).bit_length() - 1) for s in fresh)
                assert bk.ji_of_hom(phi).assignment == dual
                assert bk.brt_report(phi) == _old_brt_report(phi)
                total += 1
        assert len(_duality_pairs()) == 49 and total == 2_909

    def test_sweep_counts(self, monkeypatch):
        sweeps = []
        sweep = bk._pullbacks
        monkeypatch.setattr(bk, "_pullbacks", lambda f, E: sweeps.append(f) or sweep(f, E))
        for D, E, _ in _duality_pairs():
            del sweeps[:]
            homs = bk.enumerate_bounded_homs(D, E)
            assert [phi.assignment for phi in homs] == sorted(sweeps)
            del sweeps[:]
            for phi in homs:
                assert bk.brt_report(phi).ok
            assert sweeps == []


class TestBrtReport:
    """A report is an immutable record of six fields and three derived
    verdicts."""

    def test_immutable_with_six_fields(self):
        rep = bk.brt_report(bk.make_bounded_hom(C2SQ, C2, (0, 1, 0, 1)))
        assert bk.BrtReport._fields == (
            "round_trip_ok", "injective", "ji_onto", "onto", "ji_embedding", "witness",
        )
        for field in bk.BrtReport._fields:
            with pytest.raises(AttributeError):
                setattr(rep, field, None)
        assert repr(rep) == (
            "BrtReport(round_trip_ok=True, injective=False, ji_onto=False, onto=True, "
            "ji_embedding=True, witness=None)"
        )
        assert bk.BrtReport(True, True, True, True, True).witness is None

    def test_is_a_tuple(self):
        rep = bk.brt_report(bk.make_bounded_hom(C2SQ, C2, (0, 1, 0, 1)))
        assert rep == (True, False, False, True, True, None)
        assert rep[3] is True and len(rep) == 6
        round_trip_ok, *_, witness = rep
        assert round_trip_ok is True and witness is None

    def test_properties_on_every_hom(self):
        total = 0
        for _, _, homs in _duality_pairs():
            for phi in homs:
                rep = bk.brt_report(phi)
                psi = bk.ji_of_hom(phi)
                assert (rep.injective, rep.onto) == (phi.is_injective, phi.is_onto)
                assert (rep.ji_onto, rep.ji_embedding) == (psi.is_onto, psi.is_order_embedding)
                assert rep.injective_iff_onto is (rep.injective == rep.ji_onto) is True
                assert rep.onto_iff_embedding is (rep.onto == rep.ji_embedding) is True
                assert rep.ok is True and rep.round_trip_ok is True and rep.witness is None
                total += 1
        assert total == 2_909

    def test_properties_see_each_broken_statement(self):
        assert not bk.BrtReport(False, True, True, True, True).ok
        rep = bk.BrtReport(True, True, False, True, True)
        assert not rep.injective_iff_onto and rep.onto_iff_embedding and not rep.ok
        rep = bk.BrtReport(True, True, True, False, True)
        assert rep.injective_iff_onto and not rep.onto_iff_embedding and not rep.ok


class TestRoundTripStillChecked:
    """With the assignment kernel made wrong, ``brt_report`` still sees it."""

    def test_one_image_shifted(self, monkeypatch):
        homs = [phi for D in PAIR_POOL for E in PAIR_POOL for phi in bk.enumerate_bounded_homs(D, E)]
        seen = {}
        for phi in homs:
            D, E, f = phi.source, phi.target, phi.assignment
            for i in range(D.n):
                g = f[:i] + ((f[i] + 1) % E.n,) + f[i + 1:]
                monkeypatch.setattr(bk, "_isotone_assignment", lambda psi, D, E, g=g: g)
                want = _try(helpers.reference_make_bounded_hom, D, E, g)
                if want == g:
                    rep = bk.brt_report(phi)
                    assert not rep.round_trip_ok and not rep.ok
                    assert rep.witness == f"round trip produced {g}, expected {f}"
                    seen["hom"] = seen.get("hom", 0) + 1
                else:
                    assert _try(bk.brt_report, phi) == want
                    seen[want[0]] = seen.get(want[0], 0) + 1
        assert seen.keys() == {"hom", NotBounded, NotHomomorphic}
        assert min(seen.values()) > 20

    def test_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import birkhoff as bk, catalog\n"
            "from latcon.errors import NotHomomorphic\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "C3, SQ = catalog.get('c3'), catalog.get('c2xc2')\n"
            "bk._isotone_assignment = lambda psi, D, E: (0, 2, 2)\n"
            "print(bk.brt_report(bk.make_bounded_hom(C3, C3, (0, 1, 2))).witness)\n"
            "bk._isotone_assignment = lambda psi, D, E: (0, 2, 2, 3)\n"
            "try:\n"
            "    bk.brt_report(bk.make_bounded_hom(SQ, SQ, (0, 1, 2, 3)))\n"
            "except NotHomomorphic as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(bk.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "round trip produced (0, 2, 2), expected (0, 1, 2)\n"
            "meet not preserved at (1, 2)\n"
        )


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

    def test_one_element_source_checks_distributivity(self):
        one = core.chain(1)
        for D, E, side in ((one, catalog.get("n5"), "target"), (catalog.get("n5"), one, "source")):
            with pytest.raises(NotDistributive, match=f"^{side} lattice is not distributive$"):
                bk.enumerate_bounded_homs(D, E)
        assert [h.assignment for h in bk.enumerate_bounded_homs(one, one)] == [(0,)]
        assert bk.enumerate_bounded_homs(one, core.chain(2)) == []

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


def _try(fn, *args):
    try:
        return fn(*args)
    except LatconError as exc:
        return type(exc), str(exc)


def _random_isotone(rng, P, Q):
    """A random assignment P -> Q, isotone unless some element's lower
    covers have images with no common upper bound: each element, taken by
    increasing down-set size, goes above the images of its lower covers."""
    f = [0] * P.n
    for x in sorted(range(P.n), key=lambda x: P._down[x].bit_count()):
        allowed = (1 << Q.n) - 1
        for y in P._lower[x]:
            allowed &= Q._up[f[y]]
        f[x] = rng.choice(core._bits(allowed) or range(Q.n))
    return f


class TestCoverKernelsAgainstReference:
    """The cover-wise kernels against the pair scans and per-element joins
    they replaced, kept in helpers as oracles."""

    # the brt catalog holds the same five lattices as PAIR_POOL
    POOL = list(dict.fromkeys([*PAIR_POOL, *catalog.brt_catalog().values()]))

    def test_every_isotone_map_of_the_pools(self):
        checked = 0
        for D in self.POOL:
            jd = core.join_irreducibles(D)
            for E in self.POOL:
                je = core.join_irreducibles(E)
                for a in bk.enumerate_isotone_maps(je, jd):
                    assert helpers.reference_isotone_check(je, jd, a) == a
                    psi = bk.IsotoneMap(je, jd, a)
                    assert psi.is_order_embedding == helpers.reference_is_order_embedding(psi)
                    phi = bk.hom_of_isotone(psi, D, E)
                    assert phi.assignment == helpers.reference_hom_of_isotone(psi, D, E)
                    assert bk._pullbacks(phi.assignment, E) == helpers.brute_pullbacks(
                        phi.assignment, E
                    )
                    checked += 1
        assert checked == TOTAL_HOMS

    def test_every_assignment_of_the_pools(self):
        # every assignment Ji E -> Ji D, isotone or not
        kinds = {"map": 0, NotIsotone: 0}
        for D in self.POOL:
            jd = core.join_irreducibles(D)
            for E in self.POOL:
                je = core.join_irreducibles(E)
                for a in product(range(jd.n), repeat=je.n):
                    got = _try(bk.IsotoneMap, je, jd, a)
                    want = _try(helpers.reference_isotone_check, je, jd, a)
                    if isinstance(got, bk.IsotoneMap):
                        assert got.assignment == want
                        kinds["map"] += 1
                    else:
                        assert got == want
                        kinds[got[0]] += 1
        assert kinds == {"map": TOTAL_HOMS, NotIsotone: 391}

    def test_random_assignments_over_shuffled_posets(self):
        # ids off a linear extension; isotone draws, and draws with one
        # entry moved or out of range
        rng = random.Random(29)
        kinds = {}
        for _ in range(1_500):
            P = helpers.random_poset(rng, rng.randint(0, 8), shuffle=True)
            Q = helpers.random_poset(rng, rng.randint(1, 6), shuffle=True)
            f = _random_isotone(rng, P, Q)
            if P.n and rng.random() < 0.5:
                f[rng.randrange(P.n)] = rng.randrange(Q.n + (rng.random() < 0.05))
            got = _try(bk.IsotoneMap, P, Q, f)
            want = _try(helpers.reference_isotone_check, P, Q, f)
            if isinstance(got, bk.IsotoneMap):
                assert got.assignment == want
                assert got.is_order_embedding == helpers.reference_is_order_embedding(got)
                kind = ("map", got.is_order_embedding)
            else:
                assert got == want
                kind = got[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds[NotIsotone] > 300 and kinds[ElementOutOfRange] > 5
        assert kinds["map", True] > 100 and kinds["map", False] > 300

    def test_pullbacks_of_random_assignments(self):
        rng = random.Random(31)
        for D in self.POOL:
            for E in self.POOL:
                for _ in range(20):
                    f = [rng.randrange(E.n) for _ in range(D.n)]
                    assert bk._pullbacks(f, E) == helpers.brute_pullbacks(f, E)

    def test_non_distributive_endpoints_against_reference(self):
        pool = [catalog.get("m3"), catalog.get("n5"), C2, C3, C2SQ]
        kinds = set()
        for D in pool:
            jd = core.join_irreducibles(D)
            for E in pool:
                je = core.join_irreducibles(E)
                for a in bk.enumerate_isotone_maps(je, jd):
                    psi = bk.IsotoneMap(je, jd, a)
                    got = _try(bk.hom_of_isotone, psi, D, E)
                    want = _try(helpers.reference_hom_of_isotone, psi, D, E)
                    if isinstance(got, bk.BoundedHom):
                        assert got.assignment == want
                        kinds.add("hom")
                    else:
                        assert got == want
                        kinds.add(got)
        assert kinds >= {
            "hom",
            (NotDistributive, "source lattice is not distributive"),
            (NotDistributive, "target lattice is not distributive"),
        }


class TestErrorPaths:
    def test_non_distributive_source(self):
        M3 = catalog.get("m3")
        psi = bk.IsotoneMap(core.join_irreducibles(C2), core.join_irreducibles(M3), (0,))
        with pytest.raises(NotDistributive, match="^source lattice is not distributive$"):
            bk.hom_of_isotone(psi, M3, C2)

    @pytest.mark.parametrize(
        "f, text",
        [
            ((1, 0, 2), "0 <= 1 in the source but 1 !<= 0"),
            ((2, 0, 1), "2 <= 0 in the source but 1 !<= 2"),
            ((0, 0, 1), "2 <= 0 in the source but 1 !<= 0"),
        ],
    )
    def test_first_unordered_pair_named(self, f, text):
        P = core.Poset(3, [(2, 0), (0, 1)])
        with pytest.raises(NotIsotone, match=f"^{text}$"):
            bk.IsotoneMap(P, P, f)

    def test_map_between_the_wrong_posets(self):
        je, jd = core.join_irreducibles(C3SQ), core.join_irreducibles(C3SQ)
        psi = bk.IsotoneMap(je, jd, range(je.n))
        with pytest.raises(LatconError, match="^map is not between the join-irreducible posets"):
            bk.hom_of_isotone(psi, C3SQ, C2SQ)
        with pytest.raises(LatconError, match="^map is not between the join-irreducible posets"):
            bk.hom_of_isotone(psi, C2SQ, C3SQ)


class TestFastPath:
    """Valid input never reaches the pair scans or the generator joins."""

    @pytest.fixture
    def no_scans(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("pair scan reached on a valid input")

        monkeypatch.setattr(core._Order, "leq", forbidden)
        monkeypatch.setattr(core.FiniteLattice, "join_of", forbidden)

    def test_con_s7_to_c4xc4(self, no_scans):
        D, E = CON_S7, rl.grid(4, 4).lattice
        jd, je = core.join_irreducibles(D), core.join_irreducibles(E)
        homs = bk.enumerate_bounded_homs(D, E)
        assert len(homs) > 10
        for phi in homs:
            psi = bk.IsotoneMap(je, jd, bk.ji_of_hom(phi).assignment)
            assert bk.hom_of_isotone(psi, D, E) == phi
            assert bk.brt_report(phi).ok

    def test_identity_on_a_long_chain(self, no_scans):
        n = 3_000
        P = core.Poset(n, [(i, i + 1) for i in range(n - 1)])
        psi = bk.IsotoneMap(P, P, range(n))
        assert psi.is_onto and psi.is_order_embedding


def _fresh_lattices():
    """Lattices built here, so that no earlier test has walked them."""
    return [
        rl.grid(3, 3).lattice,
        rl.grid(4, 4).lattice,
        cg.congruence_lattice(catalog.s7().lattice).as_lattice(),
        cg.congruence_lattice(rl.grid(2, 3).lattice).as_lattice(),
        catalog.m3().lattice,
    ]


class TestSpine:
    """``_isotone_assignment`` along the per-lattice spine, against the
    join formula ``f(e) = ⋁{x : psi(x) <= e}`` of ``helpers``."""

    # sources whose covers may add several join-irreducibles at once
    NON_DISTRIBUTIVE = [catalog.get("m3"), catalog.get("n5"), catalog.get("s7")] + [
        R.lattice for _, R in catalog.search_rectangular(10)
    ]
    TARGETS = [catalog.get(name) for name in ("c2", "c3", "c2xc2", "cube", "m3")]

    def _check_every_isotone_map(self, sources, targets):
        checked = 0
        for D in sources:
            jd = core.join_irreducibles(D)
            for E in targets:
                je = core.join_irreducibles(E)
                for a in bk.enumerate_isotone_maps(je, jd):
                    psi = bk.IsotoneMap(je, jd, a)
                    want = helpers.reference_isotone_assignment(psi, D, E)
                    assert bk._isotone_assignment(psi, D, E) == want
                    checked += 1
        return checked

    def test_non_distributive_sources_against_the_join_formula(self):
        names = [name for name, _ in catalog.search_rectangular(10)]
        assert {"fork", "fork-eye-0", "fork-eye-1"} <= set(names)
        several = [
            D for D in self.NON_DISTRIBUTIVE
            if any(len(qs) > 1 for _, qs in bk._spine(D, core.join_irreducibles(D))[0])
        ]
        assert catalog.get("m3") in several and len(several) >= 20
        assert self._check_every_isotone_map(self.NON_DISTRIBUTIVE, self.TARGETS) > 5_000

    def test_distributive_sources_against_the_join_formula(self):
        pool = list(catalog.brt_catalog().values())
        assert self._check_every_isotone_map(pool, pool) == TOTAL_HOMS

    def test_m3_top_adds_two_positions(self):
        # the top of m3 adds two join-irreducibles to its first lower
        # cover; the first of them alone would give (0, 0, 0, 1, 0)
        M3 = catalog.get("m3")
        jd, je = core.join_irreducibles(M3), core.join_irreducibles(C2)
        assert bk._spine(M3, jd)[0][-1] == (2, (0, 2))
        psi = bk.IsotoneMap(je, jd, (2,))
        assert bk._isotone_assignment(psi, M3, C2) == (0, 0, 0, 1, 1)

    def test_steps_against_their_definition(self):
        for D in [*self.NON_DISTRIBUTIVE, *self.TARGETS, *PAIR_POOL]:
            jd = core.join_irreducibles(D)
            ji = helpers.brute_join_irreducibles(D)
            steps, pos = bk._spine(D, jd)
            assert pos == tuple(ji.index(x) if x in ji else None for x in range(D.n))
            want = []
            for e in range(1, D.n):
                s = D.lower_covers(e)[0]
                adds = [x for x in ji if D.leq(x, e) and not D.leq(x, s)]
                want.append((s, tuple(ji.index(x) for x in adds)))
            assert steps == tuple(want)

    def test_one_position_per_step_when_distributive(self):
        pool = [
            *catalog.brt_catalog().values(),
            *(catalog.get(n) for n in lemmas.names()),
            *(R.lattice for _, R in catalog.search_rectangular(10)),
            *(cg.congruence_lattice(R.lattice).as_lattice() for R in catalog.rect_catalog().values()),
            core.chain(40),
            core.direct_product(rl.grid(3, 3).lattice, C3),
        ]
        distributive = 0
        for D in pool:
            if helpers.brute_is_distributive(D):
                steps = bk._spine(D, core.join_irreducibles(D))[0]
                assert all(len(qs) == 1 for _, qs in steps)
                distributive += 1
        assert len(pool) == 62 and distributive == 34

    def test_equal_posets_that_are_not_the_cached_ones(self):
        D, E = CON_S7, C3SQ
        jd, je = core.join_irreducibles(D), core.join_irreducibles(E)
        copy_e = core.Poset(je.n, je.covers(), je.labels)
        copy_d = core.Poset(jd.n, jd.covers(), jd.labels)
        assert copy_e == je and copy_e is not je
        for a in bk.enumerate_isotone_maps(je, jd):
            want = bk._isotone_assignment(bk.IsotoneMap(je, jd, a), D, E)
            assert bk._isotone_assignment(bk.IsotoneMap(copy_e, copy_d, a), D, E) == want

    def test_built_once_per_lattice(self, monkeypatch):
        built = []
        spine = bk._spine

        def counted(D, jd):
            if D._spine is None:
                built.append(D)
            return spine(D, jd)

        monkeypatch.setattr(bk, "_spine", counted)
        lats = [D for D in _fresh_lattices() if core.is_distributive(D)]
        assert len(lats) == 4 and all(D._spine is None for D in lats)
        for D in lats:
            for E in lats:
                for phi in bk.enumerate_bounded_homs(D, E):
                    assert bk.brt_report(phi).ok
        assert sorted(map(id, built)) == sorted(map(id, lats))
        kept = [D._spine for D in lats]
        for D in lats:
            bk.enumerate_bounded_homs(D, D)
        assert all(D._spine is k for D, k in zip(lats, kept))

    def test_reaches_no_lattice(self):
        for D in [CON_S7, C3SQ, catalog.get("m3")]:
            bk._spine(D, core.join_irreducibles(D))
            seen, stack = set(), [D._spine]
            while stack:
                obj = stack.pop()
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, (core.FiniteLattice, core.Poset))
                stack.extend(gc.get_referents(obj))
            assert len(seen) > D.n

    def test_congruence_work_builds_none(self, monkeypatch):
        def forbidden(D, jd):
            raise AssertionError("a spine was built")

        monkeypatch.setattr(bk, "_spine", forbidden)
        lats = _fresh_lattices()
        for L in lats:
            cg.congruence_lattice(L).as_lattice()
        kept = catalog.search_rectangular(16, seed=3)
        for _, R in kept:
            construction.upper_chain_collapse_check(R)
        assert len(kept) > 50
        assert all(L._spine is None for L in lats)
        assert all(R.lattice._spine is None for _, R in kept)


class TestReadOnlyMaps:
    """A map's fields are set once, so a validated hom's pull-backs stay
    those of its assignment."""

    def test_reassigned_assignment_raises_and_nothing_goes_stale(self):
        G = rl.grid(3, 3).lattice
        a, b = bk.enumerate_bounded_homs(G, G)[:2]
        with pytest.raises(AttributeError):
            a.assignment = b.assignment
        assert a.assignment != b.assignment
        assert bk.ji_of_hom(a).assignment == (3, 3, 3, 3)
        assert bk.ji_of_hom(b).assignment == (2, 3, 3, 3)
        assert bk.brt_report(a).ok and bk.brt_report(b).ok

    @pytest.mark.parametrize("field", ["source", "target", "assignment"])
    def test_every_field_of_both_kinds(self, field):
        phi = bk.make_bounded_hom(C3SQ, C3SQ, range(9))
        psi = bk.ji_of_hom(phi)
        for m, other in ((phi, bk.make_bounded_hom(C2, C2, (0, 1))), (psi, bk.ji_of_hom(phi))):
            before = getattr(m, field)
            with pytest.raises(AttributeError):
                setattr(m, field, getattr(other, field))
            with pytest.raises(AttributeError):
                delattr(m, field)
            assert getattr(m, field) is before
        assert bk.brt_report(phi).ok
