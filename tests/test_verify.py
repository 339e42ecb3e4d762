"""The independent verification harness and the universal property suite."""

import random

import pytest

import helpers
import lemmas
from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import rectangular as rl
from latcon import congruence as cg
from latcon import construction as cn
from latcon import verify as vf
from latcon.errors import EmbeddingInvalid, LatconError

G22 = catalog.rect_catalog()["grid-2x2"]
M3 = catalog.rect_catalog()["m3"]
S7 = catalog.s7()


def _hom(F, G, k=0):
    D = cg.congruence_lattice(F.lattice).as_lattice()
    E = cg.congruence_lattice(G.lattice).as_lattice()
    return bk.enumerate_bounded_homs(D, E)[k]


def _built(F=G22, G=M3):
    phi = _hom(F, G)
    L, rep = cn.filter_representation(F, G, phi)
    return L, rep, phi


class TestRepresentationVerifier:
    def test_passes_on_construction_output(self):
        L, rep, phi = _built()
        out = vf.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, phi
        )
        assert out.summary
        assert [c.name for c in out.checks] == [
            "target-copy-is-filter",
            "restriction-bijective",
            "restriction-diagram",
        ]
        assert all(c.passed for c in out.checks)

    def test_render_text(self):
        L, rep, phi = _built()
        out = vf.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, phi
        )
        text = out.render_text()
        assert text.splitlines()[0] == "PASS target-copy-is-filter"
        assert text.splitlines()[-1] == "summary: PASS"

    def test_ideal_checker_rejects_filter_output(self):
        # same data, wrong-side checker: the copy is a filter, not an ideal
        L, rep, phi = _built()
        out = vf.verify_ideal_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, phi
        )
        assert not out.summary
        failed = {c.name for c in out.checks if not c.passed}
        assert "target-copy-is-ideal" in failed

    def test_ideal_verifier_passes_on_ideal_output(self):
        phi = _hom(M3, G22)
        L, rep = cn.ideal_representation(M3, G22, phi)
        out = vf.verify_ideal_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, phi
        )
        assert out.summary

    def test_scrambled_embedding_rejected(self):
        L, rep, phi = _built()
        bad = tuple(reversed(rep.embedded_g))
        with pytest.raises(EmbeddingInvalid):
            vf.verify_filter_representation(L.lattice, rep.embedded_f, bad, phi)

    def test_non_convex_embedding_rejected(self):
        L, rep, phi = _built()
        with pytest.raises(EmbeddingInvalid):
            vf.verify_filter_representation(
                L.lattice, rep.embedded_f, (0, L.lattice.top), phi
            )

    def test_repeated_elements_rejected(self):
        L, rep, phi = _built()
        bad = (rep.embedded_g[0],) * len(rep.embedded_g)
        with pytest.raises(EmbeddingInvalid):
            vf.verify_filter_representation(L.lattice, rep.embedded_f, bad, phi)

    def test_wrong_hom_endpoints_rejected(self):
        L, rep, phi = _built(G22, M3)
        other = _hom(M3, G22)
        with pytest.raises(EmbeddingInvalid, match=f"^{VERIFY_ENDPOINTS}$"):
            vf.verify_filter_representation(
                L.lattice, rep.embedded_f, rep.embedded_g, other
            )

    def test_same_size_source_with_other_covers_rejected(self):
        L, rep, phi = _built()
        n = phi.source.n
        fake = bk.make_bounded_hom(core.chain(n), phi.target, (0,) * (n - 1) + (phi.target.top,))
        with pytest.raises(EmbeddingInvalid, match=f"^{VERIFY_ENDPOINTS}$"):
            vf.verify_filter_representation(L.lattice, rep.embedded_f, rep.embedded_g, fake)

    def test_wrong_hom_fails_diagram_check(self):
        # both endomorphism endpoints fit, but the map is not the one realized
        homs = bk.enumerate_bounded_homs(
            cg.congruence_lattice(S7.lattice).as_lattice(),
            cg.congruence_lattice(S7.lattice).as_lattice(),
        )
        L, rep = cn.filter_representation(S7, S7, homs[0])
        out = vf.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, homs[3]
        )
        assert not out.summary
        failed = {c.name for c in out.checks if not c.passed}
        assert failed == {"restriction-diagram"}
        assert out.checks[-1].witness.startswith(
            "join-irreducible congruence [[0, 1, 4, 7, 8], [2, 9], [3, 10], [5, 11],"
        )
        assert out.checks[-1].witness.endswith("of the output restricts off the prescribed map")

    def test_verdicts_for_every_hom_with_the_same_endpoints(self):
        # frozen from the verifier that restricted every congruence of the
        # output: over the 238 pairs of an A6 output and a hom between the
        # same congruence lattices, the output passes for the hom it was
        # built from and fails only restriction-diagram for any other
        pool = [G22, M3, S7]
        pairs = 0
        for F in pool:
            for G in pool:
                homs = bk.enumerate_bounded_homs(
                    cg.congruence_lattice(F.lattice).as_lattice(),
                    cg.congruence_lattice(G.lattice).as_lattice(),
                )
                for k, phi in enumerate(homs):
                    L, rep = cn.filter_representation(F, G, phi)
                    for m, psi in enumerate(homs):
                        out = vf.verify_filter_representation(
                            L.lattice, rep.embedded_f, rep.embedded_g, psi
                        )
                        verdicts = [c.passed for c in out.checks]
                        assert verdicts == [True, True, k == m], (k, m)
                        pairs += 1
        assert pairs == 238

    def test_output_partition_list_never_built(self):
        L, rep, phi = _built(S7, S7)
        assert rep.verification.summary
        assert cg.congruence_lattice(L.lattice)._full is None


class TestRestrictionWitnesses:
    """grid-2x2 with a 2-element chain glued on top, checked against the copy
    of grid-2x2 on both sides: the congruence of the chain edge restricts to
    equality on the copy, so restriction is not one-to-one."""

    A = catalog.get("grid-2x2")
    G = rl.glue(A, core.chain(2), {A.top: 0})
    D = cg.congruence_lattice(A).as_lattice()
    NOT_ONE_TO_ONE = (
        "join-irreducible congruence [[0], [1], [2], [3, 4]] restricts to no"
        " join-irreducible one"
    )

    def _report(self, assignment):
        phi = bk.make_bounded_hom(self.D, self.D, assignment)
        return vf.verify_ideal_representation(self.G.lattice, self.G.a_map, self.G.a_map, phi)

    def _against_the_oracles(self, out, assignment):
        phi = bk.make_bounded_hom(self.D, self.D, assignment)
        L, emb = self.G.lattice, self.G.a_map
        con_l, con_k = cg.congruence_lattice(L), cg.congruence_lattice(self.A)
        assert [c.witness for c in out.checks[1:]] == [
            helpers.reference_restriction_mismatch(con_l, emb, con_k),
            helpers.reference_diagram_witness(L, emb, emb, phi),
        ]

    def test_identity_fails_only_bijectivity(self):
        out = self._report(range(4))
        self._against_the_oracles(out, range(4))
        assert [(c.name, c.passed, c.witness) for c in out.checks] == [
            ("target-copy-is-ideal", True, None),
            ("restriction-bijective", False, self.NOT_ONE_TO_ONE),
            ("restriction-diagram", True, None),
        ]

    def test_swapped_atoms_fail_the_diagram_too(self):
        out = self._report((0, 2, 1, 3))
        self._against_the_oracles(out, (0, 2, 1, 3))
        assert [(c.name, c.passed, c.witness) for c in out.checks][1:] == [
            ("restriction-bijective", False, self.NOT_ONE_TO_ONE),
            (
                "restriction-diagram", False,
                "join-irreducible congruence [[0, 1], [2, 3], [4]] of the output"
                " restricts off the prescribed map",
            ),
        ]
        assert out.render_text().splitlines()[-1] == "summary: FAIL"


def _outputs():
    """``(verify, L, rep, phi)`` for every output of the A6 filter sweep and
    every ideal representation of a hom from Con of grid-2x2 or m3 to Con
    of grid-2x3 or m4."""
    rect = catalog.rect_catalog()
    sweep = [rect[name] for name in ("grid-2x2", "m3", "s7")]
    runs = [(F, G, cn.filter_representation, vf.verify_filter_representation)
            for F in sweep for G in sweep]
    runs += [(rect[f], rect[g], cn.ideal_representation, vf.verify_ideal_representation)
             for f in ("grid-2x2", "m3") for g in ("grid-2x3", "m4")]
    for F, G, build, check in runs:
        for phi in bk.enumerate_bounded_homs(
            cg.congruence_lattice(F.lattice).as_lattice(),
            cg.congruence_lattice(G.lattice).as_lattice(),
        ):
            L, rep = build(F, G, phi)
            yield check, L.lattice, rep, phi


_FAULTS = [
    (lambda emb, L: (), "^empty set is not a sublattice$"),
    (lambda emb, L: emb + emb[-1:], "^embedding order is not the canonical"),
    (lambda emb, L: emb[:-1] + (L.n,), "^element {n} out of range for size {n}$"),
    (lambda emb, L: (0, L.top), r"^\[0, {top}\] is not a convex sublattice$"),
    (lambda emb, L: emb[::-1], "^embedding order is not the canonical"),
]
_FAULT_IDS = ["empty", "repeated", "out-of-range", "non-convex", "scrambled"]


class TestCopiesBySublattice:
    """The verifier rebuilds each embedded copy with ``core.sublattice``;
    ``helpers.reference_induced_copy`` is the rebuild it made before."""

    def test_copies_and_reports_match_the_reference_rebuild(self, monkeypatch):
        outputs = list(_outputs())
        assert [check for check, *_ in outputs].count(vf.verify_filter_representation) == 34
        for _, L, rep, _ in outputs:
            for emb in (rep.embedded_f, rep.embedded_g):
                K, to_parent, _ = core.sublattice(L, emb)
                old = helpers.reference_induced_copy(L, emb)
                assert to_parent == tuple(emb)
                assert sorted(K.covers()) == old.covers()
                con, old_con = cg.congruence_lattice(K), cg.congruence_lattice(old)
                assert con.covers() == old_con.covers()
                assert helpers.theta_tables(con) == helpers.theta_tables(old_con)
        texts = [check(L, rep.embedded_f, rep.embedded_g, phi).render_text()
                 for check, L, rep, phi in outputs]
        monkeypatch.setattr(core, "sublattice", lambda L, emb: (
            helpers.reference_induced_copy(L, emb), emb, {x: i for i, x in enumerate(emb)}
        ))
        assert texts == [check(L, rep.embedded_f, rep.embedded_g, phi).render_text()
                         for check, L, rep, phi in outputs]
        assert all(text.endswith("summary: PASS") for text in texts)

    def test_numbering_follows_the_listed_order(self):
        L = S7.lattice
        assert core.sublattice(L, [0, 2, 1, 4])[1:] == ((0, 2, 1, 4), {0: 0, 2: 1, 1: 2, 4: 3})
        assert core.sublattice(L, [1, 0, 2, 4])[1] == (0, 1, 2, 4)
        assert core.sublattice(L, [4, 1, 0, 1, 2, 0])[1] == (0, 1, 2, 4)
        phi = _hom(S7, S7)
        with pytest.raises(EmbeddingInvalid, match="^embedding order is not the canonical"):
            vf.verify_filter_representation(L, [1, 0, 2, 4], range(L.n), phi)

    def test_ascending_intervals_keep_their_numbering(self):
        checked = 0
        for _, R in catalog.search_rectangular(12):
            L = R.lattice
            for a in range(L.n):
                for b in L.up(a):
                    elems = tuple(x for x in L.up(a) if L.leq(x, b))
                    K, to_parent, to_sub = core.sublattice(L, elems)
                    assert to_parent == elems and to_sub == {x: i for i, x in enumerate(elems)}
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("fault, text", _FAULTS, ids=_FAULT_IDS)
    def test_faulty_embeddings_rejected(self, fault, text):
        L, rep, phi = _built()
        L = L.lattice
        bad = fault(tuple(rep.embedded_g), L)
        with pytest.raises(EmbeddingInvalid, match=text.format(n=L.n, top=L.top)):
            vf.verify_filter_representation(L, rep.embedded_f, bad, phi)

    @pytest.mark.parametrize("fault, text", _FAULTS, ids=_FAULT_IDS)
    def test_faulty_embeddings_rejected_alike_with_inputs(self, fault, text):
        # a bad id must not escape the carried test as another error
        L, rep, phi = _built()
        L = L.lattice
        bad = fault(tuple(rep.embedded_g), L)
        raised = []
        for inputs in (None, (G22.lattice, M3.lattice)):
            with pytest.raises(EmbeddingInvalid, match=text.format(n=L.n, top=L.top)) as info:
                vf.verify_filter_representation(L, rep.embedded_f, bad, phi, inputs=inputs)
            raised.append(str(info.value))
        assert raised[0] == raised[1]


def _sweep_jobs():
    """``(build, verify, F, G, phi)`` for the 34 items of the A6 filter sweep
    and a seeded 48 of the 438 ideal representations among grid-2x3,
    grid-3x3 and m4."""
    filters = helpers.catalog_homs(("grid-2x2", "m3", "s7"))
    ideals = helpers.catalog_homs(("grid-2x3", "grid-3x3", "m4"))
    assert (len(filters), len(ideals)) == (34, 438)
    runs = [(cn.filter_representation, vf.verify_filter_representation, *job)
            for job in filters]
    runs += [(cn.ideal_representation, vf.verify_ideal_representation, *job)
             for job in random.Random(32).sample(ideals, 48)]
    return runs


def _sweep_runs():
    """``(verify, F, G, L, rep, phi)`` for each of :func:`_sweep_jobs`, built."""
    for build, check, F, G, phi in _sweep_jobs():
        L, rep = build(F, G, phi)
        yield check, F, G, L.lattice, rep, phi


class TestRestrictionAgainstClassTables:
    """Both restriction checks of the verifier against the class-table
    oracles in ``helpers``: ``restriction_mismatch`` as it read class
    tables, and the diagram check through each copy's ``index``."""

    def test_both_copies_of_the_sweep_runs(self):
        # the 34 A6 outputs and the seeded 48 ideal runs
        copies = []
        for _, F, G, L, rep, _ in _sweep_runs():
            con_l = cg.congruence_lattice(L)
            for emb, K in ((rep.embedded_f, F), (rep.embedded_g, G)):
                con_k = cg.congruence_lattice(K.lattice)
                got = cg.restriction_mismatch(con_l, emb, con_k)
                assert got == helpers.reference_restriction_mismatch(con_l, emb, con_k)
                copies.append(got)
        # restriction to F's copy is a bijection, to G's as a rule not
        assert len(copies) == 2 * (34 + 48)
        assert copies[::2] == [None] * (34 + 48)
        assert copies[1::2].count(None) == 8

    def test_diagram_for_every_hom_with_the_same_endpoints(self):
        # the 238 pairs of a filter output and a hom between the same
        # congruence lattices, and the ideal outputs alike
        verdicts = []
        for check, L, rep, phi in _outputs():
            for psi in bk.enumerate_bounded_homs(phi.source, phi.target):
                diagram = check(L, rep.embedded_f, rep.embedded_g, psi).checks[-1]
                want = helpers.reference_diagram_witness(L, rep.embedded_f, rep.embedded_g, psi)
                assert diagram.name == "restriction-diagram"
                assert (diagram.passed, diagram.witness) == (want is None, want)
                verdicts.append((check, diagram.passed))
        filters = [ok for check, ok in verdicts if check is vf.verify_filter_representation]
        ideals = [ok for check, ok in verdicts if check is vf.verify_ideal_representation]
        assert (len(filters), filters.count(True)) == (238, 34)
        assert (len(ideals), ideals.count(True)) == (70, 12)


VERIFY_ENDPOINTS = "homomorphism endpoints do not match the embedded copies' congruence lattices"


class TestEndpointTest:
    """``ConLattice._numbers``, the one test that a hom's endpoints are Con F
    and Con G, against the cover-list comparison it replaced."""

    def test_agrees_with_the_cover_list_oracle(self):
        cons = [cg.congruence_lattice(catalog.get(name)) for name in lemmas.names()]
        verdicts = []
        for _, _, F, G, phi in _sweep_jobs():
            conF, conG = cg.congruence_lattice(F.lattice), cg.congruence_lattice(G.lattice)
            pairs = [(conF, conG), (conG, conF)]  # the hom, then its endpoints swapped
            pairs += [(conK, conG) for conK in cons] + [(conF, conK) for conK in cons]
            for a, b in pairs:
                ok = a._numbers(phi.source) and b._numbers(phi.target)
                assert ok == helpers.reference_endpoints_match(phi, a, b), (a, b, phi.assignment)
                verdicts.append(ok)
        assert (len(verdicts), sum(verdicts)) == (82 * (2 + 2 * 21), 524)

    def test_cold_count_stops_past_the_endpoint_and_a_warm_one_is_not_redone(self, monkeypatch):
        # a cold Con L counts its down-sets no further than one past the
        # endpoint's size; one whose size is known counts none
        drawn = []
        real = core._downsets

        def counted(P):
            for d in real(P):
                drawn.append(d)
                yield d

        monkeypatch.setattr(core, "_downsets", counted)
        con = cg.congruence_lattice(rl.grid(16, 16).lattice)  # 2^30 congruences
        assert not con._numbers(core.chain(2))
        assert len(drawn) == 3
        warm = cg.congruence_lattice(catalog.s7().lattice)
        lat = warm.as_lattice()
        drawn.clear()
        assert warm._numbers(lat) and drawn == []

    def test_other_ids_for_the_same_order_are_rejected(self):
        F = catalog.rect_catalog()["grid-2x3"]
        phi = _hom(F, M3)
        L, rep = cn.filter_representation(F, M3, phi)
        other, _ = helpers.renumbered_source(phi)
        for inputs in (None, (F.lattice, M3.lattice)):
            with pytest.raises(EmbeddingInvalid, match=f"^{VERIFY_ENDPOINTS}$"):
                vf.verify_filter_representation(
                    L.lattice, rep.embedded_f, rep.embedded_g, other, inputs=inputs)

    def test_reordered_rows_verify_alike(self):
        for check, F, G, L, rep, phi in _sweep_runs():
            turned = bk.make_bounded_hom(
                helpers.reversed_rows(phi.source), helpers.reversed_rows(phi.target), phi.assignment)
            args = (L, rep.embedded_f, rep.embedded_g)
            assert check(*args, turned).render_text() == rep.verification.render_text()


def _fresh_con_calls(monkeypatch):
    """Wrap ``cg.congruence_lattice``; the returned list collects each
    argument whose congruence lattice is not cached yet."""
    fresh = []
    real = cg.congruence_lattice

    def counted(L):
        if L._con is None:
            fresh.append(L)
        return real(L)

    monkeypatch.setattr(cg, "congruence_lattice", counted)
    return fresh


class TestCopiesReadThroughInputs:
    """``inputs`` lets the verifier read an embedded copy through the input
    lattice it equals; the report is the same text with or without it."""

    def test_reports_equal_with_and_without_inputs(self):
        runs = 0
        for check, F, G, L, rep, phi in _sweep_runs():
            args = (L, rep.embedded_f, rep.embedded_g, phi)
            plain = check(*args).render_text()
            given = check(*args, inputs=(F.lattice, G.lattice)).render_text()
            assert given == plain == rep.verification.render_text()
            assert plain.endswith("summary: PASS")
            runs += 1
        assert runs == 34 + 48

    def test_every_copy_equals_its_input(self):
        # the carried path pays off only while the pipelines embed F and G
        # field for field; a construction change that breaks this fails here
        for _, F, G, L, rep, _ in _sweep_runs():
            for emb, K in ((rep.embedded_f, F.lattice), (rep.embedded_g, G.lattice)):
                assert core._carries(L, emb, K)
                copy, to_parent, _ = core.sublattice(L, emb)
                assert to_parent == tuple(emb) and copy == K
                assert helpers.same_fields(copy, K)

    def test_warm_item_builds_three_lattices(self, monkeypatch):
        # three builds, the output last; verifying the output through its
        # inputs builds no copy
        F, G = G22, S7
        homs = [_hom(F, G, k) for k in (0, -1)]
        cn.filter_representation(F, G, homs[0])
        sizes, checked = [], []
        real, trusted = core.make_lattice_with_map, core._trusted_lattice
        monkeypatch.setattr(core, "make_lattice_with_map",
                            lambda *args: checked.append(args[0]) or real(*args))
        monkeypatch.setattr(core, "_trusted_lattice",
                            lambda *args: sizes.append(len(args[0])) or trusted(*args))
        L, rep = cn.filter_representation(F, G, homs[1])
        # the three are gluings, so they take the trusted entry
        assert len(sizes) == 3 and sizes[-1] == L.lattice.n and checked == []
        sizes.clear()
        out = vf.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, homs[1], inputs=(F.lattice, G.lattice)
        )
        assert out.summary and sizes == checked == []

    def test_warmed_pipeline_computes_con_of_the_output_only(self, monkeypatch):
        for F, G in ((G22, M3), (S7, S7), (M3, S7)):
            homs = [_hom(F, G, k) for k in (0, -1)]
            cn.filter_representation(F, G, homs[0])  # warms Con F, Con G and F's extension
            fresh = _fresh_con_calls(monkeypatch)
            L, rep = cn.filter_representation(F, G, homs[1])
            assert rep.verification.summary
            assert len(fresh) == 1 and fresh[0] is L.lattice
            monkeypatch.undo()

    def test_without_inputs_both_copies_are_computed(self, monkeypatch):
        L, rep, phi = _built(S7, S7)
        fresh = _fresh_con_calls(monkeypatch)
        vf.verify_filter_representation(L.lattice, rep.embedded_f, rep.embedded_g, phi)
        assert len(fresh) == 2
        assert not [K for K in fresh if K is S7.lattice or K is L.lattice]

    def test_differing_input_is_not_read(self, monkeypatch):
        # G's covers in another planar order: equal as an order, not field
        # for field, so the rebuilt copy is verified as it is
        L, rep, phi = _built()
        G = M3.lattice
        other = core.make_lattice(G.n, None, [row[::-1] for row in G._upper])
        assert other._up == G._up and other._upper != G._upper
        args = (L.lattice, rep.embedded_f, rep.embedded_g, phi)
        plain = vf.verify_filter_representation(*args).render_text()
        fresh = _fresh_con_calls(monkeypatch)
        text = vf.verify_filter_representation(*args, inputs=(G22.lattice, other)).render_text()
        assert text == plain
        assert other._con is None
        assert len(fresh) == 1 and helpers.same_fields(fresh[0], G)

    def test_swapped_inputs_fall_back(self, monkeypatch):
        L, rep, phi = _built()
        args = (L.lattice, rep.embedded_f, rep.embedded_g, phi)
        plain = vf.verify_filter_representation(*args).render_text()
        fresh = _fresh_con_calls(monkeypatch)
        text = vf.verify_filter_representation(*args, inputs=(M3.lattice, G22.lattice))
        assert text.render_text() == plain
        assert len(fresh) == 2

    def test_failing_report_unchanged_by_inputs(self):
        homs = bk.enumerate_bounded_homs(
            cg.congruence_lattice(S7.lattice).as_lattice(),
            cg.congruence_lattice(S7.lattice).as_lattice(),
        )
        L, rep = cn.filter_representation(S7, S7, homs[0])
        args = (L.lattice, rep.embedded_f, rep.embedded_g, homs[3])
        plain = vf.verify_filter_representation(*args)
        given = vf.verify_filter_representation(*args, inputs=(S7.lattice, S7.lattice))
        assert given == plain and not given.summary

    def test_endpoint_mismatch_still_raised(self):
        L, rep, phi = _built(G22, M3)
        with pytest.raises(EmbeddingInvalid, match=f"^{VERIFY_ENDPOINTS}$"):
            vf.verify_filter_representation(
                L.lattice, rep.embedded_f, rep.embedded_g, _hom(M3, G22),
                inputs=(G22.lattice, M3.lattice),
            )

    def test_inputs_is_keyword_only(self):
        L, rep, phi = _built()
        with pytest.raises(TypeError):
            vf.verify_filter_representation(
                L.lattice, rep.embedded_f, rep.embedded_g, phi, (G22.lattice, M3.lattice)
            )


def _id_lists(L, interval, height, rng):
    """Seeded id lists around an interval of L: the interval, a shuffle, a
    linear extension, a repeated id, a dropped id, ids out of range and a
    non-convex pair."""
    I = list(interval)
    out = [I, rng.sample(I, len(I)), sorted(I, key=lambda x: (height[x], rng.random()))]
    k = rng.randrange(len(I))
    out += [I[:k] + I[k + 1:], I[:-1] + [L.n], [-1] + I[1:], [0, L.top]]
    if len(I) > 1:
        out.append(I[:k] + [I[k - 1]] + I[k + 1:])
    return out


class TestCarries:
    """``core._carries`` says, without a build, what
    ``helpers.reference_carries`` finds by building the copy with
    ``core.sublattice`` and comparing its stored fields."""

    def test_agrees_with_the_rebuild_on_seeded_id_lists(self):
        # each list against its own copy (the interval's when it has none),
        # that copy with its upper or its lower rows reversed, and up to
        # three interval copies of the list's size seen so far
        rng = random.Random(34)
        lattices = [catalog.get(name) for name in lemmas.names()]
        lattices += [R.lattice for _, R in catalog.search_rectangular(12)]
        seen, verdicts = {}, {True: 0, False: 0}
        for L in lattices:
            height = core._heights(L)[0]
            intervals = [tuple(x for x in L.up(a) if L.leq(x, b))
                         for a in range(L.n) for b in L.up(a)]
            for interval in rng.sample(intervals, min(len(intervals), 12)):
                K = core.sublattice(L, interval)[0]
                same = seen.setdefault(K.n, [])
                if K not in same and len(same) < 3:
                    same.append(K)
                for S in _id_lists(L, interval, height, rng):
                    try:
                        copy = core.sublattice(L, S)[0]
                    except LatconError:
                        copy = K
                    flipped = [core.make_lattice(copy.n, None, *rows) for rows in (
                        [[row[::-1] for row in copy._upper]],
                        [copy._upper, [row[::-1] for row in copy._lower]],
                    )]
                    for M in (copy, *flipped, *seen.get(len(S), ())):
                        got = core._carries(L, tuple(S), M)
                        assert got == helpers.reference_carries(L, S, M), (S, M)
                        verdicts[got] += 1
        assert verdicts[True] > 5000 and verdicts[False] > 10000, verdicts

    @pytest.mark.parametrize(
        "fault",
        [
            lambda emb, L: emb[:-1] + (L.n,),
            lambda emb, L: (-1,) + emb[1:],
            lambda emb, L: emb[:-1] + emb[:1],
            lambda emb, L: emb[:-1],
            lambda emb, L: emb + (0,),
            lambda emb, L: (),
            lambda emb, L: emb[::-1],
        ],
        ids=["out-of-range", "negative", "repeated", "dropped", "extra", "empty", "scrambled"],
    )
    def test_bad_ids_are_not_carried(self, fault):
        # one change away from an embedding that carries its input; the
        # predicate answers False, never raises, where the rebuild fails
        L, rep, _ = _built()
        L, G = L.lattice, M3.lattice
        assert core._carries(L, rep.embedded_g, G)
        bad = fault(tuple(rep.embedded_g), L)
        assert core._carries(L, bad, G) is False
        assert helpers.reference_carries(L, bad, G) is False


class TestLemmaSuite:
    def test_default_catalog_counts_frozen(self):
        rep = lemmas.lemma_suite()
        assert rep.summary
        got = {c.name: c.witness for c in rep.checks if c.name != "inapplicable-items"}
        assert got == {
            "ideal_singleton_meet_extension": "1218 configurations",
            "rect_ideal_corners_on_lower_chains": "34 configurations",
            "non_eye_corner_decomposition": "124 configurations",
            "outside_ideal_above_a_corner": "180 configurations",
            "singleton_full_congruence_when_upper_chains_untouched": "43 configurations",
            "flap_union_sublattice": "10 configurations",
            "two_piece_congruence_assembly": "60 configurations",
        }

    def test_skip_notes_mention_non_rectangular_items(self):
        rep = lemmas.lemma_suite()
        note = next(c for c in rep.checks if c.name == "inapplicable-items")
        assert note.passed
        assert "not rectangular" in note.witness

    def test_empty_catalog_is_vacuous_pass(self):
        rep = lemmas.lemma_suite([])
        assert rep.summary
        assert rep.checks[0].name == "catalog"
        assert "vacuous" in rep.checks[0].witness

    def test_explicit_items_run(self):
        rep = lemmas.lemma_suite([catalog.s7(), catalog.get("grid-2x2")])
        assert rep.summary
        names = {c.name for c in rep.checks}
        assert "two_piece_congruence_assembly" not in names or rep.summary
        assert "rect_ideal_corners_on_lower_chains" in names


class _UpperAsLower(rl.RectLattice):
    """A RectLattice that reads its lower chains off the corners' up-sets,
    as a faulty recognizer would."""

    __slots__ = ()
    lower_left = rl.RectLattice.upper_left
    lower_right = rl.RectLattice.upper_right


def _rect(R, cls=rl.RectLattice, **changed):
    """A copy of R as a ``cls`` with some of its fields replaced, validated
    by nothing."""
    fields = {f: getattr(R, f) for f in ("lattice", "lc", "rc", "eyes")}
    return cls(**{**fields, **changed})


def _corners_at_top(monkeypatch):
    real = rl.make_rectangular
    monkeypatch.setattr(
        rl, "make_rectangular",
        lambda L: _rect(real(L), lc=L.top, rc=L.top),
    )
    return [rl.grid(3, 3)]


def _flap_off_center():
    asm = lemmas.assemblies()["four-grids"]
    R = asm.result
    return [asm._replace(lf_map=(R.lc, R.rc))]


def _total(stage, alpha_a, alpha_b):
    L = stage[0]
    return cg.Congruence(L, [0] * L.n)


def _never_compatible(stage, alpha_a, alpha_b):
    raise lemmas.Incompatible("patched")


# check name -> (patch returning the items, frozen witness of the first failure);
# each patch or hand-built item makes the check fail at an early configuration
FAILURES = {
    "ideal_singleton_meet_extension": (
        lambda mp: mp.setattr(lemmas, "respects", lambda L, b, op: False) or [S7],
        "ideal [0] with [[0]] on a 7-element lattice",
    ),
    "rect_ideal_corners_on_lower_chains": (
        lambda mp: [_rect(rl.grid(3, 3), cls=_UpperAsLower)],
        "ideal [0, 1, 3, 4] of a 9-element lattice has corners 3, 1 off the lower chains",
    ),
    "non_eye_corner_decomposition": (
        lambda mp: [_rect(M3, eyes=())],
        "element 3 of a 5-element lattice",
    ),
    "outside_ideal_above_a_corner": (
        _corners_at_top,
        "element 2 outside ideal [0, 1, 3, 4] in a 9-element lattice",
    ),
    "singleton_full_congruence_when_upper_chains_untouched": (
        lambda mp: mp.setattr(lemmas, "respects", lambda L, b, op: False) or [S7],
        "ideal [0, 1, 2, 4] with [[0], [1], [2], [4]] in a 7-element lattice",
    ),
    "flap_union_sublattice": (
        lambda mp: _flap_off_center(),
        "union of size 6 in a 9-element assembly",
    ),
    "two_piece_congruence_assembly": (
        lambda mp: mp.setattr(lemmas, "reference_glue_pair", _total)
        or [lemmas.glue_instances()["grid-on-grid"]],
        "relation formula differs on a 7-element gluing",
    ),
}


class TestLemmaSuiteFailures:
    """Each check reports its first failing configuration as the witness."""

    @pytest.mark.parametrize("name", sorted(FAILURES))
    def test_first_failure_is_the_witness(self, name, monkeypatch):
        setup, witness = FAILURES[name]
        rep = lemmas.lemma_suite(setup(monkeypatch))
        got = next(c for c in rep.checks if c.name == name)
        assert (got.passed, got.witness) == (False, witness)
        assert not rep.summary

    def test_missing_congruences_after_the_loop(self, monkeypatch):
        monkeypatch.setattr(lemmas, "reference_glue_pair", _never_compatible)
        rep = lemmas.lemma_suite([lemmas.glue_instances()["grid-on-grid"]])
        got = next(c for c in rep.checks if c.name == "two_piece_congruence_assembly")
        assert (got.passed, got.witness) == (
            False, "0 compatible pairs against 16 congruences on a 7-element gluing"
        )
