"""The independent verification harness and the universal property suite."""

import pytest

import helpers
import lemmas
from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import rectangular as rl
from latcon import congruence as cg
from latcon import construction as cn
from latcon import verify as vf
from latcon.errors import EmbeddingInvalid

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
        with pytest.raises(EmbeddingInvalid):
            vf.verify_filter_representation(
                L.lattice, rep.embedded_f, rep.embedded_g, other
            )

    def test_same_size_source_with_other_covers_rejected(self):
        L, rep, phi = _built()
        n = phi.source.n
        fake = bk.make_bounded_hom(core.chain(n), phi.target, (0,) * (n - 1) + (phi.target.top,))
        with pytest.raises(EmbeddingInvalid, match="endpoints do not match"):
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

    def test_identity_fails_only_bijectivity(self):
        out = self._report(range(4))
        assert [(c.name, c.passed, c.witness) for c in out.checks] == [
            ("target-copy-is-ideal", True, None),
            ("restriction-bijective", False, self.NOT_ONE_TO_ONE),
            ("restriction-diagram", True, None),
        ]

    def test_swapped_atoms_fail_the_diagram_too(self):
        out = self._report((0, 2, 1, 3))
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
                assert con.theta_cls == old_con.theta_cls
        texts = [check(L, rep.embedded_f, rep.embedded_g, phi).render_text()
                 for check, L, rep, phi in outputs]
        monkeypatch.setattr(vf, "_copy", lambda L, emb: (
            core._element_ids(emb), helpers.reference_induced_copy(L, core._element_ids(emb))
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

    @pytest.mark.parametrize(
        "fault, text",
        [
            (lambda emb, L: (), "^empty set is not a sublattice$"),
            (lambda emb, L: emb + emb[-1:], "^embedding order is not the canonical"),
            (lambda emb, L: emb[:-1] + (L.n,), "^element {n} out of range for size {n}$"),
            (lambda emb, L: (0, L.top), r"^\[0, {top}\] is not a convex sublattice$"),
            (lambda emb, L: emb[::-1], "^embedding order is not the canonical"),
        ],
        ids=["empty", "repeated", "out-of-range", "non-convex", "scrambled"],
    )
    def test_faulty_embeddings_rejected(self, fault, text):
        L, rep, phi = _built()
        L = L.lattice
        bad = fault(tuple(rep.embedded_g), L)
        with pytest.raises(EmbeddingInvalid, match=text.format(n=L.n, top=L.top)):
            vf.verify_filter_representation(L, rep.embedded_f, bad, phi)


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


def _rect(R, **changed):
    """A copy of R with some boundary fields replaced, validated by nothing."""
    fields = {f: getattr(R, f) for f in (
        "lattice", "lc", "rc", "lower_left", "upper_left", "lower_right", "upper_right", "eyes"
    )}
    return rl.RectLattice(**{**fields, **changed})


def _corners_at_top(monkeypatch):
    real = rl.make_rectangular
    monkeypatch.setattr(
        rl, "make_rectangular",
        lambda L: _rect(real(L), lc=L.top, rc=L.top),
    )
    return [rl.grid(3, 3)]


def _flap_off_center():
    asm = lemmas.assemblies()["four-grids"]
    fields = {s: getattr(asm, s) for s in rl.TripleGluingAssembly.__slots__}
    R = asm.result
    return [rl.TripleGluingAssembly(**{**fields, "lf_map": (R.lc, R.rc)})]


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
        lambda mp: [_rect(
            rl.grid(3, 3),
            lower_left=rl.grid(3, 3).upper_left,
            lower_right=rl.grid(3, 3).upper_right,
        )],
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
