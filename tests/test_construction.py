"""End-to-end representation pipelines and their reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import congruence as cg
from latcon import construction as cn
from latcon import jsonio as jio
from latcon import rectangular as rl
from latcon import verify as vf
from latcon.errors import (
    LatconError,
    PostconditionFailed,
    UpperChainConditionFails,
    VerificationFailed,
)

G22 = catalog.rect_catalog()["grid-2x2"]
M3 = catalog.rect_catalog()["m3"]
S7 = catalog.s7()
G33 = catalog.rect_catalog()["grid-3x3"]
S7E = catalog.rect_catalog()["s7-eye"]


def con_lat(R):
    return cg.congruence_lattice(R.lattice).as_lattice()


def hom(F, G, k=0):
    return bk.enumerate_bounded_homs(con_lat(F), con_lat(G))[k]


def failing_report(*args, **kwargs):
    return vf.VerificationReport((vf.CheckResult("injected", False, "fault"),))


class TestBoundaryColorExtension:
    # frozen: size, chain tuple (bl, br, tl, tr), eye placements
    EXPECTED = {
        "grid-2x2": (20, (4, 4, 4, 4),
                     [("bottom", (0, 0)), ("bottom", (1, 1)),
                      ("right", (0, 0)), ("left", (0, 1))]),
        "m3": (12, (3, 3, 3, 3), [("bottom", (0, 0)), ("left", (0, 0))]),
        "s7": (40, (6, 6, 5, 5),
               [("bottom", (0, 0)), ("bottom", (1, 1)), ("bottom", (2, 2)),
                ("left", (1, 0)), ("left", (0, 1)), ("right", (2, 0))]),
        "s7-eye": (28, (5, 5, 4, 4),
                   [("bottom", (0, 0)), ("bottom", (1, 1)),
                    ("left", (1, 0)), ("left", (0, 1))]),
    }

    def test_frozen_shapes(self):
        for name, (size, chains, eyes) in self.EXPECTED.items():
            F = catalog.rect_catalog()[name]
            R, rep = cn.boundary_color_extension(F)
            assert R.n == size, name
            assert (R.bl, R.br, R.tl, R.tr) == chains, name
            assert [(e.flap, e.cell) for e in rep.eye_log] == eyes, name

    def test_congruence_preserving(self):
        for name in self.EXPECTED:
            F = catalog.rect_catalog()[name]
            R, rep = cn.boundary_color_extension(F)
            assert cg.is_cp_extension(R.lattice, rep.embedded_f), name

    def test_input_is_filter_of_output(self):
        R, rep = cn.boundary_color_extension(S7)
        assert core.is_filter(R.lattice, rep.embedded_f)
        assert rep.embedded_f[S7.lattice.top] == R.lattice.top

    def test_every_color_reaches_both_upper_chains(self):
        for name in self.EXPECTED:
            F = catalog.rect_catalog()[name]
            R, rep = cn.boundary_color_extension(F)
            con = cg.congruence_lattice(R.lattice)
            ul = {con.colors[e] for e in zip(R.upper_left, R.upper_left[1:])}
            ur = {con.colors[e] for e in zip(R.upper_right, R.upper_right[1:])}
            assert len(ul) == con.ji_order.n, name
            assert len(ur) == con.ji_order.n, name

    def test_lower_variant_reaches_both_lower_chains(self):
        F = catalog.rect_catalog()["m3"]
        R, rep = cn.boundary_color_extension(F)
        con = cg.congruence_lattice(R.lattice)
        ll = {con.colors[e] for e in zip(R.lower_left, R.lower_left[1:])}
        lr = {con.colors[e] for e in zip(R.lower_right, R.lower_right[1:])}
        assert len(ll) == len(lr) == con.ji_order.n

    def test_color_table_covers_all_join_irreducibles(self):
        R, rep = cn.boundary_color_extension(S7)
        con = cg.congruence_lattice(R.lattice)
        assert sorted(rep.color_table) == list(range(con.ji_order.n))
        for pos, rows in rep.color_table.items():
            assert set(rows) == set(cn.CHAIN_NAMES)
            assert rows["ul"] and rows["ur"]  # the property the build delivers

    @pytest.mark.parametrize(
        "patch, message",
        [
            ((cg, "is_cp_extension", lambda L, K: False), "does not preserve"),
            ((cn, "_color_table", lambda R: {0: dict.fromkeys(cn.CHAIN_NAMES, ())}),
             "all four boundary chains"),
        ],
        ids=["not-cp", "color-missing"],
    )
    def test_postcondition_raises(self, monkeypatch, patch, message):
        monkeypatch.setattr(*patch)
        # a fresh input: the result of a passing run is cached on its input
        with pytest.raises(PostconditionFailed, match=message):
            cn.boundary_color_extension(catalog.s7())

    def test_result_cached_per_input(self):
        a = cn.boundary_color_extension(S7)
        b = cn.boundary_color_extension(S7)
        assert a[0] is b[0]


class TestTiedColors:
    def test_edge_color_lift_matches_restriction_reference(self):
        rect = catalog.rect_catalog()
        names = ("grid-2x2", "m3", "s7", "s7-eye", "grid-2x3")
        checked = 0
        for f in names:
            for g in names:
                F, G = rect[f], rect[g]
                for phi in bk.enumerate_bounded_homs(con_lat(F), con_lat(G)):
                    inner, tie, chains, inner_chains = cn._tied_colors(F, G, phi)
                    assert tie == helpers.reference_tied_colors(F, G, phi), (f, g, phi.assignment)
                    assert inner is cn.boundary_color_extension(F)[1]
                    assert chains == cn._chain_colors(G)
                    assert inner_chains == cn._chain_colors(inner.output)
                    checked += 1
        assert checked == 145


class TestFilterRepresentation:
    def test_frozen_sizes(self):
        L, rep = cn.filter_representation(G22, M3, hom(G22, M3))
        assert L.n == 31
        for k in range(len(bk.enumerate_bounded_homs(con_lat(S7), con_lat(S7)))):
            L, rep = cn.filter_representation(S7, S7, hom(S7, S7, k))
            assert L.n == 65

    def test_embeddings_are_filter_and_ideal(self):
        L, rep = cn.filter_representation(G22, M3, hom(G22, M3))
        assert core.is_filter(L.lattice, rep.embedded_g)
        assert core.is_ideal(L.lattice, [
            x for x in range(L.n)
            if L.lattice.leq(x, rep.embedded_g[M3.lattice.bottom])
        ])
        assert cg.is_cp_extension(L.lattice, rep.embedded_f)

    def test_restriction_realizes_each_hom(self):
        # pairwise distinct homs produce distinct restriction behavior,
        # pinned through the verification diagram check run in-op; spot-check
        # that the identity hom's output restricts trivially
        phi = hom(S7, S7, 0)
        L, rep = cn.filter_representation(S7, S7, phi)
        conL = cg.congruence_lattice(L.lattice)
        keys_f = {helpers.restricted_key(a.cls, rep.embedded_f) for a in conL}
        assert len(keys_f) == len(cg.congruence_lattice(S7.lattice))

    def test_report_pieces_and_inner(self):
        L, rep = cn.filter_representation(G22, M3, hom(G22, M3))
        assert set(rep.pieces) == {"top", "bottom", "left", "right"}
        assert rep.pieces["top"] is M3
        assert rep.inner is not None  # the color extension build
        assert rep.inner.output.n == 20

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(LatconError, match=f"^{ENDPOINTS}$"):
            cn.filter_representation(G22, M3, hom(M3, G22))


ENDPOINTS = "homomorphism endpoints do not match the congruence lattices of the inputs"


def _a6_homs():
    """``(F, G, phi)`` for the 34 bounded homs of the A6 sweep."""
    sweep = (G22, M3, S7)
    return [(F, G, phi) for F in sweep for G in sweep
            for phi in bk.enumerate_bounded_homs(con_lat(F), con_lat(G))]


def _output_bytes(L, rep):
    return (rep.verification.render_text(), jio.dumps(jio.rect_to_obj(L)),
            jio.dumps(jio.construction_report_to_obj(rep)))


class TestEndpointsBlindToPlanarOrder:
    """The pipelines' entry check compares each endpoint's sets of upper
    covers with Con F's or Con G's: it ignores the planar order of the
    rows, but not the numbering."""

    def test_reordered_rows_give_the_same_output(self):
        reversed_rows = 0
        for F, G, phi in _a6_homs():
            D, E = helpers.reversed_rows(phi.source), helpers.reversed_rows(phi.target)
            turned = bk.make_bounded_hom(D, E, phi.assignment)
            rows = sum(len(r) > 1 for r in phi.source._upper + phi.target._upper)
            reversed_rows += rows
            conF, conG = cg.congruence_lattice(F.lattice), cg.congruence_lattice(G.lattice)
            # the old cover-list comparison refused every such hom
            assert helpers.reference_endpoints_match(turned, conF, conG) == (rows == 0)
            assert _output_bytes(*cn.filter_representation(F, G, turned)) == _output_bytes(
                *cn.filter_representation(F, G, phi))
        assert reversed_rows == 59

    def test_other_ids_for_the_same_order_are_rejected(self):
        F = catalog.rect_catalog()["grid-2x3"]
        phi = hom(F, M3)
        other, swap = helpers.renumbered_source(phi)
        D = other.source
        assert all(D.leq(swap[x], swap[y]) == phi.source.leq(x, y)
                   for x in range(D.n) for y in range(D.n))
        assert all(other(swap[x]) == phi(x) for x in range(D.n))
        conF, conG = cg.congruence_lattice(F.lattice), cg.congruence_lattice(M3.lattice)
        assert not helpers.reference_endpoints_match(other, conF, conG)
        with pytest.raises(LatconError, match=f"^{ENDPOINTS}$"):
            cn.filter_representation(F, M3, other)
        with pytest.raises(LatconError, match=f"^{ENDPOINTS}$"):
            cn.ideal_representation(F, M3, other)


class TestVerification:
    def test_report_is_carried(self):
        _, rep = cn.filter_representation(S7, M3, hom(S7, M3))
        assert rep.verification.summary
        assert rep.inner.verification is None
        _, rep = cn.ideal_representation(M3, G22, hom(M3, G22))
        assert [c.name for c in rep.verification.checks][0] == "target-copy-is-ideal"

    def test_failing_verification_raises(self, monkeypatch):
        monkeypatch.setattr(vf, "verify_filter_representation", failing_report)
        with pytest.raises(VerificationFailed) as err:
            cn.filter_representation(G22, M3, hom(G22, M3))
        assert err.value.report.render_text().startswith("FAIL injected — fault")

    def test_failing_verification_raises_under_optimize(self):
        code = (
            "import sys\n"
            "from latcon import catalog, congruence as cg, birkhoff as bk\n"
            "from latcon import construction as cn, verify as vf\n"
            "from latcon.errors import VerificationFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "bad = vf.VerificationReport((vf.CheckResult('injected', False),))\n"
            "vf.verify_filter_representation = lambda *args, **kw: bad\n"
            "F = G = catalog.rect_catalog()['m3']\n"
            "D = cg.congruence_lattice(F.lattice).as_lattice()\n"
            "phi = bk.make_bounded_hom(D, D, range(D.n))\n"
            "try:\n"
            "    cn.filter_representation(F, G, phi)\n"
            "except VerificationFailed:\n"
            "    print('raised')\n"
        )
        src = str(Path(cn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"

    def test_simple_check_raises(self, monkeypatch):
        monkeypatch.setattr(cg, "is_simple", lambda L: False)
        with pytest.raises(VerificationFailed) as err:
            cn.simple_ideal_embedding(G22)
        assert "FAIL output-is-simple" in err.value.report.render_text()


class TestUpperChainCollapseCheck:
    def test_matches_direct_definition_oracle(self):
        scanned = catalog.search_rectangular(16)
        assert len(scanned) == 117
        for name, R in scanned:
            holds, bad = helpers.condition_oracle(R)
            chk = cn.upper_chain_collapse_check(R)
            assert chk.holds == holds, name
            assert {w.cls for w in chk.witnesses} == {w.cls for w in bad}, name

    def test_matches_full_list_reference_and_builds_no_list(self):
        scanned = catalog.search_rectangular(24)
        assert len(scanned) == 564
        for name, R in scanned:
            chk = cn.upper_chain_collapse_check(R)
            con = cg.congruence_lattice(R.lattice)
            size = len(con)
            assert con._full is None, name
            ref = helpers.reference_upper_chain_collapse_check(R)
            assert chk.holds == ref.holds, name
            assert [w.blocks for w in chk.witnesses] == [w.blocks for w in ref.witnesses], name
            assert size == len(con.congruences), name

    def test_holds_for_grids_and_m3(self):
        for R in (G22, M3, G33):
            chk = cn.upper_chain_collapse_check(R)
            assert chk.holds and chk.witnesses == ()

    def test_fails_for_fork_with_frozen_witness(self):
        chk = cn.upper_chain_collapse_check(S7)
        assert not chk.holds
        assert [w.blocks for w in chk.witnesses] == [
            ((0,), (1, 3), (2, 5), (4, 6))
        ]


class TestIdealRepresentation:
    def test_frozen_sizes(self):
        cases = [
            (M3, G22, 21),
            (M3, G33, 32),
            (G22, M3, 32),
        ]
        for F, G, size in cases:
            L, rep = cn.ideal_representation(F, G, hom(F, G))
            assert L.n == size

    def test_embeddings(self):
        L, rep = cn.ideal_representation(M3, G22, hom(M3, G22))
        assert core.is_ideal(L.lattice, rep.embedded_g)
        assert core.is_filter(
            L.lattice, L.lattice.up(rep.embedded_f[M3.lattice.bottom])
        )
        assert cg.is_cp_extension(L.lattice, rep.embedded_f)

    def test_condition_failure_raises_with_witness(self):
        with pytest.raises(UpperChainConditionFails) as exc:
            cn.ideal_representation(G22, S7, hom(G22, S7))
        assert "[[0], [1, 3], [2, 5], [4, 6]]" in str(exc.value)

    def test_checks_run_endpoints_then_condition_then_extension(self, monkeypatch):
        # S7 fails the condition, but a hom with wrong endpoints is refused for those
        with pytest.raises(LatconError, match=f"^{ENDPOINTS}$"):
            cn.ideal_representation(G22, S7, hom(M3, G22))
        built = []
        monkeypatch.setattr(cn, "boundary_color_extension", built.append)
        with pytest.raises(UpperChainConditionFails):
            cn.ideal_representation(G22, S7, hom(G22, S7))
        assert built == []


class TestSimpleIdealEmbedding:
    def test_frozen_sizes_and_simplicity(self):
        for G, size in ((M3, 22), (G22, 21), (G33, 32)):
            L, rep = cn.simple_ideal_embedding(G)
            assert L.n == size
            assert cg.is_simple(L.lattice)
            assert core.is_ideal(L.lattice, rep.embedded_g)

    def test_fails_on_fork(self):
        with pytest.raises(UpperChainConditionFails):
            cn.simple_ideal_embedding(S7)

    def test_eyed_fork_embeds(self):
        # the second-cell eye merges the offending colors, restoring the
        # collapse condition
        fork_eye = catalog.rect_catalog()["s7-eye"]
        chk = cn.upper_chain_collapse_check(fork_eye)
        if chk.holds:
            L, rep = cn.simple_ideal_embedding(fork_eye)
            assert cg.is_simple(L.lattice)
        else:
            with pytest.raises(UpperChainConditionFails):
                cn.simple_ideal_embedding(fork_eye)


def test_benchmark_smoke_run_passes():
    # the traced benchmark requires its exercised functions to be called
    # (is_cp_extension among them), so a pipeline change can break it
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], capture_output=True, text=True,
        cwd=root, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
