"""JSON encoding: determinism, renumbering on load, validation."""

import json

import pytest

import helpers
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
from latcon import construction as cn
from latcon import jsonio as jio
from latcon import verify as vf
from latcon.cli import main
from latcon.errors import InvalidLattice, LatconError


class TestLattice:
    def test_round_trip_identity(self):
        L = catalog.get("s7")
        obj = jio.lattice_to_obj(L)
        back = jio.lattice_from_obj(obj)
        assert back.covers() == L.covers()
        assert all(
            back.upper_covers(x) == L.upper_covers(x) for x in range(L.n)
        )

    def test_dumps_is_byte_deterministic(self):
        L = catalog.get("grid-2x3")
        a = jio.dumps(jio.lattice_to_obj(L))
        b = jio.dumps(jio.lattice_to_obj(jio.lattice_from_obj(json.loads(a))))
        assert a == b
        assert a.endswith("\n")

    def test_non_canonical_ids_renumbered(self):
        obj = {"size": 4, "covers": [[3, 1], [3, 2], [1, 0], [2, 0]]}
        L, renum = jio.lattice_from_obj_with_map(obj)
        assert renum[3] == 0 and renum[0] == 3
        assert L.covers() == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_order_maps_optional(self):
        L = catalog.get("grid-2x2")
        obj = jio.lattice_to_obj(L)
        del obj["upper_order"], obj["lower_order"]
        back = jio.lattice_from_obj(obj)
        # planar order is lost, the cover relation is not
        assert sorted(back.covers()) == sorted(L.covers())
        assert back.upper_covers(0) == (1, 2)  # fallback: ascending ids

    def test_missing_key_raises(self):
        with pytest.raises(LatconError):
            jio.lattice_from_obj({"covers": []})

    def test_order_entry_must_be_a_list(self, tmp_path, capsys):
        obj = {"size": 2, "covers": [[0, 1]], "upper_order": {"0": 1}}
        with pytest.raises(LatconError, match="^upper_order entry '0' must be a list$"):
            jio.lattice_from_obj(obj)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: upper_order entry '0' must be a list\n"

    @pytest.mark.parametrize("key, first, second", [
        ("upper_order", "0", "-0"), ("upper_order", "-0", "00"),
        ("lower_order", "3", "03"), ("lower_order", "03", "3"),
    ])
    def test_two_keys_naming_one_row_are_refused(self, key, first, second):
        # the square's bottom 0 and top 3 each have two covers; whichever
        # key came last used to give the row, silently
        obj = {"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
               key: {first: [1, 2], second: [2, 1]}}
        with pytest.raises(LatconError,
                           match=f"^{key} keys '{first}' and '{second}' name one element$"):
            jio.lattice_from_obj(obj)


class TestRect:
    def test_round_trip(self):
        rects = [catalog.s7(), catalog.m3(), catalog.s7_eye(1), *catalog.rect_catalog().values()]
        for R in rects:
            back = jio.rect_from_obj(json.loads(jio.dumps(jio.rect_to_obj(R))))
            assert back.lattice.covers() == R.lattice.covers()
            assert (back.lc, back.rc, back.eyes) == (R.lc, R.rc, R.eyes)

    def test_claimed_corners_validated(self):
        obj = jio.rect_to_obj(catalog.s7())
        obj["lc"], obj["rc"] = obj["rc"], obj["lc"]
        with pytest.raises(InvalidLattice):
            jio.rect_from_obj(obj)

    def test_claimed_eyes_validated(self):
        obj = jio.rect_to_obj(catalog.rect_catalog()["m3"])
        obj["eyes"] = []
        with pytest.raises(InvalidLattice):
            jio.rect_from_obj(obj)

    @staticmethod
    def _m3_claims(**claims):
        """``rect_to_obj`` of m3, whose claims are ``lc`` 2, ``rc`` 1 and eyes
        ``[3]``, with ``claims`` put in; a claim of ``None`` is deleted."""
        obj = jio.rect_to_obj(catalog.m3())
        assert (obj["lc"], obj["rc"], obj["eyes"]) == (2, 1, [3])
        for k, v in claims.items():
            if v is None:
                del obj[k]
            else:
                obj[k] = v
        return obj

    @pytest.mark.parametrize(
        "claims, message",
        [
            ({"lc": None, "rc": 4, "eyes": [0, 1]}, "missing 'lc' in JSON object"),
            ({"lc": None, "rc": None, "eyes": [0]}, "missing 'lc' in JSON object"),
            ({"eyes": None}, "missing 'eyes' in JSON object"),
            ({"eyes": [3, 3]}, "claimed eyes [3, 3] differ from the recomputed [3]"),
        ],
        ids=["no-lc", "no-corners", "no-eyes", "repeated-eye"],
    )
    def test_any_claim_needs_all_three(self, claims, message):
        with pytest.raises(LatconError) as exc:
            jio.rect_from_obj(self._m3_claims(**claims))
        assert str(exc.value) == message

    def test_partial_claim_is_one_cli_error(self, tmp_path, capsys):
        p = tmp_path / "m3.json"
        p.write_text(jio.dumps(self._m3_claims(lc=None, rc=4, eyes=[0, 1])))
        assert main(["check-ideal", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: {p}: missing 'lc' in JSON object\n")


class TestCongruenceAndHom:
    def test_hom_round_trip(self):
        D = cg.congruence_lattice(catalog.get("grid-2x2")).as_lattice()
        E = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        for phi in bk.enumerate_bounded_homs(D, E):
            back = jio.hom_from_obj(helpers.hom_to_obj(phi))
            assert back.assignment == phi.assignment
            assert back.source.covers() == D.covers()

    def test_hom_map_validated(self):
        D = cg.congruence_lattice(catalog.get("grid-2x2")).as_lattice()
        phi = bk.make_bounded_hom(D, D, range(D.n))
        obj = helpers.hom_to_obj(phi)
        obj["map"][0] = obj["map"][3]  # bottom no longer maps to bottom
        with pytest.raises(LatconError):
            jio.hom_from_obj(obj)

    def test_hom_map_shorter_than_source(self):
        C2 = catalog.get("chain-2")
        obj = helpers.hom_to_obj(bk.make_bounded_hom(C2, C2, range(2)))
        obj["map"] = obj["map"][:1]
        with pytest.raises(LatconError, match="^map length 1 != source size 2$"):
            jio.hom_from_obj(obj)


class TestConLatticeAndReports:
    def test_con_lattice_shape(self):
        con = cg.congruence_lattice(catalog.get("s7"))
        obj = jio.con_lattice_to_obj(con)
        assert obj["lattice"]["size"] == 7
        assert len(obj["congruences"]) == 5
        assert obj["ji"]["indices"] == [1, 2, 3]
        assert all(len(t) == 3 for t in obj["edge_color"])
        assert [0, 1, 2] in obj["edge_color"]  # edge (0,1) has color 2

    def test_construction_report_round_trips_to_stable_bytes(self):
        F = catalog.rect_catalog()["m3"]
        R, rep = cn.boundary_color_extension(F)
        a = jio.dumps(jio.construction_report_to_obj(rep))
        b = jio.dumps(jio.construction_report_to_obj(rep))
        assert a == b
        obj = json.loads(a)
        assert obj == jio.construction_report_to_obj(rep)  # already JSON values
        assert obj["output"]["size"] == 12
        assert {e["flap"] for e in obj["eye_log"]} <= {"bottom", "left", "right"}
        assert set(obj["pieces"]) == {"top", "bottom", "left", "right"}

    def test_verification_report_obj(self):
        F = catalog.rect_catalog()["grid-2x2"]
        G = catalog.rect_catalog()["m3"]
        D = cg.congruence_lattice(F.lattice).as_lattice()
        E = cg.congruence_lattice(G.lattice).as_lattice()
        phi = bk.enumerate_bounded_homs(D, E)[0]
        L, rep = cn.filter_representation(F, G, phi)
        out = vf.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, phi
        )
        obj = jio.verification_report_to_obj(out)
        assert json.loads(jio.dumps(obj)) == obj
        assert obj["summary"] is True
        assert [c["name"] for c in obj["checks"]] == [
            "target-copy-is-filter",
            "restriction-bijective",
            "restriction-diagram",
        ]
