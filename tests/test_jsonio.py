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


class TestRect:
    def test_round_trip(self):
        R = catalog.s7()
        back = jio.rect_from_obj(jio.rect_to_obj(R))
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
        assert obj["summary"] is True
        assert [c["name"] for c in obj["checks"]] == [
            "target-copy-is-filter",
            "restriction-bijective",
            "restriction-diagram",
        ]
