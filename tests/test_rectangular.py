"""Rectangular structure recognition, grids, eyes, and gluing."""

import pytest

from latcon import catalog, core
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.errors import (
    AmbiguousCorner,
    BoundaryMismatch,
    CornersNotComplementary,
    Incompatible,
    IndexOutOfRange,
    NoCorner,
    NotACell,
    NotAFilter,
    NotSemimodular,
    SizeTooSmall,
)


def s7():
    return catalog.s7()


class TestMakeRectangular:
    def test_s7_frozen_boundary(self):
        R = s7()
        assert (R.lc, R.rc) == (3, 5)
        assert (R.bl, R.br, R.tl, R.tr) == (3, 3, 2, 2)
        assert R.lower_left == (0, 1, 3)
        assert R.lower_right == (0, 2, 5)
        assert R.upper_left == (3, 6)
        assert R.upper_right == (5, 6)
        assert R.eyes == ()

    def test_grid_chain_sizes(self):
        R = rl.grid(2, 3)
        assert R.n == 6
        assert (R.bl, R.tr) == (2, 2)
        assert (R.br, R.tl) == (3, 3)
        assert R.lattice.meet(R.lc, R.rc) == 0
        assert R.lattice.join(R.lc, R.rc) == R.lattice.top

    def test_corners_doubly_irreducible_and_complementary(self):
        for name, R in catalog.rect_catalog().items():
            L = R.lattice
            assert L.is_doubly_irreducible(R.lc), name
            assert L.is_doubly_irreducible(R.rc), name
            assert L.meet(R.lc, R.rc) == L.bottom, name
            assert L.join(R.lc, R.rc) == L.top, name

    def test_boundary_chains_are_corner_down_up_sets(self):
        for name, R in catalog.rect_catalog().items():
            L = R.lattice
            assert R.lower_left == L.down(R.lc), name
            assert R.upper_left == L.up(R.lc), name
            assert R.lower_right == L.down(R.rc), name
            assert R.upper_right == L.up(R.rc), name

    def test_rejects_chain(self):
        with pytest.raises(NoCorner):
            rl.make_rectangular(core.chain(3))

    def test_rejects_cube(self):
        with pytest.raises(NoCorner):
            rl.make_rectangular(catalog.get("cube"))

    def test_rejects_non_semimodular(self):
        with pytest.raises(NotSemimodular):
            rl.make_rectangular(catalog.get("n5"))

    def test_dual_of_fork_is_not_semimodular(self):
        with pytest.raises(NotSemimodular):
            rl.dual(s7())

    def test_dual_of_grid(self):
        # half-turn rotation: the lower-left chain was the upper-right one
        D = rl.dual(rl.grid(2, 3))
        assert (D.bl, D.br, D.tl, D.tr) == (2, 3, 3, 2)
        assert core.are_isomorphic(D.lattice, rl.grid(2, 3).lattice)


class TestGridsAndEyes:
    def test_grid_too_small(self):
        with pytest.raises(SizeTooSmall):
            rl.grid(1, 5)

    def test_eye_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            rl.grid_with_eyes(2, 2, [(1, 0)])

    def test_m3_from_eyed_square(self):
        R, eye_of = rl.grid_with_eyes(2, 2, [(0, 0)])
        assert R.n == 5
        assert R.eyes == (eye_of[(0, 0)],)
        assert cg.is_simple(R.lattice)

    def test_cells_of_grid(self):
        assert len(rl.cells(rl.grid(3, 3))) == 4
        c = rl.cells(rl.grid(2, 2))[0]
        assert (c.bottom, c.top, c.middles) == (0, 3, ())

    def test_cells_of_fork(self):
        got = [(c.bottom, c.top, c.left, c.right) for c in rl.cells(s7())]
        assert got == [(0, 4, 1, 2), (1, 6, 3, 4), (2, 6, 4, 5)]

    def test_insert_eye_matches_eyed_grid(self):
        R = rl.grid(2, 2)
        E = rl.insert_eye(R, rl.cells(R)[0])
        W, _ = rl.grid_with_eyes(2, 2, [(0, 0)])
        assert core.are_isomorphic(E.lattice, W.lattice)

    def test_insert_eye_rejects_foreign_cell(self):
        with pytest.raises(NotACell):
            rl.insert_eye(rl.grid(2, 2), rl.cells(rl.grid(3, 3))[1])

    def test_eye_middles_listed_in_cells(self):
        R, eye_of = rl.grid_with_eyes(2, 3, [(0, 1)])
        eyed = [c for c in rl.cells(R) if c.middles]
        assert len(eyed) == 1
        assert eyed[0].middles == (eye_of[(0, 1)],)


class TestGlue:
    def test_stacked_grids(self):
        A = catalog.get("grid-2x2")
        g = rl.glue(A, A, {3: 0})
        assert g.lattice.n == 7
        assert core.is_ideal(g.lattice, g.a_map)
        assert core.is_filter(g.lattice, g.b_map)

    def test_catalog_instance_sizes_frozen(self):
        sizes = {k: v.lattice.n for k, v in catalog.glue_instances().items()}
        assert sizes == {
            "grid-on-grid": 7,
            "grid-chain2-overlap": 6,
            "m3-on-m3": 9,
            "grid-on-wide": 9,
        }

    def test_rejects_non_filter(self):
        A = catalog.get("grid-2x2")
        with pytest.raises(NotAFilter):
            rl.glue(A, A, {1: 0})

    def test_shared_elements_keep_lower_ids(self):
        A = catalog.get("grid-2x3")
        B = catalog.get("grid-2x2")
        g = rl.glue(A, B, {5: 0})
        assert g.a_map == tuple(range(6))
        assert g.b_map[0] == 5

    def test_congruence_pair_assembly(self):
        g = catalog.glue_instances()["grid-on-grid"]
        con_a = cg.congruence_lattice(g.a_lattice)
        con_b = cg.congruence_lattice(g.b_lattice)
        con = cg.congruence_lattice(g.lattice)
        built = set()
        for aa in con_a:
            for bb in con_b:
                try:
                    ext = rl.glue_congruence_pair(g, aa, bb)
                except Incompatible:
                    continue
                built.add(ext.cls)
        assert built == {c.cls for c in con}

    def test_congruence_pair_rejects_disagreement(self):
        g = catalog.glue_instances()["grid-chain2-overlap"]
        con_a = cg.congruence_lattice(g.a_lattice)
        full_a = con_a.congruences[-1]
        delta_b = cg.congruence_lattice(g.b_lattice).congruences[0]
        with pytest.raises(Incompatible):
            rl.glue_congruence_pair(g, full_a, delta_b)


class TestTripleGlue:
    def test_four_squares_make_three_grid(self):
        asm = catalog.assemblies()["four-grids"]
        assert asm.result.n == 9
        assert core.are_isomorphic(
            asm.result.lattice, rl.grid(3, 3).lattice
        )

    def test_catalog_assembly_sizes_frozen(self):
        sizes = {k: a.result.n for k, a in catalog.assemblies().items()}
        assert sizes == {
            "four-grids": 9,
            "fork-top": 14,
            "fork-bottom": 12,
            "fork-both": 17,
            "diamond-both": 11,
        }

    def test_center_element_identities(self):
        for name, asm in catalog.assemblies().items():
            assert asm.c == asm.t_map[asm.top.lattice.bottom], name
            assert asm.c == asm.b_map[asm.bottom.lattice.top], name
            assert asm.c == asm.lf_map[asm.left.rc], name
            assert asm.c == asm.rf_map[asm.right.lc], name

    def test_bottom_ideal_top_filter(self):
        for name, asm in catalog.assemblies().items():
            L = asm.result.lattice
            assert core.is_ideal(L, asm.b_map), name
            assert core.is_filter(L, asm.t_map), name

    def test_rejects_mismatched_chains(self):
        T = rl.grid(2, 2)
        B = rl.grid(2, 2)
        Lf = rl.grid(2, 2)
        Rf = rl.grid(2, 3)  # wrong facing size
        with pytest.raises(BoundaryMismatch):
            rl.triple_glue(T, Lf, Rf, B)

    def test_quadruple_congruence_bijection_on_four_grids(self):
        asm = catalog.assemblies()["four-grids"]
        cons = [
            cg.congruence_lattice(p.lattice)
            for p in (asm.top, asm.left, asm.right, asm.bottom)
        ]
        con = cg.congruence_lattice(asm.result.lattice)
        built = {}
        for at in cons[0]:
            for alf in cons[1]:
                for arf in cons[2]:
                    for ab in cons[3]:
                        try:
                            ext = rl.triple_glue_congruence(asm, at, alf, arf, ab)
                        except Incompatible:
                            continue
                        key = (at.cls, alf.cls, arf.cls, ab.cls)
                        built[key] = ext.cls
        assert len(built) == len(con) == 16
        assert set(built.values()) == {c.cls for c in con}
