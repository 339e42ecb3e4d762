"""Rectangular structure recognition, grids, eyes, and gluing."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import helpers
import lemmas
from latcon import birkhoff, catalog, core
from latcon import congruence as cg
from latcon import construction as cn
from latcon import rectangular as rl
from latcon.errors import (
    AmbiguousCorner,
    BoundaryMismatch,
    CornersNotComplementary,
    ElementOutOfRange,
    IndexOutOfRange,
    NoCorner,
    NotACell,
    NotAFilter,
    NotSemimodular,
    PostconditionFailed,
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


class TestGridsAndEyes:
    def test_grid_too_small(self):
        with pytest.raises(SizeTooSmall):
            rl.grid(1, 5)

    def test_eye_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            rl.grid_with_eyes(2, 2, [(1, 0)])

    def test_search_keeps_nothing_above_its_bound(self):
        # each family's loop bounds keep its candidates within max_size
        for max_size in range(17):
            kept = catalog.search_rectangular(max_size)
            assert all(R.n <= max_size for _, R in kept), max_size
            assert bool(kept) == (max_size >= 4)

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

    def test_cells_match_checked_cover_scan(self):
        found = catalog.search_rectangular(16)
        assert sum(len(rl.cells(R)) for _, R in found) > len(found)
        for _, R in found:
            assert rl.cells(R) == helpers.reference_cells(R)

    def test_eye_middles_listed_in_cells(self):
        R, eye_of = rl.grid_with_eyes(2, 3, [(0, 1)])
        eyed = [c for c in rl.cells(R) if c.middles]
        assert len(eyed) == 1
        assert eyed[0].middles == (eye_of[(0, 1)],)


def _stage(g):
    """A two-piece gluing as a stage of :func:`helpers.reference_glue_pair`."""
    return g.lattice, g.a_map, g.b_map, g.iso


class TestGlue:
    def test_stacked_grids(self):
        A = catalog.get("grid-2x2")
        g = rl.glue(A, A, {3: 0})
        assert g.lattice.n == 7
        assert core.is_ideal(g.lattice, g.a_map)
        assert core.is_filter(g.lattice, g.b_map)

    def test_stacked_m3_planar_orders_frozen(self):
        # gluing along one element is the glued sum: B's ids follow A's
        L = catalog.stacked_m3()
        assert L.covers() == [
            (0, 2), (0, 3), (0, 1), (1, 4), (2, 4), (3, 4),
            (4, 6), (4, 7), (4, 5), (5, 8), (6, 8), (7, 8),
        ]
        assert [L.upper_covers(x) for x in range(L.n)] == [
            (2, 3, 1), (4,), (4,), (4,), (6, 7, 5), (8,), (8,), (8,), (),
        ]
        assert [L.lower_covers(x) for x in range(L.n)] == [
            (), (0,), (0,), (0,), (2, 3, 1), (4,), (4,), (4,), (6, 7, 5),
        ]

    def test_catalog_instance_sizes_frozen(self):
        sizes = {k: v.lattice.n for k, v in lemmas.glue_instances().items()}
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

    def test_mapping_and_pairs_coerce_ids_alike(self):
        # integer types other than int pass in both forms, floats fail in both
        A = catalog.get("grid-2x2")
        want = rl.glue(A, A, {3: 0})
        for iso in ({3: helpers.IntLike(0)}, [(3, helpers.IntLike(0))], {helpers.IntLike(3): 0}):
            g = rl.glue(A, A, iso)
            assert g.lattice.covers() == want.lattice.covers()
            assert (g.a_map, g.b_map, g.shared, g.iso) == (want.a_map, want.b_map, (3,), ((3, 0),))
        for iso, bad in (({3: 0.0}, "0.0"), ([(3, 0.5)], "0.5"), ({3.0: 0}, "3.0")):
            with pytest.raises(ElementOutOfRange, match=f"^element id {bad} is not an integer$"):
                rl.glue(A, A, iso)

    def test_shared_elements_keep_lower_ids(self):
        A = catalog.get("grid-2x3")
        B = catalog.get("grid-2x2")
        g = rl.glue(A, B, {5: 0})
        assert g.a_map == tuple(range(6))
        assert g.b_map[0] == 5

    def test_congruence_pair_assembly(self):
        # the definition-level joint extension over the one-pass gluing
        g = lemmas.glue_instances()["grid-on-grid"]
        con_a = cg.congruence_lattice(g.a_lattice)
        con_b = cg.congruence_lattice(g.b_lattice)
        con = cg.congruence_lattice(g.lattice)
        built = set()
        for aa in con_a:
            for bb in con_b:
                try:
                    ext = helpers.reference_glue_pair(_stage(g), aa, bb)
                except helpers.Incompatible:
                    continue
                built.add(ext.cls)
        assert built == {c.cls for c in con}

    def test_congruence_pair_rejects_disagreement(self):
        g = lemmas.glue_instances()["grid-chain2-overlap"]
        con_a = cg.congruence_lattice(g.a_lattice)
        full_a = con_a.congruences[-1]
        delta_b = cg.congruence_lattice(g.b_lattice).congruences[0]
        with pytest.raises(helpers.Incompatible):
            helpers.reference_glue_pair(_stage(g), full_a, delta_b)


class TestTripleGlue:
    def test_four_squares_make_three_grid(self):
        asm = lemmas.assemblies()["four-grids"]
        assert asm.result.n == 9
        assert core.are_isomorphic(
            asm.result.lattice, rl.grid(3, 3).lattice
        )

    def test_catalog_assembly_sizes_frozen(self):
        sizes = {k: a.result.n for k, a in lemmas.assemblies().items()}
        assert sizes == {
            "four-grids": 9,
            "fork-top": 14,
            "fork-bottom": 12,
            "fork-both": 17,
            "diamond-both": 11,
        }

    def test_center_element_identities(self):
        for name, asm in lemmas.assemblies().items():
            assert asm.c == asm.t_map[asm.top.lattice.bottom], name
            assert asm.c == asm.b_map[asm.bottom.lattice.top], name
            assert asm.c == asm.lf_map[asm.left.rc], name
            assert asm.c == asm.rf_map[asm.right.lc], name

    def test_bottom_ideal_top_filter(self):
        for name, asm in lemmas.assemblies().items():
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
        asm = lemmas.assemblies()["four-grids"]
        pieces = (asm.top, asm.left, asm.right, asm.bottom)
        cons = [cg.congruence_lattice(p.lattice) for p in pieces]
        con = cg.congruence_lattice(asm.result.lattice)
        _, ref = helpers.reference_triple_glue(*pieces)
        built = {}
        for at in cons[0]:
            for alf in cons[1]:
                for arf in cons[2]:
                    for ab in cons[3]:
                        try:
                            ext = helpers.reference_triple_glue_congruence(ref, at, alf, arf, ab)
                        except helpers.Incompatible:
                            continue
                        key = (at.cls, alf.cls, arf.cls, ab.cls)
                        built[key] = ext.cls
        assert len(built) == len(con) == 16
        assert set(built.values()) == {c.cls for c in con}


def _triple_glue_inputs():
    """The (top, left flap, right flap, bottom) of every triple gluing made by
    the catalog assemblies, the boundary color extension of each catalog
    lattice, the A6 filter representations and the filter and ideal
    representations among grid-2x2, grid-2x3, m3 and m4, without repeats."""
    seen = {}
    glue = rl.triple_glue

    def record(*pieces):
        key = tuple((tuple(P.lattice.covers()), P.lc, P.rc) for P in pieces)
        seen.setdefault(key, pieces)
        return glue(*pieces)

    rect = catalog.rect_catalog()
    small = ("grid-2x2", "grid-2x3", "m3", "m4")
    jobs = [(cn.filter_representation, f, g) for f in ("grid-2x2", "m3", "s7")
            for g in ("grid-2x2", "m3", "s7")]
    jobs += [(rep, f, g) for rep in (cn.filter_representation, cn.ideal_representation)
             for f in small for g in small]
    rl.triple_glue = record
    try:
        lemmas.assemblies()
        for R in rect.values():
            cn.boundary_color_extension(R)
        for rep, f, g in jobs:
            D = cg.congruence_lattice(rect[f].lattice).as_lattice()
            E = cg.congruence_lattice(rect[g].lattice).as_lattice()
            for phi in birkhoff.enumerate_bounded_homs(D, E):
                rep(rect[f], rect[g], phi)
    finally:
        rl.triple_glue = glue
    return list(seen.values())


class TestTripleGlueOracle:
    """One-pass assembly against the staged build it replaced."""

    def test_matches_staged_build(self):
        inputs = _triple_glue_inputs()
        assert len(inputs) == 171
        for pieces in inputs:
            R, asm = rl.triple_glue(*pieces)
            S, ref = helpers.reference_triple_glue(*pieces)
            L, M = R.lattice, S.lattice
            assert L.covers() == M.covers()
            for x in range(L.n):
                assert (L.upper_covers(x), L.lower_covers(x)) == (
                    M.upper_covers(x), M.lower_covers(x))
            assert (R.lc, R.rc, R.eyes) == (S.lc, S.rc, S.eyes)
            assert (asm.c, asm.b_map, asm.lf_map, asm.rf_map, asm.t_map) == (
                ref.c, ref.b_map, ref.lf_map, ref.rf_map, ref.t_map)

    def test_congruence_matches_staged_extension(self):
        # each staged extension is a congruence of the one-pass result and
        # restricts to every piece's congruence through the one-pass maps
        checked = 0
        for name, asm in sorted(lemmas.assemblies().items()):
            pieces = (asm.top, asm.left, asm.right, asm.bottom)
            maps = (asm.t_map, asm.lf_map, asm.rf_map, asm.b_map)
            _, ref = helpers.reference_triple_glue(*pieces)
            index = cg.congruence_lattice(asm.result.lattice).index
            cons = [cg.congruence_lattice(P.lattice).congruences for P in pieces]
            for quad in product(*cons):
                try:
                    ext = helpers.reference_triple_glue_congruence(ref, *quad)
                except helpers.Incompatible:
                    continue
                assert ext.cls in index, name
                assert [cg._restricted_key(ext.cls, m) for m in maps] == [a.cls for a in quad], name
                checked += 1
        assert checked == 4 + 25 + 20 + 20 + 16

    def test_one_build_per_triple_gluing(self, monkeypatch):
        g22 = rl.grid(2, 2)
        builds = []
        make = core.make_lattice_with_map

        def counted(*args):
            builds.append(args[0])
            return make(*args)

        monkeypatch.setattr(core, "make_lattice_with_map", counted)
        R, _ = rl.triple_glue(g22, g22, g22, g22)
        assert builds == [R.n]
        assert not [s for s in rl.TripleGluingAssembly.__slots__ if s.startswith("stage")]


G33 = rl.grid(3, 3)
FORK = catalog.s7()
C2 = core.chain(2)

ONE_BUILD = [
    ("grid_with_eyes", lambda: rl.grid_with_eyes(3, 3, [(0, 0), (1, 1)]), 11),
    ("sublattice", lambda: core.sublattice(G33.lattice, [4, 3, 1, 0]), 4),
    ("insert_eye", lambda: rl.insert_eye(FORK, rl.cells(FORK)[1]), 8),
    ("direct_product", lambda: core.direct_product(FORK.lattice, C2), 14),
]


@pytest.mark.parametrize("build, size", [b[1:] for b in ONE_BUILD], ids=[b[0] for b in ONE_BUILD])
def test_one_build_per_planar_constructor(monkeypatch, build, size):
    """Each planar constructor builds its lattice once, through the module
    attribute and with positional arguments only."""
    builds = []
    make = core.make_lattice_with_map

    def counted(*args):
        builds.append(args[0])
        return make(*args)

    monkeypatch.setattr(core, "make_lattice_with_map", counted)
    build()
    assert builds == [size]


def _without_eyes(R):
    """R with its list of eyes emptied, as a faulty recognizer returns it."""
    return rl.RectLattice(R.lattice, R.lc, R.rc, R.lower_left, R.upper_left,
                          R.lower_right, R.upper_right, ())


def _top_alone(L, *args):
    """Everything but the top in one class: no congruence of a glued grid."""
    return cg.Congruence(L, [0] * (L.n - 1) + [1])


def _mirrored(R):
    """R read right to left: the corners and their chains swapped."""
    return rl.RectLattice(R.lattice, R.rc, R.lc, R.lower_right, R.upper_right,
                          R.lower_left, R.upper_left, R.eyes)


class TestPostconditions:
    """The eye-layout and assembly checks, and the congruence check of the
    staged gluing in ``helpers``, raise, also under ``python -O``."""

    def test_inserted_eyes_are_the_eyes(self, monkeypatch):
        make = rl.make_rectangular
        monkeypatch.setattr(rl, "make_rectangular", lambda L: _without_eyes(make(L)))
        with pytest.raises(PostconditionFailed, match="inserted eyes"):
            rl.grid_with_eyes(2, 2, [(0, 0)])

    def test_cell_middles_are_eyes(self):
        with pytest.raises(PostconditionFailed, match="is not an eye"):
            rl.cells(_without_eyes(catalog.m3()))

    def test_glued_extension_is_a_congruence(self, monkeypatch):
        g = lemmas.glue_instances()["grid-on-grid"]
        delta_a, delta_b = helpers.delta(g.a_lattice), helpers.delta(g.b_lattice)
        monkeypatch.setattr(helpers, "_join_blocks", _top_alone)
        with pytest.raises(PostconditionFailed, match="not a congruence"):
            helpers.reference_glue_pair(_stage(g), delta_a, delta_b)

    def test_assembled_numbering_is_kept(self):
        with pytest.raises(PostconditionFailed, match="not a linear extension"):
            rl._assemble(2, [(core.chain(2), (1, 0))])

    def test_bottom_ideal_top_filter(self, monkeypatch):
        g22 = rl.grid(2, 2)
        monkeypatch.setattr(rl, "_assemble", lambda n, pieces: core.chain(n))
        with pytest.raises(PostconditionFailed, match="not the ideal below c"):
            rl.triple_glue(g22, g22, g22, g22)

    def test_flap_corners_are_the_corners(self, monkeypatch):
        g22 = rl.grid(2, 2)
        make = rl.make_rectangular
        monkeypatch.setattr(rl, "make_rectangular", lambda L: _mirrored(make(L)))
        with pytest.raises(PostconditionFailed, match="corners of the result"):
            rl.triple_glue(g22, g22, g22, g22)

    def test_triple_extension_is_a_congruence(self, monkeypatch):
        asm = lemmas.assemblies()["four-grids"]
        pieces = (asm.top, asm.left, asm.right, asm.bottom)
        _, ref = helpers.reference_triple_glue(*pieces)
        deltas = [helpers.delta(P.lattice) for P in pieces]
        monkeypatch.setattr(helpers, "_join_blocks", _top_alone)
        with pytest.raises(PostconditionFailed, match="not a congruence"):
            helpers.reference_triple_glue_congruence(ref, *deltas)

    UNDER_OPTIMIZE = {
        "inserted-eyes": (
            "make = rl.make_rectangular\n"
            "rl.make_rectangular = lambda L: without_eyes(make(L))\n"
            "rl.grid_with_eyes(2, 2, [(0, 0)])\n"
        ),
        "cell-middles": "rl.cells(without_eyes(catalog.m3()))\n",
        "glued-extension": (
            "g = lemmas.glue_instances()['grid-on-grid']\n"
            "delta_a, delta_b = delta(g.a_lattice), delta(g.b_lattice)\n"
            "helpers._join_blocks = lambda L, blocks: cg.Congruence(L, [0] * (L.n - 1) + [1])\n"
            "helpers.reference_glue_pair((g.lattice, g.a_map, g.b_map, g.iso), delta_a, delta_b)\n"
        ),
        "assembled-numbering": "rl._assemble(2, [(core.chain(2), (1, 0))])\n",
        "bottom-ideal-top-filter": (
            "g22 = rl.grid(2, 2)\n"
            "rl._assemble = lambda n, pieces: core.chain(n)\n"
            "rl.triple_glue(g22, g22, g22, g22)\n"
        ),
        "flap-corners": (
            "g22 = rl.grid(2, 2)\n"
            "make = rl.make_rectangular\n"
            "rl.make_rectangular = lambda L: mirrored(make(L))\n"
            "rl.triple_glue(g22, g22, g22, g22)\n"
        ),
        "triple-extension": (
            "asm = lemmas.assemblies()['four-grids']\n"
            "pieces = (asm.top, asm.left, asm.right, asm.bottom)\n"
            "ref = helpers.reference_triple_glue(*pieces)[1]\n"
            "helpers._join_blocks = lambda L, blocks: cg.Congruence(L, [0] * (L.n - 1) + [1])\n"
            "helpers.reference_triple_glue_congruence(ref, *[delta(P.lattice) for P in pieces])\n"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(UNDER_OPTIMIZE))
    def test_raises_under_optimize(self, fault):
        code = (
            "import sys\n"
            "import helpers, lemmas\n"
            "from latcon import catalog, core, congruence as cg, rectangular as rl\n"
            "from latcon.errors import PostconditionFailed\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "def without_eyes(R):\n"
            "    return rl.RectLattice(R.lattice, R.lc, R.rc, R.lower_left, R.upper_left,\n"
            "                          R.lower_right, R.upper_right, ())\n"
            "def delta(L):\n"
            "    return cg.Congruence(L, range(L.n))\n"
            "def mirrored(R):\n"
            "    return rl.RectLattice(R.lattice, R.rc, R.lc, R.lower_right, R.upper_right,\n"
            "                          R.lower_left, R.upper_left, R.eyes)\n"
            "try:\n"
            + "".join("    " + line + "\n" for line in self.UNDER_OPTIMIZE[fault].splitlines())
            + "except PostconditionFailed:\n"
            "    print('raised')\n"
        )
        src = Path(rl.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"
