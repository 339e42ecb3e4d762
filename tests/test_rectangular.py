"""Rectangular structure recognition, grids, eyes, and gluing."""

import os
import re
import subprocess
import sys
import time
from itertools import combinations, permutations, product
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
    BoundaryNotChain,
    CornersNotComplementary,
    ElementOutOfRange,
    IndexOutOfRange,
    NoCorner,
    NotACell,
    NotAFilter,
    NotAnIdeal,
    NotIsomorphic,
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
            for corner in (R.lc, R.rc):
                assert len(L.lower_covers(corner)) == 1 == len(L.upper_covers(corner)), name
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

    def test_names_ten_candidates_as_a_list(self):
        with pytest.raises(AmbiguousCorner) as err:
            rl.make_rectangular(core.chain(12))
        assert str(err.value) == (
            "multiple doubly irreducible elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
            " on the left boundary walk")

    def test_long_chain_fails_fast_with_a_short_text(self):
        # one mask test per walk element, and at most ten candidates named:
        # 0.35-0.57 s and a 48,096-character text when each test scanned a list
        L = core.chain(8192)
        start = time.perf_counter()
        with pytest.raises(AmbiguousCorner) as err:
            rl.make_rectangular(L)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == (
            "multiple doubly irreducible elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10,"
            " … (8180 more)] on the left boundary walk")

    def test_rejects_non_semimodular(self):
        with pytest.raises(NotSemimodular):
            rl.make_rectangular(catalog.get("n5"))

    @pytest.mark.parametrize("rows, side", [
        ([[2, 1], [5, 4, 3], [5], [8, 7, 6], [7, 9], [8, 9], [11, 10], [12, 10], [11, 12], [12],
          [13, 14], [13], [13], [15], [15], []], "above"),
        ([[1, 2], [3, 5, 4], [5], [6, 9, 7], [6, 8], [8, 7], [11, 10], [12, 10], [10], [11, 12],
          [13], [14, 13], [13], [15], [15], []], "below"),
    ], ids=["above", "below"])
    def test_rejects_corner_off_its_chain(self, rows, side):
        # 16-element distributive lattices whose left corner's up- or down-set
        # is larger than its walk segment
        L = core.make_lattice(16, None, rows)
        assert core.is_distributive(L)
        with pytest.raises(BoundaryNotChain,
                           match=f"^elements {side} the left corner do not form its walk segment$"):
            rl.make_rectangular(L)


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

    def test_candidate_count_is_the_number_of_builds(self, monkeypatch):
        builds = []
        for name in ("diamond", "s7", "s7_eye"):
            monkeypatch.setattr(catalog, name, lambda *args, real=getattr(catalog, name), name=name:
                                builds.append(name) or real(*args))
        real_grid = rl.grid_with_eyes
        monkeypatch.setattr(rl, "grid_with_eyes", lambda *args: builds.append("grid")
                            or real_grid(*args))
        for max_size in range(31):
            builds.clear()
            catalog.search_rectangular(max_size)
            # each eyed fork is built on one fork of its own
            built = len(builds) - builds.count("s7_eye")
            builds.clear()
            full = core._count(catalog._candidates(max_size), 10 ** 6)
            assert built == full
            stopped = core._count(catalog._candidates(max_size), 11)
            assert stopped == full if full <= 10 else 10 < stopped <= full
            assert builds == []  # counting builds nothing
        assert core._count(catalog._candidates(30), 10 ** 6) == 1504
        assert core._count(catalog._candidates(30), 11) == 11  # cut at 11 of the 1,504

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
        found = catalog.search_rectangular(24) + list(catalog.rect_catalog().items())
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

    @pytest.mark.parametrize("lower, iso, error, text", [
        (core.chain(3), [(2, 0), (2, 1)], NotIsomorphic, "identification is not a bijection"),
        (catalog.m3().lattice, {4: 1}, NotAnIdeal, "[1] is not an ideal of the upper lattice"),
        (core.chain(3), {1: 1, 2: 0}, NotIsomorphic,
         "identification does not preserve order at (1, 2)"),
    ], ids=["not-a-bijection", "not-an-ideal", "order-not-preserved"])
    def test_rejects_bad_identification(self, lower, iso, error, text):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            rl.glue(lower, core.chain(3), iso)

    def test_order_check_names_the_first_pair_of_a_scan(self):
        # every bijection of each principal filter of A onto an equal-sized
        # principal ideal of B, against the pair-by-pair scan through ``leq``
        small = [core.chain(3), catalog.get("grid-2x2"), catalog.get("m3"), catalog.get("s7")]
        checked = failed = 0
        for A, B in product(small, repeat=2):
            for a, b in product(range(A.n), range(B.n)):
                F, I = A.up(a), B.down(b)
                if len(F) != len(I) or len(F) > 5:
                    continue
                for J in permutations(I):
                    fwd = dict(zip(F, J))
                    bad = next(((x, y) for x in F for y in F
                                if A.leq(x, y) != B.leq(fwd[x], fwd[y])), None)
                    checked += 1
                    if bad is None:
                        rl.glue(A, B, fwd)
                        continue
                    failed += 1
                    text = re.escape(f"identification does not preserve order at {bad}")
                    with pytest.raises(NotIsomorphic, match=f"^{text}$"):
                        rl.glue(A, B, fwd)
        assert failed > 100 and checked - failed > 20

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
            index = helpers.cls_index(cg.congruence_lattice(asm.result.lattice))
            cons = [cg.congruence_lattice(P.lattice).congruences for P in pieces]
            for quad in product(*cons):
                try:
                    ext = helpers.reference_triple_glue_congruence(ref, *quad)
                except helpers.Incompatible:
                    continue
                assert ext.cls in index, name
                assert [helpers.restricted_key(ext.cls, m) for m in maps] == [a.cls for a in quad], name
                checked += 1
        assert checked == 4 + 25 + 20 + 20 + 16

    def test_one_build_per_triple_gluing(self, monkeypatch):
        g22 = rl.grid(2, 2)
        builds = _count_builds(monkeypatch)
        R, _ = rl.triple_glue(g22, g22, g22, g22)
        assert builds == {"_trusted_lattice": [R.n], "make_lattice_with_map": []}
        assert not [s for s in rl.TripleGluingAssembly._fields if s.startswith("stage")]


G33 = rl.grid(3, 3)
FORK = catalog.s7()
C2 = core.chain(2)

def _count_builds(monkeypatch):
    """The sizes of the lattices built through each of the two entries of
    ``core``, the checked and the trusted one, recorded as they are called
    through the module attribute with positional arguments only."""
    builds = {"make_lattice_with_map": [], "_trusted_lattice": []}
    checked, trusted = core.make_lattice_with_map, core._trusted_lattice
    monkeypatch.setattr(core, "make_lattice_with_map",
                        lambda *args: builds["make_lattice_with_map"].append(args[0])
                        or checked(*args))
    monkeypatch.setattr(core, "_trusted_lattice",
                        lambda *args: builds["_trusted_lattice"].append(len(args[0]))
                        or trusted(*args))
    return builds


# (constructor, build, size, entry): the planar constructors and the
# product build through the trusted entry, a sublattice, whose element set
# comes from the caller, through the checked one
ONE_BUILD = [
    ("grid_with_eyes", lambda: rl.grid_with_eyes(3, 3, [(0, 0), (1, 1)]), 11, "_trusted_lattice"),
    ("sublattice", lambda: core.sublattice(G33.lattice, [4, 3, 1, 0]), 4, "make_lattice_with_map"),
    ("insert_eye", lambda: rl.insert_eye(FORK, rl.cells(FORK)[1]), 8, "_trusted_lattice"),
    ("direct_product", lambda: core.direct_product(FORK.lattice, C2), 14, "_trusted_lattice"),
]


@pytest.mark.parametrize("build, size, entry", [b[1:] for b in ONE_BUILD],
                         ids=[b[0] for b in ONE_BUILD])
def test_one_build_per_planar_constructor(monkeypatch, build, size, entry):
    """Each planar constructor builds its lattice once, through the module
    attribute of one entry and with positional arguments only."""
    builds = _count_builds(monkeypatch)
    build()
    assert builds[entry] == [size]
    assert sum(map(len, builds.values())) == 1


class TestGridFromCoordinates:
    """``grid_with_eyes`` reads its corners and eyes off the grid
    coordinates; ``make_rectangular`` of its lattice is the oracle."""

    def test_every_grid_up_to_five_with_two_eyes(self):
        built = 0
        for m, n in product(range(2, 6), repeat=2):
            cells = [(i, k) for i in range(m - 1) for k in range(n - 1)]
            for r in range(3):
                for eyes in combinations(cells, r):
                    helpers.check_grid(*rl.grid_with_eyes(m, n, eyes))
                    built += 1
        assert built == 516

    def test_grids_of_the_search_and_the_catalog(self, monkeypatch):
        real, seen = rl.grid_with_eyes, []
        monkeypatch.setattr(rl, "grid_with_eyes",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        catalog.search_rectangular(24)
        catalog.rect_catalog()
        monkeypatch.undo()
        assert len(seen) > 500
        for R, eye_of in seen:
            helpers.check_grid(R, eye_of)

    def test_eyes_listed_out_of_order(self):
        # the eyes take temporary ids in the order listed, and Kahn's order
        # numbers them anew
        R, eye_of = rl.grid_with_eyes(4, 3, [(2, 1), (0, 0), (1, 1)])
        assert sorted(eye_of.values()) != list(eye_of.values())
        helpers.check_grid(R, eye_of)


def _never_recognized(monkeypatch):
    """Make ``make_rectangular`` raise, and record every ``RectLattice``
    that ``grid_with_eyes`` and ``triple_glue`` return from now on."""
    def refuse(L):
        raise AssertionError("a library constructor ran make_rectangular")

    def recorded(real):
        def build(*args):
            out = real(*args)
            built.append(out[0])
            return out
        return build

    built = []
    for name in ("grid_with_eyes", "triple_glue"):
        monkeypatch.setattr(rl, name, recorded(getattr(rl, name)))
    monkeypatch.setattr(rl, "make_rectangular", refuse)
    return built


class TestStatedCornersAndEyes:
    """``grid_with_eyes``, ``insert_eye`` and ``triple_glue`` state their
    corners and eyes and never run ``make_rectangular``, which is the
    oracle (:func:`helpers.check_grid`) on what they build."""

    @pytest.mark.parametrize("represent, names, homs", [
        (cn.filter_representation, ("grid-2x2", "m3", "s7"), 34),
        (cn.ideal_representation, ("grid-2x3", "grid-3x3", "m4"), 438),
    ], ids=["a6-filter-sweep", "ideal"])
    def test_representations(self, monkeypatch, represent, names, homs):
        jobs = helpers.catalog_homs(names)
        assert len(jobs) == homs
        built = _never_recognized(monkeypatch)
        for job in jobs:
            represent(*job)
        monkeypatch.undo()
        assert len(built) > 3 * homs  # two flaps and a gluing per hom, and extensions
        for R in built:
            helpers.check_grid(R)

    def test_insert_eye_in_every_cell_of_the_search(self, monkeypatch):
        found = [R for _, R in catalog.search_rectangular(14)]
        _never_recognized(monkeypatch)
        built = [(R, rl.insert_eye(R, cell)) for R in found for cell in rl.cells(R)]
        monkeypatch.undo()
        assert len(built) == 343
        for R, E in built:
            helpers.check_grid(E)
            assert (E.n, len(E.eyes)) == (R.n + 1, len(R.eyes) + 1)


def _without_eyes(R):
    """R with its list of eyes emptied, as a faulty recognizer returns it."""
    return rl.RectLattice(R.lattice, R.lc, R.rc, ())


def _top_alone(L, *args):
    """Everything but the top in one class: no congruence of a glued grid."""
    return cg.Congruence(L, [0] * (L.n - 1) + [1])


class TestPostconditions:
    """The eye-layout and assembly checks, and the congruence check of the
    staged gluing in ``helpers``, raise, also under ``python -O``."""

    def test_inserted_eyes_are_the_eyes(self, monkeypatch):
        # a grid that loses its eyes is built without complaint, and the
        # oracle against make_rectangular catches it
        real = rl.RectLattice
        monkeypatch.setattr(rl, "RectLattice", lambda *args: real(*args[:-1], ()))
        R, eye_of = rl.grid_with_eyes(2, 2, [(0, 0)])
        monkeypatch.undo()
        with pytest.raises(PostconditionFailed, match="^eyes of the rectangular lattice"):
            helpers.check_grid(R, eye_of)

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

    def test_glued_corners_are_make_rectangulars(self, monkeypatch):
        # a gluing that swaps its corners is built without complaint, and
        # the oracle against make_rectangular catches it
        g22, real = rl.grid(2, 2), rl.RectLattice
        monkeypatch.setattr(rl, "RectLattice", lambda L, lc, rc, eyes: real(L, rc, lc, eyes))
        R, _ = rl.triple_glue(g22, g22, g22, g22)
        monkeypatch.undo()
        with pytest.raises(PostconditionFailed, match="^lc of the rectangular lattice"):
            helpers.check_grid(R)

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
            "real = rl.RectLattice\n"
            "rl.RectLattice = lambda *args: real(*args[:-1], ())\n"
            "R, eye_of = rl.grid_with_eyes(2, 2, [(0, 0)])\n"
            "rl.RectLattice = real\n"
            "helpers.check_grid(R, eye_of)\n"
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
        "glued-corners": (
            "g22, real = rl.grid(2, 2), rl.RectLattice\n"
            "rl.RectLattice = lambda L, lc, rc, eyes: real(L, rc, lc, eyes)\n"
            "R = rl.triple_glue(g22, g22, g22, g22)[0]\n"
            "rl.RectLattice = real\n"
            "helpers.check_grid(R)\n"
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
            "    return rl.RectLattice(R.lattice, R.lc, R.rc, ())\n"
            "def delta(L):\n"
            "    return cg.Congruence(L, range(L.n))\n"
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
