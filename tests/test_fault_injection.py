"""Raise sites that no correct input reaches, each reached by one injected fault.

Each site guards a fallback the code proves unreachable: a scan that must
find what a cheaper check saw broken, a renumbering that must be the
identity, a color that must lie on the lower boundary.  A fault injected
into the cheaper step, with ``monkeypatch``, makes the guard raise its own
error.  None of them is an ``assert``, so ``tests/test_optimized.py`` runs
this file under ``python -O`` too.
"""

import pytest

from latcon import birkhoff as bk
from latcon import catalog, core
from latcon import congruence as cg
from latcon import construction as cn
from latcon.errors import ColorMissingOnLowerBoundary, PostconditionFailed

C2 = core.Poset(2, [(0, 1)])


def test_unordered_pair_scan_that_finds_none_is_a_postcondition(monkeypatch):
    # the cover check sees (1, 0) reverse the cover 0 < 1; the pair scan,
    # told that every pair is ordered, finds nothing to name
    monkeypatch.setattr(type(C2), "leq", lambda self, x, y: True)
    with pytest.raises(PostconditionFailed, match="^a cover is out of order, yet f keeps"):
        bk.IsotoneMap(C2, C2, (1, 0))


def test_broken_pair_scan_that_finds_none_is_a_postcondition(monkeypatch):
    # the identity of c2xc2 is a hom; pull-backs that are no filter send
    # make_bounded_hom to a pair scan that finds every pair preserved
    D = catalog.get("c2xc2")
    monkeypatch.setattr(bk, "_pullbacks", lambda f, E: [0] * len(E.ji_elements()))
    with pytest.raises(PostconditionFailed, match="^a pull-back is no join-irreducible filter"):
        bk.make_bounded_hom(D, D, range(D.n))


def test_con_lattice_renumbered_by_its_build_is_a_postcondition(monkeypatch):
    con = cg.congruence_lattice(catalog.s7().lattice)
    real = core._trusted_lattice

    def swapped(*rows):
        lat, renum = real(*rows)
        return lat, tuple(reversed(renum))

    monkeypatch.setattr(core, "_trusted_lattice", swapped)
    with pytest.raises(PostconditionFailed, match="^canonical congruence order is not a linear"):
        con.as_lattice()


def test_color_off_the_lower_boundary_is_its_own_error(monkeypatch):
    # G's lower boundary chains lose their colors, so the first color
    # that phi ties has no lower edge to be glued along
    F = G = catalog.s7()
    con = cg.congruence_lattice(G.lattice).as_lattice()
    phi = bk.make_bounded_hom(con, con, range(con.n))
    real = cn._chain_colors

    def no_lower_colors(R):
        chains = real(R)
        if R is G:
            chains.update(ll=(), lr=())
        return chains

    monkeypatch.setattr(cn, "_chain_colors", no_lower_colors)
    with pytest.raises(ColorMissingOnLowerBoundary, match="^color 0 is on no lower-boundary edge$"):
        cn.filter_representation(F, G, phi)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 18: the postcondition never proves "
                   "theta_r <= con(p_*, p), so a merged class passes")
def test_merged_class_is_a_postcondition(monkeypatch):
    # s7_eye(1) has colors 1 and 2, the class of 2 being (2, 3, 5, 6); with
    # that class relabelled as color 1, Con L would have one join-irreducible
    # and 2 congruences, not 2 and 3
    L = catalog.s7_eye(1).lattice
    real = cg._d_star
    assert real(L)[1] == {1: 1, 2: 2, 3: 2, 5: 2, 6: 2}

    def merged(L):
        below, rep = real(L)
        return below, {p: 1 for p in rep}

    monkeypatch.setattr(cg, "_d_star", merged)
    with pytest.raises(PostconditionFailed):
        cg.congruence_lattice(L)
