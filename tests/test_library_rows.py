"""The objects the library builds from rows it derives, against their
checked builds.

Con L's numbered lattice, J(L), a direct product and the order of the
colors that ``latcon con`` counts are each read off a lattice the library
already holds, with no re-validation (``core._trusted_lattice``,
``core._poset_of_up_sets``).  The checked builds stay the oracles: each
object must equal them in every stored field, the renumbering included.
"""

import random

import pytest

import helpers
from latcon import catalog, core
from latcon import congruence as cg
from latcon import rectangular as rl


def _lattice_fields(L):
    return L.n, L._upper, L._lower, L._up, L._down


def _poset_fields(P):
    return P.n, P.labels, P._up, P._down, P._upper, P._lower


def _catalog_lattices():
    return [*catalog.congruence_catalog().values(), *catalog.brt_catalog().values()]


class TestConLatticeAsLattice:
    """``as_lattice`` against ``make_lattice_with_map`` on the same rows."""

    @staticmethod
    def _agree(L):
        con = cg.congruence_lattice(L)
        rows = con._build().rows
        checked, renum = core.make_lattice_with_map(len(rows), None, rows)
        assert renum == tuple(range(len(rows)))
        got = con.as_lattice()
        assert type(got) is core.FiniteLattice
        assert _lattice_fields(got) == _lattice_fields(checked)
        return got.n

    def test_catalog(self):
        assert [self._agree(L) for L in _catalog_lattices()][:4] == [2, 4, 8, 5]

    def test_searched_lattices(self):
        searched = catalog.search_rectangular(12)
        assert len(searched) == 44
        for _, R in searched:
            self._agree(R.lattice)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_grids(self, k):
        assert self._agree(rl.grid(k, k).lattice) == 1 << 2 * (k - 1)


def _checked_ji(L):
    """J(L) as the checked ``Poset``: ``q`` covers ``p`` when ``p < q`` and
    no join-irreducible lies strictly between them."""
    J = L.ji_elements()
    jmask = sum(1 << p for p in J)
    covers = [(i, k) for i, p in enumerate(J) for k, q in enumerate(J)
              if p != q and L._up[p] >> q & 1
              and not L._up[p] & L._down[q] & jmask & ~(1 << p | 1 << q)]
    return core.Poset(len(J), covers, labels=J)


class TestJoinIrreducibles:
    """``join_irreducibles`` against the checked ``Poset`` of its covers."""

    @staticmethod
    def _agree(lattices):
        count = 0
        for L in lattices:
            got = core.join_irreducibles(L)
            assert type(got) is core.Poset and got is core.join_irreducibles(L)
            assert _poset_fields(got) == _poset_fields(_checked_ji(L)), L
            count += 1
        return count

    def test_small_lattices(self):
        assert self._agree(helpers.small_lattices()) == 4006

    def test_searched_lattices(self):
        assert self._agree(R.lattice for _, R in catalog.search_rectangular(24)) == 564

    def test_random_closure_lattices(self):
        rng = random.Random(40)
        assert self._agree(helpers.random_closure_lattice(rng) for _ in range(200)) == 200

    def test_a6_outputs_and_their_con_lattices(self):
        outputs = helpers.a6_outputs()
        cons = [cg.congruence_lattice(L).as_lattice() for L in outputs]
        assert self._agree(outputs) + self._agree(cons) == 2 * 34


class TestDirectProduct:
    """``direct_product`` against ``make_lattice_with_map`` on the same
    rows, and its order against the componentwise one."""

    @staticmethod
    def _checked(A, B):
        nb = B.n
        cells = [(a, b) for a in range(A.n) for b in range(nb)]
        upper = [[a2 * nb + b for a2 in A._upper[a]] + [a * nb + b2 for b2 in B._upper[b]]
                 for a, b in cells]
        lower = [[a * nb + b2 for b2 in B._lower[b]] + [a2 * nb + b for a2 in A._lower[a]]
                 for a, b in cells]
        return core.make_lattice_with_map(len(cells), None, upper, lower)

    def test_pairs_of_catalog_lattices(self):
        lattices = list(catalog.congruence_catalog().values())
        for A in lattices:
            for B in lattices[::3]:
                P = core.direct_product(A, B)
                checked, renum = self._checked(A, B)
                assert renum == tuple(range(P.n))
                assert _lattice_fields(P) == _lattice_fields(checked)
                nb = B.n
                assert all(P.leq(x, y) == (A.leq(x // nb, y // nb) and B.leq(x % nb, y % nb))
                           for x in range(P.n) for y in range(P.n))


def _checked_color_count(L, stop):
    """The down-sets of the colors of L under D*, counted no further than
    ``stop``, on the checked ``Poset`` of their covers: ``c`` covers ``p``
    when ``p`` D* ``c`` and no color lies strictly between."""
    below, rep = cg._d_star(L)
    colors = sorted(set(rep.values()))
    lt = {(p, c) for p in colors for c in colors if p != c and below[c] >> p & 1}
    covers = [(i, k) for i, p in enumerate(colors) for k, c in enumerate(colors)
              if (p, c) in lt and not any((p, r) in lt and (r, c) in lt for r in colors)]
    return core._count(core._downsets(core.Poset(len(colors), covers)), stop)


class TestColorOrder:
    """The order ``latcon con`` counts the congruences on, against the
    checked ``Poset`` of the D* covers and against Con L itself."""

    def test_catalog(self):
        for L in _catalog_lattices():
            con = cg.congruence_lattice(L)
            P = cg._color_order(L)
            assert core._count(core._downsets(P), 1 << 20) == len(con) == _checked_color_count(
                L, 1 << 20)
            assert sorted(map(int.bit_count, P._up)) == sorted(map(int.bit_count,
                                                                con.ji_order._up))

    def test_chain_64(self):
        L = core.chain(64)
        P = cg._color_order(L)
        assert P.n == 63 and not any(P._upper)
        most = (1 << 20) // 64
        assert core._count(core._downsets(P), most + 1) == most + 1 == _checked_color_count(
            L, most + 1)
