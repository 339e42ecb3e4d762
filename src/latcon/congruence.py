"""Congruences of finite lattices.

A congruence is stored as its class table ``cls``: element x lies in class
``cls[x]``, and classes are numbered by first occurrence (:func:`_key`), so
class i is the block with the i-th smallest least member.  The table is the
canonical key — two congruences on the same lattice are equal iff their
``cls`` tuples are — and ``blocks`` lists the classes in that order, each
sorted.  Any per-element labelling of the classes gives the same table.

Con L needs no closure per edge.  A cover ``a < b`` gets the color of the
least join-irreducible ``p`` with ``p <= b``, ``p !<= a``: ``(p_*, p)`` is
perspective to ``(a, b)``, so con(a, b) = con(p_*, p).  And con(p_*, p) <=
con(q_*, q) exactly when p D* q, the reflexive-transitive closure of
Freese's relation p D q: some x has ``p <= q v x``, ``p !<= q_* v x``
(Freese, Jezek and Nation, *Free Lattices*, 2.5).  So p and q have one
congruence exactly when they have one row of D*, the set of the
join-irreducibles D* below them: the equal rows are the join-irreducible
congruences, each colored by its least member, and the classes of a
congruence are the connected components of the covers colored in its
down-set of them.
Con L is distributive, so :class:`ConLattice` keeps only this Birkhoff
dual, the order of the colors and the coloring, one flat tuple of
positions in ``L.covers()`` order read as a mapping from covers.  Every
congruence is read off the coloring, and a text or a report that needs
blocks builds its :class:`Congruence` there (``ConLattice._congruences``).

Restriction Con L -> Con K to a convex sublattice K is a {0,1}-homomorphism
of distributive lattices, so it is fixed by where it sends J(Con L), and
the coloring holds that: K's covers are covers of L, and theta_r restricted
to K collapses the K-covers whose L-color is in r's down-set.  One lookup
per color of K gives each restriction as a mask of K's colors
(:func:`_restricted`); that decides :func:`restriction_mismatch`, so
:func:`is_cp_extension`, and the checks of :mod:`latcon.verify`.  The list
of all congruences is an output format, read by :mod:`latcon.jsonio`, the
CLI and ``as_lattice``, and by the test that a hom's endpoint is Con L as
numbered there.  Its join-irreducibles, read off its covers, come in the
order of the positions of the dual (see :class:`ConLattice`).

One kernel, :func:`_closure`, is the module's only union-find.  It
generates congruences by Grätzer's Technical Lemma: its classes
are intervals, and merging two of them applies the lemma's cover rules to
the covers between them (the proof is in its docstring).
Each join-irreducible congruence ``theta[r]`` is the principal closure
con(r_*, r), checked cover by cover against the coloring; every other
congruence is read off the covers it collapses, as a class is an interval
and so the component of its collapsed covers.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from itertools import accumulate, chain, repeat
from operator import index as _index
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import core
from .core import FiniteLattice, Poset
from .errors import ElementOutOfRange, EmbeddingInvalid, PostconditionFailed


def _key(labels: Iterable) -> tuple[int, ...]:
    """Class table of a per-element labelling, classes numbered by first occurrence."""
    seen: dict = {}
    return tuple([seen.setdefault(c, len(seen)) for c in labels])


class Congruence:
    """A congruence of a finite lattice, as its class table and blocks.

    ``labels`` gives each element's class under any labels; the table
    renumbers them by first occurrence.  Instances are produced by the
    library (closures, Con L); the labelling is not checked to be a
    congruence.
    """

    __slots__ = ("lattice", "blocks", "cls")

    def __init__(self, lattice: FiniteLattice, labels: Iterable):
        self.lattice = lattice
        self.cls = _key(labels)
        blocks: list[list[int]] = []
        for x, c in enumerate(self.cls):
            if c == len(blocks):
                blocks.append([x])
            else:
                blocks[c].append(x)
        self.blocks = tuple(map(tuple, blocks))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.lattice == other.lattice and self.cls == other.cls

    def __hash__(self) -> int:
        return hash((self.lattice.n, self.cls))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Congruence({inner})"


def _closure(L: FiniteLattice, work: list[tuple[int, int]]) -> list[int]:
    """Labels of the least congruence collapsing each pair in ``work``
    (ids in range): ``root[x]`` is the class of x.

    A union-find by small-to-large relabelling: ``root[x]`` names x's
    class, and each class keeps its members, their bitmask and ``lo``/``hi``,
    the meet and join of its members.  The member list and the mask of a
    class are made when it first merges: until then ``members[u]`` is None
    and ``mask[u]`` is 0, and root u stands for {u} and ``1 << u``, so a
    closure pays per merge, not per element.  Merging the smaller class
    into the larger, whose list grows in place, visits every cover ``a ≺ b``
    between the two, which becomes a cover inside the new class, and
    applies the cover rules to it: for each other upper cover z of a the
    pair ``(z, b ∨ z)``, for each other lower cover z of b the pair
    ``(z, a ∧ z)``.  The merge then adds the members
    of ``[lo, hi]`` it lacks, so every class is an interval.  A pair whose
    ends already share a class is not queued, as classes only grow.

    Why the result is the least congruence collapsing ``work``: every union
    is forced.  A congruence class is a convex sublattice, so it holds the
    meet and the join of two of its members and all between; and if a ≺ b
    lie in one class, then for another upper cover z of a, z = a ∨ z is
    congruent to b ∨ z, and dually for another lower cover z of b,
    z = b ∧ z is congruent to a ∧ z.  At the fixpoint every class is an
    interval, every cover inside a class was visited when its ends were
    joined, and the pairs its cover rules gave lie in one class.  These are
    the hypotheses of Grätzer's Technical Lemma for finite lattices: an
    equivalence whose classes are intervals is a congruence iff, whenever
    x ≺ y, x ≺ z, y ≠ z and x ≡ y, then z ≡ y ∨ z, and dually (G. Grätzer,
    *The Congruences of a Finite Lattice*, 2nd ed., 2016).  So the result
    is a congruence, and the least one collapsing the pairs.
    """
    n = L.n
    up, down, upper, lower = L._up, L._down, L._upper, L._lower
    root = list(range(n))
    members: list[list[int] | None] = [None] * n
    mask = [0] * n
    lo = list(range(n))
    hi = lo.copy()
    push = work.append
    while work:
        u, v = work.pop()
        u, v = root[u], root[v]
        if u == v:
            continue
        mu, small = members[u] or [u], members[v] or [v]
        if len(mu) < len(small):
            u, v, mu, small = v, u, small, mu
        big = mask[u] or 1 << u
        covers = []  # the covers a ≺ b between the two classes
        for a in small:
            root[a] = u
            for b in upper[a]:
                if big >> b & 1:
                    covers.append((a, b))
            for b in lower[a]:
                if big >> b & 1:
                    covers.append((b, a))
        for a, b in covers:
            ub, da = up[b], down[a]
            for z in upper[a]:
                if z != b:
                    j = ub & up[z]
                    j = (j & -j).bit_length() - 1
                    if root[z] != root[j]:
                        push((z, j))
            for z in lower[b]:
                if z != a:
                    m = (da & down[z]).bit_length() - 1
                    if root[z] != root[m]:
                        push((z, m))
        mu += small
        members[u] = mu
        m = mask[u] = big | (mask[v] or 1 << v)
        x = lo[u] = (down[lo[u]] & down[lo[v]]).bit_length() - 1
        y = up[hi[u]] & up[hi[v]]
        y = hi[u] = (y & -y).bit_length() - 1
        gap = up[x] & down[y] & ~m
        while gap:
            low = gap & -gap
            push((u, low.bit_length() - 1))
            gap ^= low
    return root


def principal_congruence(L: FiniteLattice, a: int, b: int) -> Congruence:
    """con(a, b): the smallest congruence collapsing {a, b}, by :func:`_closure`."""
    n = L.n
    a, b = core._element_id(a), core._element_id(b)
    if not (0 <= a < n and 0 <= b < n):
        raise ElementOutOfRange(
            f"pair ({core._quoted(a)}, {core._quoted(b)}) out of range for size {n}")
    return Congruence(L, _closure(L, [(a, b)]))


class _Partitions(NamedTuple):
    """The list of all congruences and Con L's upper cover rows in its
    numbering."""

    congruences: tuple[Congruence, ...]
    rows: tuple[list[int], ...]


class _Colors(Mapping):
    """The edge coloring as a read-only mapping ``(a, b) -> position``
    over one flat tuple of positions in the order of ``L.covers()``.

    ``start[a]`` is the offset of a's upper covers in the flat tuple, so
    the color of ``a ≺ b`` is ``flat[start[a] + upper[a].index(b)]``.  Ids
    go through ``operator.index``; a pair that is no cover raises
    :class:`KeyError`, as does a negative or non-integral id or any other
    key.  It shares L's ``_upper`` rows and keeps no reference to L itself.
    """

    __slots__ = ("_flat", "_start", "_upper")

    def __init__(self, upper: Sequence[tuple[int, ...]], flat: Iterable[int]):
        self._upper = upper
        self._start = tuple(accumulate(map(len, upper), initial=0))
        self._flat = tuple(flat)

    def __getitem__(self, key):
        try:
            a, b = map(_index, key)
            if 0 <= a < len(self._upper):
                return self._flat[self._start[a] + self._upper[a].index(b)]
        except (TypeError, ValueError):
            pass
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self._flat)

    def __iter__(self):
        # the covers (a, b) in L.covers() order, as zip(repeat(a), upper[a])
        return chain.from_iterable(map(zip, map(repeat, range(len(self._upper))), self._upper))

    def items(self) -> ItemsView:
        return _ColorItems(self)


class _ColorItems(ItemsView):
    """The ``(cover, position)`` pairs, read along the flat tuple."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._flat)


class ConLattice:
    """The congruence lattice of a finite lattice, kept as its Birkhoff dual.

    Con L is distributive, so its join-irreducibles, their order and the
    edge coloring determine it.  These are computed eagerly: ``ji_order``
    is the order of the join-irreducible congruences as an unlabelled poset
    on positions (positions follow the canonical order below), and
    ``colors`` maps every cover edge of the base lattice to the position of
    its principal congruence: a read-only mapping over one flat tuple of
    positions in ``lattice.covers()`` order.  No class table is kept: the
    congruence of a down-set of ``ji_order`` is read off the coloring
    (:meth:`_congruences`).  ``len`` counts the down-sets of ``ji_order``
    and builds no partition.

    The numbered Con L is built once, on the first read of ``congruences``,
    of :meth:`covers` or :meth:`as_lattice`, or of an endpoint test: the
    list of all congruences and one ascending row of upper covers per
    congruence.  ``congruences`` is in a canonical order (block count
    descending, then canonical block key), which is a linear extension of
    the refinement order: index 0 is the equality congruence, the last
    index collapses everything.  Its join-irreducibles, the congruences
    with one lower cover, are in id order the positions of ``ji_order``:
    both are the join-irreducible congruences sorted by that one key.
    So Con L has two forms, the dual and the numbered list, and a reader
    of either needs no class table.
    """

    __slots__ = ("lattice", "ji_order", "colors", "_size", "_full", "_lattice_view")

    def __init__(self, lattice: FiniteLattice, ji_order: Poset,
                 colors: Mapping[tuple[int, int], int]):
        self.lattice = lattice
        self.ji_order = ji_order
        self.colors = colors
        self._size: int | None = None
        self._full: _Partitions | None = None
        self._lattice_view = None

    def _congruences(self, downsets: Iterable[int]) -> Iterator[Congruence]:
        """The congruence of each down-set of ``ji_order``, given as a mask.

        It collapses a cover exactly when the cover's color is in the
        down-set, and its classes are the components of those covers.  Each
        element is labelled in id order: it takes the label of any lower
        cover whose color is in the down-set, and otherwise itself.  Every
        label is the least member of its element's class.  Ids form a
        linear extension, so a lower cover y of x is labelled first, and
        every collapsed one lies in x's class, whose least member is its
        label.  If x has no collapsed lower cover, x is the least member u
        of its class: the class is an interval, and otherwise the last step
        of a maximal chain from u to x is a lower cover of x inside it.  The
        lower covers and their colors come from one pass over
        ``colors.items()``.
        """
        L = self.lattice
        low: list[list[tuple[int, int]]] = [[] for _ in range(L.n)]
        for (y, x), c in self.colors.items():
            low[x].append((y, 1 << c))
        for d in downsets:
            label: list[int] = []
            for ys in low:
                label.append(next((label[y] for y, bit in ys if d & bit), len(label)))
            yield Congruence(L, label)

    def _build(self) -> _Partitions:
        """Every congruence, one per down-set of ``ji_order``
        (:meth:`_congruences`), and the upper cover rows of Con L in the
        canonical numbering.  Distinct down-sets join to distinct
        congruences, so the rows are those of the down-sets under inclusion
        (:func:`core._downset_rows`).  The numbering is the sort by
        :func:`_rank` alone, whatever order :func:`core._downsets` finds
        the down-sets in: its keys are distinct as the congruences are,
        which is checked.  Run once, on first use."""
        if self._full is not None:
            return self._full
        ds = list(core._downsets(self.ji_order))
        cons = list(self._congruences(ds))
        perm = sorted(range(len(cons)), key=lambda k: _rank(cons[k]))
        ordered = tuple(cons[k] for k in perm)
        if len({c.cls for c in ordered}) != len(ordered):
            raise PostconditionFailed("two down-sets of join-irreducibles have the same join")
        rows = core._downset_rows(self.ji_order, [ds[k] for k in perm])
        self._full = _Partitions(ordered, rows)
        self._size = len(ordered)
        return self._full

    congruences = property(lambda self: self._build().congruences)

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(1 for _ in core._downsets(self.ji_order))
        return self._size

    def __iter__(self):
        return iter(self.congruences)

    def covers(self) -> list[tuple[int, int]]:
        """The sorted covers of Con L; element i is ``congruences[i]``.

        They are read off the rows the list build keeps, each ascending,
        those of the lattice of down-sets of ``ji_order``: congruence i is
        the join of the join-irreducible congruences in its down-set.  Each
        call returns a new list.
        """
        return [(i, j) for i, row in enumerate(self._build().rows) for j in row]

    def as_lattice(self) -> FiniteLattice:
        """Con L as a FiniteLattice with :meth:`covers`; element i is
        ``congruences[i]``.

        The list build's rows go to :func:`core._trusted_lattice` as they
        are, with no re-validation, and the build must keep the numbering.
        They are a distributive lattice's, numbered along a linear
        extension.  Proof: the down-sets of the finite poset ``ji_order``
        under inclusion are closed under union and intersection, which are
        their join and meet and distribute over each other.  A down-set
        ``e`` strictly above ``d`` holds a minimal element ``x`` of ``e - d``,
        and ``d + {x}`` is a down-set, so ``e`` covers ``d`` exactly when
        ``e = d + {x}``: the rows of :func:`core._downset_rows` list each
        cover once, and none is implied, as a cover adds one element.
        Distinct down-sets join to distinct congruences (checked in
        :meth:`_build`), so row i belongs to ``congruences[i]``.  And the
        canonical order is a linear extension: a congruence strictly
        above another has strictly fewer blocks.  So :func:`core._kahn`
        finds every cover going up in id and keeps the numbering, which
        the postcondition checks."""
        if self._lattice_view is None:
            rows = self._build().rows
            lat, renum = core._trusted_lattice(rows, core._sort(rows))
            if renum != tuple(range(len(rows))):
                raise PostconditionFailed("canonical congruence order is not a linear extension")
            self._lattice_view = lat
        return self._lattice_view

    def _numbers(self, lat: FiniteLattice) -> bool:
        """Is ``lat`` Con L as :attr:`congruences` numbers it: ``len(self)``
        elements, each with the same set of upper covers as in :meth:`covers`?

        The planar order of ``lat``'s rows is not compared.  A numbered
        order is fixed by its covers, and Con L has no planar order, so a
        lattice that differs from :meth:`as_lattice` in the order within
        some rows only is the same numbered lattice.  The rows are compared
        one by one, each of ``lat``'s sorted.  Before Con L is counted or
        built, its down-sets are counted no further than ``lat.n + 1``, so
        a small ``lat`` is told apart from a large Con L at once.
        """
        size = self._size or core._count(core._downsets(self.ji_order), lat.n + 1)
        return lat.n == size and list(map(sorted, lat._upper)) == list(self._build().rows)


def _rank(c: Congruence) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Key of the canonical order: block count descending, then blocks."""
    return -c.nblocks, c.blocks


def _d_rows(L: FiniteLattice) -> dict[int, int]:
    """Row q of D for each join-irreducible q, in id order: the mask of the
    join-irreducible p with some x that has ``p <= q v x`` and
    ``p !<= q_* v x``.

    The row is the union of ``down(q v y) - down(y)`` over the y in
    ``up(q_*) - up(q)`` with one upper cover, one join per witness.  Any
    y in ``up(q_*)`` would do: for any x put ``y = q_* v x``; then
    ``q v y = q v x`` and ``q_* v y = y``, so y witnesses what x does, and
    a y above q witnesses nothing, as then ``q v y = y``.  The
    meet-irreducible y suffice: if y witnesses p, let m be maximal with
    ``m >= y`` and ``m !>= p``.  Every upper cover of m lies above p, so two
    of them would have meet m above p: m has one upper cover.  And
    ``m !>= q``, or else ``m >= q v y >= p``, while ``q v m >= q v y >= p``,
    so m witnesses p too.  The cost is one join per join-irreducible q and
    per meet-irreducible y, ``O(|J| |M|)`` mask operations, not
    ``O(|J| n)``.
    """
    up, down, lower = L._up, L._down, L._lower
    J = L.ji_elements()
    jmask = sum(1 << p for p in J)
    mmask = sum(1 << m for m, ups in enumerate(L._upper) if len(ups) == 1)
    rows = {}
    for q in J:
        uq = up[q]
        m = 0
        ys = up[lower[q][0]] & ~uq & mmask
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            j = uq & up[y]
            m |= down[(j & -j).bit_length() - 1] & ~down[y]
        rows[q] = m & jmask
    return rows


def _d_star(L: FiniteLattice) -> tuple[dict[int, int], dict[int, int]]:
    """D* and its classes, with no closure: ``below[q]``, for each
    join-irreducible q in id order, is the mask of the p with p D* q, and
    ``rep[p]`` is the least member of p's class of mutual D*, a color.

    D's rows come from :func:`_d_rows`.  Row q of D* is the set of the p
    that reach q along D, found by one search from q over the rows of D
    that stops at every row already closed: a closed row holds all that
    reaches its own element, so its bits are taken whole and need no
    search.  Every q lies in its own row (q D q, by a maximal element above
    q_* and not above q).

    The classes are the equal rows: p and q reach each other exactly when
    ``below[p] == below[q]``.  If p D* q, row p lies in row q, as D* is
    transitive, so mutual reach makes the rows equal; and equal rows hold
    p and q both, as each row holds its own element.  The color of a class
    is its least member, the first q in id order with that row.
    :func:`_color_order` orders the colors here for the CLI, which counts
    the congruences before it pays for :func:`congruence_lattice`.
    """
    d = _d_rows(L)
    below: dict[int, int] = {}
    for q, row in d.items():
        seen = todo = row | 1 << q  # todo: the bits of seen not yet searched
        while todo:
            low = todo & -todo
            todo ^= low
            p = low.bit_length() - 1
            if p in below:
                seen |= below[p]
            else:
                new = d[p] & ~seen
                seen |= new
                todo |= new
        below[q] = seen
    first: dict[int, int] = {}
    for q, row in below.items():
        first.setdefault(row, q)
    return below, {p: first[row] for p, row in below.items()}


def _color_poset(below: dict[int, int], order: Sequence[int]) -> Poset:
    """D* on the colors ``order``, a linear extension of it, as an
    unlabelled poset on positions in ``order``.  Read off the D* rows
    ``below`` with no re-validation (:func:`core._poset_of_up_sets`): the
    up-set of ``r`` is the colors ``c`` whose row holds ``r``, closed as D*
    is transitive, and holding no position below r's, as ``order`` is a
    linear extension.  One pass over the bits of the rows transposes them."""
    pos = {c: i for i, c in enumerate(order)}
    up = [0] * len(order)
    for c in order:
        for r in core._bits(below[c]):
            if r in pos:
                up[pos[r]] |= 1 << pos[c]
    return core._poset_of_up_sets(up)


def _color_order(L: FiniteLattice) -> Poset:
    """The colors of L ordered by D*, with no closure: its down-sets are
    the congruences, so the CLI counts them here before it pays for
    :func:`congruence_lattice`.  The colors are numbered by the size of
    their D* rows, then by id, a linear extension, as a color strictly D*
    below another has a strictly smaller row; ``ji_order`` is the same poset
    numbered in the canonical order."""
    below, rep = _d_star(L)
    return _color_poset(below, sorted(set(rep.values()), key=lambda c: (below[c].bit_count(), c)))


def congruence_lattice(L: FiniteLattice) -> ConLattice:
    """The join-irreducible congruences of L, their order, and the edge coloring.

    Covers are colored by join-irreducibles and colors are ordered by D*
    (see the module docstring), D's rows read off meet-irreducible
    witnesses by :func:`_d_rows` and closed by :func:`_d_star`.  A cover
    ``a < b`` takes the color of the least join-irreducible ``p`` with
    ``p <= b``, ``p !<= a``: the least join-irreducible whose D* row equals
    p's.  The list
    of all congruences is left to :class:`ConLattice` to build on demand.
    ``theta[r]`` is the principal closure con(r_*, r), and the
    postcondition checks it cover by cover: it must collapse a cover of
    color ``c`` exactly when ``c`` is in r's D* down-set, or
    :class:`PostconditionFailed` names a missed cover or a color ordered
    unlike D*.  A congruence's classes are intervals, so they
    are the components of the covers it collapses: the check fixes every
    ``theta[r]``.  It also implies that distinct down-sets of colors join
    to distinct congruences: theta[c] <= theta[r] exactly when c D* r, as
    theta[c] is generated by the cover (c_*, c) of color c; so theta[c] is
    join-irreducible, hence join-prime in the distributive Con L, and a
    down-set is the set of colors c with theta[c] below its join.  That
    needs distinct colors to be distinct congruences: the colors' D* rows,
    each cut to the colors, must be pairwise distinct, or
    :class:`PostconditionFailed` names two colors that are one congruence.
    By the cover check, row r holds color d exactly when theta[r]
    collapses d's covers, that is, when theta[d] <= theta[r]; so
    theta[r] = theta[c] makes rows r and c agree on every color, and
    distinct cut rows are distinct congruences.  A ``rep`` that splits a
    class of mutual D* gives one congruence two colors and fails here.
    ``ji_order`` is read off the D* rows by :func:`_color_poset`, in the
    canonical order of the ``theta``, a linear extension.
    Computed once per lattice instance and cached.
    """
    if L._con is not None:
        return L._con

    down, lower = L._down, L._lower
    below, rep = _d_star(L)
    jmask = sum(1 << p for p in below)

    covers = L.covers()
    color = []  # color[i]: the color of covers[i]
    for a, b in covers:
        m = down[b] & ~down[a] & jmask
        color.append(rep[(m & -m).bit_length() - 1])
    theta = {r: principal_congruence(L, lower[r][0], r) for r in sorted(set(rep.values()))}
    for r, t in theta.items():
        cls, row = t.cls, below[r]
        for (a, b), c in zip(covers, color):
            if (cls[a] == cls[b]) != row >> c & 1:
                raise PostconditionFailed(
                    f"con({lower[r][0]}, {r}) is not the congruence of color {r}" if row >> c & 1
                    else f"colors {c} and {r} are ordered unlike D*"
                )
    cmask = sum(1 << r for r in theta)
    first: dict[int, int] = {}
    for r in theta:
        if (c := first.setdefault(below[r] & cmask, r)) != r:
            raise PostconditionFailed(f"colors {c} and {r} are one congruence")

    order = sorted(theta, key=lambda r: _rank(theta[r]))
    pos = {r: i for i, r in enumerate(order)}
    colors = _Colors(L._upper, map(pos.__getitem__, color))
    con = ConLattice(L, _color_poset(below, order), colors)
    L._con = con
    return con


def _restricted(con_l: ConLattice, emb: Sequence[int], con_k: ConLattice) -> list[int]:
    """Entry ``r``: the colors of K, as a mask of positions in
    ``con_k.ji_order``, that the join-irreducible congruence theta_r of L
    collapses, restricted to the copy ``emb``, which must carry K.

    K is convex, so its covers are covers of L, and theta_r restricted to K
    collapses exactly the K-covers whose L-color is in r's down-set.  All
    K-covers of one K-color have one L-color: every congruence of K, each
    restriction among them, collapses both or neither, and the principal
    down-sets of ``con_l.ji_order`` tell its elements apart.  So one cover
    per K-color is looked up in ``con_l.colors``.
    """
    cover = {q: e for e, q in con_k.colors.items()}  # one K-cover per K-color
    color = [con_l.colors[emb[a], emb[b]] for _, (a, b) in sorted(cover.items())]
    return [sum(1 << q for q, c in enumerate(color) if d >> c & 1) for d in con_l.ji_order._down]


def _theta_blocks(con: ConLattice, r: int) -> list[list[int]]:
    """The blocks of the join-irreducible congruence at position ``r``, as lists."""
    return list(map(list, next(con._congruences([con.ji_order._down[r]])).blocks))


def restriction_mismatch(con_l: ConLattice, emb: Sequence[int], con_k: ConLattice) -> str | None:
    """Why restriction Con L -> Con K is no bijection, or None if it is one.

    ``emb[i]`` is the element of L that plays K's element ``i``, and the
    copy must be a convex sublattice of L whose cover rows, kept to it, are
    K's (:func:`core._carries`); otherwise :class:`EmbeddingInvalid` is
    raised.  Decided on the masks of :func:`_restricted` by
    :func:`_mismatch`.
    """
    L = con_l.lattice
    emb = [core._checked_id(x, L.n)
           for x in core._entries(emb, ElementOutOfRange, "element ids must be iterable")]
    if not core._carries(L, emb, con_k.lattice):
        raise EmbeddingInvalid(f"{core._quoted(emb)} does not list K as a convex sublattice of L")
    return _mismatch(con_l, _restricted(con_l, emb, con_k), con_k)


def _mismatch(con_l: ConLattice, masks: Sequence[int], con_k: ConLattice) -> str | None:
    """:func:`restriction_mismatch` on the masks :func:`_restricted` gives.

    Restriction is a bijection exactly when it maps J(Con L) onto J(Con K)
    as an order isomorphism.  Proof: for K convex, restriction rho is a
    {0,1}-homomorphism of distributive lattices (a <= b in K collapsed by
    alpha v beta are linked by a chain in [a, b], inside K, of steps
    collapsed by alpha or beta), and an isomorphism maps J onto J as an
    order isomorphism.  Conversely, for p in J(Con L), rho(p) <= rho(alpha),
    the join of the rho(q) with q in J(Con L) below alpha, puts the
    join-prime rho(p) below one rho(q), so p <= q <= alpha: rho(alpha)
    fixes the p below alpha.  So rho is one-to-one, and onto, as each gamma
    in Con K is the join of the rho(p) below it.  A map of J(Con L) that
    reflects the order is one-to-one, so it is onto when the sizes agree.

    A congruence of K is fixed by the down-set of K's colors it collapses,
    so rho(theta_r) is join-irreducible exactly when its mask is a
    principal down-set, one of ``Q._down``, and rho(theta_s) lies above it
    exactly when its mask holds that one.
    """
    P, Q = con_l.ji_order, con_k.ji_order
    for r, m in enumerate(masks):
        if m not in Q._down:
            return (f"join-irreducible congruence {_theta_blocks(con_l, r)}"
                    " restricts to no join-irreducible one")
    for r, m in enumerate(masks):
        above = sum(1 << s for s, t in enumerate(masks) if t & m == m)
        wrong = P._up[r] ^ above
        if wrong:
            s = (wrong & -wrong).bit_length() - 1
            return (f"join-irreducible congruences {_theta_blocks(con_l, r)} and"
                    f" {_theta_blocks(con_l, s)} are ordered unlike their restrictions")
    if P.n != Q.n:
        return f"only {P.n} of {Q.n} join-irreducible congruences arise as restrictions"
    return None


def is_cp_extension(L: FiniteLattice, K: Iterable[int]) -> bool:
    """Is restriction Con L -> Con K a bijection?  K must be a convex
    sublattice; decided on J(Con L) by :func:`restriction_mismatch`."""
    sub, to_parent, _ = core.sublattice(L, K)
    return restriction_mismatch(congruence_lattice(L), to_parent, congruence_lattice(sub)) is None


def is_simple(L: FiniteLattice) -> bool:
    """Does L have exactly two congruences, that is, one color?"""
    return congruence_lattice(L).ji_order.n == 1
