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
(Freese, Jezek and Nation, *Free Lattices*, 2.5).  The classes of mutual D*
are the join-irreducible congruences, and the classes of a congruence are
the connected components of the covers colored in its down-set of them.
Con L is distributive, so :class:`ConLattice` keeps only this Birkhoff
dual and builds the list of all congruences when something reads it.  It
keeps the join-irreducible congruences as class tables, ``theta_cls``;
a text or a report that needs blocks builds a :class:`Congruence` from
one.  The coloring is one flat tuple of positions in ``L.covers()``
order, read as a mapping from covers.

Restriction Con L -> Con K to a convex sublattice K is a {0,1}-homomorphism
of distributive lattices, so it is read on ``theta_cls`` alone
(:func:`restriction_mismatch`): that decides :func:`is_cp_extension` and the
checks of :mod:`latcon.verify`.  The list of all congruences is an output
format, read by :mod:`latcon.jsonio`, the CLI and ``as_lattice``.

One kernel, :func:`_closure`, is the module's only union-find.  It
generates congruences by Grätzer's Technical Lemma: its classes
are intervals, and merging two of them applies the lemma's cover rules to
the covers between them (the proof is at :func:`generated_congruence`).
Each join-irreducible congruence ``theta[r]`` is the principal closure
con(r_*, r), checked cover by cover against the coloring; every other
congruence is read off the covers it collapses, as a class is an interval
and so the component of its collapsed covers.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from itertools import accumulate, chain, product, repeat
from operator import index as _index
from typing import Iterable, NamedTuple, Sequence

from . import core
from .core import FiniteLattice, Poset
from .errors import ElementOutOfRange, PostconditionFailed


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

    def collapses(self, x: int, y: int) -> bool:
        return self.cls[x] == self.cls[y]

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
    the meet and join of its members.  Merging the smaller class into the
    larger visits every cover ``a ≺ b`` between the two, which becomes a
    cover inside the new class, and applies the cover rules to it: for each
    other upper cover z of a the pair ``(z, b ∨ z)``, for each other lower
    cover z of b the pair ``(z, a ∧ z)``.  The merge then adds the members
    of ``[lo, hi]`` it lacks, so every class is an interval.  A pair whose
    ends already share a class is not queued, as classes only grow.
    """
    n = L.n
    up, down, upper, lower = L._up, L._down, L._upper, L._lower
    root = list(range(n))
    members = [[x] for x in range(n)]
    mask = [1 << x for x in range(n)]
    lo = list(range(n))
    hi = list(range(n))
    push = work.append
    while work:
        u, v = work.pop()
        u, v = root[u], root[v]
        if u == v:
            continue
        if len(members[u]) < len(members[v]):
            u, v = v, u
        big = mask[u]
        small = members[v]
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
        members[u] += small
        m = mask[u] = big | mask[v]
        x = lo[u] = (down[lo[u]] & down[lo[v]]).bit_length() - 1
        y = up[hi[u]] & up[hi[v]]
        y = hi[u] = (y & -y).bit_length() - 1
        gap = up[x] & down[y] & ~m
        while gap:
            low = gap & -gap
            push((u, low.bit_length() - 1))
            gap ^= low
    return root


def generated_congruence(L: FiniteLattice, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence collapsing every given pair, by :func:`_closure`.

    Why the result is con(pairs): every union is forced.  A congruence
    class is a convex sublattice, so it holds the meet and the join of two
    of its members and all between; and if a ≺ b lie in one class, then
    for another upper cover z of a, z = a ∨ z is congruent to b ∨ z, and
    dually for another lower cover z of b, z = b ∧ z is congruent to a ∧ z.
    At the fixpoint every class is an interval, every cover inside a class
    was visited when its ends were joined, and the pairs its cover rules
    gave lie in one class.  These are the hypotheses of Grätzer's
    Technical Lemma for finite lattices: an equivalence whose classes are
    intervals is a congruence iff, whenever x ≺ y, x ≺ z, y ≠ z and x ≡ y,
    then z ≡ y ∨ z, and dually (G. Grätzer, *The Congruences of a Finite
    Lattice*, 2nd ed., 2016).  So the result is a congruence, and the least
    one collapsing the pairs.
    """
    n = L.n
    work = []
    for a, b in pairs:
        a, b = core._element_id(a), core._element_id(b)
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"pair ({a}, {b}) out of range for size {n}")
        work.append((a, b))
    return Congruence(L, _closure(L, work))


def principal_congruence(L: FiniteLattice, a: int, b: int) -> Congruence:
    """con(a, b): the smallest congruence collapsing {a, b}."""
    return generated_congruence(L, [(a, b)])


class _Partitions(NamedTuple):
    """The list of all congruences and what is indexed by it."""

    congruences: tuple[Congruence, ...]
    index: dict[tuple[int, ...], int]
    downsets: tuple[int, ...]


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
    edge coloring determine it.  These are computed eagerly:
    ``theta_cls[p]`` is the class table of the join-irreducible congruence
    at position ``p`` (positions follow the canonical order below),
    ``ji_order`` is their order as an unlabelled poset on positions, and
    ``colors`` maps every cover edge of the base lattice to the position of
    its principal congruence: a read-only mapping over one flat tuple of
    positions in ``lattice.covers()`` order.
    ``len`` counts the down-sets of ``ji_order`` and builds no partition.

    The list of all congruences is built on the first read of
    ``congruences`` or ``index``, or of :meth:`as_lattice`.
    ``congruences`` is in a canonical order (block count descending, then
    canonical block key), which is a linear extension of the refinement
    order: index 0 is the equality congruence, the last index collapses
    everything.  ``index`` maps each congruence's ``cls`` to its position.
    """

    __slots__ = ("lattice", "theta_cls", "ji_order", "colors", "_size", "_full", "_lattice_view")

    def __init__(
        self,
        lattice: FiniteLattice,
        theta_cls: Sequence[tuple[int, ...]],
        ji_order: Poset,
        colors: Mapping[tuple[int, int], int],
    ):
        self.lattice = lattice
        self.theta_cls = tuple(theta_cls)
        self.ji_order = ji_order
        self.colors = colors
        self._size: int | None = None
        self._full: _Partitions | None = None
        self._lattice_view = None

    def _build(self) -> _Partitions:
        """Every congruence, one per down-set ``d`` of ``ji_order``, and
        ``downsets[i]``, the bitmask of the positions below congruence i.

        The congruence of ``d`` collapses a cover exactly when its color is
        in ``d``, and its classes are the components of those covers.  Each
        element is labelled in id order: it takes the label of any lower
        cover whose color is in ``d``, and otherwise itself.  Every label is
        the least member of its element's class.  Ids form a linear
        extension, so a lower cover y of x is labelled first, and every
        collapsed one lies in x's class, whose least member is its label.
        If x has no collapsed lower cover, x is the least member u of its
        class: the class is an interval, and otherwise the last step of a
        maximal chain from u to x is a lower cover of x inside it.  The
        lower covers and their colors come from one pass over
        ``colors.items()``.  Run once, on first use.
        """
        if self._full is not None:
            return self._full
        L = self.lattice
        low: list[list[tuple[int, int]]] = [[] for _ in range(L.n)]
        for (y, x), c in self.colors.items():
            low[x].append((y, 1 << c))
        ds = core.downsets(self.ji_order)
        cons = []
        for d in ds:
            label: list[int] = []
            for ys in low:
                label.append(next((label[y] for y, bit in ys if d & bit), len(label)))
            cons.append(Congruence(L, label))

        perm = sorted(range(len(cons)), key=lambda k: _rank(cons[k]))
        ordered = tuple(cons[k] for k in perm)
        index = {c.cls: i for i, c in enumerate(ordered)}
        if len(index) != len(ordered):
            raise PostconditionFailed("two down-sets of join-irreducibles have the same join")
        self._full = _Partitions(ordered, index, tuple(ds[k] for k in perm))
        self._size = len(ordered)
        return self._full

    congruences = property(lambda self: self._build().congruences)
    index = property(lambda self: self._build().index)

    def __len__(self) -> int:
        if self._size is None:
            self._size = len(core.downsets(self.ji_order))
        return self._size

    def __iter__(self):
        return iter(self.congruences)

    def covers(self) -> list[tuple[int, int]]:
        """The sorted covers of Con L; element i is ``congruences[i]``.

        They are those of the lattice of down-sets of ``ji_order``:
        congruence i is the join of the ``theta_cls`` in its down-set.
        """
        return sorted(core._downset_covers(self.ji_order, self._build().downsets))

    def as_lattice(self) -> FiniteLattice:
        """Con L as a FiniteLattice with :meth:`covers`; element i is
        ``congruences[i]``."""
        if self._lattice_view is None:
            n = len(self)
            lat, renum = core.make_lattice_with_map(n, self.covers())
            if renum != tuple(range(n)):
                raise PostconditionFailed("canonical congruence order is not a linear extension")
            self._lattice_view = lat
        return self._lattice_view


def _rank(c: Congruence) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Key of the canonical order: block count descending, then blocks."""
    return -c.nblocks, c.blocks


def congruence_lattice(L: FiniteLattice) -> ConLattice:
    """The join-irreducible congruences of L, their order, and the edge coloring.

    Covers are colored by join-irreducibles and colors are ordered by D*
    (see the module docstring).  The row of q in D, the p with some x that
    has ``p <= q v x`` and ``p !<= q_* v x``, is the union of
    ``down(q v y) - down(y)`` over y in ``up(q_*) - up(q)``, one join per
    witness: for any x put ``y = q_* v x``; then ``q v y = q v x`` and
    ``q_* v y = y``, so y witnesses what x does, and a y above q witnesses
    nothing, as then ``q v y = y``.  The list of all congruences is left to
    :class:`ConLattice` to build on demand.  ``theta[r]`` is the principal
    closure con(r_*, r), and the postcondition checks it cover by cover:
    it must collapse a cover of color ``c`` exactly when ``c`` is in r's
    D* down-set, or :class:`PostconditionFailed` names a missed cover or a
    color ordered unlike D*.  A congruence's classes are intervals, so they
    are the components of the covers it collapses: the check fixes every
    ``theta[r]``.  It also implies that distinct down-sets of colors join
    to distinct congruences: theta[c] <= theta[r] exactly when c D* r, as
    theta[c] is generated by the cover (c_*, c) of color c; so theta[c] is
    join-irreducible, hence join-prime in the distributive Con L, and a
    down-set is the set of colors c with theta[c] below its join.
    Computed once per lattice instance and cached.
    """
    if L._con is not None:
        return L._con

    up, down, lower = L._up, L._down, L._lower
    J = L.ji_elements()
    jmask = sum(1 << p for p in J)
    # below[q]: the p with p D q, then with p D* q (Warshall)
    below = {}
    for q in J:
        uq = up[q]
        m = 0
        ys = up[lower[q][0]] & ~uq
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            j = uq & up[y]
            m |= down[(j & -j).bit_length() - 1] & ~down[y]
        below[q] = m & jmask
    for k in J:
        for q in J:
            if below[q] >> k & 1:
                below[q] |= below[k]
    rep: dict[int, int] = {}  # rep[p]: the least member of p's class of mutual D*
    for q in J:
        for p in core._bits(below[q]):
            if below[p] >> q & 1:
                rep.setdefault(p, q)

    covers = L.covers()
    color = []  # color[i]: the color of covers[i]
    for a, b in covers:
        m = down[b] & ~down[a] & jmask
        color.append(rep[(m & -m).bit_length() - 1])
    theta = {r: principal_congruence(L, lower[r][0], r) for r in sorted(set(rep.values()))}
    for r, t in theta.items():
        cls = t.cls
        for (a, b), c in zip(covers, color):
            wanted = bool(below[r] >> c & 1)
            if (cls[a] == cls[b]) != wanted:
                raise PostconditionFailed(
                    f"con({lower[r][0]}, {r}) is not the congruence of color {r}" if wanted
                    else f"colors {c} and {r} are ordered unlike D*"
                )

    order = sorted(theta, key=lambda r: _rank(theta[r]))
    pos = {r: i for i, r in enumerate(order)}
    up = [sum(1 << pos[c] for c in order if below[c] >> r & 1) for r in order]
    ji_order = Poset(len(order), core._reduce(range(len(order)), up))
    colors = _Colors(L._upper, map(pos.__getitem__, color))
    con = ConLattice(L, [theta[r].cls for r in order], ji_order, colors)
    L._con = con
    return con


def _restricted_key(cls: Sequence[int], elems: Sequence[int]) -> tuple[int, ...]:
    """Restriction of the class table ``cls`` to ``elems`` as a class table
    of positions in ``elems``."""
    return _key([cls[x] for x in elems])


def _ji_restriction(con_l: ConLattice, emb: Sequence[int], con_k: ConLattice) -> list[int | None]:
    """Entry ``r``: the position in ``con_k.theta_cls`` of ``con_l.theta_cls[r]``
    restricted to ``emb``, or None when that is not join-irreducible."""
    at = {c: p for p, c in enumerate(con_k.theta_cls)}
    return [at.get(_restricted_key(c, emb)) for c in con_l.theta_cls]


def restriction_mismatch(con_l: ConLattice, emb: Sequence[int], con_k: ConLattice) -> str | None:
    """Why restriction Con L -> Con K is no bijection, or None if it is one.

    ``emb[i]`` is the element of L that plays K's element ``i``, and the
    copy must be a convex sublattice of L.  Restriction is a bijection
    exactly when it maps J(Con L) onto J(Con K) as an order isomorphism.
    Proof: for K convex, restriction rho is a {0,1}-homomorphism of
    distributive lattices (a <= b in K collapsed by alpha v beta are linked
    by a chain in [a, b], inside K, of steps collapsed by alpha or beta),
    and an isomorphism maps J onto J as an order isomorphism.  Conversely,
    for p in J(Con L), rho(p) <= rho(alpha), the join of the rho(q) with q
    in J(Con L) below alpha, puts the join-prime rho(p) below one rho(q), so
    p <= q <= alpha: rho(alpha) fixes the p below alpha.  So rho is
    one-to-one, and onto, as each gamma in Con K is the join of the rho(p)
    below it.  A map of J(Con L) that reflects the order is one-to-one, so
    it is onto when the sizes agree.
    """
    image = _ji_restriction(con_l, emb, con_k)
    P, Q = con_l.ji_order, con_k.ji_order

    def named(r: int) -> list[list[int]]:
        return list(map(list, Congruence(con_l.lattice, con_l.theta_cls[r]).blocks))

    if None in image:
        r = image.index(None)
        return f"join-irreducible congruence {named(r)} restricts to no join-irreducible one"
    for r, s in product(range(P.n), repeat=2):
        if P.leq(r, s) != Q.leq(image[r], image[s]):
            return (f"join-irreducible congruences {named(r)} and {named(s)}"
                    " are ordered unlike their restrictions")
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
