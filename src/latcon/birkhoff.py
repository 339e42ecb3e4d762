"""Finite Birkhoff duality for bounded homomorphisms.

A bounded homomorphism between finite distributive lattices corresponds to
an isotone map between their join-irreducible posets, in the opposite
direction.  ``ji_of_hom`` and ``hom_of_isotone`` are the two directions of
that correspondence; ``brt_report`` evaluates the classical equivalences
(injective vs. onto, onto vs. order-embedding) on a concrete map.

Every kernel works on the up- and down-set bitmasks along covers: an
isotone map is checked on the source's covers, a homomorphism by the
pull-backs of the target's join-irreducibles, found by
``make_bounded_hom``, the only builder of a hom, and kept on the hom for
``ji_of_hom`` and ``brt_report``; ``hom_of_isotone`` builds each image
from that of a lower cover.  The walk it follows is the source's spine:
for each element its first lower cover and the one join-irreducible the
cover adds, the source being distributive.

Each lattice has one Birkhoff table, built on first use by
:func:`_table` and kept on the lattice, since it depends on the lattice
alone: the spine, the join-irreducibles below each element, and the id
of each element and the position of each join-irreducible by its
up-mask.  The four kernels read it in place of a sweep or a scan per
call.  ``_pullbacks`` ORs each element into the rows of the
join-irreducibles below its image; ``make_bounded_hom`` checks all the
pull-backs by one set test against the up-masks of the source's
join-irreducibles; ``ji_of_hom`` reads each position off a pull-back;
``_isotone_assignment`` walks the spine and reads each image's id off
its up-mask.  Only a failed check scans every pair, to name the first
one broken.

A report costs little beyond its checks, and is built in one body:
``ji_of_hom`` reads both posets off the ``_ji`` slots and builds the dual
map's positions off the hom's kept pull-backs, ``brt_report`` reads the
injectivity and onto-ness of each map off one set of its images, once for
the hom and once for its dual map, and :class:`BrtReport` is a named tuple
built as a tuple.  Once the slots are set, neither calls into ``core``,
and ``make_bounded_hom`` reads both distributivity verdicts off them.
Calling a map, ``phi(x)``, range-checks ``x`` as ``L.up(x)`` does.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from . import core
from .core import FiniteLattice, Poset
from .errors import (
    ElementOutOfRange,
    LatconError,
    NotBounded,
    NotDistributive,
    NotHomomorphic,
    NotIsotone,
    PostconditionFailed,
)


class _Map:
    """An assignment between finite orders: ``assignment[i]`` is the image
    of ``i``.  Two maps are equal when source, target and assignment are.

    ``source``, ``target`` and ``assignment`` are read-only: each is set
    once, by :class:`IsotoneMap`, :func:`make_bounded_hom` or, for a map
    proved isotone, :func:`ji_of_hom` and :func:`_trusted_isotone`, into a
    private slot, and assigning or deleting one raises
    :class:`AttributeError`.  Only this module reads the slots directly.
    Calling the map checks its argument: an id outside the source, or one
    that is no integer, raises :class:`ElementOutOfRange`.
    """

    __slots__ = ("_source", "_target", "_assignment")

    @property
    def source(self):
        return self._source

    @property
    def target(self):
        return self._target

    @property
    def assignment(self) -> tuple[int, ...]:
        return self._assignment

    def __call__(self, x: int) -> int:
        return self._assignment[core._checked_id(x, self._source.n)]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._assignment})"


class IsotoneMap(_Map):
    """Order-preserving map between posets.

    ``assignment[i]`` is the target position of source position ``i``.
    Monotonicity is checked on the source's covers only: if
    ``f(x) <= f(y)`` for every cover ``x < y``, then for any ``x <= y`` a
    chain of covers links them and transitivity in the target gives
    ``f(x) <= f(y)``, whatever the numbering.  Only a failure scans every
    pair, so :class:`NotIsotone` names the first pair ``(x, y)`` in
    lexicographic order that f does not preserve.
    """

    __slots__ = ()

    def __init__(self, source: Poset, target: Poset, assignment: Sequence[int]):
        assignment = _assignment(assignment, source.n, target.n)
        up = target._up
        for x, ys in enumerate(source._upper):
            ux = up[assignment[x]]
            for y in ys:
                if not ux >> assignment[y] & 1:
                    raise _first_unordered_pair(source, target, assignment)
        self._source = source
        self._target = target
        self._assignment = assignment

    def _keeps_up_sizes(self) -> bool:
        """For injective f, whether it is an order embedding (``x <= y`` iff
        ``f(x) <= f(y)``), read off the masks.  An order embedding is
        injective, as ``f(x) = f(y)`` gives ``x <= y <= x``.  For injective
        f the ``y`` with ``f(y)`` in ``↑f(x)`` correspond one-to-one to
        ``↑f(x) ∩ f(P)``, and, f being isotone, they include ``↑x``; so
        they are ``↑x`` iff ``|↑x|`` is ``|↑f(x) ∩ f(P)|``.
        """
        f = self._assignment
        image = 0
        for e in f:
            image |= 1 << e
        up = self._target._up
        return all(
            u.bit_count() == (up[e] & image).bit_count() for u, e in zip(self._source._up, f)
        )

    def __hash__(self) -> int:
        return hash((self._source, self._target, self._assignment))


class BoundedHom(_Map):
    """A {0,1}-homomorphism between finite distributive lattices.

    Built only by :func:`make_bounded_hom`, which keeps the pull-backs
    that validated it in ``_pulled``; calling the class, with or without
    arguments, raises :class:`TypeError`.
    """

    __slots__ = ("_pulled",)

    def __init__(self, *args, **kwargs):
        raise TypeError("a BoundedHom is built by make_bounded_hom")

    def __hash__(self) -> int:
        return hash((self._source.n, self._target.n, self._assignment))


def _assignment(xs: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """``xs`` as ``m`` element ids below ``n``, naming the first entry that is not."""
    f = core._element_ids(xs)
    if len(f) != m:
        raise LatconError(f"assignment length {len(f)} != source size {m}")
    if f and not (0 <= min(f) and max(f) < n):
        v = next(v for v in f if not 0 <= v < n)
        raise ElementOutOfRange(f"image {core._quoted(v)} out of range for size {n}")
    return f


def _first_unordered_pair(source: Poset, target: Poset, f: Sequence[int]) -> NotIsotone:
    """The error for the first pair ``x <= y`` whose order f does not keep."""
    for x in range(source.n):
        for y in range(source.n):
            if source.leq(x, y) and not target.leq(f[x], f[y]):
                return NotIsotone(f"{x} <= {y} in the source but {f[x]} !<= {f[y]}")
    raise PostconditionFailed("a cover is out of order, yet f keeps every pair")


def _pullbacks(f: Sequence[int], E: FiniteLattice) -> list[int]:
    """For each join-irreducible ``q`` of E, in id order, the mask of the
    ``x`` with ``q <= f(x)``.

    Each ``x`` is ORed into the rows of the join-irreducibles below
    ``f(x)``, read off E's table (:func:`_table`): ``q <= f(x)`` iff
    ``q`` is one of them.  The cost is the number of pairs ``q <= f(x)``,
    with no sweep of E.
    """
    below = (E._birkhoff or _table(E))[2]
    rows = [0] * E._ji.n
    for x, e in enumerate(f):
        b = 1 << x
        for q in below[e]:
            rows[q] |= b
    return rows


def _first_broken_pair(D: FiniteLattice, E: FiniteLattice, f: Sequence[int]) -> NotHomomorphic:
    """The error for the first pair ``x < y`` whose meet or join f does
    not preserve."""
    for x in range(D.n):
        for y in range(x + 1, D.n):
            if f[D.meet(x, y)] != E.meet(f[x], f[y]):
                return NotHomomorphic(f"meet not preserved at ({x}, {y})")
            if f[D.join(x, y)] != E.join(f[x], f[y]):
                return NotHomomorphic(f"join not preserved at ({x}, {y})")
    raise PostconditionFailed("a pull-back is no join-irreducible filter, yet f preserves every pair")


def _require_distributive(D: FiniteLattice, E: FiniteLattice) -> None:
    """Both verdicts, read off the ``_distributive`` slots while they are set."""
    if not (D._distributive or core.is_distributive(D)):
        raise NotDistributive("source lattice is not distributive")
    if not (E._distributive or core.is_distributive(E)):
        raise NotDistributive("target lattice is not distributive")


def make_bounded_hom(
    D: FiniteLattice, E: FiniteLattice, assignment: Sequence[int]
) -> BoundedHom:
    """Validate an element assignment as a bounded homomorphism D -> E.

    Once both lattices are distributive and f keeps the bounds, f is a
    homomorphism iff for every join-irreducible q of E the pull-back
    ``{x : q <= f(x)}`` is ``up(p)`` for a join-irreducible p of D.
    Proof: in a finite distributive lattice the join-irreducibles are
    join-prime, and an element is the join of those below it.  So with
    such pull-backs ``q <= f(x v y)`` iff ``p <= x v y`` iff ``p <= x`` or
    ``p <= y`` iff ``q <= f(x) v f(y)``, and dually ``q <= f(x ^ y)`` iff
    ``p <= x`` and ``p <= y`` iff ``q <= f(x) ^ f(y)``.  Conversely the
    pull-back of the prime filter ``up(q)`` under a {0,1}-homomorphism is a
    prime filter, nonempty as it holds the top and proper as it misses the
    bottom, so it is ``up(p)`` with p join-prime, hence join-irreducible.
    The pull-backs are read off E's table (:func:`_pullbacks`), and all of
    them are checked by one set test: each is in the set of up-masks of
    J(D) on D's table.  That is the test of each pull-back ``m`` in turn,
    ``m == up(p)`` with p its least id and join-irreducible: if
    ``m = up(p')`` with p' join-irreducible, then ``m`` holds ``p'`` and,
    ids forming a linear extension, no smaller id, so ``p = p'``; the
    converse is the definition.  Only a failure scans the pairs, to name
    the first one f breaks.
    """
    _require_distributive(D, E)
    f = _assignment(assignment, D.n, E.n)
    if f[D.bottom] != E.bottom:
        raise NotBounded(f"bottom maps to {f[D.bottom]}, not {E.bottom}")
    if f[D.top] != E.top:
        raise NotBounded(f"top maps to {f[D.top]}, not {E.top}")
    pulled = tuple(_pullbacks(f, E))
    if not (D._birkhoff or _table(D))[4].issuperset(pulled):
        raise _first_broken_pair(D, E, f)
    phi = object.__new__(BoundedHom)
    phi._source, phi._target, phi._assignment, phi._pulled = D, E, f, pulled
    return phi


def ji_of_hom(phi: BoundedHom) -> IsotoneMap:
    """The dual isotone map  Ji(target) -> Ji(source).

    A join-irreducible x of the target is sent to the least source element
    whose image lies above x.  The pull-back of x is ``up(p)`` with p
    join-irreducible, which :func:`make_bounded_hom` checked when it built
    ``phi`` and kept in ``phi._pulled``; so p's position in ``J(D)`` is
    read off the source's table (:func:`_table`) by that up-mask.

    The map is built as :func:`make_bounded_hom` builds a hom, with no
    re-check: every position is one of ``J(D)``, one per join-irreducible
    of the target, and the map is isotone, as the pull-backs of
    ``q <= q'`` are nested.  Every x with ``q' <= phi(x)`` has
    ``q <= phi(x)``, so ``up(p') ⊆ up(p)`` for their least elements p and
    p', and ``p <= p'``.

    Both posets are read off the ``_ji`` slots and the positions off the
    table, as :func:`_isotone_assignment` reads them, so once the slots
    are set the map is built with no call into ``core``.
    """
    D, E = phi._source, phi._target
    jpos = (D._birkhoff or _table(D))[3]
    psi = object.__new__(IsotoneMap)
    psi._source = E._ji or core.join_irreducibles(E)
    psi._target = D._ji or core.join_irreducibles(D)
    # from a list, as in _isotone_assignment: the iterator form read a
    # higher peak RSS on the duality workload here too
    psi._assignment = tuple([jpos[m] for m in phi._pulled])
    return psi


def _trusted_isotone(source: Poset, target: Poset, assignment: tuple[int, ...]) -> IsotoneMap:
    """An :class:`IsotoneMap` built with no check, for an ``assignment``
    its caller has proved isotone and in range."""
    psi = object.__new__(IsotoneMap)
    psi._source, psi._target, psi._assignment = source, target, assignment
    return psi


def _table(D: FiniteLattice) -> tuple:
    """D's Birkhoff table, built on first use and kept in ``D._birkhoff``;
    the kernels read the slot and call this only while it is unset.

    The table is a tuple of five entries, each a function of D alone.  A
    position is one in ``core.join_irreducibles(D).labels``, and ``J(e)``
    is the set of join-irreducibles below ``e``:

    0. the spine: one step ``(e_*, q)`` per element ``e >= 1``, in id
       order, with ``e_*`` the first lower cover of ``e`` and ``q`` the
       least position of ``J(e) ∖ J(e_*)``;
    1. ``{up[e]: e}``, the id of each element by its up-mask;
    2. for each element ``e``, the positions of ``J(e)``, ascending;
    3. ``{up[p]: i}``, the position of each join-irreducible ``p`` by its
       up-mask;
    4. the up-masks of ``J(D)``, as a frozenset.

    ``J(e) ∖ J(e_*)`` is never empty, since ``e`` is the join of ``J(e)``
    and is not below ``e_*``.  When D is distributive it is ``{q}``
    alone: by Birkhoff, ``e -> J(e)`` is an order isomorphism of D onto
    the down-sets of ``J(D)`` (Davey and Priestley, *Introduction to
    Lattices and Order*, 2nd ed., Thm 5.12), so the cover ``e_* < e``
    goes to a cover ``J(e_*) ⊂ J(e)`` of down-sets; and
    down-sets ``A ⊂ B`` form a cover only if ``B = A ∪ {x}``, since for
    ``x`` minimal in ``B ∖ A`` the down-set ``A ∪ {x}`` lies between them.
    Up-masks are distinct, since ``up[x] = up[y]`` gives ``x <= y <= x``,
    so 1 and 3 lose no element.  The table holds only ints and containers
    of them, so it reaches no lattice.
    """
    if D._birkhoff is None:
        jd = core.join_irreducibles(D)
        up, down, lower = D._up, D._down, D._lower
        pos = [None] * D.n
        jmask = 0
        for i, p in enumerate(jd.labels):
            pos[p] = i
            jmask |= 1 << p
        spine = []
        for e in range(1, D.n):
            s = lower[e][0]
            adds = down[e] & ~down[s] & jmask
            spine.append((s, pos[(adds & -adds).bit_length() - 1]))
        jpos = {up[p]: i for i, p in enumerate(jd.labels)}
        D._birkhoff = (
            tuple(spine),
            {m: e for e, m in enumerate(up)},
            tuple([tuple([pos[p] for p in core._bits(d & jmask)]) for d in down]),
            jpos,
            frozenset(jpos),
        )
    return D._birkhoff


def _isotone_assignment(psi: IsotoneMap, D: FiniteLattice, E: FiniteLattice) -> tuple[int, ...]:
    """The assignment D -> E induced by psi: Ji E -> Ji D, unvalidated.

    e is sent to ``f(e) = ⋁{x ∈ J(E) : psi(x) <= e}``.  Grouping the x by
    their image, a position q in ``J(D)``, gives
    ``f(e) = ⋁{g[q] : q ∈ J(e)}`` with ``g[q] = ⋁{x : psi(x) = q}`` and
    ``J(e)`` the join-irreducibles of D below e.

    The images are built along D's spine (:func:`_table`), one join per
    element.  Proof: for ``e`` above the bottom, with first lower cover
    ``e_*``, D being distributive gives ``J(e) = J(e_*) ∪ {q}`` for the
    spine's ``q``, so ``f(e) = f(e_*) ∨ g[q]`` by associativity of the
    join.  Ids form a linear extension, so walking D in id order finds
    ``f(e_*)`` done.  A source that is not distributive raises
    :class:`NotDistributive`, after the check that psi is between the
    posets and before the walk.

    Joins are kept as up-masks, since ``↑(a ∨ b) = ↑a ∩ ↑b``, and each
    image's id is read back off E's table by its up-mask.  A ``q`` that
    no x maps to has ``g[q]`` the bottom, whose up-mask is all of E, so
    the AND with it changes nothing.

    The posets, the verdict and the tables are read straight off the
    slots ``_ji``, ``_distributive`` and ``_birkhoff`` while they are set.
    """
    jd, je = D._ji or core.join_irreducibles(D), E._ji or core.join_irreducibles(E)
    src, tgt = psi._source, psi._target
    # identity first: psi is nearly always over the posets kept on E and
    # D, and the test then makes no Python-level __eq__ call
    if (src is not je and src != je) or (tgt is not jd and tgt != jd):
        raise LatconError(
            "map is not between the join-irreducible posets of target and source"
        )
    if not (D._distributive or core.is_distributive(D)):
        raise NotDistributive("source lattice is not distributive")
    spine = (D._birkhoff or _table(D))[0]
    ids = (E._birkhoff or _table(E))[1]
    up = E._up
    bottom = up[0]
    g = [bottom] * jd.n  # g[q]: the up-mask of the join of the x with psi(x) = q
    for x, q in zip(je.labels, psi._assignment):
        g[q] &= up[x]
    fup = [bottom]  # fup[e]: the up-mask of f(e), appended in id order
    append = fup.append
    for s, q in spine:
        append(fup[s] & g[q])
    # from a list, not by tuple(map(...)): enumerate_bounded_homs keeps
    # this tuple on every hom, and a tuple read off an iterator of no known
    # length is allocated in steps and then cut to size, where one read off
    # a list is allocated once at its size; the iterator form read a higher
    # peak RSS on the duality workload
    return tuple([ids[m] for m in fup])


def hom_of_isotone(psi: IsotoneMap, D: FiniteLattice, E: FiniteLattice) -> BoundedHom:
    """The bounded homomorphism D -> E induced by psi: Ji E -> Ji D, built
    by :func:`_isotone_assignment` and checked by :func:`make_bounded_hom`."""
    return make_bounded_hom(D, E, _isotone_assignment(psi, D, E))


class BrtReport(NamedTuple):
    """Concrete evaluation of the duality statements on one homomorphism.

    A named tuple, so immutable: assigning a field raises
    :class:`AttributeError`.  Like any tuple it equals a plain tuple of the
    same six values, and it can be indexed and unpacked.
    """

    round_trip_ok: bool
    injective: bool
    ji_onto: bool
    onto: bool
    ji_embedding: bool
    witness: str | None = None

    @property
    def injective_iff_onto(self) -> bool:
        return self.injective == self.ji_onto

    @property
    def onto_iff_embedding(self) -> bool:
        return self.onto == self.ji_embedding

    @property
    def ok(self) -> bool:
        return self.round_trip_ok and self.injective_iff_onto and self.onto_iff_embedding


def brt_report(phi: BoundedHom) -> BrtReport:
    """The duality statements on ``phi``, with no pull-back taken.

    The round trip holds when the assignment ``f`` that
    :func:`_isotone_assignment` builds from ``ji_of_hom(phi)`` is
    ``phi.assignment``, since homs with ``phi``'s source and target are
    equal exactly when their assignments are.  Any other ``f`` goes
    through :func:`make_bounded_hom`, which raises on a non-hom.

    A map is injective when its set of images has one entry per source
    element, and onto when it has one per target element; so both
    verdicts of each map are read off one ``set``, that of ``phi`` against
    ``|D|`` and ``|E|``, that of its dual map against ``|J(E)|`` and
    ``|J(D)|``.  The dual map is an order embedding when it is injective
    and keeps the up-set sizes (:meth:`IsotoneMap._keeps_up_sizes`), which
    is tested for injective dual maps only.
    """
    D, E = phi._source, phi._target
    psi = ji_of_hom(phi)
    f = _isotone_assignment(psi, D, E)
    round_trip_ok = f == phi._assignment
    k = len(set(phi._assignment))
    injective, onto = k == D.n, k == E.n
    k = len(set(psi._assignment))
    ji_onto, ji_embedding = k == psi._target.n, k == psi._source.n and psi._keeps_up_sizes()
    witness = None
    if not round_trip_ok:
        make_bounded_hom(D, E, f)  # raises on a non-hom
        witness = f"round trip produced {f}, expected {phi._assignment}"
    elif injective != ji_onto:
        witness = f"injective={injective} but dual map onto={ji_onto}"
    elif onto != ji_embedding:
        witness = f"onto={onto} but dual map order-embedding={ji_embedding}"
    # as BrtReport(...) builds it, less the binding of six arguments
    return tuple.__new__(BrtReport, (round_trip_ok, injective, ji_onto, onto, ji_embedding, witness))


def enumerate_isotone_maps(P: Poset, Q: Poset) -> Iterator[tuple[int, ...]]:
    """All isotone assignments P -> Q, in lexicographic order.

    Positions are filled in id order by :func:`core._depth_first`, and
    each cover of P is checked when the later of its two ends is filled,
    so P's ids need not be a linear extension.

    Every assignment yielded is isotone, so it needs no second check.
    Proof: it has one image in ``range(Q.n)`` per position of P.  For a
    cover ``a < b`` of P, let x be the later of a and b in id order and y
    the other; when x is filled, y is filled, and x's image is drawn from
    ``↑f(y)`` if y is a lower cover of x and from ``↓f(y)`` if an upper one.
    So ``f(a) <= f(b)`` on every cover, and by transitivity in Q on every
    pair ``a <= b`` of P, as :class:`IsotoneMap` argues.
    """
    everything = (1 << Q.n) - 1
    out = [0] * P.n

    def candidates(x: int) -> tuple[int, ...]:
        allowed = everything
        for y in P._lower[x]:
            if y < x:
                allowed &= Q._up[out[y]]
        for y in P._upper[x]:
            if y < x:
                allowed &= Q._down[out[y]]
        return core._bits(allowed)

    for _ in core._depth_first(P.n, candidates, out):
        yield tuple(out)


def enumerate_bounded_homs(D: FiniteLattice, E: FiniteLattice) -> list[BoundedHom]:
    """All bounded homomorphisms D -> E, sorted by assignment tuple.

    Enumerated through the duality (isotone maps Ji E -> Ji D) rather than
    by filtering all element functions; both lattices are checked to be
    distributive first.  Each map is isotone by construction
    (:func:`enumerate_isotone_maps`), so it is built unchecked.  A
    one-element D has no join-irreducibles, so it gets no map unless E has
    none either.
    """
    _require_distributive(D, E)
    jd, je = core.join_irreducibles(D), core.join_irreducibles(E)
    homs = [
        hom_of_isotone(_trusted_isotone(je, jd, a), D, E)
        for a in enumerate_isotone_maps(je, jd)
    ]
    homs.sort(key=lambda h: h._assignment)
    return homs
