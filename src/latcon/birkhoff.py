"""Finite Birkhoff duality for bounded homomorphisms.

A bounded homomorphism between finite distributive lattices corresponds to
an isotone map between their join-irreducible posets, in the opposite
direction.  ``ji_of_hom`` and ``hom_of_isotone`` are the two directions of
that correspondence; ``brt_report`` evaluates the classical equivalences
(injective vs. onto, onto vs. order-embedding) on a concrete map.

Every kernel works on the up- and down-set bitmasks along covers: an
isotone map is checked on the source's covers, a homomorphism by the
pull-backs of the target's join-irreducibles, found in one top-down
sweep by ``make_bounded_hom``, the only builder of a hom, and kept on
the hom for ``ji_of_hom`` and ``brt_report``; ``hom_of_isotone`` builds
each image from that of a lower cover.  The walk it follows is the
source's spine (:func:`_spine`): for each element its first lower cover
and the join-irreducibles the cover adds, which in a distributive
lattice is always exactly one.  The spine depends on the lattice alone,
so it is built once and kept on it.  Only a failed check scans every
pair, to name the first one broken.

A report costs little beyond its checks: :class:`BrtReport` is a named
tuple, and a map's injectivity and onto-ness are read off one set of its
images, once for the hom and once for its dual map.  Calling a map, ``phi(x)``, range-checks ``x`` as ``L.up(x)``
does.
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
    once, by :class:`IsotoneMap` or :func:`make_bounded_hom`, into a
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

    def _injective_onto(self) -> tuple[bool, bool]:
        """Whether the map is injective and whether it is onto, both read
        off one set of its images."""
        k = len(set(self._assignment))
        return k == self._source.n, k == self._target.n

    @property
    def is_onto(self) -> bool:
        return self._injective_onto()[1]

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

    @property
    def is_order_embedding(self) -> bool:
        """Whether ``x <= y`` iff ``f(x) <= f(y)``.

        An order embedding is injective, as ``f(x) = f(y)`` gives
        ``x <= y <= x``; an injective f is one iff :meth:`_keeps_up_sizes`.
        """
        return self._injective_onto()[0] and self._keeps_up_sizes()

    def _keeps_up_sizes(self) -> bool:
        """For injective f, whether it is an order embedding, read off the
        masks.  The ``y`` with ``f(y)`` in ``↑f(x)`` correspond one-to-one
        to ``↑f(x) ∩ f(P)``, and, f being isotone, they include ``↑x``; so
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

    @property
    def is_injective(self) -> bool:
        return self._injective_onto()[0]

    def __hash__(self) -> int:
        return hash((self._source.n, self._target.n, self._assignment))


def _assignment(xs: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """``xs`` as ``m`` element ids below ``n``, naming the first entry that is not."""
    f = core._element_ids(xs)
    if len(f) != m:
        raise LatconError(f"assignment length {len(f)} != source size {m}")
    if f and not (0 <= min(f) and max(f) < n):
        v = next(v for v in f if not 0 <= v < n)
        raise ElementOutOfRange(f"image {v} out of range for size {n}")
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

    One top-down sweep of E: ``above[e]``, the mask of the ``x`` with
    ``e <= f(x)``, is the ``x`` with ``f(x) = e`` together with
    ``above[c]`` for each upper cover ``c`` of ``e``, since ``↑e`` is
    ``e`` and the up-sets of its upper covers.  Ids form a linear
    extension, so every ``above[c]`` is done before ``e``.  The cost is
    ``O(|E| + covers)``.
    """
    above = [0] * E.n
    for x, e in enumerate(f):
        above[e] |= 1 << x
    upper = E._upper
    for e in range(E.n - 1, -1, -1):
        m = above[e]
        for c in upper[e]:
            m |= above[c]
        above[e] = m
    return [above[q] for q in core.join_irreducibles(E).labels]


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
    if not core.is_distributive(D):
        raise NotDistributive("source lattice is not distributive")
    if not core.is_distributive(E):
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
    The pull-backs take one sweep of E (:func:`_pullbacks`); only a
    failure scans the pairs, to name the first one f breaks.
    """
    _require_distributive(D, E)
    f = _assignment(assignment, D.n, E.n)
    if f[D.bottom] != E.bottom:
        raise NotBounded(f"bottom maps to {f[D.bottom]}, not {E.bottom}")
    if f[D.top] != E.top:
        raise NotBounded(f"top maps to {f[D.top]}, not {E.top}")
    for m in (pulled := tuple(_pullbacks(f, E))):
        p = (m & -m).bit_length() - 1
        if m != D._up[p] or len(D._lower[p]) != 1:
            raise _first_broken_pair(D, E, f)
    phi = object.__new__(BoundedHom)
    phi._source, phi._target, phi._assignment, phi._pulled = D, E, f, pulled
    return phi


def ji_of_hom(phi: BoundedHom) -> IsotoneMap:
    """The dual isotone map  Ji(target) -> Ji(source).

    A join-irreducible x of the target is sent to the least source element
    whose image lies above x.  The pull-back of x is ``up(p)`` with p
    join-irreducible, which :func:`make_bounded_hom` checked when it built
    ``phi`` and kept in ``phi._pulled``; p is its least id, and its
    position in ``J(D)`` is read off the source's spine.
    """
    D = phi._source
    jd = core.join_irreducibles(D)
    pos = _spine(D, jd)[1]
    out = [pos[(s & -s).bit_length() - 1] for s in phi._pulled]
    return IsotoneMap(core.join_irreducibles(phi._target), jd, out)


def _spine(D: FiniteLattice, jd: Poset) -> tuple[tuple, tuple]:
    """D's spine and the positions of its join-irreducibles, built on
    first use and kept on D; ``jd`` is ``core.join_irreducibles(D)``.

    The spine has one step per element ``e >= 1``, in id order:
    ``(e_*, qs)``, with ``e_*`` the first lower cover of ``e`` and ``qs``
    the positions in ``jd.labels`` of ``J(e) ∖ J(e_*)``, where ``J(e)`` is
    the set of join-irreducibles below ``e``.  The positions are a tuple
    over D's elements, ``None`` off ``J(D)``.  Both hold ints only, so the
    spine reaches no lattice.
    """
    if D._spine is None:
        pos = [None] * D.n
        jmask = 0
        for i, p in enumerate(jd.labels):
            pos[p] = i
            jmask |= 1 << p
        down, lower = D._down, D._lower
        steps = []
        for e in range(1, D.n):
            s = lower[e][0]
            steps.append((s, tuple([pos[p] for p in core._bits(down[e] & ~down[s] & jmask)])))
        D._spine = (tuple(steps), tuple(pos))
    return D._spine


def _isotone_assignment(psi: IsotoneMap, D: FiniteLattice, E: FiniteLattice) -> tuple[int, ...]:
    """The assignment D -> E induced by psi: Ji E -> Ji D, unvalidated.

    e is sent to ``f(e) = ⋁{x ∈ J(E) : psi(x) <= e}``.  Grouping the x by
    their image, a position q in ``J(D)``, gives
    ``f(e) = ⋁{g[q] : q ∈ J(e)}`` with ``g[q] = ⋁{x : psi(x) = q}`` and
    ``J(e)`` the join-irreducibles of D below e.

    The images are built along D's spine (:func:`_spine`).  Proof, in any
    lattice D: for ``e`` above the bottom, with first lower cover ``e_*``,
    ``J(e_*) ⊆ J(e)``, so ``J(e) = J(e_*) ∪ (J(e) ∖ J(e_*))`` and, by
    associativity of the join, ``f(e) = f(e_*) ∨ ⋁{g[q] : q ∈ J(e) ∖
    J(e_*)}``.  Ids form a linear extension, so walking D in id order finds
    ``f(e_*)`` done.  When D is distributive each difference is a single
    join-irreducible, so each image costs one join: by Birkhoff,
    ``e -> J(e)`` is an order isomorphism of D onto the down-sets of
    ``J(D)`` (see :func:`core.is_distributive`), so the cover ``e_* < e``
    goes to a cover ``J(e_*) ⊂ J(e)`` of down-sets; and down-sets
    ``A ⊂ B`` form a cover only if ``B = A ∪ {x}``, since for ``x``
    minimal in ``B ∖ A`` the down-set ``A ∪ {x}`` lies between them.  A
    non-distributive D may add several at a step, with the same result.

    Joins are kept as up-masks, since ``↑(a ∨ b) = ↑a ∩ ↑b``.  A ``q`` that
    no x maps to has ``g[q]`` the bottom, whose up-mask is all of E, so
    the AND with it changes nothing.
    """
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    src, tgt = psi._source, psi._target
    # identity first: psi is nearly always over the posets kept on E and
    # D, and the test then makes no Python-level __eq__ call
    if (src is not je and src != je) or (tgt is not jd and tgt != jd):
        raise LatconError(
            "map is not between the join-irreducible posets of target and source"
        )
    up = E._up
    bottom = up[0]
    g = [bottom] * jd.n  # g[q]: the up-mask of the join of the x with psi(x) = q
    for x, q in zip(je.labels, psi._assignment):
        g[q] &= up[x]
    fup = [bottom]  # fup[e]: the up-mask of f(e), appended in id order
    append = fup.append
    for s, qs in _spine(D, jd)[0]:
        m = fup[s]
        for q in qs:
            m &= g[q]
        append(m)
    return tuple([(m & -m).bit_length() - 1 for m in fup])


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
    """The duality statements on ``phi``, with no pull-back sweep.

    The round trip holds when the assignment ``f`` that
    :func:`_isotone_assignment` builds from ``ji_of_hom(phi)`` is
    ``phi.assignment``, since homs with ``phi``'s source and target are
    equal exactly when their assignments are.  Any other ``f`` goes
    through :func:`make_bounded_hom`, which raises on a non-hom.
    """
    D, E = phi._source, phi._target
    psi = ji_of_hom(phi)
    f = _isotone_assignment(psi, D, E)
    round_trip_ok = f == phi._assignment
    injective, onto = phi._injective_onto()
    ji_injective, ji_onto = psi._injective_onto()
    ji_embedding = ji_injective and psi._keeps_up_sizes()
    witness = None
    if not round_trip_ok:
        make_bounded_hom(D, E, f)  # raises on a non-hom
        witness = f"round trip produced {f}, expected {phi._assignment}"
    elif injective != ji_onto:
        witness = f"injective={injective} but dual map onto={ji_onto}"
    elif onto != ji_embedding:
        witness = f"onto={onto} but dual map order-embedding={ji_embedding}"
    return BrtReport(round_trip_ok, injective, ji_onto, onto, ji_embedding, witness)


def enumerate_isotone_maps(P: Poset, Q: Poset) -> Iterator[tuple[int, ...]]:
    """All isotone assignments P -> Q, in lexicographic order.

    Positions are filled in id order, and each cover of P is checked when
    the later of its two ends is filled, so P's ids need not be a linear
    extension.  The depth-first search keeps one iterator of candidate
    images per filled position on an explicit stack, so its depth is bounded
    by memory, not by the recursion limit.
    """
    if P.n == 0:
        yield ()
        return
    everything = (1 << Q.n) - 1
    out = [0] * P.n

    def candidates(x: int) -> Iterator[int]:
        # the images allowed at x: above the image of each filled lower
        # cover of x, below that of each filled upper cover
        allowed = everything
        for y in P._lower[x]:
            if y < x:
                allowed &= Q._up[out[y]]
        for y in P._upper[x]:
            if y < x:
                allowed &= Q._down[out[y]]
        return iter(core._bits(allowed))

    stack = [candidates(0)]
    while stack:
        q = next(stack[-1], None)
        if q is None:
            stack.pop()
            continue
        x = len(stack) - 1
        out[x] = q
        if x + 1 == P.n:
            yield tuple(out)
        else:
            stack.append(candidates(x + 1))


def enumerate_bounded_homs(D: FiniteLattice, E: FiniteLattice) -> list[BoundedHom]:
    """All bounded homomorphisms D -> E, sorted by assignment tuple.

    Enumerated through the duality (isotone maps Ji E -> Ji D) rather than
    by filtering all element functions; both lattices are checked to be
    distributive first.  A one-element D has no join-irreducibles, so it
    gets no map unless E has none either.
    """
    _require_distributive(D, E)
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    homs = [
        hom_of_isotone(IsotoneMap(je, jd, a), D, E)
        for a in enumerate_isotone_maps(je, jd)
    ]
    homs.sort(key=lambda h: h._assignment)
    return homs
