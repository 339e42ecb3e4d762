"""Finite posets and lattices on dense integer carriers.

Elements are always the integers ``0..n-1``.  :func:`make_lattice` renumbers
its input so that the identifiers form a linear extension of the order with
``0`` the bottom and ``n-1`` the top; every algorithm downstream relies on
that invariant.

Up-sets and down-sets are stored as int bitmasks; public accessors return
sorted tuples.  No operation table is kept: along a linear extension the
join of x and y is the lowest bit of ``up[x] & up[y]`` and their meet the
highest bit of ``down[x] & down[y]``, and the hot loops read them inline.
Cover lists carry a left-to-right order (planar order when the lattice has
one); order-theoretic operations ignore it, but it survives generic
transformations so the planar modules can use it.
"""

from __future__ import annotations

import heapq
from operator import index as _index
from typing import Iterable, Iterator, Sequence

from .errors import (
    Cyclic,
    ElementOutOfRange,
    EmptySet,
    InvalidLattice,
    NotALattice,
    NotConvexSublattice,
    NotReduced,
    ZeroSize,
)


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _listed(elems: Iterable[int], limit: int = 10) -> str:
    """``elems`` as a list for an error text: the first ``limit`` entries,
    then the count of the rest, so a message stays short on any input."""
    elems = list(elems)
    if len(elems) <= limit:
        return str(elems)
    head = ", ".join(map(str, elems[:limit]))
    return f"[{head}, … ({len(elems) - limit} more)]"


def _element_id(x) -> int:
    """``x`` as an element id, if ``operator.index`` takes it; a float or a
    string raises :class:`ElementOutOfRange` rather than being truncated."""
    try:
        return _index(x)
    except TypeError:
        raise ElementOutOfRange(f"element id {x!r} is not an integer") from None


def _checked_id(x, n: int) -> int:
    """:func:`_element_id` of ``x``, which must lie in ``0..n-1``."""
    x = _element_id(x)
    if not 0 <= x < n:
        raise ElementOutOfRange(f"element {x} out of range for size {n}")
    return x


def _element_ids(xs: Iterable) -> tuple[int, ...]:
    """:func:`_element_id` of each entry, by one ``map`` of ``operator.index``
    unless it fails; ``xs`` is read once."""
    xs = tuple(xs)
    try:
        return tuple(map(_index, xs))
    except TypeError:
        return tuple(map(_element_id, xs))


def _size(n, least: int, error: type[Exception], what: str) -> int:
    """``n`` as a size of at least ``least``: what ``operator.index`` takes,
    except a ``bool``.  Otherwise raises ``error``, naming the value."""
    if not isinstance(n, bool):
        try:
            n = _index(n)
        except TypeError:
            pass
        else:
            if n >= least:
                return n
    raise error(f"{what} must be an integer >= {least}, got {n!r}")


def _sort(n: int, covers: Iterable[tuple[int, int]]):
    """Validate a cover relation on ``0..n-1`` and sort it topologically.

    Returns ``(covers, order, succ, pred)`` in the input's ids: ``covers``
    as int pairs, ``order`` Kahn's topological order with a min-heap
    tie-break and ``succ``/``pred`` the upper/lower cover lists.  On input
    whose numbering is already a linear extension ``order`` is ``0..n-1``:
    the smallest unprocessed id always has all predecessors processed, so
    it is on the heap when its turn comes.  Raises
    :class:`ElementOutOfRange`, :class:`NotReduced` (duplicates) or
    :class:`Cyclic`.
    """
    covers = [(_element_id(a), _element_id(b)) for a, b in covers]
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"cover ({a}, {b}) out of range for size {n}")
        if a == b:
            raise Cyclic(f"self-loop at element {a}")
    if len(set(covers)) != len(covers):
        raise NotReduced("duplicate cover pair")
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in covers:
        succ[a].append(b)
        pred[b].append(a)
    indeg = [len(p) for p in pred]
    heap = [x for x in range(n) if indeg[x] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) < n:
        raise Cyclic("cover relation contains a directed cycle")
    return covers, order, succ, pred


def _close(covers, order, succ, pred, name: Sequence[int]):
    """Up- and down-set bitmasks of the order generated by ``covers``, with
    ``order`` a topological order of the ids and ``succ``/``pred`` the
    cover lists.  Raises :class:`NotReduced` at the first cover implied by
    transitivity; the text calls element ``x`` ``name[x]``."""
    up = [0] * len(order)
    for x in reversed(order):
        m = 1 << x
        for y in succ[x]:
            m |= up[y]
        up[x] = m
    down = [0] * len(order)
    for x in order:
        m = 1 << x
        for y in pred[x]:
            m |= down[y]
        down[x] = m
    for a, b in covers:
        between = up[a] & down[b] & ~(1 << a) & ~(1 << b)
        if between:
            raise NotReduced(
                f"cover ({name[a]}, {name[b]}) is implied by transitivity through"
                f" {_listed(sorted(name[x] for x in _bits(between)))}"
            )
    return up, down


def _reduce(elems: Sequence[int], up: Sequence[int] | dict[int, int]) -> list[tuple[int, int]]:
    """Cover pairs, as positions in ``elems``, of the order on ``elems``.

    ``elems`` is ascending and ``up[x]`` is the up-set of ``x`` as a
    bitmask; bits outside ``elems`` are ignored.  ``y`` covers ``x`` when
    it lies strictly above ``x`` and strictly above nothing that lies
    strictly above ``x``.
    """
    pos = {x: i for i, x in enumerate(elems)}
    inside = sum(1 << x for x in elems)
    above = {x: up[x] & inside & ~(1 << x) for x in elems}
    out = []
    for x in elems:
        far = 0
        for c in _bits(above[x]):
            far |= above[c]
        out.extend((pos[x], pos[y]) for y in _bits(above[x] & ~far))
    return out


class _Order:
    """Order queries shared by posets and lattices on ``0..n-1``."""

    __slots__ = ("n", "_up", "_down", "_upper", "_lower")

    def leq(self, x: int, y: int) -> bool:
        return bool(self._up[x] >> y & 1)

    def up(self, x: int) -> tuple[int, ...]:
        return _bits(self._up[_checked_id(x, self.n)])

    def down(self, x: int) -> tuple[int, ...]:
        return _bits(self._down[_checked_id(x, self.n)])

    def upper_covers(self, x: int) -> tuple[int, ...]:
        return self._upper[x]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self._lower[x]

    def covers(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in self._upper[x]]


class Poset(_Order):
    """A finite partial order given by its cover relation.

    ``labels`` optionally ties elements back to an external carrier, e.g.
    lattice element ids for a poset of join-irreducibles.  The empty poset
    (``n == 0``) is allowed.
    """

    __slots__ = ("labels",)

    def __init__(
        self,
        n: int,
        covers: Iterable[tuple[int, int]],
        labels: Sequence[object] | None = None,
    ):
        n = _size(n, 0, ZeroSize, "poset size")
        covers, order, succ, pred = _sort(n, covers)
        up, down = _close(covers, order, succ, pred, range(n))
        self.n = n
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise InvalidLattice("labels length does not match poset size")
        self._up = up
        self._down = down
        self._upper = [tuple(sorted(s)) for s in succ]
        self._lower = [tuple(sorted(p)) for p in pred]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return (
            self.n == other.n
            and self._upper == other._upper
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._upper), self.labels))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={self.covers()!r})"


class FiniteLattice(_Order):
    """A finite lattice; construct through :func:`make_lattice`.

    Instances are immutable after construction and safe to share.  Element
    ids form a linear extension: ``x <= y`` implies ``x``'s id is not larger,
    ``0`` is the bottom and ``n-1`` the top.

    A lattice stores only its order: the up- and down-set masks and the
    ordered cover rows.  Heights, depths and cover masks are derived per
    call by the few readers that need them.  Four slots are derived data,
    each set lazily on first use and then kept: ``_con``, the congruence
    lattice; ``_ji``, the join-irreducible poset; ``_distributive``, the
    verdict of :func:`is_distributive`; and ``_spine``, the walk along
    first lower covers that ``birkhoff`` builds homomorphisms on (see
    ``birkhoff._spine``).
    """

    __slots__ = ("_con", "_ji", "_distributive", "_spine")

    def __init__(
        self,
        n: int,
        up: list[int],
        down: list[int],
        upper: list[tuple[int, ...]],
        lower: list[tuple[int, ...]],
    ):
        self.n = n
        self._up = up
        self._down = down
        self._upper = upper
        self._lower = lower
        self._con = None  # congruence-lattice cache, set lazily
        self._ji = None  # join-irreducible poset, set lazily
        self._distributive = None  # is_distributive's verdict, set lazily
        self._spine = None  # birkhoff's walk along first lower covers, set lazily

    # -- order -------------------------------------------------------------

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.n - 1

    def is_cover(self, x: int, y: int) -> bool:
        x = _checked_id(x, self.n)
        return _checked_id(y, self.n) in self._upper[x]

    def up_mask(self, x: int) -> int:
        return self._up[x]

    def down_mask(self, x: int) -> int:
        return self._down[x]

    def atoms(self) -> tuple[int, ...]:
        return self._upper[0]

    def height(self, x: int) -> int:
        """Length of a longest chain from the bottom to ``x``.  Nothing is
        kept, so each call costs O(n + covers)."""
        x = _checked_id(x, self.n)
        return _heights(self)[0][x]

    # -- algebra -----------------------------------------------------------

    def meet(self, x: int, y: int) -> int:
        return (self._down[x] & self._down[y]).bit_length() - 1

    def join(self, x: int, y: int) -> int:
        m = self._up[x] & self._up[y]
        return (m & -m).bit_length() - 1

    def meet_of(self, elems: Iterable[int]) -> int:
        """Meet of a set of elements; the empty meet is the top."""
        down = self._down
        m = down[self.n - 1]
        for x in elems:
            m &= down[x]
        return m.bit_length() - 1

    def join_of(self, elems: Iterable[int]) -> int:
        up = self._up
        m = up[0]
        for x in elems:
            m &= up[x]
        return (m & -m).bit_length() - 1

    # -- irreducibility ----------------------------------------------------

    def is_doubly_irreducible(self, x: int) -> bool:
        return len(self._lower[x]) == 1 and len(self._upper[x]) == 1

    def ji_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if len(self._lower[x]) == 1)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.n == other.n and self._upper == other._upper and self._lower == other._lower

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._upper)))

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n}, covers={len(self.covers())})"


def make_lattice_with_map(
    size: int,
    covers: Iterable[tuple[int, int]],
    upper_order: dict[int, Sequence[int]] | None = None,
    lower_order: dict[int, Sequence[int]] | None = None,
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """Validate and build a lattice, returning it with the renumbering map.

    ``map[old_id] == new_id``.  Constructors that must track element
    identities through canonicalization use this; everyone else calls
    :func:`make_lattice`.

    Input not numbered along a linear extension is renumbered along Kahn's
    order before the order is closed, so the masks are closed once.  Then
    only the joins ``x \\/ p`` with ``p`` join-irreducible (one lower
    cover) and ``x`` incomparable to ``p`` are checked, by the claim: a
    finite poset with a unique bottom and top, numbered along a linear
    extension, is a lattice iff ``x \\/ p`` exists for every ``x`` and every
    such ``p``.  Proof that every ``x \\/ y`` exists, by strong induction on
    ``y``: ``y`` is the bottom, or join-irreducible, or has lower covers
    ``a1 != a2``.  In the last case ``a1 \\/ a2`` exists by induction; it lies
    above ``a1`` and below ``y``, and ``y`` covers ``a1``, so it is ``y``.  So
    the upper bounds of ``{x, y}`` are those of ``{x, a1, a2}``, and
    ``x \\/ y = (x \\/ a1) \\/ a2``, both joins existing by induction.  Meets
    follow: a finite poset with a bottom and all joins is a lattice, the
    meet being the join of the lower bounds.  A join of comparable elements
    is the larger one, and ``x \\/ p`` exists iff the lowest bit ``c`` of
    ``up[x] & up[p]`` has ``up[c] == up[x] & up[p]``.  The cost is one mask
    test per incomparable pair ``(x, p)``, not a table of n² joins.
    """
    n = _size(size, 1, ZeroSize, "lattice size")
    covers, order, succ, pred = _sort(n, covers)
    new_id = [0] * n
    for pos, old in enumerate(order):
        new_id[old] = pos
    if order != list(range(n)):
        # renumber along the linear extension; the relation is already valid
        covers = [(new_id[a], new_id[b]) for a, b in covers]
        succ = [[new_id[b] for b in succ[a]] for a in order]
        pred = [[new_id[b] for b in pred[a]] for a in order]
    up, down = _close(covers, range(n), succ, pred, order)

    bottoms = [x for x in range(n) if not pred[x]]
    tops = [x for x in range(n) if not succ[x]]
    if len(bottoms) != 1:
        raise NotALattice(
            f"no unique bottom: minimal elements {_listed(order[x] for x in bottoms)}"
        )
    if len(tops) != 1:
        raise NotALattice(f"no unique top: maximal elements {_listed(order[x] for x in tops)}")

    everything = (1 << n) - 1
    for p in range(n):
        if len(pred[p]) != 1:
            continue
        up_p = up[p]
        far = everything & ~(up_p | down[p])
        while far:
            low = far & -far
            far ^= low
            common = up[low.bit_length() - 1] & up_p
            if up[(common & -common).bit_length() - 1] != common:
                x, y = sorted((low.bit_length() - 1, p))
                raise NotALattice(
                    f"elements {order[x]} and {order[y]} have no least upper bound"
                )

    def _ordered(given, computed, kind):
        if given is None:
            return [tuple(sorted(s)) for s in computed]
        given = {k: tuple(r) for k, r in given.items()}  # a row may be read once only
        try:
            given = {_index(k): tuple(map(_index, r)) for k, r in given.items()}
        except TypeError:  # again, to name the value that is no integer
            given = {_element_id(k): tuple(map(_element_id, r)) for k, r in given.items()}
        far = [e for k, r in given.items() for e in (k, *r) if not 0 <= e < n]
        if far:
            raise ElementOutOfRange(f"{kind} names element {far[0]}, out of range for size {n}")
        out = []
        for x in range(n):
            want = computed[x]
            row = given.get(order[x])
            if row is None:
                out.append(tuple(sorted(want)))
                continue
            row = tuple([new_id[e] for e in row])
            # the covers are distinct, so this is a permutation test
            if len(row) != len(want) or set(row) != set(want):
                raise InvalidLattice(
                    f"{kind} for element {order[x]} is not a permutation of its covers"
                )
            out.append(row)
        return out

    upper = _ordered(upper_order, succ, "upper_order")
    lower = _ordered(lower_order, pred, "lower_order")

    lat = FiniteLattice(n, up, down, upper, lower)
    return lat, tuple(new_id)


def make_lattice(
    size: int,
    covers: Iterable[tuple[int, int]],
    upper_order: dict[int, Sequence[int]] | None = None,
    lower_order: dict[int, Sequence[int]] | None = None,
) -> FiniteLattice:
    """Build a validated :class:`FiniteLattice` from a cover list.

    Rejects cyclic input (:class:`Cyclic`), redundant or duplicated covers
    (:class:`NotReduced`), and cover relations where some pair of elements
    lacks a unique least upper or greatest lower bound (:class:`NotALattice`).
    ``upper_order``/``lower_order`` optionally fix the left-to-right order of
    each element's covers, keyed by the caller's element ids.
    """
    return make_lattice_with_map(size, covers, upper_order, lower_order)[0]


def chain(n: int) -> FiniteLattice:
    """The n-element chain."""
    n = _size(n, 1, ZeroSize, "chain size")
    return make_lattice(n, [(i, i + 1) for i in range(n - 1)])


def direct_product(A: FiniteLattice, B: FiniteLattice) -> FiniteLattice:
    """Componentwise product; element ``(a, b)`` gets id ``a * |B| + b``.

    The first factor runs to the upper left: each element's upper covers list
    the A-step first, matching the planar grid convention.
    """
    na, nb = A.n, B.n
    n = na * nb
    covers: list[tuple[int, int]] = []
    upper: dict[int, list[int]] = {}
    lower: dict[int, list[int]] = {}
    for a in range(na):
        for b in range(nb):
            x = a * nb + b
            ups = [a2 * nb + b for a2 in A.upper_covers(a)]
            ups += [a * nb + b2 for b2 in B.upper_covers(b)]
            lows = [a * nb + b2 for b2 in B.lower_covers(b)]
            lows += [a2 * nb + b for a2 in A.lower_covers(a)]
            upper[x] = ups
            lower[x] = lows
            covers.extend((x, y) for y in ups)
    return make_lattice(n, covers, upper, lower)


def is_distributive(L: FiniteLattice) -> bool:
    """Birkhoff's criterion: ``x -> J(x)``, the set of join-irreducibles
    below ``x``, is onto the down-sets of J(L) (Davey and Priestley,
    *Introduction to Lattices and Order*, 2nd ed., Thm 5.12).

    The map is one-to-one, so it is onto exactly when ``J(x \\/ p) = J(x) + {p}``
    for all ``x`` and ji ``p`` with ``p !<= x`` and ``p_* <= x``, ``p_*`` the lower
    cover of ``p``.  Proof: if onto, ``J(x) + {p}`` is a down-set with join ``x \\/ p``;
    conversely a down-set minus a maximal ``p`` is some ``J(x)``, and ``p_* <= x``.
    Costs ``O(n |J|)`` mask operations, once per lattice: the verdict is
    kept on it.
    """
    if L._distributive is None:
        L._distributive = _birkhoff_onto(L)
    return L._distributive


def _birkhoff_onto(L: FiniteLattice) -> bool:
    up, down = L._up, L._down
    ji = [(p, L._lower[p][0]) for p in range(L.n) if len(L._lower[p]) == 1]
    jmask = 0
    for p, _ in ji:
        jmask |= 1 << p
    for x in range(L.n):
        dx, ux = down[x], up[x]
        jx = dx & jmask
        for p, pstar in ji:
            if not dx >> p & 1 and dx >> pstar & 1:
                j = ux & up[p]
                if down[(j & -j).bit_length() - 1] & jmask != jx | 1 << p:
                    return False
    return True


def is_semimodular(L: FiniteLattice) -> bool:
    """Upper semimodularity: ``a`` covers ``a /\\ b`` implies ``a \\/ b`` covers ``b``.

    Tested by Birkhoff's condition, which is equivalent in a lattice of
    finite length (G. Gratzer, *Lattice Theory: Foundation*, the section on
    semimodular lattices): whenever ``a != b`` both cover ``c``, ``a \\/ b``
    covers both ``a`` and ``b``.  Costs one upper-cover mask per element,
    built here since the lattice keeps none, plus the sum over ``c`` of the
    squared number of upper covers of ``c``.
    """
    up = L._up
    covup = [sum(1 << y for y in ups) for ups in L._upper]
    for ups in L._upper:
        for i, a in enumerate(ups):
            ua, ca = up[a], covup[a]
            for b in ups[i + 1:]:
                j = ua & up[b]
                j &= -j
                if not (ca & j and covup[b] & j):
                    return False
    return True


def _set_mask(S: Iterable[int], n: int) -> int:
    m = 0
    for x in S:
        m |= 1 << _checked_id(x, n)
    return m


def is_convex_sublattice(L: FiniteLattice, S: Iterable[int]) -> bool:
    """Closed under meet, join, and intervals.

    Tested as one interval: a nonempty S is a convex sublattice iff it is
    ``↑(⋀S) ∩ ↓(⋁S)``.  Proof: a sublattice, being finite, holds ``⋀S``
    and ``⋁S``, every member of S lies between them, and convexity puts
    everything between them in S.  Conversely an interval ``[a, b]`` holds
    ``a <= x ∧ y <= x ∨ y <= b`` for ``x, y`` in it, and every element
    between two of its members.  The cost is ``O(|S|)`` mask operations.
    """
    elems = sorted(set(_element_ids(S)))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    mask = _set_mask(elems, L.n)
    return mask == L._up[L.meet_of(elems)] & L._down[L.join_of(elems)]


def is_ideal(L: FiniteLattice, S: Iterable[int]) -> bool:
    """A nonempty down-set closed under join (hence a principal ideal)."""
    elems = set(S)
    if not elems:
        return False
    mask = _set_mask(elems, L.n)
    top = L.join_of(elems)
    return bool(mask >> top & 1) and L._down[top] == mask


def is_filter(L: FiniteLattice, S: Iterable[int]) -> bool:
    elems = set(S)
    if not elems:
        return False
    mask = _set_mask(elems, L.n)
    bot = L.meet_of(elems)
    return bool(mask >> bot & 1) and L._up[bot] == mask


def sublattice(
    L: FiniteLattice, S: Iterable[int]
) -> tuple[FiniteLattice, tuple[int, ...], dict[int, int]]:
    """Extract the convex sublattice on ``S``, keeping L's planar cover order.

    Returns ``(K, to_parent, to_sub)`` where ``to_parent[i]`` is the L-id of
    K's element ``i`` and ``to_sub`` is its inverse.  K is numbered as
    :func:`make_lattice_with_map` numbers the elements in the order ``S``
    lists them, a repeat counting at its first place: an order that is a
    linear extension, such as ascending L-ids, is kept, and any other is
    renumbered along Kahn's order.
    """
    elems = list(dict.fromkeys(_element_ids(S)))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    if not is_convex_sublattice(L, elems):
        raise NotConvexSublattice(f"{sorted(elems)} is not a convex sublattice")
    pos = {x: i for i, x in enumerate(elems)}
    covers = [(pos[a], pos[b]) for a, b in L.covers() if a in pos and b in pos]
    upper = {pos[x]: [pos[y] for y in L.upper_covers(x) if y in pos] for x in elems}
    lower = {pos[x]: [pos[y] for y in L.lower_covers(x) if y in pos] for x in elems}
    K, renum = make_lattice_with_map(len(elems), covers, upper, lower)
    to_parent = [0] * len(elems)
    for x, i in zip(elems, renum):
        to_parent[i] = x
    return K, tuple(to_parent), {x: i for i, x in enumerate(to_parent)}


def join_irreducibles(L: FiniteLattice) -> Poset:
    """The poset of join-irreducible elements, labeled by their lattice ids.

    Built once per lattice and kept on it; every call returns that object.
    """
    if L._ji is None:
        elems = L.ji_elements()
        L._ji = Poset(len(elems), _reduce(elems, L._up), labels=elems)
    return L._ji


def _addable(P: Poset, d: int) -> list[int]:
    """Elements ``x`` outside the down-set ``d`` of P with ``d | 1 << x`` a
    down-set: the down-sets covering ``d`` under inclusion."""
    return [x for x in range(P.n) if not d >> x & 1 and not P._down[x] & ~(d | 1 << x)]


def _downset_covers(P: Poset, ds: Sequence[int]) -> list[tuple[int, int]]:
    """Cover pairs, as positions in ``ds``, of the inclusion order on ``ds``,
    a list of all down-sets of P."""
    index = {m: i for i, m in enumerate(ds)}
    return [(i, index[d | 1 << x]) for i, d in enumerate(ds) for x in _addable(P, d)]


def downsets(P: Poset) -> list[int]:
    """All down-sets of P as bitmasks, sorted by (size, mask value).

    Grown one size at a time: the down-sets of size ``s + 1`` are those of
    size ``s`` with one addable element added, so the work is linear in
    the number of down-sets times ``P.n``.
    """
    out: list[int] = []
    level = [0]
    while level:
        out.extend(level)
        level = sorted({d | 1 << x for d in level for x in _addable(P, d)})
    return out


def _heights(L: FiniteLattice) -> tuple[list[int], list[int]]:
    """Each element's height and depth, the lengths of longest chains from
    the bottom to it and from it to the top.  Ids form a linear extension
    with ``0`` the only bottom and ``n-1`` the only top, so one pass over
    the lower covers in id order and one over the upper covers in reverse
    give both, in O(n + covers)."""
    n, lower, upper = L.n, L._lower, L._upper
    height, depth = [0] * n, [0] * n
    get = height.__getitem__
    for x in range(1, n):
        height[x] = 1 + max(map(get, lower[x]))
    get = depth.__getitem__
    for x in range(n - 2, -1, -1):
        depth[x] = 1 + max(map(get, upper[x]))
    return height, depth


def _signatures(L: FiniteLattice) -> list[tuple[int, int, int, int, int, int]]:
    """Per element: height, depth, cover counts, up- and down-set sizes."""
    height, depth = _heights(L)
    return [
        (h, d, len(u), len(lo), m.bit_count(), w.bit_count())
        for h, d, u, lo, m, w in zip(height, depth, L._upper, L._lower, L._up, L._down)
    ]


def invariant(L: FiniteLattice) -> tuple:
    """The sorted multiset of element signatures (heights, degrees, up- and
    down-set sizes).  Isomorphic lattices share it, and
    :func:`find_isomorphism` rejects every pair whose invariants differ.
    Computed per call, in O(n + covers)."""
    return tuple(sorted(_signatures(L)))


def find_isomorphism(A: FiniteLattice, B: FiniteLattice) -> list[int] | None:
    """A lattice isomorphism A -> B as a list, or None.

    Backtracking in id order with degree/height refinement; instances here
    are small, so no fancier invariants are needed.  The depth-first search
    keeps one iterator of consistent images per assigned element on an
    explicit stack, so its depth is bounded by memory, not by the recursion
    limit.
    """
    sig_a, sig_b = _signatures(A), _signatures(B)
    if sorted(sig_a) != sorted(sig_b):
        return None
    n = A.n
    buckets: dict[tuple, list[int]] = {}
    for y, s in enumerate(sig_b):
        buckets.setdefault(s, []).append(y)

    fwd: list[int] = [-1] * n
    used = [False] * n

    def images(x: int) -> Iterator[int]:
        # read lazily: ``used`` changes between two draws
        for y in buckets.get(sig_a[x], ()):
            if not used[y] and all(
                A.leq(z, x) == B.leq(fwd[z], y) and A.leq(x, z) == B.leq(y, fwd[z])
                for z in range(x)
            ):
                yield y

    stack = [images(0)]
    while stack:
        x = len(stack) - 1
        if fwd[x] >= 0:
            used[fwd[x]] = False
        fwd[x] = next(stack[-1], -1)
        if fwd[x] < 0:
            stack.pop()
        elif x + 1 == n:
            return fwd
        else:
            used[fwd[x]] = True
            stack.append(images(x + 1))
    return None


def are_isomorphic(A: FiniteLattice, B: FiniteLattice) -> bool:
    return find_isomorphism(A, B) is not None
