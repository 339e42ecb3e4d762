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
from collections.abc import Mapping
from itertools import chain as _chain, starmap
from operator import contains, eq, index as _index
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


def _id_rows(rows: Sequence[Sequence]) -> Sequence[Sequence[int]]:
    """``rows`` with every entry an ``int``: the rows themselves when each
    entry already is one, else each row converted by one ``map`` of
    ``operator.index``; on failure the rows are read again with
    :func:`_element_id`, which names the first entry that is no integer."""
    if not set(map(type, rows)) <= {tuple, list}:
        rows = list(map(tuple, rows))  # a row of another kind may be read once only
    if set(map(type, _chain.from_iterable(rows))) <= {int}:
        return rows
    try:
        return [tuple(map(_index, r)) for r in rows]
    except TypeError:
        return [tuple(map(_element_id, r)) for r in rows]


def _cover_rows(n: int, covers: Iterable[tuple[int, int]] | None, rows):
    """Upper cover rows on ``0..n-1`` with int entries, from the pairs
    ``covers`` or, when it is ``None``, from ``rows``; and the pairs in
    their order, to be read once.  Bulk checks find a bad cover; only then
    are the pairs read one by one, to raise :class:`ElementOutOfRange` or
    :class:`Cyclic` (a self-loop) at the first."""
    if covers is None:
        if rows is None or isinstance(rows, Mapping) or len(rows) != n:
            raise InvalidLattice(f"without covers, upper_order must be {n} rows, one per element")
        succ = _id_rows(rows)
        pairs = ((a, b) for a, row in enumerate(succ) for b in row)
        ids = list(_chain.from_iterable(succ))
        loops = any(map(contains, succ, range(n)))
    else:
        ids = _element_ids(_chain.from_iterable([(a, b) for a, b in covers]))
        pairs = list(zip(ids[0::2], ids[1::2]))
        loops = any(starmap(eq, pairs))
    if ids and (min(ids) < 0 or max(ids) >= n) or loops:
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ElementOutOfRange(f"cover ({a}, {b}) out of range for size {n}")
            if a == b:
                raise Cyclic(f"self-loop at element {a}")
    if covers is not None:
        succ = [[] for _ in range(n)]
        for a, b in pairs:
            succ[a].append(b)
    return succ, pairs


def _sort(succ: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int] | None]:
    """The lower cover rows of the upper cover rows ``succ``, ascending, and
    Kahn's topological order with a min-heap tie-break, or ``None`` when
    every cover goes up in id.  Kahn's order is then ``0..n-1``: the
    smallest unprocessed id always has all predecessors processed, so it is
    on the heap when its turn comes.  Raises :class:`NotReduced` if a cover
    is given twice, then :class:`Cyclic`."""
    if sum(map(len, map(set, succ))) != sum(map(len, succ)):
        raise NotReduced("duplicate cover pair")
    pred: list[list[int]] = [[] for _ in succ]
    for a, row in enumerate(succ):
        for b in row:
            pred[b].append(a)
    if all(r[-1] < b for b, r in enumerate(pred) if r):
        return pred, None
    indeg = list(map(len, pred))
    heap = [x for x, d in enumerate(indeg) if not d]  # ascending, so a heap
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) < len(succ):
        raise Cyclic("cover relation contains a directed cycle")
    return pred, order


def _close(order, succ, pred, pairs, new_id: Sequence[int], name: Sequence[int]):
    """Up- and down-set bitmasks of the order the cover rows ``succ`` and
    ``pred`` generate, ``order`` a topological order of their ids.

    Raises :class:`NotReduced` at the first of ``pairs`` implied by
    transitivity; a pair's ids ``a`` are ``new_id[a]`` in the rows, and the
    text calls a row id ``i`` ``name[i]``.  A cover ``(x, y)`` is implied
    exactly when ``y`` lies strictly above another upper cover of ``x``, so
    one mask test per row finds whether any is, and only then are the
    pairs read."""
    up = [0] * len(order)
    implied = 0
    for x in reversed(order):
        row = far = 0
        for y in succ[x]:
            b = 1 << y
            row |= b
            far |= up[y] ^ b  # strictly above y
        implied |= row & far
        up[x] = row | far | 1 << x
    down = [0] * len(order)
    for x in order:
        m = 1 << x
        for y in pred[x]:
            m |= down[y]
        down[x] = m
    for a, b in pairs if implied else ():
        x, y = new_id[a], new_id[b]
        between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
        if between:
            raise NotReduced(
                f"cover ({a}, {b}) is implied by transitivity through"
                f" {_listed(sorted(name[i] for i in _bits(between)))}"
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
        return self._upper[_checked_id(x, self.n)]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self._lower[_checked_id(x, self.n)]

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
        succ, pairs = _cover_rows(n, covers, None)
        pred, order = _sort(succ)
        up, down = _close(order or range(n), succ, pred, pairs, range(n), range(n))
        self.n = n
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise InvalidLattice("labels length does not match poset size")
        self._up = up
        self._down = down
        self._upper = [tuple(sorted(s)) for s in succ]
        self._lower = list(map(tuple, pred))

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
        return len(self.lower_covers(x)) == 1 == len(self.upper_covers(x))

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
    covers: Iterable[tuple[int, int]] | None,
    upper_order: Mapping[int, Sequence[int]] | Sequence[Sequence[int]] | None = None,
    lower_order: Mapping[int, Sequence[int]] | Sequence[Sequence[int]] | None = None,
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """Validate and build a lattice, returning it with the renumbering map.

    ``map[old_id] == new_id``.  Constructors that must track element
    identities through canonicalization use this; everyone else calls
    :func:`make_lattice`.

    The order comes in one of two forms.  In the cover-pair form ``covers``
    lists the cover pairs, and ``upper_order``/``lower_order`` may fix the
    left-to-right order of some elements' covers, as a mapping from an
    element to its row or as a sequence of rows, read as the mapping from
    each position to its row; a row left open is sorted ascending in the
    final ids.  In the row form ``covers``
    is ``None`` and ``upper_order`` is a sequence of one row of upper covers
    per element, in planar order: the covers are the pairs the rows give.
    The planar constructors hold their rows anyway and use the row form.
    The cover pairs become rows at once, and both forms run the same
    checks, in this order:

    - the ids: one pass of ``type`` over all entries, and only if some
      entry is no ``int`` one ``map`` of ``operator.index`` per row; the
      range by ``min``/``max``; self-loops by one ``map`` of ``contains``.
      Only a failure reads the covers one by one, to name the first bad
      one (:class:`ElementOutOfRange`, :class:`Cyclic`);
    - a repeated cover, as a row longer than its set (:class:`NotReduced`);
    - the lower cover rows, derived from the upper ones in one pass over
      the covers; if every cover goes up in id the order is ``0..n-1``,
      else Kahn's with a min-heap tie-break (:class:`Cyclic`);
    - ``upper_order`` and ``lower_order``: their ids, as above, and that
      each row is a permutation of its element's covers, by one
      ``map(sorted)`` and one comparison with the sorted computed rows.  A
      fault is held and raised after the lattice checks, as it always
      was; valid rows stand in for the computed ones from here on;
    - each row is renumbered once, the masks are closed once, and one mask
      test per row finds a cover implied by transitivity
      (:class:`NotReduced`, naming the first such cover in input order);
    - a unique bottom and top, and the joins below (:class:`NotALattice`).

    Only deriving the lower rows, Kahn's order (when it runs), the closure
    and the join test loop over covers in Python; the other checks are
    C-level passes over the rows.

    Only the joins ``x \\/ p`` with ``p`` join-irreducible (one lower
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
    succ, pairs = _cover_rows(n, covers, upper_order)
    pred, kahn = _sort(succ)
    order = kahn or range(n)
    new_id = sorted(range(n), key=order.__getitem__)  # the inverse of order

    def fixed(spec, kind: str, computed):
        """The rows of one side in the input's ids: ``spec``'s where it fixes
        them, else ``computed``'s, sorted as the final ids will be; and the
        fault of ``spec``, held to be raised after the lattice checks."""
        if spec is not None:
            want = pred if computed is pred else list(map(sorted, computed))
            plain = not isinstance(spec, Mapping) and set(map(type, spec)) <= {tuple, list}
            if (plain and len(spec) == n and set(map(type, _chain.from_iterable(spec))) <= {int}
                    and list(map(sorted, spec)) == want):
                return spec, None  # the rows the planar constructors hand over
        rows = [sorted(r, key=new_id.__getitem__) for r in computed]
        if spec is None:
            return rows, None
        try:  # a sequence of rows is read as the mapping from each position to its row
            items = spec.items() if isinstance(spec, Mapping) else enumerate(spec)
            given = {r[0]: r[1:] for r in _id_rows([(k, *r) for k, r in items])}  # read once
            ids = [e for k, r in given.items() for e in (k, *r)]
            if ids and (min(ids) < 0 or max(ids) >= n):
                far = next(e for e in ids if not 0 <= e < n)
                raise ElementOutOfRange(f"{kind} names element {far}, out of range for size {n}")
            for k, r in given.items():
                rows[k] = r
            if list(map(sorted, rows)) != want:
                x = next(x for x in order if sorted(rows[x]) != want[x])
                raise InvalidLattice(f"{kind} for element {x} is not a permutation of its covers")
        except (ElementOutOfRange, InvalidLattice) as e:
            return computed, e
        return rows, None

    upper, up_fault = (succ, None) if covers is None else fixed(upper_order, "upper_order", succ)
    lower, low_fault = fixed(lower_order, "lower_order", pred)
    if kahn is None:
        upper, lower = list(map(tuple, upper)), list(map(tuple, lower))
    else:
        get = new_id.__getitem__
        upper = [tuple(map(get, upper[old])) for old in order]
        lower = [tuple(map(get, lower[old])) for old in order]
    up, down = _close(range(n), upper, lower, pairs, new_id, order)

    for rows, kind in ((lower, "bottom: minimal"), (upper, "top: maximal")):
        if rows.count(()) != 1:
            ends = (order[x] for x in range(n) if not rows[x])
            raise NotALattice(f"no unique {kind} elements {_listed(ends)}")

    everything = (1 << n) - 1
    for p in range(n):
        if len(lower[p]) != 1:
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
    if up_fault or low_fault:
        raise up_fault or low_fault

    lat = FiniteLattice(n, up, down, upper, lower)
    return lat, tuple(new_id)


def make_lattice(
    size: int,
    covers: Iterable[tuple[int, int]] | None,
    upper_order: Mapping[int, Sequence[int]] | Sequence[Sequence[int]] | None = None,
    lower_order: Mapping[int, Sequence[int]] | Sequence[Sequence[int]] | None = None,
) -> FiniteLattice:
    """Build a validated :class:`FiniteLattice` from a cover list or rows.

    Rejects cyclic input (:class:`Cyclic`), redundant or duplicated covers
    (:class:`NotReduced`), and cover relations where some pair of elements
    lacks a unique least upper or greatest lower bound (:class:`NotALattice`).
    ``upper_order``/``lower_order`` optionally fix the left-to-right order of
    each element's covers, keyed by the caller's element ids; with
    ``covers=None`` the ``upper_order`` rows are the covers (see
    :func:`make_lattice_with_map`).
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
    nb = B.n
    cells = [(a, b) for a in range(A.n) for b in range(nb)]
    upper = [[a2 * nb + b for a2 in A._upper[a]] + [a * nb + b2 for b2 in B._upper[b]]
             for a, b in cells]
    lower = [[a * nb + b2 for b2 in B._lower[b]] + [a2 * nb + b for a2 in A._lower[a]]
             for a, b in cells]
    return make_lattice(len(cells), None, upper, lower)


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
    upper = [[pos[y] for y in L._upper[x] if y in pos] for x in elems]
    lower = [[pos[y] for y in L._lower[x] if y in pos] for x in elems]
    K, renum = make_lattice_with_map(len(elems), None, upper, lower)
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
