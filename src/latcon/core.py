"""Finite posets and lattices on dense integer carriers.

Elements are always the integers ``0..n-1``.  :func:`make_lattice` renumbers
its input so that the identifiers form a linear extension of the order with
``0`` the bottom and ``n-1`` the top; every algorithm downstream relies on
that invariant.  Meet and join are computed once into n-by-n tables at
validation time, so the rest of the library is table lookups.

Up-sets and down-sets are stored as int bitmasks; public accessors return
sorted tuples.  Cover lists carry a left-to-right order (planar order when
the lattice has one); order-theoretic operations ignore it, but it survives
generic transformations so the planar modules can use it.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

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


def _close(n: int, covers: Iterable[tuple[int, int]]):
    """Validate a cover relation on ``0..n-1`` and close it into bitmasks.

    Returns ``(order, succ, pred, up, down)`` in the input's ids: ``order``
    is Kahn's topological order with a min-heap tie-break, ``succ``/``pred``
    the upper/lower cover lists and ``up``/``down`` the up- and down-set
    masks.  On input whose numbering is already a linear extension ``order``
    is ``0..n-1``: the smallest unprocessed id always has all predecessors
    processed, so it is on the heap when its turn comes.  Raises
    :class:`ElementOutOfRange`, :class:`Cyclic` or :class:`NotReduced`.
    """
    covers = [(int(a), int(b)) for a, b in covers]
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
    up = [0] * n
    for x in reversed(order):
        m = 1 << x
        for y in succ[x]:
            m |= up[y]
        up[x] = m
    down = [0] * n
    for x in order:
        m = 1 << x
        for y in pred[x]:
            m |= down[y]
        down[x] = m
    for a, b in covers:
        between = up[a] & down[b] & ~(1 << a) & ~(1 << b)
        if between:
            raise NotReduced(
                f"cover ({a}, {b}) is implied by transitivity through {list(_bits(between))}"
            )
    return order, succ, pred, up, down


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
        return _bits(self._up[x])

    def down(self, x: int) -> tuple[int, ...]:
        return _bits(self._down[x])

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
        if n < 0:
            raise ZeroSize("poset size must be >= 0")
        _, succ, pred, up, down = _close(n, covers)
        self.n = n
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise InvalidLattice("labels length does not match poset size")
        self._up = up
        self._down = down
        self._upper = [tuple(sorted(s)) for s in succ]
        self._lower = [tuple(sorted(p)) for p in pred]

    def minimal(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._lower[x])

    def maximal(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._upper[x])

    def __eq__(self, other: object) -> bool:
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
    """

    __slots__ = (
        "_covup",
        "_meet",
        "_join",
        "_height",
        "_depth",
        "_con",
    )

    def __init__(
        self,
        n: int,
        up: list[int],
        down: list[int],
        upper: list[tuple[int, ...]],
        lower: list[tuple[int, ...]],
        meet: list[list[int]],
        join: list[list[int]],
        height: list[int],
        depth: list[int],
    ):
        self.n = n
        self._up = up
        self._down = down
        self._upper = upper
        self._lower = lower
        self._covup = [0] * n
        for x in range(n):
            m = 0
            for y in upper[x]:
                m |= 1 << y
            self._covup[x] = m
        self._meet = meet
        self._join = join
        self._height = height
        self._depth = depth
        self._con = None  # congruence-lattice cache, set lazily

    # -- order -------------------------------------------------------------

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.n - 1

    def is_cover(self, x: int, y: int) -> bool:
        return bool(self._covup[x] >> y & 1)

    def up_mask(self, x: int) -> int:
        return self._up[x]

    def down_mask(self, x: int) -> int:
        return self._down[x]

    def interval(self, a: int, b: int) -> tuple[int, ...]:
        return _bits(self._up[a] & self._down[b])

    def atoms(self) -> tuple[int, ...]:
        return self._upper[0]

    def height(self, x: int) -> int:
        """Length of a longest chain from the bottom to ``x``."""
        return self._height[x]

    def depth(self, x: int) -> int:
        return self._depth[x]

    @property
    def length(self) -> int:
        return self._height[self.n - 1]

    # -- algebra -----------------------------------------------------------

    def meet(self, x: int, y: int) -> int:
        return self._meet[x][y]

    def join(self, x: int, y: int) -> int:
        return self._join[x][y]

    def meet_of(self, elems: Iterable[int]) -> int:
        """Meet of a set of elements; the empty meet is the top."""
        out = self.n - 1
        row = self._meet
        for x in elems:
            out = row[out][x]
        return out

    def join_of(self, elems: Iterable[int]) -> int:
        out = 0
        row = self._join
        for x in elems:
            out = row[out][x]
        return out

    # -- irreducibility ----------------------------------------------------

    def is_join_irreducible(self, x: int) -> bool:
        return len(self._lower[x]) == 1

    def is_meet_irreducible(self, x: int) -> bool:
        return len(self._upper[x]) == 1

    def is_doubly_irreducible(self, x: int) -> bool:
        return len(self._lower[x]) == 1 and len(self._upper[x]) == 1

    def ji_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if len(self._lower[x]) == 1)

    def mi_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if len(self._upper[x]) == 1)

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
    """
    if size < 1:
        raise ZeroSize("a lattice has at least one element")
    order, succ, pred, up, down = _close(size, covers)
    new_id = [0] * size
    for pos, old in enumerate(order):
        new_id[old] = pos
    old_of = order
    n = size
    if order != list(range(n)):
        # renumber along the linear extension; the relation is already valid
        renumbered = [(new_id[a], new_id[b]) for a in range(n) for b in succ[a]]
        _, succ, pred, up, down = _close(n, renumbered)

    bottoms = [x for x in range(n) if not pred[x]]
    tops = [x for x in range(n) if not succ[x]]
    if len(bottoms) != 1:
        raise NotALattice(
            f"no unique bottom: minimal elements {[old_of[x] for x in bottoms]}"
        )
    if len(tops) != 1:
        raise NotALattice(f"no unique top: maximal elements {[old_of[x] for x in tops]}")

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        join[x][x] = x
        meet[x][x] = x
        ux = up[x]
        dx = down[x]
        for y in range(x + 1, n):
            common = ux & up[y]
            c = (common & -common).bit_length() - 1
            if up[c] != common:
                raise NotALattice(
                    f"elements {old_of[x]} and {old_of[y]} have no least upper bound"
                )
            join[x][y] = c
            join[y][x] = c
            common = dx & down[y]
            c = common.bit_length() - 1
            if down[c] != common:
                raise NotALattice(
                    f"elements {old_of[x]} and {old_of[y]} have no greatest lower bound"
                )
            meet[x][y] = c
            meet[y][x] = c

    def _ordered(given, computed, kind):
        if given is None:
            return [tuple(sorted(s)) for s in computed]
        for key, row in given.items():
            for e in (key, *row):
                if not 0 <= int(e) < n:
                    raise ElementOutOfRange(
                        f"{kind} names element {e}, out of range for size {n}"
                    )
        out = []
        for x in range(n):
            want = computed[x]
            row = given.get(old_of[x])
            if row is None:
                out.append(tuple(sorted(want)))
                continue
            row = tuple(new_id[int(e)] for e in row)
            if sorted(row) != sorted(want):
                raise InvalidLattice(
                    f"{kind} for element {old_of[x]} is not a permutation of its covers"
                )
            out.append(row)
        return out

    upper = _ordered(upper_order, succ, "upper_order")
    lower = _ordered(lower_order, pred, "lower_order")

    height = [0] * n
    for x in range(n):
        if pred[x]:
            height[x] = 1 + max(height[y] for y in pred[x])
    depth = [0] * n
    for x in range(n - 1, -1, -1):
        if succ[x]:
            depth[x] = 1 + max(depth[y] for y in succ[x])

    lat = FiniteLattice(n, up, down, upper, lower, meet, join, height, depth)
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
    if n < 1:
        raise ZeroSize("a chain has at least one element")
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


def glued_sum(A: FiniteLattice, B: FiniteLattice) -> FiniteLattice:
    """Stack B on top of A, identifying the top of A with the bottom of B."""
    na = A.n
    shift = na - 1
    n = na + B.n - 1
    covers = A.covers() + [(a + shift, b + shift) for a, b in B.covers()]
    upper: dict[int, list[int]] = {}
    lower: dict[int, list[int]] = {}
    for x in range(na - 1):
        upper[x] = list(A.upper_covers(x))
    for x in range(na):
        lower[x] = list(A.lower_covers(x))
    upper[shift] = [y + shift for y in B.upper_covers(0)]
    for x in range(1, B.n):
        upper[x + shift] = [y + shift for y in B.upper_covers(x)]
        lower[x + shift] = [y + shift for y in B.lower_covers(x)]
    return make_lattice(n, covers, upper, lower)


def is_distributive(L: FiniteLattice) -> bool:
    """Exhaustive check of ``x /\\ (y \\/ z) == (x /\\ y) \\/ (x /\\ z)``."""
    meet, join = L._meet, L._join
    rng = range(L.n)
    for x in rng:
        mx = meet[x]
        for y in rng:
            xy = mx[y]
            jy = join[y]
            for z in rng:
                if mx[jy[z]] != join[xy][mx[z]]:
                    return False
    return True


def is_semimodular(L: FiniteLattice) -> bool:
    """Upper semimodularity: ``a`` covers ``a /\\ b`` implies ``a \\/ b`` covers ``b``."""
    for a in range(L.n):
        for b in range(L.n):
            m = L.meet(a, b)
            if m != a and L.is_cover(m, a):
                if not L.is_cover(b, L.join(a, b)):
                    return False
    return True


def ideal_filter(L: FiniteLattice, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The principal ideal and principal filter of ``a``."""
    if not 0 <= a < L.n:
        raise ElementOutOfRange(f"element {a} out of range for size {L.n}")
    return L.down(a), L.up(a)


def _set_mask(S: Iterable[int], n: int) -> int:
    m = 0
    for x in S:
        x = int(x)
        if not 0 <= x < n:
            raise ElementOutOfRange(f"element {x} out of range for size {n}")
        m |= 1 << x
    return m


def is_sublattice(L: FiniteLattice, S: Iterable[int]) -> bool:
    elems = sorted(set(S))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    mask = _set_mask(elems, L.n)
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if not mask >> L.meet(x, y) & 1 or not mask >> L.join(x, y) & 1:
                return False
    return True


def is_convex_sublattice(L: FiniteLattice, S: Iterable[int]) -> bool:
    """Closed under meet, join, and intervals."""
    elems = sorted(set(S))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    mask = _set_mask(elems, L.n)
    if not is_sublattice(L, elems):
        return False
    for x in elems:
        ux = L._up[x]
        for y in elems:
            if x != y and ux >> y & 1:
                if L._up[x] & L._down[y] & ~mask:
                    return False
    return True


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
    """Extract the convex sublattice on ``S``.

    Returns ``(K, to_parent, to_sub)`` where ``to_parent[i]`` is the L-id of
    K's element ``i``.  Elements are numbered by ascending parent id, which
    inherits the linear-extension property.
    """
    elems = sorted(set(S))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    if not is_convex_sublattice(L, elems):
        raise NotConvexSublattice(f"{elems} is not a convex sublattice")
    to_sub = {x: i for i, x in enumerate(elems)}
    in_set = set(elems)
    covers = [
        (to_sub[a], to_sub[b]) for a, b in L.covers() if a in in_set and b in in_set
    ]
    upper = {
        to_sub[x]: [to_sub[y] for y in L.upper_covers(x) if y in in_set] for x in elems
    }
    lower = {
        to_sub[x]: [to_sub[y] for y in L.lower_covers(x) if y in in_set] for x in elems
    }
    K, renum = make_lattice_with_map(len(elems), covers, upper, lower)
    assert renum == tuple(range(len(elems))), "sublattice numbering is canonical"
    return K, tuple(elems), to_sub


def join_irreducibles(L: FiniteLattice) -> Poset:
    """The poset of join-irreducible elements, labeled by their lattice ids."""
    elems = L.ji_elements()
    return Poset(len(elems), _reduce(elems, L._up), labels=elems)


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


def downset_lattice(P: Poset) -> FiniteLattice:
    """The distributive lattice of down-sets of P, ordered by inclusion."""
    ds = downsets(P)
    return make_lattice(len(ds), _downset_covers(P, ds))


def _signature(L: FiniteLattice, x: int) -> tuple[int, int, int, int, int, int]:
    return (
        L._height[x],
        L._depth[x],
        len(L._upper[x]),
        len(L._lower[x]),
        bin(L._up[x]).count("1"),
        bin(L._down[x]).count("1"),
    )


def find_isomorphism(A: FiniteLattice, B: FiniteLattice) -> list[int] | None:
    """A lattice isomorphism A -> B as a list, or None.

    Backtracking in id order with degree/height refinement; instances here
    are small, so no fancier invariants are needed.
    """
    if A.n != B.n:
        return None
    n = A.n
    sig_a = [_signature(A, x) for x in range(n)]
    buckets: dict[tuple, list[int]] = {}
    for y in range(n):
        buckets.setdefault(_signature(B, y), []).append(y)
    if sorted(sig_a) != sorted(k for k in buckets for _ in buckets[k]):
        return None

    fwd: list[int] = [-1] * n
    used = [False] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in buckets.get(sig_a[x], ()):
            if used[y]:
                continue
            ok = True
            for z in range(x):
                fz = fwd[z]
                if A.leq(z, x) != B.leq(fz, y) or A.leq(x, z) != B.leq(y, fz):
                    ok = False
                    break
            if ok:
                fwd[x] = y
                used[y] = True
                if extend(x + 1):
                    return True
                used[y] = False
        return False

    return fwd if extend(0) else None


def are_isomorphic(A: FiniteLattice, B: FiniteLattice) -> bool:
    return find_isomorphism(A, B) is not None
