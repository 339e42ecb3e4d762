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
from collections.abc import Mapping, Sized
from itertools import chain as _chain, combinations, islice
from operator import index as _index
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    Cyclic,
    ElementOutOfRange,
    EmptySet,
    InvalidLattice,
    NotALattice,
    NotConvexSublattice,
    NotReduced,
    PostconditionFailed,
    ZeroSize,
)


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _quoted(value, depth: int = 2) -> str:
    """``value`` for an error text: its ``repr``, bounded on any input.  A
    list, tuple, set or dict shows its first ten entries, each quoted the
    same way, then the count of the rest, and one nested more than
    ``depth`` levels deep its brackets only; a string longer than 40
    characters shows its first and last 20 (:func:`_clipped`), and an
    integer of more than 256 bits its sign and bit length (``repr`` refuses
    one of more than 4,300 digits); any other ``repr`` is cut at 100
    characters.  The one quoter of an outside value in an error text."""
    if isinstance(value, int) and value.bit_length() > 256:
        return f"<{'negative ' if value < 0 else ''}integer of {value.bit_length()} bits>"
    if isinstance(value, str) and len(value) > 40:
        return _clipped(value, repr)
    ends = {list: "[]", tuple: "()", set: "{}", dict: "{}"}.get(type(value))
    if ends is None or not value:
        text = repr(value)
        return text if len(text) <= 100 else f"{text[:100]}…"
    if not depth:
        return f"{ends[0]}…{ends[1]}"
    entries = value.items() if isinstance(value, dict) else zip(value)  # 2-tuples or 1-tuples
    head = [": ".join(_quoted(x, depth - 1) for x in e) for e in islice(entries, 10)]
    rest = len(value) - 10
    tail = f", … ({rest} more)" if rest > 0 else "," if ends == "()" and len(value) == 1 else ""
    return f"{ends[0]}{', '.join(head)}{tail}{ends[1]}"


def _clipped(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)`` if ``text`` has at most 40 characters, else ``show`` of
    its first 20 and of its last 20 around the count of the rest, so a
    long path keeps its file name: the one bound of an outside string in
    an error text.  With ``str``, the plain form of an outside name, such
    as a path, without quote marks; :func:`_quoted` shows a string through
    ``repr``."""
    if len(text) <= 40:
        return show(text)
    return f"{show(text[:20])}… ({len(text) - 40} more characters) …{show(text[-20:])}"


def _element_id(x) -> int:
    """``x`` as an element id, if ``operator.index`` takes it; a float or a
    string raises :class:`ElementOutOfRange` rather than being truncated."""
    try:
        return _index(x)
    except TypeError:
        raise ElementOutOfRange(f"element id {_quoted(x)} is not an integer") from None


def _checked_id(x, n: int) -> int:
    """:func:`_element_id` of ``x``, which must lie in ``0..n-1``."""
    x = _element_id(x)
    if not 0 <= x < n:
        raise ElementOutOfRange(f"element {_quoted(x)} out of range for size {n}")
    return x


def _entries(items, error: type[Exception], what: str) -> Iterator:
    """An iterator over ``items`` from outside; ``error``, after the text
    ``what``, names ``items`` if it is not iterable."""
    try:
        return iter(items)
    except TypeError:
        raise error(f"{what}, got {_quoted(items)}") from None


def _element_ids(xs: Iterable) -> tuple[int, ...]:
    """:func:`_element_id` of each entry, by one ``map`` of ``operator.index``
    unless it fails; ``xs`` is read once.  :func:`_entries` names an ``xs``
    that is not iterable only after ``tuple`` fails, so the common call
    pays for no iterator; a ``TypeError`` raised while an iterable ``xs``
    is read is the caller's and propagates."""
    try:
        xs = tuple(xs)
    except TypeError:
        _entries(xs, ElementOutOfRange, "element ids must be iterable")
        raise
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
    raise error(f"{what} must be an integer >= {least}, got {_quoted(n)}")


def _cover_rows(n: int, covers: Iterable[tuple[int, int]] | None, rows):
    """Upper cover rows on ``0..n-1`` with int entries, and the cover
    pairs with int ids in their order, from the pairs ``covers``, read by
    :func:`_pairs`, which raises :class:`InvalidLattice`, or, when it is
    ``None``, from ``rows``, which become the pairs they list at once, row
    by row; ``rows`` must be ``n`` rows, or it names the first that is
    not iterable (:func:`_row_fault`).  Every id is converted next, and
    :func:`_element_ids` names the first that is no integer; then one pass
    over the pairs raises :class:`ElementOutOfRange` at the first out of
    range and :class:`Cyclic` at the first self-loop, and otherwise puts
    each pair into its row."""
    if covers is None:
        if not isinstance(rows, Sized) or isinstance(rows, Mapping) or len(rows) != n:
            raise InvalidLattice(
                f"without covers, upper_order must be {_quoted(n)} rows, one per element")
        try:
            pairs = [(a, b) for a, row in enumerate(rows) for b in row]
        except TypeError:
            raise _row_fault(rows, "upper_order") from None
    else:
        pairs = _pairs(covers, InvalidLattice, "covers must be cover pairs")
    ids = _element_ids(_chain.from_iterable(pairs))
    pairs = list(zip(ids[0::2], ids[1::2]))
    succ = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"cover ({_quoted(a)}, {_quoted(b)}) out of range for size {n}")
        if a == b:
            raise Cyclic(f"self-loop at element {a}")
        succ[a].append(b)
    return succ, pairs


def _pairs(items, error: type[Exception], what: str) -> list[tuple]:
    """The pairs ``items`` from outside as 2-tuples; ``error``, after the
    text ``what``, names ``items`` if not iterable (:func:`_entries`) or
    its first non-pair."""
    pairs = []
    for entry in _entries(items, error, what):
        try:
            a, b = entry
        except (TypeError, ValueError):
            raise error(f"{what}, got entry {_quoted(entry)}") from None
        pairs.append((a, b))
    return pairs


def _row_fault(spec, kind: str) -> InvalidLattice:
    """The error for order rows ``spec``, a mapping from elements to rows
    or a sequence of rows, whose reading raised a ``TypeError``: it names
    the first row that is not iterable, or else ``spec`` itself, when it
    is neither a mapping nor iterable."""
    if isinstance(spec, Iterable):
        items = spec.items() if isinstance(spec, Mapping) else enumerate(spec)
        for k, row in items:
            if not isinstance(row, Iterable):
                return InvalidLattice(
                    f"{kind} for element {_quoted(k)} is not a row of ids, got {_quoted(row)}")
    return InvalidLattice(f"{kind} must be a mapping or a sequence of rows, got {_quoted(spec)}")


def _sort(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """The lower cover rows of the upper cover rows ``succ``, ascending.
    Raises :class:`NotReduced` if a cover is given twice."""
    if sum(map(len, map(set, succ))) != sum(map(len, succ)):
        raise NotReduced("duplicate cover pair")
    pred: list[list[int]] = [[] for _ in succ]
    for a, row in enumerate(succ):
        for b in row:
            pred[b].append(a)
    return pred


def _kahn(succ: Sequence[Sequence[int]], pred: Sequence[Sequence[int]]):
    """Kahn's topological order of the cover rows ``succ`` and ``pred``
    with a min-heap tie-break, and its inverse ``new_id``; the order is
    ``None`` and ``new_id`` is ``0..n-1`` when every cover goes up in id.
    Kahn's order is then ``0..n-1``: the smallest unprocessed id always has
    all predecessors processed, so it is on the heap when its turn comes.
    Raises :class:`Cyclic`."""
    n = len(succ)
    if all(max(r) < b for b, r in enumerate(pred) if r):
        return None, range(n)
    indeg = list(map(len, pred))
    heap = [x for x, d in enumerate(indeg) if not d]  # ascending, so a heap
    order = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        x = pop(heap)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if not indeg[y]:
                push(heap, y)
    if len(order) < n:
        raise Cyclic("cover relation contains a directed cycle")
    return order, sorted(range(n), key=order.__getitem__)


def _numbered(upper, lower, order: list[int] | None, new_id: Sequence[int], pairs=()) -> FiniteLattice:
    """The :class:`FiniteLattice` of the cover rows ``upper`` and ``lower``,
    each in planar order, renumbered along ``order`` and ``new_id`` as
    :func:`_kahn` gives them, with their masks closed by :func:`_close`.
    Raises :class:`NotReduced` at the first of ``pairs`` implied by
    transitivity; nothing else is checked."""
    n = len(upper)
    if order is None:
        upper, lower = list(map(tuple, upper)), list(map(tuple, lower))
    else:
        get = new_id.__getitem__
        upper = [tuple(map(get, upper[old])) for old in order]
        lower = [tuple(map(get, lower[old])) for old in order]
    up, down = _close(range(n), upper, lower, pairs, new_id, order or range(n))
    return FiniteLattice(n, up, down, upper, lower)


def _trusted_lattice(upper, lower) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The lattice of cover rows that the library knows to be a lattice's,
    with the renumbering map, as :func:`make_lattice_with_map` builds it
    from the same rows in its row form, with none of its checks.

    ``upper`` and ``lower`` are the upper and lower cover rows of each
    element, in planar order, with int entries, each row of one the
    permutation of what the other gives, no cover repeated or implied by
    transitivity, and the order they generate a lattice.  The callers hold
    such rows by theorem: :mod:`latcon.rectangular` on an eyed grid, an
    eye put into a cell and a gluing, :func:`direct_product` on a product
    of two lattices, and ``ConLattice.as_lattice`` on the down-sets of
    J(Con L)."""
    order, new_id = _kahn(upper, lower)
    return _numbered(upper, lower, order, new_id), tuple(new_id)


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
                f" {_quoted(sorted(name[i] for i in _bits(between)))}"
            )
    return up, down


def _reduce(up: Sequence[int]) -> list[list[int]]:
    """Upper cover rows, each ascending, of the order on ``0..n-1`` whose
    up-sets are the bitmasks ``up``, each ``up[x]`` holding ``x`` and no id
    outside ``0..n-1``.  ``y`` covers ``x`` when it lies strictly above
    ``x`` and strictly above nothing that lies strictly above ``x``.
    """
    above = [m & ~(1 << x) for x, m in enumerate(up)]
    out = []
    for a in above:
        far = 0
        for c in _bits(a):
            far |= above[c]
        out.append(list(_bits(a & ~far)))
    return out


class _Order:
    """Order queries shared by posets and lattices on ``0..n-1``."""

    __slots__ = ("n", "_up", "_down", "_upper", "_lower")

    def leq(self, x: int, y: int) -> bool:
        return bool(self._up[_checked_id(x, self.n)] >> _checked_id(y, self.n) & 1)

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
        if covers is None:
            raise InvalidLattice("poset covers must be cover pairs, got None")
        succ, pairs = _cover_rows(n, covers, None)
        pred = _sort(succ)
        up, down = _close(_kahn(succ, pred)[0] or range(n), succ, pred, pairs, range(n), range(n))
        self.n = n
        self.labels = (
            tuple(_entries(labels, InvalidLattice, "labels must be iterable"))
            if labels is not None else tuple(range(n))
        )
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


def _poset_of_up_sets(up: Sequence[int], labels: Sequence[int] | None = None) -> Poset:
    """The poset on ``0..n-1`` whose up-sets are the masks ``up``, labelled
    ``labels`` (``0..n-1`` without them), with none of :class:`Poset`'s
    checks: the masks must be reflexive and transitive and ``up[x]`` hold
    no id below ``x``.  The cover rows are one :func:`_reduce`, the
    down-sets their closure along ``0..n-1``, a linear extension; every
    field equals that of ``Poset(n, covers, labels)`` on the pairs of
    those rows, whose rows come out ascending as :func:`_reduce` gives
    them."""
    n, upper = len(up), _reduce(up)
    lower = _sort(upper)
    P = object.__new__(Poset)
    P.n, P._up, P._down = n, list(up), _close(range(n), upper, lower, (), range(n), range(n))[1]
    P.labels = tuple(range(n)) if labels is None else tuple(labels)
    P._upper, P._lower = list(map(tuple, upper)), list(map(tuple, lower))
    return P


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
    verdict of :func:`is_distributive`; and ``_birkhoff``, the Birkhoff
    table that ``birkhoff`` builds and checks homomorphisms on (see
    ``birkhoff._table``).
    """

    __slots__ = ("_con", "_ji", "_distributive", "_birkhoff")

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
        self._birkhoff = None  # birkhoff's table, set lazily

    # -- order -------------------------------------------------------------

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.n - 1

    # -- algebra -----------------------------------------------------------

    def meet(self, x: int, y: int) -> int:
        n = self.n
        return (self._down[_checked_id(x, n)] & self._down[_checked_id(y, n)]).bit_length() - 1

    def join(self, x: int, y: int) -> int:
        n = self.n
        m = self._up[_checked_id(x, n)] & self._up[_checked_id(y, n)]
        return (m & -m).bit_length() - 1

    # -- irreducibility ----------------------------------------------------

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
    final ids.  In the row form ``covers`` is ``None`` and ``upper_order``
    is a sequence of one row of upper covers per element, in planar order:
    the covers are the pairs the rows give.  :func:`sublattice`, whose
    element set comes from the caller, and the catalog's ``diamond`` hold
    their rows anyway and use the row form; :mod:`latcon.jsonio`, the
    catalog's other literal constructors and :func:`chain` use the
    cover-pair form.  Rows that are a lattice's by theorem, those of the
    planar constructors, of :func:`direct_product` and of
    ``ConLattice.as_lattice``, go to :func:`_trusted_lattice` instead: the
    same numbering and closure (:func:`_kahn`, :func:`_numbered`) with none
    of the checks.  The rows of the row form become the pairs they list at
    once, and both forms run the same checks, each one pass over its
    input, in this order:

    - the shape: ``covers`` must be iterable and each entry a pair, and
      the row form's rows iterable, or :class:`InvalidLattice` names the
      value or its first bad entry or row;
    - the ids: each converted by :func:`_element_ids`, which names the
      first that is no integer; then one pass over the pairs in input
      order stops at the first out of range (:class:`ElementOutOfRange`)
      or self-loop (:class:`Cyclic`) and puts every other pair into its
      element's upper row;
    - a repeated cover, as a row longer than its set (:class:`NotReduced`);
    - the lower cover rows, derived from the upper ones in one pass over
      the covers; if every cover goes up in id the order is ``0..n-1``,
      else Kahn's with a min-heap tie-break (:class:`Cyclic`);
    - ``upper_order`` and ``lower_order``: a value that is no mapping or
      sequence, or a row that is not iterable, is named
      (:class:`InvalidLattice`, :func:`_row_fault`); each row's ids are
      converted as above, then one pass for the first id out of range
      (:class:`ElementOutOfRange`) and one, in Kahn's order, for the
      first row that is no permutation of its element's covers
      (:class:`InvalidLattice`).  A sequence of rows is read as the
      mapping from each position to its row, so a full sequence and the
      equal mapping give the same lattice.  A fault is held and raised
      after the lattice checks, as it always was; valid rows stand in for
      the computed ones from here on;
    - each row is renumbered once, the masks are closed once, and one mask
      test per row finds a cover implied by transitivity
      (:class:`NotReduced`, naming the first such cover in input order);
    - a unique bottom and top, and the joins below (:class:`NotALattice`).

    Only the joins of two upper covers of a common element are checked, by
    the claim: a finite poset with a least element is a lattice iff any
    two elements covering a common element have a join.  Proof that every
    ``x, y >= w`` have a join, by downward induction on ``w``: if ``x`` or
    ``y`` is ``w`` the join is the other; else take ``w < x1 <= x`` and
    ``w < y1 <= y`` with ``x1`` and ``y1`` covering ``w``.  If ``x1 == y1``
    the induction at ``x1`` gives the join.  Otherwise ``j = x1 \\/ y1``
    exists, then ``x' = x \\/ j`` (induction at ``x1``), then
    ``t = y \\/ x'`` (induction at ``y1``).  Every upper bound of
    ``{x, y}`` lies above ``x1`` and ``y1``, hence above ``j``, ``x'`` and
    ``t``, and ``t`` is one: ``t = x \\/ y``.  At ``w`` the bottom, checked
    unique just before, every join exists.  Meets follow: a finite poset
    with a bottom and all joins is a lattice, the meet being the join of
    the lower bounds.  ``a \\/ b`` exists iff the lowest bit ``c`` of
    ``up[a] & up[b]`` has ``up[c] == up[a] & up[b]``.  The cost is one mask
    test per pair of upper covers of each element, the sum over ``c`` of
    the squared number of upper covers of ``c``; a planar lattice pays
    about one per element.  Only once a pair of covers has no join does the
    scan of :func:`_unjoined` run, to name the pair of :class:`NotALattice`.
    """
    n = _size(size, 1, ZeroSize, "lattice size")
    succ, pairs = _cover_rows(n, covers, upper_order)
    pred = _sort(succ)
    kahn, new_id = _kahn(succ, pred)
    order = kahn or range(n)

    def fixed(spec, kind: str, computed):
        """The rows of one side in the input's ids: ``spec``'s where it fixes
        them, else ``computed``'s, sorted as the final ids will be; and the
        fault of ``spec``, held to be raised after the lattice checks."""
        rows = [sorted(r, key=new_id.__getitem__) for r in computed]
        if spec is None:
            return rows, None
        want = list(map(sorted, computed))
        try:  # a sequence of rows is read as the mapping from each position to its row
            try:
                items = spec.items() if isinstance(spec, Mapping) else enumerate(spec)
                given = {r[0]: r[1:] for r in map(_element_ids, [(k, *r) for k, r in items])}
            except TypeError:
                raise _row_fault(spec, kind) from None
            far = next((e for k, r in given.items() for e in (k, *r) if not 0 <= e < n), None)
            if far is not None:
                raise ElementOutOfRange(
                    f"{kind} names element {_quoted(far)}, out of range for size {n}")
            for k, r in given.items():
                rows[k] = r
            x = next((x for x in order if sorted(rows[x]) != want[x]), None)
            if x is not None:
                raise InvalidLattice(f"{kind} for element {x} is not a permutation of its covers")
        except (ElementOutOfRange, InvalidLattice) as e:
            return computed, e
        return rows, None

    upper, up_fault = (succ, None) if covers is None else fixed(upper_order, "upper_order", succ)
    lower, low_fault = fixed(lower_order, "lower_order", pred)
    lat = _numbered(upper, lower, kahn, new_id, pairs)
    up, down, upper, lower = lat._up, lat._down, lat._upper, lat._lower

    for rows, kind in ((lower, "bottom: minimal"), (upper, "top: maximal")):
        if rows.count(()) != 1:
            ends = [order[x] for x in range(n) if not rows[x]]
            raise NotALattice(f"no unique {kind} elements {_quoted(ends)}")

    for ups in upper:
        if len(ups) > 1:
            for a, b in combinations(ups, 2):
                common = up[a] & up[b]
                if up[(common & -common).bit_length() - 1] != common:
                    raise _unjoined(up, down, lower, order) or PostconditionFailed(
                        "two upper covers have no join, yet every join with a"
                        " join-irreducible exists"
                    )
    if up_fault or low_fault:
        raise up_fault or low_fault
    return lat, tuple(new_id)


def _unjoined(up, down, lower, order) -> NotALattice | None:
    """The error naming the first pair without a join in a scan over each
    join-irreducible ``p`` in id order and each ``x`` incomparable to it in
    id order, or None; ``order[i]`` is the input id of row ``i``.

    None means a lattice, by the claim: a finite poset with a unique bottom
    and top, numbered along a linear extension, is a lattice iff
    ``x \\/ p`` exists for every ``x`` and every join-irreducible ``p``.
    Proof that every ``x \\/ y`` exists, by strong induction on ``y``: ``y``
    is the bottom, or join-irreducible, or has lower covers ``a1 != a2``.
    In the last case ``a1 \\/ a2`` exists by induction; it lies above ``a1``
    and below ``y``, and ``y`` covers ``a1``, so it is ``y``.  So the upper
    bounds of ``{x, y}`` are those of ``{x, a1, a2}``, and
    ``x \\/ y = (x \\/ a1) \\/ a2``, both joins existing by induction.  The
    cost is one mask test per pair ``(x, p)``.
    """
    everything = (1 << len(up)) - 1
    for p, low_p in enumerate(lower):
        if len(low_p) != 1:
            continue
        up_p = up[p]
        for x in _bits(everything & ~(up_p | down[p])):
            common = up[x] & up_p
            if up[(common & -common).bit_length() - 1] != common:
                x, y = sorted((x, p))
                return NotALattice(f"elements {order[x]} and {order[y]} have no least upper bound")
    return None


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
    the A-step first, matching the planar grid convention.  The product of
    two lattices is a lattice, its covers are the steps in one coordinate,
    none repeated or implied, and each step raises the id, so the rows go
    to :func:`_trusted_lattice` and keep their numbering.
    """
    nb = B.n
    cells = [(a, b) for a in range(A.n) for b in range(nb)]
    upper = [[a2 * nb + b for a2 in A._upper[a]] + [a * nb + b2 for b2 in B._upper[b]]
             for a, b in cells]
    lower = [[a * nb + b2 for b2 in B._lower[b]] + [a2 * nb + b for a2 in A._lower[a]]
             for a, b in cells]
    return _trusted_lattice(upper, lower)[0]


def is_distributive(L: FiniteLattice) -> bool:
    """Whether every join-irreducible is join-prime: a finite lattice is
    distributive exactly then (Davey and Priestley, *Introduction to
    Lattices and Order*, 2nd ed., Ch. 5).

    If L is distributive and a join-irreducible ``p <= x \\/ y``, then
    ``p = (p /\\ x) \\/ (p /\\ y)``, so p is one of the two meets: ``p <= x``
    or ``p <= y``.  Conversely, if every join-irreducible is join-prime,
    ``x -> J(x)``, the set of join-irreducibles below ``x``, sends joins to
    unions as well as meets to intersections, and it is one-to-one, as x is
    the join of J(x): L embeds in the lattice of down-sets of J(L), which
    is distributive.  The elements not above a join-irreducible p,
    ``rest``, form a down-set that holds 0, as p is not 0; p is join-prime
    exactly when ``rest`` is closed under joins, that is, when it is the
    principal ideal of its only maximal element, which is its largest id,
    as the ids form a linear extension.  One mask comparison per
    join-irreducible; the verdict is kept on L.
    """
    if L._distributive is None:
        up, down = L._up, L._down
        L._distributive = all(down[(rest := up[0] & ~up[p]).bit_length() - 1] == rest
                              for p in L.ji_elements())
    return L._distributive


def is_semimodular(L: FiniteLattice) -> bool:
    """Upper semimodularity: ``a`` covers ``a /\\ b`` implies ``a \\/ b`` covers ``b``.

    Tested by Birkhoff's condition, which is equivalent in a lattice of
    finite length (G. Gratzer, *Lattice Theory: Foundation*, the section on
    semimodular lattices): whenever ``a != b`` both cover ``c``, ``a \\/ b``
    covers both ``a`` and ``b``.  Costs one join and two look-ups in the
    cover rows of ``a`` and ``b`` per pair of upper covers of each ``c``,
    the sum over ``c`` of the squared number of its upper covers; no
    cover mask is built.
    """
    up, upper = L._up, L._upper
    for ups in upper:
        if len(ups) > 1:
            for a, b in combinations(ups, 2):
                j = up[a] & up[b]
                j = (j & -j).bit_length() - 1
                if j not in upper[a] or j not in upper[b]:
                    return False
    return True


def _hull(L: FiniteLattice, S: Iterable[int]) -> tuple[int, int, int]:
    """The mask of the element set ``S``, the up-set of its meet and the
    down-set of its join.  This is the only reader of an element-set
    argument: ``S`` is read once, :func:`_entries` names it if it is not
    iterable, and each id is converted and range-checked as it is read.
    An empty ``S`` has mask 0, its meet is the top and its join the
    bottom."""
    n, up, down = L.n, L._up, L._down
    mask, above, below = 0, up[0], down[n - 1]  # common upper and lower bounds
    for x in _entries(S, ElementOutOfRange, "element ids must be iterable"):
        x = _checked_id(x, n)
        mask |= 1 << x
        above &= up[x]
        below &= down[x]
    return mask, up[below.bit_length() - 1], down[(above & -above).bit_length() - 1]


def is_convex_sublattice(L: FiniteLattice, S: Iterable[int]) -> bool:
    """Closed under meet, join, and intervals.

    Tested as one interval: a nonempty S is a convex sublattice iff it is
    ``↑(⋀S) ∩ ↓(⋁S)``.  Proof: a sublattice, being finite, holds ``⋀S``
    and ``⋁S``, every member of S lies between them, and convexity puts
    everything between them in S.  Conversely an interval ``[a, b]`` holds
    ``a <= x ∧ y <= x ∨ y <= b`` for ``x, y`` in it, and every element
    between two of its members.  The cost is ``O(|S|)`` mask operations.
    """
    mask, above_meet, below_join = _hull(L, S)
    if not mask:
        raise EmptySet("empty set is not a sublattice")
    return mask == above_meet & below_join


def is_ideal(L: FiniteLattice, S: Iterable[int]) -> bool:
    """A nonempty down-set closed under join (hence a principal ideal):
    exactly the down-set of its join, which holds the join."""
    mask, _, below_join = _hull(L, S)
    return below_join == mask


def is_filter(L: FiniteLattice, S: Iterable[int]) -> bool:
    """A nonempty up-set closed under meet: exactly the up-set of its meet."""
    mask, above_meet, _ = _hull(L, S)
    return above_meet == mask


def sublattice(
    L: FiniteLattice, S: Iterable[int]
) -> tuple[FiniteLattice, tuple[int, ...], dict[int, int]]:
    """Extract the convex sublattice on ``S``, keeping L's planar cover order.

    Returns ``(K, to_parent, to_sub)`` where ``to_parent[i]`` is the L-id of
    K's element ``i`` and ``to_sub`` is its inverse.  K's cover rows are
    :func:`_kept_rows` of the elements in the order ``S`` lists them, a
    repeat counting at its first place, and K is numbered as
    :func:`make_lattice_with_map` numbers those rows: an order that is a
    linear extension, such as ascending L-ids, is kept, and any other is
    renumbered along Kahn's order.  :func:`_carries` tells, without a
    build, whether the result would be a given lattice in the listed order.
    """
    elems = list(dict.fromkeys(_element_ids(S)))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    if not is_convex_sublattice(L, elems):
        raise NotConvexSublattice(f"{_quoted(sorted(elems))} is not a convex sublattice")
    K, renum = make_lattice_with_map(len(elems), None, *_kept_rows(L, elems))
    to_parent = [0] * len(elems)
    for x, i in zip(elems, renum):
        to_parent[i] = x
    return K, tuple(to_parent), {x: i for i, x in enumerate(to_parent)}


def _kept_rows(L: FiniteLattice, elems: Sequence[int]) -> tuple[list[tuple[int, ...]], ...]:
    """L's upper and lower cover rows of the distinct ids ``elems``, each
    kept to ``elems`` and read as positions in it, in L's planar order."""
    pos = {x: i for i, x in enumerate(elems)}
    return tuple([tuple([pos[y] for y in rows[x] if y in pos]) for x in elems]
                 for rows in (L._upper, L._lower))


def _carries(L: FiniteLattice, S: Sequence[int], K: FiniteLattice) -> bool:
    """Does the id list ``S``, ints as :func:`_element_ids` gives them,
    carry ``K``: are its ids distinct and in range, ``len(S) == K.n``, ``S``
    a convex sublattice of L, and :func:`_kept_rows` of ``S`` K's rows?
    Never raises; a bad id gives ``False``.

    This holds exactly when :func:`sublattice` of ``(L, S)`` would return
    ``to_parent == S`` and a lattice equal to K in every stored field.
    Proof: if it holds, ``sublattice`` accepts ``S`` and hands
    :func:`make_lattice_with_map` K's own rows.  K's ids form a linear
    extension, so every cover in them goes up in position: the
    renumbering is the identity and the listed order is kept.  The rows
    passed every check when K was built, so they pass again and are stored
    as given, and the masks, the closure of the rows, are K's.  Conversely,
    ``to_parent == S`` makes ``S`` its own deduplication, so its ids are
    distinct, in range and convex, the renumbering is the identity, and
    the stored rows, K's, are ``_kept_rows`` of ``S``, with ``K.n ==
    len(S)``.
    """
    if len(S) != K.n or len(set(S)) != len(S) or min(S) < 0 or max(S) >= L.n:
        return False
    return is_convex_sublattice(L, S) and _kept_rows(L, S) == (K._upper, K._lower)


def join_irreducibles(L: FiniteLattice) -> Poset:
    """The poset of join-irreducible elements, labeled by their lattice ids.

    Read off L's up-set masks with no re-validation
    (:func:`_poset_of_up_sets`): position ``i`` is the ``i``-th
    join-irreducible in id order, and its mask holds the positions of the
    join-irreducibles in its up-set.  These are L's order kept to J(L), so
    reflexive and transitive, and L's ids form a linear extension, so no
    mask holds a position below its own.  Built once per lattice and kept
    on it; every call returns that object.
    """
    if L._ji is None:
        elems = L.ji_elements()
        pos = {p: i for i, p in enumerate(elems)}
        inside = sum(1 << p for p in elems)
        up = [sum(1 << pos[q] for q in _bits(L._up[p] & inside)) for p in elems]
        L._ji = _poset_of_up_sets(up, elems)
    return L._ji


def _downset_rows(P: Poset, ds: Sequence[int]) -> tuple[list[int], ...]:
    """Upper cover rows, as positions in ``ds`` and each ascending, of the
    inclusion order on ``ds``, a list of all down-sets of P: ``d`` is covered
    by each ``d | 1 << x`` with ``x`` the only element of its down-set outside ``d``."""
    index, down = {m: i for i, m in enumerate(ds)}, P._down
    return tuple(sorted([index[d | 1 << x] for x in range(P.n) if down[x] & ~d == 1 << x])
                 for d in ds)


def _depth_first(n: int, candidates: Callable[[int], Iterable], out: list) -> Iterator[None]:
    """Each filling of ``out[0..n-1]`` in the candidates' lexicographic
    order: ``out[x]`` takes each value, never ``None``, of ``candidates(x)``,
    read once ``out[0..x-1]`` is set.  Yields once per full filling, ``out``
    holding it, and once if ``n == 0``.  The package's one backtracking
    search: one iterator of candidates per filled position on an explicit
    stack, so its depth is bounded by memory, not by the recursion limit."""
    stack: list[Iterator] = []
    while True:
        if len(stack) == n:
            yield
        else:
            stack.append(iter(candidates(len(stack))))
        while stack and (y := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        out[len(stack) - 1] = y


def _downsets(P: Poset) -> Iterator[int]:
    """The down-sets of P as bitmasks, each once.

    :func:`_depth_first` decides membership in id order, out before in,
    ``out[x]`` holding the members among ``0..x``: x may stay out when no
    member lies above it, and join when no element decided out lies below
    it.  Each such choice extends to a down-set, the members' down-closure,
    so the search meets no dead end and needs no linear extension: its work
    is linear in the number of down-sets times ``P.n``.  Each is yielded
    when found, so a count cut at a bound (:func:`_count`) finds no more.
    """
    up, down = P._up, P._down
    out = [0] * P.n

    def choices(x: int) -> Iterator[int]:
        d = out[x - 1] if x else 0
        if not up[x] & d:
            yield d
        if not down[x] & ~d & ((1 << x) - 1):
            yield d | 1 << x

    for _ in _depth_first(P.n, choices, out):
        yield out[-1] if out else 0


def _count(items: Iterable, stop: int) -> int:
    """How many ``items`` there are, counted no further than ``stop``.

    The one cut on an enumeration: a generator is drawn at most ``stop``
    times, so ``_count(items, most + 1) > most`` decides a budget of
    ``most`` in time linear in it, however many items there are.
    """
    return sum(1 for _ in islice(items, stop))


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

    The first filling of :func:`_depth_first` in id order, with
    degree/height refinement; instances here are small, so no fancier
    invariants are needed.  An image ``y`` for
    ``x`` is consistent with the images ``placed`` of ``0..x-1`` when the
    placed elements below ``y`` are the images of the elements below ``x``
    and none lies above ``y``: ids form linear extensions, so every element
    below ``x`` is placed and none above it.  Both are one mask test, and
    the images below ``x`` are those below and at its lower covers.
    """
    sig_a, sig_b = _signatures(A), _signatures(B)
    if sorted(sig_a) != sorted(sig_b):
        return None
    n = A.n
    buckets: dict[tuple, list[int]] = {}
    for y, s in enumerate(sig_b):
        buckets.setdefault(s, []).append(y)

    fwd: list[int] = [-1] * n
    placed = [0] * n  # placed[x]: the mask of the images of 0..x-1
    below = [0] * n  # below[x]: the mask of the images of the elements below x

    def images(x: int) -> Iterator[int]:
        if x:
            placed[x] = placed[x - 1] | 1 << fwd[x - 1]
        done, m = placed[x], 0
        for c in A._lower[x]:
            m |= below[c] | 1 << fwd[c]
        below[x] = m
        for y in buckets.get(sig_a[x], ()):
            if B._down[y] & done == m and not B._up[y] & done:
                yield y

    return next((fwd for _ in _depth_first(n, images, fwd)), None)


def are_isomorphic(A: FiniteLattice, B: FiniteLattice) -> bool:
    return find_isomorphism(A, B) is not None
