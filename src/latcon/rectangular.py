"""Planar rectangular lattices: boundaries, corners, eyes, cells, gluing.

A rectangular lattice is semimodular and planar, with a unique doubly
irreducible element on each of its two boundary walks (the corners ``lc``
and ``rc``), and the corners are complements.  The four boundary chains are
the down- and up-sets of the corners.  Interior doubly irreducible elements
are called eyes.

The two assembly operations are ``glue`` (identify a filter of one lattice
with an ideal of another) and ``triple_glue`` (a fixed arrangement of four
rectangular pieces sharing boundary chains).  Each builds its result in
one pass from the pieces' cover rows, with no intermediate lattices: an
element takes its row of lower covers, in planar order, from the lowest
piece holding it and its row of upper covers from the highest.

The constructors build what is a lattice by theorem: a grid, a grid with
eyes in its 4-cells, an eye put into a cell, and a Hall–Dilworth gluing of
a filter to an isomorphic ideal (G. Grätzer and E. Knapp, Acta Sci. Math.
(Szeged) 75, 2009; G. Czédli, Algebra Universalis 67, 2012).  So each
hands its rows to one call of ``core._trusted_lattice``, which numbers and
closes them as ``core.make_lattice_with_map`` does in its row form, with
none of the checks meant for outside input; no cover list or order
mapping is built.  Each states its result's corners and eyes, proved in
its docstring; :func:`make_rectangular` checks only lattices from outside.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import core
from .core import FiniteLattice
from .errors import (
    AmbiguousCorner,
    BoundaryMismatch,
    BoundaryNotChain,
    CornersNotComplementary,
    IndexOutOfRange,
    LatconError,
    NoCorner,
    NotACell,
    NotAFilter,
    NotAnIdeal,
    NotIsomorphic,
    NotSemimodular,
    PostconditionFailed,
    SizeTooSmall,
)


class RectLattice:
    """A rectangular lattice: its ``lattice``, its corners ``lc`` and ``rc``
    and its ``eyes``, ascending.

    Nothing here is checked: :func:`make_rectangular` checks a lattice from
    outside, and the constructors of this module build theirs by theorem.
    The four boundary chains are read off the corners: ``lower_left`` and
    ``upper_left`` are the down- and up-set of ``lc``, ``lower_right`` and
    ``upper_right`` those of ``rc``.  Each is listed by ascending id, which
    is bottom-up as ids form a linear extension.  ``bl``, ``tl``, ``br``,
    ``tr`` are the element counts of the four chains.
    """

    __slots__ = ("lattice", "lc", "rc", "eyes", "_bce")

    def __init__(self, lattice, lc, rc, eyes):
        self.lattice = lattice
        self.lc = lc
        self.rc = rc
        self.eyes = eyes
        self._bce = None  # boundary-color-extension cache, set lazily

    @property
    def n(self) -> int:
        return self.lattice.n

    lower_left = property(lambda self: core._bits(self.lattice._down[self.lc]))
    upper_left = property(lambda self: core._bits(self.lattice._up[self.lc]))
    lower_right = property(lambda self: core._bits(self.lattice._down[self.rc]))
    upper_right = property(lambda self: core._bits(self.lattice._up[self.rc]))
    bl = property(lambda self: self.lattice._down[self.lc].bit_count())
    tl = property(lambda self: self.lattice._up[self.lc].bit_count())
    br = property(lambda self: self.lattice._down[self.rc].bit_count())
    tr = property(lambda self: self.lattice._up[self.rc].bit_count())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectLattice):
            return NotImplemented
        return (self.lattice == other.lattice and self.lc == other.lc
                and self.rc == other.rc)

    def __hash__(self) -> int:
        return hash((self.lattice, self.lc, self.rc))

    def __repr__(self) -> str:
        return (f"RectLattice(n={self.n}, lc={self.lc}, rc={self.rc}, "
                f"chains=({self.bl},{self.tl},{self.br},{self.tr}), "
                f"eyes={list(self.eyes)})")


class Cell(NamedTuple):
    """A height-2 interval whose interior is an antichain of covers.

    ``left`` and ``right`` are the outermost interior elements in planar
    order; ``middles`` are the eyes between them.
    """

    bottom: int
    top: int
    left: int
    right: int
    middles: tuple[int, ...] = ()


def _boundary_walk(L: FiniteLattice, last: bool) -> list[int]:
    x = L.bottom
    out = [x]
    while x != L.top:
        ups = L._upper[x]
        x = ups[-1] if last else ups[0]
        out.append(x)
    return out


def make_rectangular(L: FiniteLattice) -> RectLattice:
    """Validate a planar-ordered lattice from outside as rectangular.

    The boundary walks follow the first (left) or last (right) upper cover
    from bottom to top; each walk must carry exactly one doubly irreducible
    element strictly inside it (the corner), the corners must be distinct
    complements, and the corner down-/up-sets must be exactly the walk
    segments (hence chains).  The eyes are the doubly irreducible elements
    off both walks.  Each walk element costs one mask test, and an error
    text names at most ten candidates (:func:`core._quoted`).
    """
    if not core.is_semimodular(L):
        raise NotSemimodular("lattice is not semimodular")

    doubly = sum(1 << x for x in range(L.n) if len(L._lower[x]) == 1 == len(L._upper[x]))
    corners = []
    walks = []
    for side, last in (("left", False), ("right", True)):
        walk = _boundary_walk(L, last)
        cand = [x for x in walk[1:-1] if doubly >> x & 1]
        if not cand:
            raise NoCorner(f"no doubly irreducible element on the {side} boundary walk")
        if len(cand) > 1:
            raise AmbiguousCorner(f"multiple doubly irreducible elements"
                                  f" {core._quoted(cand)} on the {side} boundary walk")
        corners.append(cand[0])
        walks.append(walk)
    lc, rc = corners
    if lc == rc:
        raise NoCorner("the two boundary walks share their corner candidate")
    if L.meet(lc, rc) != L.bottom or L.join(lc, rc) != L.top:
        raise CornersNotComplementary(
            f"corners {lc} and {rc} are not complementary"
        )

    on_walks = 0
    for corner, walk, side in ((lc, walks[0], "left"), (rc, walks[1], "right")):
        i = walk.index(corner)
        if L._down[corner].bit_count() != i + 1:
            raise BoundaryNotChain(
                f"elements below the {side} corner do not form its walk segment"
            )
        if L._up[corner].bit_count() != len(walk) - i:
            raise BoundaryNotChain(
                f"elements above the {side} corner do not form its walk segment"
            )
        on_walks |= sum(1 << x for x in walk)
    return RectLattice(L, lc, rc, core._bits(doubly & ~on_walks))


def grid_with_eyes(
    m: int, n: int, eye_cells: Iterable[tuple[int, int]]
) -> tuple[RectLattice, dict[tuple[int, int], int]]:
    """C_m x C_n with one extra doubly irreducible element per listed cell.

    Returns the rectangular lattice and the map from cell coordinates
    (row, column) to the eye's element id.  Cell (i, k) sits above grid
    point (i, k); eyes are placed between the cell's left and right sides
    in planar order.  A cell that is not a pair raises :class:`LatconError`,
    a coordinate that is no integer :class:`ElementOutOfRange`.

    Grid point (a, b) has temporary id ``a*n + b`` and the eyes follow.
    The result is rectangular with the corners of the grid, read off the
    coordinates with no :func:`make_rectangular`: ``lc`` is (m-1, 0) and
    ``rc`` is (0, n-1), the only grid points with one lower and one upper
    cover.  An eye covers the bottom of its cell and is covered by its top, which
    keeps the order a lattice (a new element ``e`` of a height-2 interval
    ``[b, t]`` joins to ``e`` what lies below ``b`` and to ``t \\/ x`` any
    other ``x``, and dually), keeps it semimodular (``e`` and another upper
    cover of ``b`` join to ``t``, which covers both), and changes no
    boundary walk, as it sits strictly between the cell's sides in planar
    order, and no corner, which is no cell's bottom or top.  So the eyes
    are the doubly irreducible elements off the boundary.
    """
    m = core._size(m, 2, SizeTooSmall, "grid side")
    n = core._size(n, 2, SizeTooSmall, "grid side")

    upper: list[Sequence[int]] = []  # cover rows in planar order
    lower: list[Sequence[int]] = []
    for a in range(m):
        for b in range(n):
            x = a * n + b
            upper.append(([x + n] if a + 1 < m else []) + ([x + 1] if b + 1 < n else []))
            lower.append(([x - 1] if b else []) + ([x - n] if a else []))

    temp_eye: dict[tuple[int, int], int] = {}
    for cell in core._entries(eye_cells, LatconError, "eye cells must be iterable"):
        try:
            i, k = cell
        except (TypeError, ValueError):
            raise LatconError(
                f"eye cell {core._quoted(cell)} is not a (row, column) pair") from None
        i, k = core._element_id(i), core._element_id(k)
        if not (0 <= i <= m - 2 and 0 <= k <= n - 2):
            raise IndexOutOfRange(
                f"cell ({core._quoted(i)}, {core._quoted(k)}) outside the {m}x{n} grid")
        if (i, k) in temp_eye:
            raise LatconError(f"cell ({i}, {k}) listed twice")
        bot = i * n + k  # the cell's left side is bot + n, its top bot + n + 1
        temp_eye[(i, k)] = _add_eye(upper, lower, bot, bot + n + 1, bot + n)

    lat, renum = core._trusted_lattice(upper, lower)
    eye_of = {cell: renum[e] for cell, e in temp_eye.items()}
    R = RectLattice(lat, renum[(m - 1) * n], renum[n - 1], tuple(sorted(eye_of.values())))
    return R, eye_of


def grid(m: int, n: int) -> RectLattice:
    """The grid C_m x C_n; chain sizes bl = tr = m and br = tl = n."""
    return grid_with_eyes(m, n, [])[0]


def cells(R: RectLattice) -> list[Cell]:
    """All cells of R, ordered by (bottom, top).

    The cells above ``b`` are the intervals ``[b, u \\/ v]`` for distinct
    upper covers ``u``, ``v`` of ``b``, and a cell's inner elements are the
    upper covers of ``b`` below its top.  Proof: R is semimodular, so
    ``u \\/ v`` covers ``u`` and ``v``, and by Jordan-Dedekind every maximal
    chain of ``[b, u \\/ v]`` has length 2: each inner element covers ``b``.
    Conversely a cell's top covers any two of its inner elements, so it is
    their join.
    """
    L = R.lattice
    up, down = L._up, L._down
    eye_set = set(R.eyes)
    out = []
    for b, ups in enumerate(L._upper):
        joins = {up[u] & up[v] for u, v in combinations(ups, 2)}
        for t in sorted((j & -j).bit_length() - 1 for j in joins):
            ordered = [u for u in ups if down[t] >> u & 1]
            middles = tuple(ordered[1:-1])
            if not eye_set.issuperset(middles):
                raise PostconditionFailed(f"a middle of the cell ({b}, {t}) is not an eye")
            out.append(Cell(b, t, ordered[0], ordered[-1], middles))
    return out


def _add_eye(upper: list, lower: list, bottom: int, top: int, anchor: int) -> int:
    """Append an eye to the cover rows ``upper`` and ``lower`` as the next
    id, and return it: it covers ``bottom``, is covered by ``top``, and sits
    right after ``anchor`` in both their rows."""
    e = len(upper)
    for rows, x in ((upper, bottom), (lower, top)):
        row = rows[x]
        i = row.index(anchor) + 1
        rows[x] = (*row[:i], e, *row[i:])
    upper.append((top,))
    lower.append((bottom,))
    return e


def insert_eye(R: RectLattice, cell: Cell) -> RectLattice:
    """Add one eye to a cell of R.

    The new element goes immediately right of the leftmost existing middle
    (or of the left side when the cell has none), keeping output
    deterministic.

    The result is rectangular with R's corners, renumbered, and its eyes
    are R's and the new one; no :func:`make_rectangular` runs.  The new
    element ``e`` is doubly irreducible, so it is no meet or join of two
    others and theirs stay as they were.  R is planar and semimodular, so
    every upper cover of the cell's bottom lies in the cell (three with
    distinct pairwise joins would generate the cube, which is not planar):
    ``e`` and any of them join to the top, which covers both, so the result
    is semimodular.  Only the bottom and the top gain a cover, and each
    already had two on that side, the left and the right, so no other
    element becomes doubly irreducible.  ``e`` sits strictly between the
    left and the right in both rows, so the first and last upper covers,
    hence the boundary walks and their corners, stay, and ``e`` is off both
    walks.  The top has two lower covers and the bottom two upper ones,
    where an element of a corner's down-set, respectively up-set, a chain,
    has one; so the top is below no corner and the bottom above none, and
    the corners' chains, which ``e`` could join only through them, stay.
    """
    # a Cell equals the plain tuple of its fields, which is no cell
    if not (isinstance(cell, Cell) and cell in cells(R)):
        raise NotACell(f"{core._quoted(cell)} is not a cell of this lattice")
    upper, lower = list(R.lattice._upper), list(R.lattice._lower)
    eye = _add_eye(upper, lower, cell.bottom, cell.top,
                   cell.middles[0] if cell.middles else cell.left)
    lat, renum = core._trusted_lattice(upper, lower)
    return RectLattice(lat, renum[R.lc], renum[R.rc],
                       tuple(sorted(renum[e] for e in (*R.eyes, eye))))


class GluedLattice(NamedTuple):
    """Result of identifying a filter of one lattice with an ideal of another.

    ``a_map``/``b_map`` send the piece elements to result elements; the
    lower piece is an ideal and the upper piece a filter of the result.
    ``iso`` records the identified (filter-element, ideal-element) pairs.
    """

    lattice: FiniteLattice
    a_lattice: FiniteLattice
    b_lattice: FiniteLattice
    a_map: tuple[int, ...]
    b_map: tuple[int, ...]
    shared: tuple[int, ...]
    iso: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        return (f"GluedLattice(n={self.lattice.n}, lower={self.a_lattice.n}, "
                f"upper={self.b_lattice.n}, shared={len(self.shared)})")


def _place(size: int, ties: Mapping[int, int], start: int) -> tuple[tuple[int, ...], int]:
    """A piece's ids in the result, and the next free id: tied elements take
    their tie, the others count up from ``start`` in ascending order."""
    fresh = count(start)
    return tuple(ties[u] if u in ties else next(fresh) for u in range(size)), next(fresh)


def _assemble(n: int, pieces: Sequence[tuple[FiniteLattice, Sequence[int]]]) -> FiniteLattice:
    """The lattice on ``0..n-1`` covered as the pieces are, under their maps.

    ``pieces`` lists ``(lattice, id_map)`` bottom-up.  An element takes its
    row of lower covers, in planar order, from the lowest piece holding it
    and its row of upper covers from the highest: two pieces overlap in a
    filter of the lower and an ideal of the upper, which hold every lower,
    respectively upper, cover of a shared element, so the rows give every
    cover of the result.  The maps must number the result along a linear
    extension, so that the build keeps every id.

    The result is a lattice by Hall and Dilworth's gluing: ``glue`` checks
    that it identifies a filter of the lower piece with an isomorphic
    ideal of the upper one.  ``triple_glue`` checks the chain lengths of
    three such gluings: B + Lf along the filter ``B.upper_left`` and the
    ideal ``Lf.lower_right``, Rf + T along ``Rf.upper_left`` and
    ``T.lower_right``, and then the first on the second along
    ``↑B.rc``, the chain ``B.upper_right`` + ``Lf.upper_right``, and
    ``↓T.lc``, the chain ``Rf.lower_left`` + ``T.lower_left``.  So the rows
    go to ``core._trusted_lattice``.
    """
    upper: list[tuple[int, ...] | None] = [None] * n
    lower: list[tuple[int, ...] | None] = [None] * n
    for P, emap in pieces:
        get = emap.__getitem__
        for x, t in enumerate(emap):
            upper[t] = tuple(map(get, P._upper[x]))
            if lower[t] is None:
                lower[t] = tuple(map(get, P._lower[x]))
    lat, renum = core._trusted_lattice(upper, lower)
    if renum != tuple(range(n)):
        raise PostconditionFailed("the pieces' numbering is not a linear extension of the result")
    return lat


def glue(
    A: FiniteLattice,
    B: FiniteLattice,
    iso: Mapping[int, int] | Iterable[tuple[int, int]],
) -> GluedLattice:
    """Glue B on top of A along an isomorphism filter-of-A -> ideal-of-B.

    ``iso`` maps filter elements to ideal elements, as a mapping or as
    pairs; a non-integral id raises :class:`ElementOutOfRange`.  A keeps its
    element ids; the rest of B is appended in ascending order.  Shared
    elements read their lower covers from A and their upper covers from B.
    """
    eid = core._element_id
    pairs = iso.items() if isinstance(iso, Mapping) else core._pairs(
        iso, LatconError, "iso must be a mapping or id pairs")
    pairs = sorted((eid(x), eid(y)) for x, y in pairs)
    F = [p[0] for p in pairs]
    I = [p[1] for p in pairs]
    if len(set(F)) != len(F) or len(set(I)) != len(I):
        raise NotIsomorphic("identification is not a bijection")
    if not core.is_filter(A, F):
        raise NotAFilter(f"{core._quoted(F)} is not a filter of the lower lattice")
    if not core.is_ideal(B, I):
        raise NotAnIdeal(f"{core._quoted(I)} is not an ideal of the upper lattice")
    back = {b: a for a, b in pairs}
    i_mask = sum(1 << y for y in I)
    for x, y in pairs:
        above = 0  # the members of F whose images lie above y; F is a filter
        for z in core._bits(B._up[y] & i_mask):
            above |= 1 << back[z]
        wrong = A._up[x] ^ above
        if wrong:
            z = (wrong & -wrong).bit_length() - 1
            raise NotIsomorphic(f"identification does not preserve order at ({x}, {z})")

    a_map = tuple(range(A.n))
    b_map, n = _place(B.n, back, A.n)
    lat = _assemble(n, [(A, a_map), (B, b_map)])
    return GluedLattice(lat, A, B, a_map, b_map, tuple(F), tuple(pairs))


class TripleGluingAssembly(NamedTuple):
    """Bookkeeping for a triple gluing: the pieces, the center ``c`` and
    the maps of the pieces into the result."""

    top: RectLattice
    bottom: RectLattice
    left: RectLattice
    right: RectLattice
    c: int
    result: RectLattice
    t_map: tuple[int, ...]
    b_map: tuple[int, ...]
    lf_map: tuple[int, ...]
    rf_map: tuple[int, ...]

    def __repr__(self) -> str:
        return (f"TripleGluingAssembly(n={self.result.n}, c={self.c}, "
                f"pieces=({self.top.n},{self.left.n},{self.right.n},{self.bottom.n}))")


def triple_glue(
    T: RectLattice, Lf: RectLattice, Rf: RectLattice, B: RectLattice
) -> tuple[RectLattice, TripleGluingAssembly]:
    """Glue four rectangular pieces: bottom, left and right flaps, top.

    The flaps share their lower-right/upper-right chains with the bottom's
    upper chains and their remaining chains with the top's lower chains;
    all four identified chains meet in the single element c = 1 of the
    bottom = 0 of the top.  The bottom is the ideal below c and the top the
    filter above c in the result.

    The result is built in one pass: B keeps its ids, then come the new
    elements of the left flap, the right flap and the top, each ascending
    (the numbering of gluing B + Lf and Rf + T, then the second on the first).

    Its corners are ``lf_map[Lf.lc]`` and ``rf_map[Rf.rc]`` and its eyes
    the four pieces' eyes under the maps; no :func:`make_rectangular` runs.
    In a rectangular piece, an element of an upper chain other than the
    corner has two lower covers: the top covers one element of each upper
    chain, and any other has one upper cover and is no corner, so it is not
    doubly irreducible.  Dually each element of a lower chain other than
    the corner has two upper covers.  Each tie identifies an upper chain of
    a lower piece with a lower chain of an upper piece, bottom to bottom.
    A shared element ``x`` takes its lower covers from its lowest piece P,
    where it is on an upper chain, and its upper covers from its highest.
    If ``x`` is not P's corner, it has two lower covers.  If it is, it is
    the bottom of a piece Q above, on no upper chain of Q, so Q is its
    highest piece and gives it two upper covers.  So no shared element is
    doubly irreducible, and every other element keeps its piece's covers:
    the doubly irreducible elements are the pieces' eyes, which lie on no
    chain, and the two corners on no tied chain, ``Lf.lc`` and ``Rf.rc``.
    The left boundary walk runs up B's to ``B.lc``, the left flap's bottom,
    and on up the left flap's, so it holds ``Lf.lc``; dually the right walk
    holds ``Rf.rc``.  So these are the corners, and the eyes are the rest.
    """
    for name, got, want in (
        ("upper-right of left flap vs lower-left of top", Lf.tr, T.bl),
        ("lower-right of left flap vs upper-left of bottom", Lf.br, B.tl),
        ("upper-left of right flap vs lower-right of top", Rf.tl, T.br),
        ("lower-left of right flap vs upper-right of bottom", Rf.bl, B.tr),
    ):
        if got != want:
            raise BoundaryMismatch(f"{name}: chain sizes {got} != {want}")

    b_map = tuple(range(B.n))
    lf_map, n = _place(Lf.n, dict(zip(Lf.lower_right, B.upper_left)), B.n)
    rf_map, n = _place(Rf.n, dict(zip(Rf.lower_left, B.upper_right)), n)
    t_ties = {t: lf_map[u] for t, u in zip(T.lower_left, Lf.upper_right)}
    t_ties.update((t, rf_map[u]) for t, u in zip(T.lower_right, Rf.upper_left))
    t_map, n = _place(T.n, t_ties, n)

    L = _assemble(n, [(B.lattice, b_map), (Lf.lattice, lf_map),
                      (Rf.lattice, rf_map), (T.lattice, t_map)])
    c = b_map[B.lattice.top]
    if not (core.is_ideal(L, b_map) and core.is_filter(L, t_map)):
        raise PostconditionFailed(
            "the bottom is not the ideal below c or the top not the filter above c"
        )
    eyes = sorted(emap[e] for P, emap in ((B, b_map), (Lf, lf_map), (Rf, rf_map), (T, t_map))
                  for e in P.eyes)
    R = RectLattice(L, lf_map[Lf.lc], rf_map[Rf.rc], tuple(eyes))
    return R, TripleGluingAssembly(T, B, Lf, Rf, c, R, t_map, b_map, lf_map, rf_map)
