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
piece holding it and its row of upper covers from the highest.  Like every
planar constructor here, they hand these rows to one call of
``core.make_lattice_with_map`` in its row form, where the covers are the
pairs the rows give; no cover list or order mapping is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Mapping, Sequence

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
    """A validated rectangular lattice with its boundary data.

    ``lower_left``/``upper_left`` run 0..lc..1 and ``lower_right``/
    ``upper_right`` run 0..rc..1, all bottom-up.  ``bl``, ``tl``, ``br``,
    ``tr`` are the element counts of the four chains.
    """

    __slots__ = ("lattice", "lc", "rc", "lower_left", "upper_left",
                 "lower_right", "upper_right", "eyes", "_bce")

    def __init__(self, lattice, lc, rc, lower_left, upper_left,
                 lower_right, upper_right, eyes):
        self.lattice = lattice
        self.lc = lc
        self.rc = rc
        self.lower_left = lower_left
        self.upper_left = upper_left
        self.lower_right = lower_right
        self.upper_right = upper_right
        self.eyes = eyes
        self._bce = None  # boundary-color-extension cache, set lazily

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def bl(self) -> int:
        return len(self.lower_left)

    @property
    def tl(self) -> int:
        return len(self.upper_left)

    @property
    def br(self) -> int:
        return len(self.lower_right)

    @property
    def tr(self) -> int:
        return len(self.upper_right)

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


@dataclass(frozen=True)
class Cell:
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
    """Validate a planar-ordered lattice as rectangular.

    The boundary walks follow the first (left) or last (right) upper cover
    from bottom to top; each walk must carry exactly one doubly irreducible
    element strictly inside it (the corner), the corners must be distinct
    complements, and the corner down-/up-sets must be exactly the walk
    segments (hence chains).
    """
    if not core.is_semimodular(L):
        raise NotSemimodular("lattice is not semimodular")

    doubly = [x for x in range(L.n) if len(L._lower[x]) == 1 == len(L._upper[x])]
    corners = []
    walks = []
    for side, last in (("left", False), ("right", True)):
        walk = _boundary_walk(L, last)
        cand = [x for x in walk[1:-1] if x in doubly]
        if not cand:
            raise NoCorner(f"no doubly irreducible element on the {side} boundary walk")
        if len(cand) > 1:
            raise AmbiguousCorner(
                f"multiple doubly irreducible elements {cand} on the {side} boundary walk"
            )
        corners.append(cand[0])
        walks.append(walk)
    lc, rc = corners
    if lc == rc:
        raise NoCorner("the two boundary walks share their corner candidate")
    if L.meet(lc, rc) != L.bottom or L.join(lc, rc) != L.top:
        raise CornersNotComplementary(
            f"corners {lc} and {rc} are not complementary"
        )

    chains = []
    for corner, walk, side in ((lc, walks[0], "left"), (rc, walks[1], "right")):
        i = walk.index(corner)
        low, high = walk[: i + 1], walk[i:]
        if L.down_mask(corner).bit_count() != len(low):
            raise BoundaryNotChain(
                f"elements below the {side} corner do not form its walk segment"
            )
        if L.up_mask(corner).bit_count() != len(high):
            raise BoundaryNotChain(
                f"elements above the {side} corner do not form its walk segment"
            )
        chains.append((tuple(low), tuple(high)))
    (ll, ul), (lr, ur) = chains

    on_boundary = set(walks[0]) | set(walks[1])
    eyes = tuple(x for x in doubly if x not in on_boundary)
    return RectLattice(L, lc, rc, ll, ul, lr, ur, eyes)


def grid_with_eyes(
    m: int, n: int, eye_cells: Iterable[tuple[int, int]]
) -> tuple[RectLattice, dict[tuple[int, int], int]]:
    """C_m x C_n with one extra doubly irreducible element per listed cell.

    Returns the rectangular lattice and the map from cell coordinates
    (row, column) to the eye's element id.  Cell (i, k) sits above grid
    point (i, k); eyes are placed between the cell's left and right sides
    in planar order.  A cell that is not a pair raises :class:`LatconError`,
    a coordinate that is no integer :class:`ElementOutOfRange`.
    """
    m = core._size(m, 2, SizeTooSmall, "grid side")
    n = core._size(n, 2, SizeTooSmall, "grid side")

    upper: list[list[int]] = []  # cover rows in planar order
    lower: list[list[int]] = []
    for a in range(m):
        for b in range(n):
            x = a * n + b
            upper.append(([x + n] if a + 1 < m else []) + ([x + 1] if b + 1 < n else []))
            lower.append(([x - 1] if b else []) + ([x - n] if a else []))

    nn = m * n
    temp_eye: dict[tuple[int, int], int] = {}
    for cell in eye_cells:
        try:
            i, k = cell
        except (TypeError, ValueError):
            raise LatconError(f"eye cell {cell!r} is not a (row, column) pair") from None
        i, k = core._element_id(i), core._element_id(k)
        if not (0 <= i <= m - 2 and 0 <= k <= n - 2):
            raise IndexOutOfRange(f"cell ({i}, {k}) outside the {m}x{n} grid")
        if (i, k) in temp_eye:
            raise LatconError(f"cell ({i}, {k}) listed twice")
        e = nn
        nn += 1
        bot, left, top = i * n + k, (i + 1) * n + k, (i + 1) * n + k + 1
        for row in (upper[bot], lower[top]):
            row.insert(row.index(left) + 1, e)
        upper.append([top])
        lower.append([bot])
        temp_eye[(i, k)] = e

    lat, renum = core.make_lattice_with_map(nn, None, upper, lower)
    R = make_rectangular(lat)
    eye_of = {cell: renum[e] for cell, e in temp_eye.items()}
    if set(eye_of.values()) != set(R.eyes):
        raise PostconditionFailed("the inserted eyes are not the eyes of the grid")
    return R, eye_of


def grid(m: int, n: int) -> RectLattice:
    """The grid C_m x C_n; chain sizes bl = tr = m and br = tl = n."""
    return grid_with_eyes(m, n, [])[0]


def cells(R: RectLattice) -> list[Cell]:
    """All cells of R, ordered by (bottom, top)."""
    L = R.lattice
    up, down, upper = L._up, L._down, L._upper
    eye_set = set(R.eyes)
    out = []
    for b in range(L.n):
        ups = upper[b]
        if len(ups) < 2:
            continue
        for t in core._bits(up[b]):
            if t == b or t in ups:
                continue
            inter = up[b] & down[t] & ~(1 << b) & ~(1 << t)
            if inter.bit_count() < 2:
                continue
            mids = core._bits(inter)
            if all(x in ups and t in upper[x] for x in mids):
                mid_set = set(mids)
                ordered = [u for u in ups if u in mid_set]
                middles = tuple(ordered[1:-1])
                if not set(middles) <= eye_set:
                    raise PostconditionFailed(f"a middle of the cell ({b}, {t}) is not an eye")
                out.append(Cell(b, t, ordered[0], ordered[-1], middles))
    out.sort(key=lambda c: (c.bottom, c.top))
    return out


def insert_eye(R: RectLattice, cell: Cell) -> RectLattice:
    """Add one eye to a cell of R.

    The new element goes immediately right of the leftmost existing middle
    (or of the left side when the cell has none), keeping output
    deterministic.
    """
    if cell not in cells(R):
        raise NotACell(f"{cell} is not a cell of this lattice")
    L = R.lattice
    e = L.n
    upper = L._upper + [(cell.top,)]
    lower = L._lower + [(cell.bottom,)]
    anchor = cell.middles[0] if cell.middles else cell.left
    for rows, x in ((upper, cell.bottom), (lower, cell.top)):
        i = rows[x].index(anchor) + 1
        rows[x] = rows[x][:i] + (e,) + rows[x][i:]
    lat, _ = core.make_lattice_with_map(e + 1, None, upper, lower)
    return make_rectangular(lat)


class GluedLattice:
    """Result of identifying a filter of one lattice with an ideal of another.

    ``a_map``/``b_map`` send the piece elements to result elements; the
    lower piece is an ideal and the upper piece a filter of the result.
    ``iso`` records the identified (filter-element, ideal-element) pairs.
    """

    __slots__ = ("lattice", "a_lattice", "b_lattice", "a_map", "b_map",
                 "shared", "iso")

    def __init__(self, lattice, a_lattice, b_lattice, a_map, b_map, shared, iso):
        self.lattice = lattice
        self.a_lattice = a_lattice
        self.b_lattice = b_lattice
        self.a_map = a_map
        self.b_map = b_map
        self.shared = shared
        self.iso = iso

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
    """
    upper: list[tuple[int, ...] | None] = [None] * n
    lower: list[tuple[int, ...] | None] = [None] * n
    for P, emap in pieces:
        get = emap.__getitem__
        for x, t in enumerate(emap):
            upper[t] = tuple(map(get, P._upper[x]))
            if lower[t] is None:
                lower[t] = tuple(map(get, P._lower[x]))
    lat, renum = core.make_lattice_with_map(n, None, upper, lower)
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
    pairs = sorted((eid(x), eid(y)) for x, y in (iso.items() if isinstance(iso, Mapping) else iso))
    F = [p[0] for p in pairs]
    I = [p[1] for p in pairs]
    if len(set(F)) != len(F) or len(set(I)) != len(I):
        raise NotIsomorphic("identification is not a bijection")
    if not core.is_filter(A, F):
        raise NotAFilter(f"{F} is not a filter of the lower lattice")
    if not core.is_ideal(B, I):
        raise NotAnIdeal(f"{I} is not an ideal of the upper lattice")
    fwd = dict(pairs)
    for x in F:
        for y in F:
            if A.leq(x, y) != B.leq(fwd[x], fwd[y]):
                raise NotIsomorphic(
                    f"identification does not preserve order at ({x}, {y})"
                )

    a_map = tuple(range(A.n))
    b_map, n = _place(B.n, {b: a for a, b in pairs}, A.n)
    lat = _assemble(n, [(A, a_map), (B, b_map)])
    return GluedLattice(lat, A, B, a_map, b_map, tuple(F), tuple(pairs))


class TripleGluingAssembly:
    """Bookkeeping for a triple gluing: the pieces, the center ``c`` and
    the maps of the pieces into the result."""

    __slots__ = ("top", "bottom", "left", "right", "c", "result",
                 "t_map", "b_map", "lf_map", "rf_map")

    def __init__(self, top, bottom, left, right, c, result,
                 t_map, b_map, lf_map, rf_map):
        self.top = top
        self.bottom = bottom
        self.left = left
        self.right = right
        self.c = c
        self.result = result
        self.t_map = t_map
        self.b_map = b_map
        self.lf_map = lf_map
        self.rf_map = rf_map

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
    R = make_rectangular(L)
    if (R.lc, R.rc) != (lf_map[Lf.lc], rf_map[Rf.rc]):
        raise PostconditionFailed("the corners of the result are not those of the flaps")

    return R, TripleGluingAssembly(T, B, Lf, Rf, c, R, t_map, b_map, lf_map, rf_map)
