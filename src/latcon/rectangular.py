"""Planar rectangular lattices: boundaries, corners, eyes, cells, gluing.

A rectangular lattice is semimodular and planar, with a unique doubly
irreducible element on each of its two boundary walks (the corners ``lc``
and ``rc``), and the corners are complements.  The four boundary chains are
the down- and up-sets of the corners.  Interior doubly irreducible elements
are called eyes.

The two assembly operations are ``glue`` (identify a filter of one lattice
with an ideal of another) and ``triple_glue`` (a fixed arrangement of four
rectangular pieces sharing boundary chains), together with the congruence
assembly results for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import congruence as cg
from . import core
from .core import FiniteLattice
from .errors import (
    AmbiguousCorner,
    BoundaryMismatch,
    BoundaryNotChain,
    CornersNotComplementary,
    Incompatible,
    IndexOutOfRange,
    LatconError,
    NoCorner,
    NotACell,
    NotAFilter,
    NotAnIdeal,
    NotIsomorphic,
    NotSemimodular,
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

    def boundary(self) -> frozenset:
        return frozenset(self.lower_left + self.upper_left
                         + self.lower_right + self.upper_right)

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
        ups = L.upper_covers(x)
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

    corners = []
    walks = []
    for side, last in (("left", False), ("right", True)):
        walk = _boundary_walk(L, last)
        cand = [x for x in walk[1:-1] if L.is_doubly_irreducible(x)]
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
    eyes = tuple(
        x for x in range(L.n)
        if x not in on_boundary and L.is_doubly_irreducible(x)
    )
    return RectLattice(L, lc, rc, ll, ul, lr, ur, eyes)


def grid_with_eyes(
    m: int, n: int, eye_cells: Iterable[tuple[int, int]]
) -> tuple[RectLattice, dict[tuple[int, int], int]]:
    """C_m x C_n with one extra doubly irreducible element per listed cell.

    Returns the rectangular lattice and the map from cell coordinates
    (row, column) to the eye's element id.  Cell (i, k) sits above grid
    point (i, k); eyes are placed between the cell's left and right sides
    in planar order.
    """
    if m < 2 or n < 2:
        raise SizeTooSmall(f"grid needs both sides >= 2, got {m}x{n}")

    def gid(a: int, b: int) -> int:
        return a * n + b

    covers = []
    upper: dict[int, list[int]] = {}
    lower: dict[int, list[int]] = {}
    for a in range(m):
        for b in range(n):
            x = gid(a, b)
            ups = []
            if a + 1 < m:
                ups.append(gid(a + 1, b))
            if b + 1 < n:
                ups.append(gid(a, b + 1))
            lows = []
            if b - 1 >= 0:
                lows.append(gid(a, b - 1))
            if a - 1 >= 0:
                lows.append(gid(a - 1, b))
            upper[x] = ups
            lower[x] = lows
            covers.extend((x, u) for u in ups)

    nn = m * n
    temp_eye: dict[tuple[int, int], int] = {}
    for i, k in eye_cells:
        if not (0 <= i <= m - 2 and 0 <= k <= n - 2):
            raise IndexOutOfRange(f"cell ({i}, {k}) outside the {m}x{n} grid")
        if (i, k) in temp_eye:
            raise LatconError(f"cell ({i}, {k}) listed twice")
        e = nn
        nn += 1
        bot, top = gid(i, k), gid(i + 1, k + 1)
        left, right = gid(i + 1, k), gid(i, k + 1)
        for lst in (upper[bot], lower[top]):
            lst.insert(lst.index(left) + 1, e)
        covers.append((bot, e))
        covers.append((e, top))
        upper[e] = [top]
        lower[e] = [bot]
        temp_eye[(i, k)] = e

    lat, renum = core.make_lattice_with_map(nn, covers, upper, lower)
    R = make_rectangular(lat)
    eye_of = {cell: renum[e] for cell, e in temp_eye.items()}
    assert set(eye_of.values()) == set(R.eyes)
    return R, eye_of


def grid(m: int, n: int) -> RectLattice:
    """The grid C_m x C_n; chain sizes bl = tr = m and br = tl = n."""
    return grid_with_eyes(m, n, [])[0]


def cells(R: RectLattice) -> list[Cell]:
    """All cells of R, ordered by (bottom, top)."""
    L = R.lattice
    eye_set = set(R.eyes)
    out = []
    for b in range(L.n):
        if len(L.upper_covers(b)) < 2:
            continue
        for t in L.up(b):
            if t == b or L.is_cover(b, t):
                continue
            inter = L.up_mask(b) & L.down_mask(t) & ~(1 << b) & ~(1 << t)
            if inter.bit_count() < 2:
                continue
            mids = core._bits(inter)
            if all(L.is_cover(b, x) and L.is_cover(x, t) for x in mids):
                mid_set = set(mids)
                ordered = [u for u in L.upper_covers(b) if u in mid_set]
                middles = tuple(ordered[1:-1])
                assert set(middles) <= eye_set
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
    n = L.n
    e = n
    covers = list(L.covers()) + [(cell.bottom, e), (e, cell.top)]
    upper = {x: list(L.upper_covers(x)) for x in range(n)}
    lower = {x: list(L.lower_covers(x)) for x in range(n)}
    anchor = cell.middles[0] if cell.middles else cell.left
    upper[cell.bottom].insert(upper[cell.bottom].index(anchor) + 1, e)
    lower[cell.top].insert(lower[cell.top].index(anchor) + 1, e)
    upper[e] = [cell.top]
    lower[e] = [cell.bottom]
    lat, _ = core.make_lattice_with_map(n + 1, covers, upper, lower)
    return make_rectangular(lat)


def dual(R: RectLattice) -> RectLattice:
    """The order dual, planar layout rotated half a turn."""
    L = R.lattice
    n = L.n
    covers = [(v, u) for (u, v) in L.covers()]
    upper = {x: list(reversed(L.lower_covers(x))) for x in range(n)}
    lower = {x: list(reversed(L.upper_covers(x))) for x in range(n)}
    lat, _ = core.make_lattice_with_map(n, covers, upper, lower)
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


def glue(
    A: FiniteLattice,
    B: FiniteLattice,
    iso: Mapping[int, int] | Iterable[tuple[int, int]],
) -> GluedLattice:
    """Glue B on top of A along an isomorphism filter-of-A -> ideal-of-B.

    A keeps its element ids; the rest of B is appended in ascending order.
    Planar cover lists merge so that shared elements read their lower
    covers from A and their upper covers from B.
    """
    pairs = sorted(iso.items()) if isinstance(iso, Mapping) else sorted(
        (int(x), int(y)) for x, y in iso
    )
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

    nA = A.n
    inv = {b: a for a, b in pairs}
    b2t = {}
    nxt = nA
    for u in range(B.n):
        if u in inv:
            b2t[u] = inv[u]
        else:
            b2t[u] = nxt
            nxt += 1

    covers = list(A.covers())
    seen = set(covers)
    for u, v in B.covers():
        e = (b2t[u], b2t[v])
        if e not in seen:
            seen.add(e)
            covers.append(e)

    fset = set(F)
    upper: dict[int, list[int]] = {}
    lower: dict[int, list[int]] = {}
    for x in range(nA):
        lower[x] = list(A.lower_covers(x))
        if x in fset:
            upper[x] = [b2t[u] for u in B.upper_covers(fwd[x])]
        else:
            upper[x] = list(A.upper_covers(x))
    for u in range(B.n):
        if u not in inv:
            t = b2t[u]
            upper[t] = [b2t[v] for v in B.upper_covers(u)]
            lower[t] = [b2t[v] for v in B.lower_covers(u)]

    lat, renum = core.make_lattice_with_map(nxt, covers, upper, lower)
    assert renum == tuple(range(nxt)), "glued numbering is already canonical"
    return GluedLattice(
        lat, A, B,
        tuple(range(nA)),
        tuple(b2t[u] for u in range(B.n)),
        tuple(sorted(F)),
        tuple(pairs),
    )


def glue_congruence_pair(
    glued: GluedLattice, alpha_a: cg.Congruence, alpha_b: cg.Congruence
) -> cg.Congruence:
    """The unique common extension of congruences of the two glued pieces.

    Requires the restrictions to the shared part to agree; the extension is
    the transitive closure of the union, validated as a congruence.
    """
    if alpha_a.lattice != glued.a_lattice:
        raise LatconError("first congruence does not live on the lower piece")
    if alpha_b.lattice != glued.b_lattice:
        raise LatconError("second congruence does not live on the upper piece")
    F = [p[0] for p in glued.iso]
    I = [p[1] for p in glued.iso]
    if cg._restricted_key(alpha_a, F) != cg._restricted_key(alpha_b, I):
        raise Incompatible("restrictions to the shared part differ")

    result = cg._join_blocks(glued.lattice, (
        [emap[x] for x in blk]
        for blocks, emap in ((alpha_a.blocks, glued.a_map), (alpha_b.blocks, glued.b_map))
        for blk in blocks
    ))
    assert cg.is_congruence(glued.lattice, result.blocks), \
        "joint extension of compatible congruences must be a congruence"
    return result


class TripleGluingAssembly:
    """Bookkeeping for a triple gluing: pieces, maps, stages, facing chains.

    ``facing`` lists, per facing boundary, the two piece-local chains in
    matching bottom-up order; ``stage_x`` (bottom+left), ``stage_w``
    (right+top) and ``stage_v`` (final) are the pairwise gluings that
    assemble the result.
    """

    __slots__ = ("top", "bottom", "left", "right", "c", "result",
                 "t_map", "b_map", "lf_map", "rf_map",
                 "stage_x", "stage_w", "stage_v", "facing")

    def __init__(self, top, bottom, left, right, c, result,
                 t_map, b_map, lf_map, rf_map, stage_x, stage_w, stage_v, facing):
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
        self.stage_x = stage_x
        self.stage_w = stage_w
        self.stage_v = stage_v
        self.facing = facing

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
    """
    for name, got, want in (
        ("upper-right of left flap vs lower-left of top", Lf.tr, T.bl),
        ("lower-right of left flap vs upper-left of bottom", Lf.br, B.tl),
        ("upper-left of right flap vs lower-right of top", Rf.tl, T.br),
        ("lower-left of right flap vs upper-right of bottom", Rf.bl, B.tr),
    ):
        if got != want:
            raise BoundaryMismatch(f"{name}: chain sizes {got} != {want}")

    stage_x = glue(B.lattice, Lf.lattice, dict(zip(B.upper_left, Lf.lower_right)))
    stage_w = glue(Rf.lattice, T.lattice, dict(zip(Rf.upper_left, T.lower_right)))

    x_chain = [stage_x.a_map[u] for u in B.upper_right] + [
        stage_x.b_map[u] for u in Lf.upper_right[1:]
    ]
    w_chain = [stage_w.a_map[u] for u in Rf.lower_left] + [
        stage_w.b_map[u] for u in T.lower_left[1:]
    ]
    stage_v = glue(stage_x.lattice, stage_w.lattice, dict(zip(x_chain, w_chain)))

    b_map = tuple(stage_v.a_map[stage_x.a_map[u]] for u in range(B.n))
    lf_map = tuple(stage_v.a_map[stage_x.b_map[u]] for u in range(Lf.n))
    rf_map = tuple(stage_v.b_map[stage_w.a_map[u]] for u in range(Rf.n))
    t_map = tuple(stage_v.b_map[stage_w.b_map[u]] for u in range(T.n))

    R = make_rectangular(stage_v.lattice)
    c = t_map[T.lattice.bottom]

    assert R.n == T.n + B.n + Lf.n + Rf.n - T.bl - T.br - B.tl - B.tr + 1
    assert R.lc == lf_map[Lf.lc] and R.rc == rf_map[Rf.rc]
    assert b_map[B.lattice.bottom] == R.lattice.bottom
    assert t_map[T.lattice.top] == R.lattice.top
    assert c == lf_map[Lf.rc] == rf_map[Rf.lc] == b_map[B.lattice.top]
    assert core.is_ideal(R.lattice, list(b_map))
    assert core.is_filter(R.lattice, list(t_map))

    facing = {
        "top/left-flap": (tuple(T.lower_left), tuple(Lf.upper_right)),
        "top/right-flap": (tuple(T.lower_right), tuple(Rf.upper_left)),
        "bottom/left-flap": (tuple(B.upper_left), tuple(Lf.lower_right)),
        "bottom/right-flap": (tuple(B.upper_right), tuple(Rf.lower_left)),
    }
    asm = TripleGluingAssembly(
        T, B, Lf, Rf, c, R,
        t_map, b_map, lf_map, rf_map, stage_x, stage_w, stage_v, facing,
    )
    return R, asm


def triple_glue_congruence(
    asm: TripleGluingAssembly,
    alpha_t: cg.Congruence,
    alpha_lf: cg.Congruence,
    alpha_rf: cg.Congruence,
    alpha_b: cg.Congruence,
) -> cg.Congruence:
    """The unique congruence of a triple gluing with the given restrictions.

    The four facing-boundary agreements are checked first (collapse of
    matching cover pairs along the shared chains); the extension is then
    assembled through the three stage gluings.
    """
    for alpha, piece, role in (
        (alpha_t, asm.top, "top"),
        (alpha_lf, asm.left, "left flap"),
        (alpha_rf, asm.right, "right flap"),
        (alpha_b, asm.bottom, "bottom"),
    ):
        if alpha.lattice != piece.lattice:
            raise LatconError(f"congruence does not live on the {role} piece")

    checks = (
        ("top/left-flap", alpha_t, alpha_lf),
        ("top/right-flap", alpha_t, alpha_rf),
        ("bottom/left-flap", alpha_b, alpha_lf),
        ("bottom/right-flap", alpha_b, alpha_rf),
    )
    for name, a1, a2 in checks:
        ch1, ch2 = asm.facing[name]
        v1 = [a1.collapses(ch1[i], ch1[i + 1]) for i in range(len(ch1) - 1)]
        v2 = [a2.collapses(ch2[i], ch2[i + 1]) for i in range(len(ch2) - 1)]
        if v1 != v2:
            raise Incompatible(f"facing boundary {name}: restrictions differ")

    alpha_x = glue_congruence_pair(asm.stage_x, alpha_b, alpha_lf)
    alpha_w = glue_congruence_pair(asm.stage_w, alpha_rf, alpha_t)
    return glue_congruence_pair(asm.stage_v, alpha_x, alpha_w)
