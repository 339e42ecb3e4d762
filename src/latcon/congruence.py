"""Congruences of finite lattices.

A congruence is stored as a canonical partition: blocks sorted internally
and ordered by least member, plus the element->block-index table ``cls``.
The table doubles as a canonical key — two congruences on the same lattice
are equal iff their ``cls`` tuples are.

The congruence lattice is generated the classical way: the principal
congruences of cover pairs ("edge colors") are exactly the join-irreducible
congruences, and every congruence is the join of a down-set of them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import core
from .core import FiniteLattice, Poset
from .errors import (
    ElementOutOfRange,
    LatconError,
    NotACongruence,
    NotAnIdeal,
    NotAPartition,
)


def _check_partition(n: int, blocks: Iterable[Iterable[int]]) -> list[list[int]]:
    out = []
    seen = set()
    for b in blocks:
        b = [int(x) for x in b]
        if not b:
            raise NotAPartition("empty block")
        for x in b:
            if not 0 <= x < n:
                raise NotAPartition(f"element {x} out of range for size {n}")
            if x in seen:
                raise NotAPartition(f"element {x} appears in two blocks")
            seen.add(x)
        out.append(sorted(b))
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise NotAPartition(f"elements {missing} missing from the partition")
    return out


def _canonical(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    bl = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    cls = [0] * n
    for i, b in enumerate(bl):
        for x in b:
            cls[x] = i
    return tuple(bl), tuple(cls)


def _find(parent: list[int], u: int) -> int:
    """Root of ``u`` in a union-find forest, halving the path on the way."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _classes(L: FiniteLattice, parent: list[int]) -> "Congruence":
    """The partition of L into the trees of a union-find forest."""
    groups: dict[int, list[int]] = {}
    for x in range(L.n):
        groups.setdefault(_find(parent, x), []).append(x)
    return Congruence(L, groups.values())


def _join_blocks(L: FiniteLattice, blocks: Iterable[Sequence[int]]) -> "Congruence":
    """The finest partition of L that keeps each given block inside one class."""
    parent = list(range(L.n))
    for blk in blocks:
        r = _find(parent, blk[0])
        for x in blk[1:]:
            rx = _find(parent, x)
            if rx != r:
                parent[rx] = r
    return _classes(L, parent)


def _broken_pair(
    L: FiniteLattice,
    blocks: Sequence[Sequence[int]],
    ops: Sequence[list[list[int]]],
    zs: Sequence[int],
) -> tuple[int, int, int] | None:
    """First ``(a, y, z)`` that breaks substitution, or None.

    ``a`` is the first member of a block holding ``y``, ``z`` runs over
    ``zs`` and the images of ``a`` and ``y`` under ``op(., z)`` lie in
    different blocks for one of the operation tables ``ops``.  Elements in
    no block count as singletons.
    """
    cls = [-1 - x for x in range(L.n)]
    for i, b in enumerate(blocks):
        for x in b:
            cls[x] = i
    for b in blocks:
        a = b[0]
        for y in b[1:]:
            for op in ops:
                oa, oy = op[a], op[y]
                for z in zs:
                    if cls[oa[z]] != cls[oy[z]]:
                        return a, y, z
    return None


class Congruence:
    """A congruence of a finite lattice, in canonical partition form.

    Instances are produced by the library (principal closure, joins);
    :func:`congruence_from_blocks` is the validating entry point for
    external data.
    """

    __slots__ = ("lattice", "blocks", "cls")

    def __init__(self, lattice: FiniteLattice, blocks: Iterable[Iterable[int]]):
        self.lattice = lattice
        self.blocks, self.cls = _canonical(lattice.n, blocks)

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def is_equality(self) -> bool:
        return len(self.blocks) == self.lattice.n

    @property
    def is_all(self) -> bool:
        return len(self.blocks) == 1

    def collapses(self, x: int, y: int) -> bool:
        return self.cls[x] == self.cls[y]

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.cls[x]]

    def refines(self, other: "Congruence") -> bool:
        """self <= other in the congruence order."""
        ocls = other.cls
        for b in self.blocks:
            c = ocls[b[0]]
            for x in b[1:]:
                if ocls[x] != c:
                    return False
        return True

    def join(self, other: "Congruence") -> "Congruence":
        return _join_blocks(self.lattice, self.blocks + other.blocks)

    def meet(self, other: "Congruence") -> "Congruence":
        n = self.lattice.n
        groups: dict[tuple[int, int], list[int]] = {}
        for x in range(n):
            groups.setdefault((self.cls[x], other.cls[x]), []).append(x)
        return Congruence(self.lattice, groups.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.lattice == other.lattice and self.cls == other.cls

    def __hash__(self) -> int:
        return hash((self.lattice.n, self.cls))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Congruence({inner})"


def delta(L: FiniteLattice) -> Congruence:
    return Congruence(L, [[x] for x in range(L.n)])


def is_congruence(L: FiniteLattice, blocks: Iterable[Iterable[int]]) -> bool:
    """Full substitution property: both meet and join sides."""
    bl = _check_partition(L.n, blocks)
    return _broken_pair(L, bl, (L._meet, L._join), range(L.n)) is None


def is_meet_congruence(L: FiniteLattice, blocks: Iterable[Iterable[int]]) -> bool:
    """Meet-side substitution only."""
    bl = _check_partition(L.n, blocks)
    return _broken_pair(L, bl, (L._meet,), range(L.n)) is None


def generated_congruence(L: FiniteLattice, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence collapsing every given pair.

    Worklist closure: whenever two classes merge through a pair (x, y), the
    pairs (x ∧ z, y ∧ z) and (x ∨ z, y ∨ z) are enqueued for every z.
    Union-find with path halving keeps the merging near-linear.
    """
    n = L.n
    meet, join = L._meet, L._join
    parent = list(range(n))
    work: list[tuple[int, int]] = []

    def unite(x: int, y: int) -> None:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[ry] = rx
            work.append((x, y))

    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"pair ({a}, {b}) out of range for size {n}")
        unite(a, b)
    while work:
        x, y = work.pop()
        mx, my = meet[x], meet[y]
        jx, jy = join[x], join[y]
        for z in range(n):
            unite(mx[z], my[z])
            unite(jx[z], jy[z])
    return _classes(L, parent)


def principal_congruence(L: FiniteLattice, a: int, b: int) -> Congruence:
    """con(a, b): the smallest congruence collapsing {a, b}."""
    return generated_congruence(L, [(a, b)])


def congruence_from_blocks(L: FiniteLattice, blocks: Iterable[Iterable[int]]) -> Congruence:
    bl = _check_partition(L.n, blocks)
    if not is_congruence(L, bl):
        raise NotACongruence("partition violates the substitution property")
    return Congruence(L, bl)


class ConLattice:
    """The congruence lattice of a finite lattice.

    ``congruences`` is the full list in a canonical order (block count
    descending, then canonical block key), which is a linear extension of
    the refinement order: index 0 is the equality congruence, the last index
    collapses everything.  ``ji`` is the poset of join-irreducible
    congruences, labeled by their indices; ``edge_color`` maps every cover
    edge of the base lattice to the index of its principal congruence.
    """

    __slots__ = ("lattice", "congruences", "ji", "edge_color", "_index", "_lattice_view")

    def __init__(
        self,
        lattice: FiniteLattice,
        congruences: Sequence[Congruence],
        ji: Poset,
        edge_color: dict[tuple[int, int], int],
    ):
        self.lattice = lattice
        self.congruences = tuple(congruences)
        self.ji = ji
        self.edge_color = edge_color
        self._index = {c.cls: i for i, c in enumerate(self.congruences)}
        self._lattice_view = None

    def __len__(self) -> int:
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    @property
    def ji_indices(self) -> tuple[int, ...]:
        return self.ji.labels

    def index_of(self, c: Congruence) -> int:
        try:
            return self._index[c.cls]
        except KeyError:
            raise LatconError(f"{c!r} is not a congruence of this lattice") from None

    def index_of_key(self, cls: tuple[int, ...]) -> int | None:
        return self._index.get(tuple(cls))

    def leq(self, i: int, j: int) -> bool:
        return self.congruences[i].refines(self.congruences[j])

    def atoms(self) -> tuple[int, ...]:
        """Indices of the congruences covering equality: the minimal join-irreducibles."""
        return tuple(
            lbl
            for pos, lbl in enumerate(self.ji.labels)
            if not self.ji.lower_covers(pos)
        )

    def as_lattice(self) -> FiniteLattice:
        """Con L as a FiniteLattice; element i is ``congruences[i]``."""
        if self._lattice_view is None:
            k = len(self.congruences)
            # ids are a linear extension, so only i <= j can hold
            up = [sum(1 << j for j in range(i, k) if self.leq(i, j)) for i in range(k)]
            lat, renum = core.make_lattice_with_map(k, core._reduce(range(k), up))
            assert renum == tuple(range(k)), "canonical congruence order is a linear extension"
            self._lattice_view = lat
        return self._lattice_view


def congruence_lattice(L: FiniteLattice) -> ConLattice:
    """All congruences of L, its join-irreducible poset, and the edge coloring.

    Computed once per lattice instance and cached.
    """
    if L._con is not None:
        return L._con

    edge_theta: dict[tuple[int, int], Congruence] = {}
    ji_list: list[Congruence] = []
    ji_keys: dict[tuple[int, ...], int] = {}
    for p, q in L.covers():
        theta = principal_congruence(L, p, q)
        edge_theta[(p, q)] = theta
        if theta.cls not in ji_keys:
            ji_keys[theta.cls] = len(ji_list)
            ji_list.append(theta)

    j = len(ji_list)
    # refinement order among the join-irreducible congruences
    ji_leq = [[ji_list[a].refines(ji_list[b]) for b in range(j)] for a in range(j)]

    all_keys: dict[tuple[int, ...], Congruence] = {}
    base = delta(L)
    all_keys[base.cls] = base
    for mask in range(1, 1 << j):
        # joins of down-sets only; other subsets repeat them
        members = [a for a in range(j) if mask >> a & 1]
        is_down = all(
            mask >> b & 1 for a in members for b in range(j) if ji_leq[b][a]
        )
        if not is_down:
            continue
        c = _join_blocks(L, (blk for a in members for blk in ji_list[a].blocks))
        if c.cls in all_keys:
            raise AssertionError("distinct down-sets of join-irreducibles must have distinct joins")
        all_keys[c.cls] = c

    ordered = sorted(all_keys.values(), key=lambda c: (-c.nblocks, c.blocks))
    index = {c.cls: i for i, c in enumerate(ordered)}

    ji_canon = sorted(index[c.cls] for c in ji_list)
    up = {a: sum(1 << b for b in ji_canon if ordered[a].refines(ordered[b])) for a in ji_canon}
    ji_poset = Poset(j, core._reduce(ji_canon, up), labels=ji_canon)

    edge_color = {e: index[theta.cls] for e, theta in edge_theta.items()}
    con = ConLattice(L, ordered, ji_poset, edge_color)
    L._con = con
    return con


def _restricted_key(alpha: Congruence, elems: Sequence[int]) -> tuple[int, ...]:
    """Restriction of alpha to ``elems`` as a normalized class table."""
    seen: dict[int, int] = {}
    out = []
    for x in elems:
        c = alpha.cls[x]
        out.append(seen.setdefault(c, len(seen)))
    return tuple(out)


def is_cp_extension(L: FiniteLattice, K: Iterable[int]) -> bool:
    """Is restriction Con L -> Con K a bijection?  K must be a convex sublattice."""
    sub, to_parent, _ = core.sublattice(L, K)
    con_l = congruence_lattice(L)
    con_k = congruence_lattice(sub)
    seen = {_restricted_key(a, to_parent) for a in con_l.congruences}
    if len(seen) != len(con_l.congruences):
        return False
    return seen == {c.cls for c in con_k.congruences}


def singleton_extension(
    L: FiniteLattice, I: Iterable[int], alpha_blocks: Iterable[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Extend a congruence of an ideal by singleton classes outside it.

    ``alpha_blocks`` partitions the ideal in L's ids and must be at least a
    meet-congruence of the ideal.  The result is a plain partition of L —
    always a meet-congruence, and a full congruence exactly when the
    hypothesis about untouched upper chains holds; callers decide which
    check to run.
    """
    ideal = sorted(set(int(x) for x in I))
    if not core.is_ideal(L, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    iset = set(ideal)
    bl = []
    seen: set[int] = set()
    for b in alpha_blocks:
        b = sorted(int(x) for x in b)
        if not b:
            raise NotAPartition("empty block")
        for x in b:
            if x not in iset:
                raise NotAPartition(f"element {x} is not in the ideal")
            if x in seen:
                raise NotAPartition(f"element {x} appears in two blocks")
            seen.add(x)
        bl.append(b)
    if seen != iset:
        raise NotAPartition("blocks do not cover the ideal")
    # meet-substitution inside the ideal is the weakest sensible input;
    # callers needing a full congruence check the extension themselves
    bad = _broken_pair(L, bl, (L._meet,), ideal)
    if bad is not None:
        a, y, z = bad
        raise NotACongruence(
            f"blocks are not a meet-congruence of the ideal: ({a},{y}) with z={z}"
        )
    out = [tuple(b) for b in bl] + [(x,) for x in range(L.n) if x not in iset]
    return tuple(sorted(out, key=lambda b: b[0]))


def is_simple(L: FiniteLattice) -> bool:
    return len(congruence_lattice(L)) == 2
