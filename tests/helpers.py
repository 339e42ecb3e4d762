"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles — partitions are
enumerated as restricted growth strings and filtered by the substitution
property, homomorphisms by checking every map, meets and joins by scanning
``leq`` (:func:`brute_tables`) — so the library's own closure algorithms
are never in the loop.  The exceptions are previous versions of
library code, kept to test the current ones against:
:func:`reference_congruence_lattice`, the subset-scan construction of Con L;
:func:`reference_upper_chain_collapse_check`, the collapse check on the full
list of congruences; :func:`reference_theta_check`, the postcondition of
Con L scanned cover by cover for every join-irreducible congruence;
:func:`reference_tied_colors`, the restriction-based
color matching of the representation pipelines; :func:`reference_colors`,
each cover's color by its principal closure;
:func:`reference_make_bounded_hom`, the per-pair validation of bounded
homs; :func:`reference_isotone_check` and
:func:`reference_is_order_embedding`, the scans of every pair of an
isotone map; :func:`reference_hom_of_isotone`, each image as a join over
the join-irreducibles below it; :func:`brute_pullbacks`, each pull-back
tested element by element; :func:`reference_find_isomorphism`, the
recursive isomorphism search; :func:`reference_generated_congruence`, the
closure over every column of the operation tables;
:func:`reference_make_lattice`, the lattice check over every pair that
filled n-by-n meet and join tables;
:func:`reference_induced_copy`, the verifier's own rebuild of an embedded
copy from the ambient covers;
:func:`brute_is_semimodular`, the scan of every pair against the
definition; :func:`brute_heights`, longest chains relaxed over every
strict pair of the masks; :func:`reference_cells`, the cell scan through
the checked ``is_cover``; :func:`reference_is_convex_sublattice`, closure under meet,
join and intervals tested pair by pair; and
:func:`reference_triple_glue` with :func:`reference_triple_glue_congruence`,
the triple gluing built and extended through three pairwise gluings
(:func:`reference_glue_pair`, each checked by :func:`respects`).
"""

from __future__ import annotations

import functools
import heapq
from itertools import product
from types import SimpleNamespace

from latcon import birkhoff as bk, congruence as cg, construction as cn, core
from latcon import jsonio as jio
from latcon import rectangular as rl
from latcon.errors import (
    ElementOutOfRange,
    EmbeddingInvalid,
    EmptySet,
    LatconError,
    NotBounded,
    NotALattice,
    NotDistributive,
    NotHomomorphic,
    NotIsotone,
    PostconditionFailed,
)


class IntLike:
    """An element id of a non-int integer type: it has ``__index__`` but
    neither subclasses nor hashes equal to ``int``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def set_partitions(n):
    """All partitions of range(n), as tuples of sorted tuples.

    Enumerated via restricted growth strings: position i may use any block
    index up to one past the maximum seen so far.
    """
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def walk(i, top):
        if i == n:
            nblocks = top + 1
            blocks = [[] for _ in range(nblocks)]
            for x, b in enumerate(rgs):
                blocks[b].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from walk(i + 1, max(top, b))

    yield from walk(1, 0)


def blocks_key(blocks):
    """Order-free canonical form of a block family."""
    return frozenset(frozenset(b) for b in blocks)


def reference_canonical(n, blocks):
    """Canonical partition form by sorting: blocks sorted internally and
    ordered by least member, and the element -> block-index table."""
    bl = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    cls = [0] * n
    for i, b in enumerate(bl):
        for x in b:
            cls[x] = i
    return tuple(bl), tuple(cls)


def brute_join(n, a_blocks, b_blocks):
    """Partition join: the classes of the transitive closure (Warshall) of
    the union of both equivalence relations."""
    r = [[False] * n for _ in range(n)]
    for blocks in (a_blocks, b_blocks):
        for blk in blocks:
            for x in blk:
                for y in blk:
                    r[x][y] = True
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                r[i] = [u or v for u, v in zip(r[i], r[k])]
    return {frozenset(y for y in range(n) if r[x][y]) for x in range(n)}


def brute_meet(a_blocks, b_blocks):
    """Partition meet: the nonempty intersections of a block of each."""
    cuts = (set(a) & set(b) for a in a_blocks for b in b_blocks)
    return [c for c in cuts if c]


def brute_restriction(con_l, emb, con_k):
    """Restriction Con L -> Con K by block sets: each block of an L
    congruence cut down to the copy ``emb`` of K, in K's ids, matched
    against K's congruences by block set."""
    pos = {x: i for i, x in enumerate(emb)}
    keys = [blocks_key(c.blocks) for c in con_k]
    out = []
    for alpha in con_l:
        cut = ([pos[x] for x in b if x in pos] for b in alpha.blocks)
        out.append(keys.index(blocks_key(c for c in cut if c)))
    return out


def _class_table(n, blocks):
    cls = [0] * n
    for i, b in enumerate(blocks):
        for x in b:
            cls[x] = i
    return cls


def delta(L):
    """The equality congruence of L."""
    return cg.Congruence(L, range(L.n))


def _find(parent, u):
    """Root of ``u`` in a union-find forest, halving the path on the way."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _forest_classes(L, parent):
    """The partition of L into the trees of a union-find forest."""
    return cg.Congruence(L, [_find(parent, x) for x in range(L.n)])


def _join_blocks(L, blocks):
    """The finest partition of L keeping each given block in one class."""
    parent = list(range(L.n))
    for blk in blocks:
        r = _find(parent, blk[0])
        for x in blk[1:]:
            rx = _find(parent, x)
            if rx != r:
                parent[rx] = r
    return _forest_classes(L, parent)


def refines(a, b):
    """Is every class of congruence ``a`` inside one class of ``b``?"""
    return all(b.cls[x] == b.cls[blk[0]] for blk in a.blocks for x in blk)


def respects(L, blocks, op):
    """Substitution property of one operation for a partition of L."""
    cls = _class_table(L.n, blocks)
    for a in range(L.n):
        for y in range(a + 1, L.n):
            if cls[a] != cls[y]:
                continue
            for z in range(L.n):
                if cls[op(a, z)] != cls[op(y, z)]:
                    return False
    return True


def brute_congruences(L):
    """Every congruence of L, by filtering all partitions. Keys only."""
    return {
        blocks_key(p)
        for p in set_partitions(L.n)
        if respects(L, p, L.meet) and respects(L, p, L.join)
    }


def brute_meet_congruences(L):
    """Partitions with the substitution property for meet alone."""
    return {blocks_key(p) for p in set_partitions(L.n) if respects(L, p, L.meet)}


def is_hom(D, E, f):
    for x in range(D.n):
        for y in range(D.n):
            if f[D.meet(x, y)] != E.meet(f[x], f[y]):
                return False
            if f[D.join(x, y)] != E.join(f[x], f[y]):
                return False
    return True


def reference_make_lattice(size, covers):
    """The meet and join tables of a valid cover relation, in its own ids,
    by the pair loop that :func:`latcon.core.make_lattice_with_map` ran
    before it checked joins on the join-irreducibles alone.

    Renumbers along Kahn's order with a min-heap tie-break, closes the
    order into masks, then tests every pair for a least upper and a
    greatest lower bound, raising :class:`NotALattice` with the texts of
    that loop.  The covers must be in range, acyclic and reduced.
    """
    succ = [[] for _ in range(size)]
    indeg = [0] * size
    for a, b in covers:
        succ[a].append(b)
        indeg[b] += 1
    heap = [x for x in range(size) if indeg[x] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    n = size
    new_id = {old: pos for pos, old in enumerate(order)}
    up = [1 << x for x in range(n)]
    down = [1 << x for x in range(n)]
    for x in reversed(range(n)):
        for b in succ[order[x]]:
            up[x] |= up[new_id[b]]
    for x in range(n):
        for b in succ[order[x]]:
            down[new_id[b]] |= down[x]
    bottoms = [order[x] for x in range(n) if down[x] == 1 << x]
    tops = [order[x] for x in range(n) if up[x] == 1 << x]
    if len(bottoms) != 1:
        raise NotALattice(f"no unique bottom: minimal elements {bottoms}")
    if len(tops) != 1:
        raise NotALattice(f"no unique top: maximal elements {tops}")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        join[x][x] = meet[x][x] = x
        for y in range(x + 1, n):
            common = up[x] & up[y]
            c = (common & -common).bit_length() - 1
            if up[c] != common:
                raise NotALattice(f"elements {order[x]} and {order[y]} have no least upper bound")
            join[x][y] = join[y][x] = c
            common = down[x] & down[y]
            c = common.bit_length() - 1
            if down[c] != common:
                raise NotALattice(
                    f"elements {order[x]} and {order[y]} have no greatest lower bound"
                )
            meet[x][y] = meet[y][x] = c
    old_meet = [[order[meet[new_id[x]][new_id[y]]] for y in range(n)] for x in range(n)]
    old_join = [[order[join[new_id[x]][new_id[y]]] for y in range(n)] for x in range(n)]
    return old_meet, old_join


def random_bounded_poset(rng, n):
    """Covers of a seeded random poset on ``n`` points with a new bottom
    and top added, under a random numbering of all ``n + 2`` elements;
    often not a lattice."""
    P = random_poset(rng, n)
    perm = rng.sample(range(n + 2), n + 2)
    bottom, top = perm[n], perm[n + 1]
    covers = [(perm[a], perm[b]) for a, b in P.covers()]
    covers += [(bottom, perm[x]) for x in range(n) if not P.lower_covers(x)]
    covers += [(perm[x], top) for x in range(n) if not P.upper_covers(x)]
    return n + 2, covers or [(bottom, top)]


@functools.lru_cache(maxsize=64)
def brute_tables(L):
    """Meet and join tables of L, by scanning ``leq`` for the bounds of
    each pair: the join is the upper bound below every upper bound, and
    dually.  Independent of the numbering and of the library's masks.
    Kept for the last lattices asked, keyed by L, whose equality is that
    of the cover relation."""
    rng = range(L.n)
    above = [{z for z in rng if L.leq(x, z)} for x in rng]
    below = [{z for z in rng if L.leq(z, x)} for x in rng]
    meet = [[0] * L.n for _ in rng]
    join = [[0] * L.n for _ in rng]
    for x in rng:
        for y in range(x, L.n):
            ub, lb = above[x] & above[y], below[x] & below[y]
            join[x][y] = join[y][x] = next(u for u in ub if ub <= above[u])
            meet[x][y] = meet[y][x] = next(u for u in lb if lb <= below[u])
    return meet, join


def brute_is_distributive(L):
    """Exhaustive check of ``x /\\ (y \\/ z) == (x /\\ y) \\/ (x /\\ z)``."""
    meet, join = brute_tables(L)
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


def reference_make_bounded_hom(D, E, assignment):
    """Validate a bounded hom D -> E pair by pair on :func:`brute_tables`,
    with distributivity by the exhaustive scan; same checks, order and
    messages as :func:`latcon.birkhoff.make_bounded_hom`.  Returns the
    validated assignment tuple, to compare with ``phi.assignment``."""
    if not brute_is_distributive(D):
        raise NotDistributive("source lattice is not distributive")
    if not brute_is_distributive(E):
        raise NotDistributive("target lattice is not distributive")
    f = tuple(int(v) for v in assignment)
    if len(f) != D.n:
        raise LatconError(f"assignment length {len(f)} != source size {D.n}")
    for v in f:
        if not 0 <= v < E.n:
            raise ElementOutOfRange(f"image {v} out of range for size {E.n}")
    if f[D.bottom] != E.bottom:
        raise NotBounded(f"bottom maps to {f[D.bottom]}, not {E.bottom}")
    if f[D.top] != E.top:
        raise NotBounded(f"top maps to {f[D.top]}, not {E.top}")
    dmeet, djoin = brute_tables(D)
    emeet, ejoin = brute_tables(E)
    for x in range(D.n):
        for y in range(x + 1, D.n):
            if f[dmeet[x][y]] != emeet[f[x]][f[y]]:
                raise NotHomomorphic(f"meet not preserved at ({x}, {y})")
            if f[djoin[x][y]] != ejoin[f[x]][f[y]]:
                raise NotHomomorphic(f"join not preserved at ({x}, {y})")
    return f


def reference_isotone_check(source, target, assignment):
    """Validate an isotone assignment by scanning every pair of the
    source; same checks, order and messages as
    :class:`latcon.birkhoff.IsotoneMap`.  Returns the assignment tuple."""
    f = tuple(int(v) for v in assignment)
    if len(f) != source.n:
        raise LatconError(f"assignment length {len(f)} != source size {source.n}")
    for v in f:
        if not 0 <= v < target.n:
            raise ElementOutOfRange(f"image {v} out of range for size {target.n}")
    for x in range(source.n):
        for y in range(source.n):
            if source.leq(x, y) and not target.leq(f[x], f[y]):
                raise NotIsotone(f"{x} <= {y} in the source but {f[x]} !<= {f[y]}")
    return f


def reference_is_order_embedding(psi):
    """Whether ``x <= y`` iff ``psi(x) <= psi(y)``, over every pair."""
    src, tgt, f = psi.source, psi.target, psi.assignment
    return all(
        src.leq(x, y) == tgt.leq(f[x], f[y]) for x in range(src.n) for y in range(src.n)
    )


def reference_isotone_assignment(psi, D, E):
    """The assignment D -> E induced by psi: Ji E -> Ji D, by the join
    formula ``f(e) = ⋁{x : psi(x) <= e}`` on :func:`brute_tables`, one
    element at a time; any lattices D and E."""
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    if psi.source != je or psi.target != jd:
        raise LatconError(
            "map is not between the join-irreducible posets of target and source"
        )
    join = brute_tables(E)[1]
    images = [jd.labels[q] for q in psi.assignment]
    out = []
    for e in range(D.n):
        m = E.bottom
        for x, p in zip(je.labels, images):
            if D.leq(p, e):
                m = join[m][x]
        out.append(m)
    return tuple(out)


def reference_hom_of_isotone(psi, D, E):
    """The assignment of the bounded hom D -> E dual to psi: Ji E -> Ji D,
    from :func:`reference_isotone_assignment`, validated by
    :func:`reference_make_bounded_hom`."""
    return reference_make_bounded_hom(D, E, reference_isotone_assignment(psi, D, E))


def brute_pullbacks(f, E):
    """For each join-irreducible q of E, ascending, the mask of the x with
    ``q <= f(x)``, by testing every x against every q."""
    return [
        sum(1 << x for x, e in enumerate(f) if E.leq(q, e))
        for q in brute_join_irreducibles(E)
    ]


def brute_is_semimodular(L):
    """Upper semimodularity by its definition, over every pair: ``a``
    covers ``a /\\ b`` implies ``a \\/ b`` covers ``b``."""
    for a in range(L.n):
        for b in range(L.n):
            m = L.meet(a, b)
            if m != a and L.is_cover(m, a):
                if not L.is_cover(b, L.join(a, b)):
                    return False
    return True


def brute_heights(L):
    """Heights and depths, the lengths of longest chains from the bottom to
    each element and from each element to the top, relaxed over every
    strict pair of the up-set masks until nothing changes; neither the id
    order nor the cover rows are used."""
    n = L.n
    height, depth = [0] * n, [0] * n
    above = [(x, y) for x in range(n) for y in range(n) if x != y and L.up_mask(x) >> y & 1]
    changed = True
    while changed:
        changed = False
        for x, y in above:
            if height[y] <= height[x]:
                height[y] = height[x] + 1
                changed = True
            if depth[x] <= depth[y]:
                depth[x] = depth[y] + 1
                changed = True
    return height, depth


def reference_cells(R):
    """All cells of R, ordered by (bottom, top): intervals ``[b, t]`` of
    length 2 whose inner elements all cover ``b`` and are covered by
    ``t``, scanned through the public, checked ``is_cover``."""
    L = R.lattice
    out = []
    for b in range(L.n):
        for t in L.up(b):
            mids = [x for x in L.up(b) if x not in (b, t) and L.leq(x, t)]
            if len(mids) < 2 or L.is_cover(b, t):
                continue
            if all(L.is_cover(b, x) and L.is_cover(x, t) for x in mids):
                ordered = [u for u in L.upper_covers(b) if u in mids]
                out.append(rl.Cell(b, t, ordered[0], ordered[-1], tuple(ordered[1:-1])))
    return sorted(out, key=lambda c: (c.bottom, c.top))


def reference_is_convex_sublattice(L, S):
    """Whether S is closed under meet and join and holds every interval
    between two of its members, pair by pair; same errors as
    :func:`latcon.core.is_convex_sublattice`."""
    elems = sorted(set(S))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    for x in elems:
        if not 0 <= x < L.n:
            raise ElementOutOfRange(f"element {x} out of range for size {L.n}")
    members = set(elems)
    for x in elems:
        for y in elems:
            if L.meet(x, y) not in members or L.join(x, y) not in members:
                return False
            if L.leq(x, y) and any(L.leq(x, z) and L.leq(z, y) and z not in members
                                   for z in range(L.n)):
                return False
    return True


def reference_generated_congruence(L, pairs):
    """The least congruence collapsing ``pairs``, by a worklist closure
    that substitutes every element z into each merged pair."""
    n = L.n
    meet, join = brute_tables(L)
    parent = list(range(n))
    work = []

    def unite(x, y):
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
    return _forest_classes(L, parent)


def brute_bounded_homs(D, E):
    """All bounded homomorphisms D -> E as assignment tuples, by raw scan.

    Exponential in |D|; callers keep |E|**|D| small.
    """
    assert E.n ** D.n <= 5_000_000, "oracle scan too large"
    out = []
    for f in product(range(E.n), repeat=D.n):
        if f[D.bottom] != E.bottom or f[D.top] != E.top:
            continue
        if is_hom(D, E, f):
            out.append(f)
    return sorted(out)


def brute_isotone_maps(P, Q):
    """All isotone assignments P -> Q by scanning every map."""
    assert Q.n ** P.n <= 5_000_000, "oracle scan too large"
    out = []
    for f in product(range(Q.n), repeat=P.n):
        if all(
            Q.leq(f[x], f[y])
            for x in range(P.n)
            for y in range(P.n)
            if P.leq(x, y)
        ):
            out.append(f)
    return sorted(out)


def brute_join_irreducibles(L):
    """Elements with exactly one lower cover, by scanning the order."""
    out = []
    for x in range(L.n):
        below = [y for y in range(L.n) if y != x and L.leq(y, x)]
        covers = [
            y
            for y in below
            if not any(z != y and z != x and L.leq(y, z) and L.leq(z, x) for z in below)
        ]
        if len(covers) == 1:
            out.append(x)
    return out


def brute_covers(k, leq):
    """Cover pairs of the order ``leq`` on range(k), by scanning every triple."""
    return sorted(
        (a, b)
        for a in range(k)
        for b in range(k)
        if a != b
        and leq(a, b)
        and not any(c != a and c != b and leq(a, c) and leq(c, b) for c in range(k))
    )


def brute_downsets(P):
    """Down-sets of the poset P as bitmasks, by scanning all 2^n subsets."""
    return sorted(
        (
            m
            for m in range(1 << P.n)
            if all(m >> y & 1 for x in range(P.n) if m >> x & 1 for y in P.down(x))
        ),
        key=lambda m: (bin(m).count("1"), m),
    )


def downset_lattice(P):
    """The distributive lattice of down-sets of P, ordered by inclusion."""
    ds = core.downsets(P)
    return core.make_lattice(len(ds), core._downset_covers(P, ds))


def hom_to_obj(phi):
    """A bounded hom as the JSON object :func:`latcon.jsonio.hom_from_obj` reads."""
    return {
        "source": jio.lattice_to_obj(phi.source),
        "target": jio.lattice_to_obj(phi.target),
        "map": list(phi.assignment),
    }


def random_poset(rng, n, shuffle=True):
    """A seeded random poset on range(n): each pair is related with
    probability 0.3 along a random linear order, or along id order when
    ``shuffle`` is false (then ids are a linear extension)."""
    perm = rng.sample(range(n), n) if shuffle else list(range(n))
    up = [1 << x for x in range(n)]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            if rng.random() < 0.3:
                up[perm[i]] |= up[perm[k]]
    return core.Poset(n, core._reduce(range(n), up))


def random_closure_lattice(rng):
    """A seeded random lattice: an intersection-closed family of subsets of
    3-6 points that holds the whole set, ordered by inclusion.

    Every finite lattice is such a family on enough points, and most of the
    ones drawn here are not modular.
    """
    k = rng.randint(3, 6)
    full = (1 << k) - 1
    family = {full}
    for _ in range(rng.randint(k, 3 * k)):
        s = rng.randrange(full)
        family |= {s & t for t in family}
    sets = sorted(family, key=lambda s: (bin(s).count("1"), s))
    above = [[b for b, t in enumerate(sets) if s != t and s & t == s] for s in sets]
    covers = [
        (a, b)
        for a in range(len(sets))
        for b in above[a]
        if not any(sets[c] & sets[b] == sets[c] for c in above[a] if c != b)
    ]
    return core.make_lattice(len(sets), covers)


def reference_congruence_lattice(L):
    """Con L by scanning all 2^j subsets of the j edge colors.

    Each subset that is a down-set of the colors' refinement order is joined
    from its members' blocks.  Returns as attributes the list of all
    congruences and what is indexed by it: ``congruences``, ``index``,
    ``ji`` (the join-irreducible congruences' order, labelled by their
    indices) and ``edge_color`` (each cover's principal congruence, by
    index).  Not cached on ``L``.
    """
    edge_theta = {}
    ji_list = []
    ji_keys = set()
    for p, q in L.covers():
        theta = cg.principal_congruence(L, p, q)
        edge_theta[(p, q)] = theta
        if theta.cls not in ji_keys:
            ji_keys.add(theta.cls)
            ji_list.append(theta)
    j = len(ji_list)
    ji_leq = [[refines(ji_list[a], ji_list[b]) for b in range(j)] for a in range(j)]
    base = delta(L)
    all_keys = {base.cls: base}
    for mask in range(1, 1 << j):
        members = [a for a in range(j) if mask >> a & 1]
        if not all(mask >> b & 1 for a in members for b in range(j) if ji_leq[b][a]):
            continue
        c = _join_blocks(L, (blk for a in members for blk in ji_list[a].blocks))
        assert c.cls not in all_keys, "distinct down-sets must have distinct joins"
        all_keys[c.cls] = c
    ordered = sorted(all_keys.values(), key=lambda c: (-c.nblocks, c.blocks))
    index = {c.cls: i for i, c in enumerate(ordered)}
    ji_canon = sorted(index[c.cls] for c in ji_list)
    ji_covers = brute_covers(j, lambda a, b: refines(ordered[ji_canon[a]], ordered[ji_canon[b]]))
    ji_poset = core.Poset(j, ji_covers, labels=ji_canon)
    edge_color = {e: index[theta.cls] for e, theta in edge_theta.items()}
    return SimpleNamespace(
        congruences=ordered, index=index, ji=ji_poset, edge_color=edge_color
    )


def reference_theta_check(L, closure):
    """The text of the :class:`PostconditionFailed` that Con L raises when
    ``closure(L, a, b)`` stands in for ``principal_congruence``, or None.

    For each color r in id order, every cover in ``L.covers()`` order, with
    colors and the D* order read off brute-force closures.  A cover a < b has the
    color of the least join-irreducible p with ``p <= b``, ``p !<= a``,
    represented by the least join-irreducible of equal principal
    congruence con(p_*, p); c D* r iff con(c_*, c) <= con(r_*, r).
    """
    J = brute_join_irreducibles(L)
    low = {}
    for p in J:
        below = [y for y in range(L.n) if y != p and L.leq(y, p)]
        low[p] = next(y for y in below if all(L.leq(z, y) for z in below))
    con = {p: reference_generated_congruence(L, [(low[p], p)]) for p in J}
    rep = {p: min(q for q in J if con[q].cls == con[p].cls) for p in J}
    color = {
        (a, b): rep[min(p for p in J if L.leq(p, b) and not L.leq(p, a))] for a, b in L.covers()
    }
    for r in sorted(set(rep.values())):
        cls = closure(L, low[r], r).cls
        for (a, b), c in color.items():
            wanted = refines(con[c], con[r])
            if (cls[a] == cls[b]) != wanted:
                if wanted:
                    return f"con({low[r]}, {r}) is not the congruence of color {r}"
                return f"colors {c} and {r} are ordered unlike D*"
    return None


def reference_upper_chain_collapse_check(G):
    """The collapse check read off the full list of congruences: the atoms
    of Con L, by index, that are the principal congruence of no edge of an
    upper boundary chain."""
    con = cg.congruence_lattice(G.lattice)
    upper = {
        con.index[cg.principal_congruence(G.lattice, *e).cls]
        for ch in (G.upper_left, G.upper_right)
        for e in zip(ch, ch[1:])
    }
    atom_misses = tuple(con.congruences[t] for t in con.as_lattice().atoms() if t not in upper)
    return cn.ChainCollapseReport(not atom_misses, atom_misses)


def reference_find_isomorphism(A, B):
    """A lattice isomorphism A -> B by recursive backtracking in id order,
    the search :func:`latcon.core.find_isomorphism` makes with a stack."""
    if core.invariant(A) != core.invariant(B):
        return None
    n = A.n
    sig_a = core._signatures(A)
    buckets = {}
    for y, s in enumerate(core._signatures(B)):
        buckets.setdefault(s, []).append(y)
    fwd = [-1] * n
    used = [False] * n

    def extend(x):
        if x == n:
            return True
        for y in buckets.get(sig_a[x], ()):
            if used[y]:
                continue
            if all(
                A.leq(z, x) == B.leq(fwd[z], y) and A.leq(x, z) == B.leq(y, fwd[z])
                for z in range(x)
            ):
                fwd[x] = y
                used[y] = True
                if extend(x + 1):
                    return True
                used[y] = False
        return False

    return fwd if extend(0) else None


def condition_oracle(R):
    """Direct definition scan: every nontrivial congruence collapses some
    edge of an upper boundary chain.

    Returns ``(holds, blocking congruences)``.  The congruences come from
    the library's congruence lattice; what this checks independently is the
    atoms-only shortcut of ``upper_chain_collapse_check``.
    """
    ul = list(zip(R.upper_left, R.upper_left[1:]))
    ur = list(zip(R.upper_right, R.upper_right[1:]))
    bad = []
    for alpha in cg.congruence_lattice(R.lattice):
        if alpha.nblocks == R.n:
            continue
        if not any(alpha.collapses(a, b) for a, b in ul + ur):
            bad.append(alpha)
    return not bad, bad


def ji_congruences(con):
    """The join-irreducible congruences of ``con`` as :class:`cg.Congruence`
    objects, built anew from ``con.theta_cls``."""
    return tuple(cg.Congruence(con.lattice, c) for c in con.theta_cls)


def reference_induced_copy(L, emb):
    """Rebuild the lattice an ordered embedding claims to carry, as the
    verifier did before it called ``core.sublattice``.

    ``emb[i]`` is the ambient id of the copy's element ``i``.  The copy must
    be a convex sublattice (so its covers are the ambient covers inside it)
    and the embedding order must be the copy's own canonical numbering.
    """
    if not emb:
        raise EmbeddingInvalid("empty embedding")
    if len(set(emb)) != len(emb):
        raise EmbeddingInvalid("repeated element in embedding")
    for x in emb:
        if not 0 <= x < L.n:
            raise EmbeddingInvalid(f"element {x} out of range for size {L.n}")
    if not core.is_convex_sublattice(L, emb):
        raise EmbeddingInvalid(f"{sorted(emb)} is not a convex sublattice")
    pos = {x: i for i, x in enumerate(emb)}
    inside = set(emb)
    covers = [
        (pos[a], pos[b])
        for a, b in L.covers()
        if a in inside and b in inside
    ]
    try:
        sub, renum = core.make_lattice_with_map(len(emb), covers)
    except LatconError as exc:
        raise EmbeddingInvalid(f"induced covers are not a lattice: {exc}") from exc
    if renum != tuple(range(len(emb))):
        raise EmbeddingInvalid(
            "embedding order is not the canonical numbering of the copy"
        )
    return sub


def reference_colors(L, con):
    """Each cover's color in ``con``: the position in ``con.theta_cls`` of
    the principal congruence of the cover, by :func:`reference_generated_congruence`."""
    return {
        (a, b): con.theta_cls.index(reference_generated_congruence(L, [(a, b)]).cls)
        for a, b in L.covers()
    }


def reference_tied_colors(F, G, phi):
    """For each color of G, the color of F's boundary color extension R that
    ``phi`` sends it to, matched by restriction: each join-irreducible
    congruence of R is paired with the congruence of F it restricts to."""
    R, inner = cn.boundary_color_extension(F)
    conF = cg.congruence_lattice(F.lattice)
    conG = cg.congruence_lattice(G.lattice)
    conR = cg.congruence_lattice(R.lattice)
    psi = bk.ji_of_hom(phi)
    rho = brute_restriction(conR, inner.embedded_f, conF)
    lift = {rho[conR.index[t.cls]]: q for q, t in enumerate(ji_congruences(conR))}
    thetaF = ji_congruences(conF)
    return [lift[conF.index[thetaF[psi(q)].cls]] for q in range(conG.ji_order.n)]


class Incompatible(LatconError):
    """Piece congruences disagree on a shared boundary."""


def _reference_glue(A, B, pairs):
    """B glued on top of A along the (filter, ideal) ``pairs``: the stage
    build of the triple gluing, one ``make_lattice_with_map`` per call.

    A keeps its ids, the rest of B follows in ascending order; shared
    elements read their lower covers from A and their upper covers from B.
    Returns the lattice and the maps of A and of B.
    """
    inv = {b: a for a, b in pairs}
    fwd = dict(pairs)
    b2t = {}
    nxt = A.n
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
    upper, lower = {}, {}
    for x in range(A.n):
        lower[x] = list(A.lower_covers(x))
        if x in fwd:
            upper[x] = [b2t[u] for u in B.upper_covers(fwd[x])]
        else:
            upper[x] = list(A.upper_covers(x))
    for u in range(B.n):
        if u not in inv:
            upper[b2t[u]] = [b2t[v] for v in B.upper_covers(u)]
            lower[b2t[u]] = [b2t[v] for v in B.lower_covers(u)]
    lat, renum = core.make_lattice_with_map(nxt, covers, upper, lower)
    assert renum == tuple(range(nxt)), "glued numbering is already canonical"
    return lat, tuple(range(A.n)), tuple(b2t[u] for u in range(B.n))


def reference_triple_glue(T, Lf, Rf, B):
    """The triple gluing built in stages: X = B + Lf and W = Rf + T, then
    W on top of X along ``B.upper_right + Lf.upper_right[1:]``.

    Returns the rectangular result and a namespace with the four maps, the
    center ``c`` and the stages as ``(lattice, lower map, upper map, pairs)``.
    """
    X, xa, xb = _reference_glue(B.lattice, Lf.lattice, list(zip(B.upper_left, Lf.lower_right)))
    W, wa, wb = _reference_glue(Rf.lattice, T.lattice, list(zip(Rf.upper_left, T.lower_right)))
    x_chain = [xa[u] for u in B.upper_right] + [xb[u] for u in Lf.upper_right[1:]]
    w_chain = [wa[u] for u in Rf.lower_left] + [wb[u] for u in T.lower_left[1:]]
    v_pairs = list(zip(x_chain, w_chain))
    V, va, vb = _reference_glue(X, W, v_pairs)
    t_map = tuple(vb[wb[u]] for u in range(T.n))
    return rl.make_rectangular(V), SimpleNamespace(
        top=T, left=Lf, right=Rf, bottom=B, c=t_map[T.lattice.bottom],
        b_map=tuple(va[xa[u]] for u in range(B.n)),
        lf_map=tuple(va[xb[u]] for u in range(Lf.n)),
        rf_map=tuple(vb[wa[u]] for u in range(Rf.n)),
        t_map=t_map,
        stages=(
            (X, xa, xb, tuple(zip(B.upper_left, Lf.lower_right))),
            (W, wa, wb, tuple(zip(Rf.upper_left, T.lower_right))),
            (V, va, vb, tuple(v_pairs)),
        ),
    )


def reference_glue_pair(stage, alpha_a, alpha_b):
    """The common extension over one stage, or :class:`Incompatible`.

    ``stage`` is ``(lattice, lower map, upper map, pairs)``, as in
    :func:`reference_triple_glue`; a :class:`~latcon.rectangular.GluedLattice`
    ``g`` gives ``(g.lattice, g.a_map, g.b_map, g.iso)``.  The joined blocks
    are checked against the definition by :func:`respects` and raise
    :class:`PostconditionFailed` unless they form a congruence.
    """
    lat, a_map, b_map, pairs = stage
    if cg._restricted_key(alpha_a.cls, [p[0] for p in pairs]) != cg._restricted_key(
        alpha_b.cls, [p[1] for p in pairs]
    ):
        raise Incompatible("restrictions to the shared part differ")
    out = _join_blocks(lat, (
        [emap[x] for x in blk]
        for alpha, emap in ((alpha_a, a_map), (alpha_b, b_map))
        for blk in alpha.blocks
    ))
    if not (respects(lat, out.blocks, lat.meet) and respects(lat, out.blocks, lat.join)):
        raise PostconditionFailed("joined blocks of compatible congruences are not a congruence")
    return out


def reference_triple_glue_congruence(ref, alpha_t, alpha_lf, alpha_rf, alpha_b):
    """The extension of four piece congruences through the three stages of
    :func:`reference_triple_glue`, after the four facing-boundary checks."""
    for name, a1, ch1, a2, ch2 in (
        ("top/left-flap", alpha_t, ref.top.lower_left, alpha_lf, ref.left.upper_right),
        ("top/right-flap", alpha_t, ref.top.lower_right, alpha_rf, ref.right.upper_left),
        ("bottom/left-flap", alpha_b, ref.bottom.upper_left, alpha_lf, ref.left.lower_right),
        ("bottom/right-flap", alpha_b, ref.bottom.upper_right, alpha_rf, ref.right.lower_left),
    ):
        if [a1.collapses(x, y) for x, y in zip(ch1, ch1[1:])] != [
            a2.collapses(x, y) for x, y in zip(ch2, ch2[1:])
        ]:
            raise Incompatible(f"facing boundary {name}: restrictions differ")
    x, w, v = ref.stages
    return reference_glue_pair(
        v, reference_glue_pair(x, alpha_b, alpha_lf), reference_glue_pair(w, alpha_rf, alpha_t)
    )
