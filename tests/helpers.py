"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles — partitions are
enumerated as restricted growth strings and filtered by the substitution
property, homomorphisms by checking every map — so the library's own closure
algorithms are never in the loop.
"""

from __future__ import annotations

from itertools import product

from latcon import congruence as cg


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


def _class_table(n, blocks):
    cls = [0] * n
    for i, b in enumerate(blocks):
        for x in b:
            cls[x] = i
    return cls


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
        if alpha.is_equality:
            continue
        if not any(alpha.collapses(a, b) for a, b in ul + ur):
            bad.append(alpha)
    return not bad, bad
