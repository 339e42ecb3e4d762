"""The verdicts of the checked entry ``core.make_lattice_with_map``, frozen.

A seeded corpus of 3,000 inputs is built on the lattices of
``search_rectangular(12)`` and ``congruence_catalog()``, each relabelled
at random half of the time, so that Kahn's order runs, and with its cover
rows in planar order or shuffled.  Each input takes one of the five call
shapes: cover pairs; pairs with partial mappings of order rows; pairs
with a short sequence of order rows; the row form, its rows lists,
tuples or iterators; the row form with a full sequence of lower rows.
It then takes 0–3 seeded faults: an id that is no integer, an
``IntLike`` or an id out of range; a self-loop; a cover repeated,
dropped, reversed or implied by transitivity; an order row reversed or
corrupted; a bad entry in a lower row.  ``Poset`` is also built on each
cover-pair input.

A verdict is the error's class name and text, or the renumbering map
and the stored upper and lower rows of the build.  The sha256 of the
list of verdicts was taken while the entry still ran bulk pre-checks
before its scans, so a changed class, text, build, or a change in which
fault wins when an input has several, changes it.
"""

import hashlib
import random
from collections import Counter

from helpers import IntLike
from latcon import catalog, core
from latcon.errors import LatconError

SEED = 20261020
INPUTS = 3000
SHAPES = ("pairs", "pairs+maps", "pairs+seq", "rows", "rows+lower")
FAULTS = ("id", "loop", "repeat", "drop", "reverse", "implied",
          "order-reverse", "order-corrupt", "lower-bad")

DIGEST = "8a490dcd37661a2ae461239c684f824eb08d5f87409a1272d252851fb6763659"
KINDS = {"ok": 1739, "Cyclic": 664, "ElementOutOfRange": 720, "InvalidLattice": 195,
         "NotALattice": 177, "NotReduced": 1301}


def _bases():
    out = [R.lattice for _, R in catalog.search_rectangular(12)]
    return out + list(catalog.congruence_catalog().values())


def _bad_id(rng, n):
    return rng.choice([1.5, "a", None, IntLike(rng.randrange(n)), n + rng.randrange(3),
                       -1 - rng.randrange(2)])


def _implied(rng, L, perm):
    """A pair ``(x, z)``, in relabelled ids, with ``z`` strictly above an
    upper cover of ``x``, or None when L has none."""
    found = [(x, z) for x in range(L.n) for y in L._upper[x]
             for z in core._bits(L._up[y]) if z != y]
    if not found:
        return None
    x, z = rng.choice(found)
    return perm[x], perm[z]


def _rows(L, perm, attr, rng, shuffle):
    rows = [[]] * L.n
    for x in range(L.n):
        row = [perm[y] for y in getattr(L, attr)[x]]
        if shuffle:
            rng.shuffle(row)
        rows[perm[x]] = row
    return rows


def _spec_row(rng, spec):
    """A key of the order spec ``spec``, or None when it has none."""
    keys = list(spec.keys()) if isinstance(spec, dict) else list(range(len(spec)))
    if not keys:
        return None
    return rng.choice(keys)


def _corrupt(rng, row, n):
    how = rng.randrange(4)
    if how == 0 and row:
        del row[rng.randrange(len(row))]
    elif how == 1:
        row.insert(rng.randrange(len(row) + 1), rng.randrange(n))
    elif how == 2 and row:
        row[rng.randrange(len(row))] = _bad_id(rng, n)
    else:
        row.append(n + rng.randrange(3))


def _pair_input(rng, L, perm, shape, upper, lower, faults):
    n = L.n
    pairs = [[a, b] for a, row in enumerate(upper) for b in row]
    if rng.random() < 0.5:
        rng.shuffle(pairs)
    specs = [None, None]  # upper_order, lower_order
    if shape == "pairs+maps":
        for i, rows in enumerate((upper, lower)):
            if rng.random() < 0.7:
                keys = rng.sample(range(n), rng.randrange(n + 1))
                specs[i] = {k: list(rows[k])[::rng.choice((1, -1))] for k in keys}
    elif shape == "pairs+seq":
        for i, rows in enumerate((upper, lower)):
            if rng.random() < 0.7:
                specs[i] = [list(r)[::rng.choice((1, -1))] for r in rows[:rng.randrange(n + 1)]]
    for fault in faults:
        if fault == "id" and pairs:
            pairs[rng.randrange(len(pairs))][rng.randrange(2)] = _bad_id(rng, n)
        elif fault == "loop":
            a = rng.randrange(n)
            pairs.insert(rng.randrange(len(pairs) + 1), [a, a])
        elif fault == "repeat" and pairs:
            pairs.insert(rng.randrange(len(pairs) + 1), list(rng.choice(pairs)))
        elif fault == "drop" and pairs:
            del pairs[rng.randrange(len(pairs))]
        elif fault == "reverse" and pairs:
            pairs[rng.randrange(len(pairs))].reverse()
        elif fault == "implied":
            pair = _implied(rng, L, perm)
            if pair:
                pairs.insert(rng.randrange(len(pairs) + 1), list(pair))
        elif fault in ("order-reverse", "order-corrupt", "lower-bad"):
            i = 1 if fault == "lower-bad" else rng.randrange(2)
            if specs[i] is None:
                specs[i] = {k: list((upper, lower)[i][k]) for k in range(n)} \
                    if rng.random() < 0.5 else [list(r) for r in (upper, lower)[i]]
            k = _spec_row(rng, specs[i])
            if k is None:
                continue
            if fault == "order-reverse":
                specs[i][k].reverse()
            elif fault == "order-corrupt":
                _corrupt(rng, specs[i][k], n)
            elif specs[i][k]:
                specs[i][k][rng.randrange(len(specs[i][k]))] = _bad_id(rng, n)
            else:
                specs[i][k].append(_bad_id(rng, n))
    return n, [tuple(p) for p in pairs], specs[0], specs[1]


def _row_input(rng, L, perm, shape, upper, lower, faults):
    n = L.n
    rows = [list(r) for r in upper]
    lows = [list(r) for r in lower] if shape == "rows+lower" else None
    for fault in faults:
        x = rng.randrange(len(rows))
        if fault == "id" and rows[x]:
            rows[x][rng.randrange(len(rows[x]))] = _bad_id(rng, n)
        elif fault == "loop":
            rows[x].insert(rng.randrange(len(rows[x]) + 1), x)
        elif fault == "repeat" and rows[x]:
            rows[x].append(rng.choice(rows[x]))
        elif fault == "drop" and rows[x]:
            del rows[x][rng.randrange(len(rows[x]))]
        elif fault == "reverse" and rows[x]:
            b = rows[x].pop(rng.randrange(len(rows[x])))
            if isinstance(b, int) and 0 <= b < len(rows):
                rows[b].append(x)
        elif fault == "implied":
            pair = _implied(rng, L, perm)
            if pair and pair[0] < len(rows):
                rows[pair[0]].append(pair[1])
        elif fault == "order-reverse":
            (lows if lows is not None and rng.random() < 0.5 and x < n else rows)[x].reverse()
        elif fault == "order-corrupt":
            if lows is not None and rng.random() < 0.7 and x < n:
                _corrupt(rng, lows[x], n)
            elif rng.random() < 0.5 and len(rows) > 1:
                rows.pop()  # one row too few
            else:
                rows.append([])  # one row too many
        elif fault == "lower-bad" and lows is not None and x < n:
            if lows[x]:
                lows[x][rng.randrange(len(lows[x]))] = _bad_id(rng, n)
            else:
                lows[x].append(_bad_id(rng, n))
    kind = rng.choice((list, tuple, iter))  # a row may be read once only
    return n, None, [kind(r) for r in rows], lows


def corpus():
    """The seeded inputs, as ``(n, covers, upper_order, lower_order)``."""
    rng = random.Random(SEED)
    bases = _bases()
    out = []
    for _ in range(INPUTS):
        L = rng.choice(bases)
        perm = list(range(L.n))
        if rng.random() < 0.5:
            rng.shuffle(perm)
        shuffle = rng.random() < 0.5
        upper = _rows(L, perm, "_upper", rng, shuffle)
        lower = _rows(L, perm, "_lower", rng, shuffle)
        shape = rng.choice(SHAPES)
        faults = [rng.choice(FAULTS) for _ in range(rng.randrange(4))]
        make = _row_input if shape.startswith("rows") else _pair_input
        out.append(make(rng, L, perm, shape, upper, lower, faults))
    return out


def _verdict(build):
    try:
        return build()
    except LatconError as e:
        return type(e).__name__, str(e)


def verdicts():
    out = []
    for n, covers, upper, lower in corpus():
        def lattice():
            K, renum = core.make_lattice_with_map(n, covers, upper, lower)
            return renum, K._upper, K._lower

        def poset():
            P = core.Poset(n, covers)
            return P._upper, P._lower

        out.append(_verdict(lattice))
        if covers is not None:
            out.append(_verdict(poset))
    return out


def _kind(v):
    return v[0] if isinstance(v[0], str) else "ok"


def test_verdicts_are_frozen():
    got = verdicts()
    assert dict(Counter(map(_kind, got))) == KINDS
    assert hashlib.sha256(repr(got).encode()).hexdigest() == DIGEST
