"""Named example lattices and the bounded search over rectangular ones.

Everything here is deterministic: the same name always builds the same
object, element numbering included.  ``congruence_catalog`` is the slice
small enough for brute-force partition enumeration; ``search_rectangular``
generates the rectangular families (grids, eyed grids, diamonds, the fork
lattice and its eyed variants) up to a size bound, deduplicated up to
isomorphism.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterator

from . import congruence as cg, core, rectangular as rl
from .core import FiniteLattice
from .errors import ElementOutOfRange, IndexOutOfRange, LatconError, SizeTooSmall
from .rectangular import RectLattice

S7_COVERS = (
    (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6),
)


def m3() -> RectLattice:
    """The five-element modular diamond, with its eye in the single cell."""
    return rl.grid_with_eyes(2, 2, [(0, 0)])[0]


def diamond(k: int) -> RectLattice:
    """Bottom, ``k`` atoms, top; the two outer atoms are the corners.  A
    ``k`` that is no integer ``>= 3`` raises :class:`SizeTooSmall`."""
    k = core._size(k, 3, SizeTooSmall, "diamond atoms")
    atoms = list(range(1, k + 1))
    upper = [atoms] + [[k + 1]] * k + [[]]
    lower = [[]] + [[0]] * k + [atoms]
    return rl.make_rectangular(core.make_lattice(k + 2, None, upper, lower))


def m4() -> RectLattice:
    return diamond(4)


def s7() -> RectLattice:
    """The seven-element slim fork lattice: a 2x2 grid cell split in two."""
    return rl.make_rectangular(core.make_lattice(7, list(S7_COVERS)))


def s7_eye(cell_index: int = 0) -> RectLattice:
    """The fork lattice with an eye in one of its three cells, numbered 0,
    1 and 2 as :func:`rectangular.cells` lists them; any other
    ``cell_index`` raises :class:`IndexOutOfRange`."""
    try:
        i = core._checked_id(cell_index, 3)
    except ElementOutOfRange:
        raise IndexOutOfRange(f"fork cell {core._quoted(cell_index)} is not 0, 1 or 2") from None
    base = s7()
    return rl.insert_eye(base, rl.cells(base)[i])


def n5() -> FiniteLattice:
    """The five-element nonmodular pentagon."""
    return core.make_lattice(5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


def cube() -> FiniteLattice:
    """The Boolean cube: product of three two-element chains."""
    return core.direct_product(
        core.chain(2), core.direct_product(core.chain(2), core.chain(2))
    )


def stacked_m3() -> FiniteLattice:
    """Two diamonds stacked top-to-bottom."""
    a = m3().lattice
    return rl.glue(a, a, {a.top: a.bottom}).lattice


def rect_catalog() -> dict[str, RectLattice]:
    """The named rectangular lattices the property tests quantify over."""
    return {
        "grid-2x2": rl.grid(2, 2),
        "grid-2x3": rl.grid(2, 3),
        "grid-2x4": rl.grid(2, 4),
        "grid-3x3": rl.grid(3, 3),
        "m3": m3(),
        "m4": m4(),
        "s7": s7(),
        "s7-eye": s7_eye(),
    }


def congruence_catalog() -> dict[str, FiniteLattice]:
    """Lattices small enough to check against brute-force enumeration."""
    out: dict[str, FiniteLattice] = {
        "chain-2": core.chain(2),
        "chain-3": core.chain(3),
        "chain-4": core.chain(4),
        "n5": n5(),
        "m5": diamond(5).lattice,
        "cube": cube(),
        "stacked-m3": stacked_m3(),
        "grid-2x5": rl.grid(2, 5).lattice,
    }
    for name, R in rect_catalog().items():
        out[name] = R.lattice
    return out


def brt_catalog() -> dict[str, FiniteLattice]:
    """The distributive lattices for the duality checks."""
    return {
        "c2": core.chain(2),
        "c3": core.chain(3),
        "c2xc2": rl.grid(2, 2).lattice,
        "c3xc3": rl.grid(3, 3).lattice,
        "con-s7": cg.congruence_lattice(s7().lattice).as_lattice(),
    }


def _candidates(max_size: int) -> Iterator[tuple[str, Callable[[], RectLattice]]]:
    """The candidates :func:`search_rectangular` builds for ``max_size``,
    each as its name and a call that builds it, in build order: for each
    grid m x n, one per set of at most ``min(2, max_size - m*n)`` of its
    (m-1)(n-1) cells, then the diamonds, the fork and its three eyed
    variants.  Nothing is built until a call is made, so the candidates
    can be counted first, cut at a budget (:func:`core._count`)."""
    for m in range(2, max_size // 2 + 1):
        for n in range(m, max_size // m + 1):
            cells = [(i, k) for i in range(m - 1) for k in range(n - 1)]
            for r in range(min(2, max_size - m * n) + 1):
                for eyes in combinations(cells, r):
                    tag = "".join(f"-{i}.{k}" for i, k in eyes)
                    name = f"grid-{m}x{n}" + ("", "-eye", "-eyes")[r] + tag
                    yield name, lambda m=m, n=n, eyes=eyes: rl.grid_with_eyes(m, n, eyes)[0]
    for k in range(3, max_size - 1):
        yield f"diamond-{k}", lambda k=k: diamond(k)
    if max_size >= 7:
        yield "fork", s7
    if max_size >= 8:
        for c in range(3):
            yield f"fork-eye-{c}", lambda c=c: s7_eye(c)


def search_rectangular(
    max_size: int = 12, seed: int | None = None
) -> list[tuple[str, RectLattice]]:
    """Rectangular lattices up to ``max_size`` elements, up to isomorphism.

    Families: grids, grids with one or two eyes, diamonds, and the fork
    lattice with up to one eye (:func:`_candidates`).  Each candidate is
    compared only with the kept lattices that share its
    :func:`core.invariant`.  ``seed`` shuffles the returned list; which
    lattices are kept does not depend on it.  A ``max_size`` that is no
    integer ``>= 0`` raises :class:`SizeTooSmall`.
    """
    max_size = core._size(max_size, 0, SizeTooSmall, "max_size")
    candidates = [(name, build()) for name, build in _candidates(max_size)]
    candidates.sort(key=lambda item: (item[1].n, item[0]))
    out: list[tuple[str, RectLattice]] = []
    kept: dict[tuple, list[FiniteLattice]] = {}
    for name, R in candidates:
        bucket = kept.setdefault(core.invariant(R.lattice), [])
        if any(core.are_isomorphic(S, R.lattice) for S in bucket):
            continue
        bucket.append(R.lattice)
        out.append((name, R))
    if seed is not None:
        random.Random(seed).shuffle(out)
    return out


def get(name: str) -> FiniteLattice:
    """Look up a catalog lattice by name (rectangular entries included)."""
    plain = congruence_catalog()
    if name in plain:
        return plain[name]
    extra = brt_catalog()
    if name in extra:
        return extra[name]
    raise LatconError(f"unknown catalog lattice {core._quoted(name)}")
