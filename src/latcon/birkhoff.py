"""Finite Birkhoff duality for bounded homomorphisms.

A bounded homomorphism between finite distributive lattices corresponds to
an isotone map between their join-irreducible posets, in the opposite
direction.  ``ji_of_hom`` and ``hom_of_isotone`` are the two directions of
that correspondence; ``brt_report`` evaluates the classical equivalences
(injective vs. onto, onto vs. order-embedding) on a concrete map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import core
from .core import FiniteLattice, Poset
from .errors import (
    ElementOutOfRange,
    LatconError,
    NotBounded,
    NotDistributive,
    NotHomomorphic,
    NotIsotone,
)


class IsotoneMap:
    """Order-preserving map between posets.

    ``assignment[i]`` is the target position of source position ``i``;
    monotonicity is validated against both cover relations at construction.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: Poset, target: Poset, assignment: Sequence[int]):
        assignment = tuple(int(v) for v in assignment)
        if len(assignment) != source.n:
            raise LatconError(
                f"assignment length {len(assignment)} != source size {source.n}"
            )
        for v in assignment:
            if not 0 <= v < target.n:
                raise ElementOutOfRange(f"image {v} out of range for size {target.n}")
        for x in range(source.n):
            for y in range(source.n):
                if source.leq(x, y) and not target.leq(assignment[x], assignment[y]):
                    raise NotIsotone(
                        f"{x} <= {y} in the source but {assignment[x]} !<= {assignment[y]}"
                    )
        self.source = source
        self.target = target
        self.assignment = assignment

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    @property
    def is_onto(self) -> bool:
        return len(set(self.assignment)) == self.target.n

    @property
    def is_order_embedding(self) -> bool:
        src, tgt, f = self.source, self.target, self.assignment
        return all(
            src.leq(x, y) == tgt.leq(f[x], f[y])
            for x in range(src.n)
            for y in range(src.n)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsotoneMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.assignment))

    def __repr__(self) -> str:
        return f"IsotoneMap({self.assignment})"


class BoundedHom:
    """A {0,1}-homomorphism between finite distributive lattices.

    Use :func:`make_bounded_hom`; the constructor itself does not validate.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: FiniteLattice, target: FiniteLattice, assignment: tuple[int, ...]):
        self.source = source
        self.target = target
        self.assignment = assignment

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.assignment)) == self.source.n

    @property
    def is_onto(self) -> bool:
        return len(set(self.assignment)) == self.target.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundedHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source.n, self.target.n, self.assignment))

    def __repr__(self) -> str:
        return f"BoundedHom({self.assignment})"


def make_bounded_hom(
    D: FiniteLattice, E: FiniteLattice, assignment: Sequence[int]
) -> BoundedHom:
    """Validate an element assignment as a bounded homomorphism D -> E."""
    if not core.is_distributive(D):
        raise NotDistributive("source lattice is not distributive")
    if not core.is_distributive(E):
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
    for x in range(D.n):
        for y in range(x + 1, D.n):
            if f[D.meet(x, y)] != E.meet(f[x], f[y]):
                raise NotHomomorphic(f"meet not preserved at ({x}, {y})")
            if f[D.join(x, y)] != E.join(f[x], f[y]):
                raise NotHomomorphic(f"join not preserved at ({x}, {y})")
    return BoundedHom(D, E, f)


def ji_of_hom(phi: BoundedHom) -> IsotoneMap:
    """The dual isotone map  Ji(target) -> Ji(source).

    A join-irreducible x of the target is sent to the meet of all source
    elements whose image lies above x; that meet is itself join-irreducible.
    """
    D, E = phi.source, phi.target
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    pos_d = {lbl: i for i, lbl in enumerate(jd.labels)}
    f = phi.assignment
    out = []
    for x in je.labels:
        m = D.meet_of([e for e in range(D.n) if E.leq(x, f[e])])
        assert D.is_join_irreducible(m), "dual image must be join-irreducible"
        out.append(pos_d[m])
    return IsotoneMap(je, jd, out)


def hom_of_isotone(psi: IsotoneMap, D: FiniteLattice, E: FiniteLattice) -> BoundedHom:
    """The bounded homomorphism D -> E induced by psi: Ji E -> Ji D.

    e is sent to the join in E of the join-irreducibles x with psi(x) <= e.
    """
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    if psi.source != je or psi.target != jd:
        raise LatconError(
            "map is not between the join-irreducible posets of target and source"
        )
    out = []
    for e in range(D.n):
        xs = [je.labels[i] for i in range(je.n) if D.leq(jd.labels[psi.assignment[i]], e)]
        out.append(E.join_of(xs))
    return make_bounded_hom(D, E, out)


@dataclass(frozen=True)
class BrtReport:
    """Concrete evaluation of the duality statements on one homomorphism."""

    round_trip_ok: bool
    injective: bool
    ji_onto: bool
    onto: bool
    ji_embedding: bool
    witness: str | None = None

    @property
    def bijection_ok(self) -> bool:
        return self.round_trip_ok

    @property
    def injective_iff_onto(self) -> bool:
        return self.injective == self.ji_onto

    @property
    def onto_iff_embedding(self) -> bool:
        return self.onto == self.ji_embedding

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.injective_iff_onto and self.onto_iff_embedding


def brt_report(phi: BoundedHom) -> BrtReport:
    psi = ji_of_hom(phi)
    back = hom_of_isotone(psi, phi.source, phi.target)
    round_trip_ok = back == phi
    injective = phi.is_injective
    ji_onto = psi.is_onto
    onto = phi.is_onto
    ji_embedding = psi.is_order_embedding
    witness = None
    if not round_trip_ok:
        witness = f"round trip produced {back.assignment}, expected {phi.assignment}"
    elif injective != ji_onto:
        witness = f"injective={injective} but dual map onto={ji_onto}"
    elif onto != ji_embedding:
        witness = f"onto={onto} but dual map order-embedding={ji_embedding}"
    return BrtReport(round_trip_ok, injective, ji_onto, onto, ji_embedding, witness)


def enumerate_isotone_maps(P: Poset, Q: Poset) -> Iterator[tuple[int, ...]]:
    """All isotone assignments P -> Q, in lexicographic order.

    Positions are filled in id order; since id order is a linear extension,
    every strictly smaller element of P is already assigned when its
    successors are tried.
    """
    if P.n == 0:
        yield ()
        return
    below = [[y for y in range(P.n) if y != x and P.leq(y, x)] for x in range(P.n)]
    out = [0] * P.n

    def fill(x: int) -> Iterator[tuple[int, ...]]:
        for q in range(Q.n):
            if all(Q.leq(out[y], q) for y in below[x]):
                out[x] = q
                if x + 1 == P.n:
                    yield tuple(out)
                else:
                    yield from fill(x + 1)

    yield from fill(0)


def enumerate_bounded_homs(D: FiniteLattice, E: FiniteLattice) -> list[BoundedHom]:
    """All bounded homomorphisms D -> E, sorted by assignment tuple.

    Enumerated through the duality (isotone maps Ji E -> Ji D) rather than
    by filtering all element functions.
    """
    if D.n == 1 and E.n > 1:
        # the single source element cannot hit both bounds of the target
        return []
    jd = core.join_irreducibles(D)
    je = core.join_irreducibles(E)
    homs = [
        hom_of_isotone(IsotoneMap(je, jd, a), D, E)
        for a in enumerate_isotone_maps(je, jd)
    ]
    homs.sort(key=lambda h: h.assignment)
    return homs
