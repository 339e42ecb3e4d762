"""The lemma suite: the structural facts the pipelines rely on, run as
universally quantified checks over a catalog of lattices, rectangular
lattices, gluings and triple-gluing assemblies.

This is test code, the A7 gate; no pipeline or CLI command calls it.  Its
predicates are the definition-level oracles of :mod:`helpers`:
congruences are tested by :func:`helpers.respects`, set partitions come
from :func:`helpers.set_partitions`, and two-piece gluings are assembled
by :func:`helpers.reference_glue_pair`.  Also here: the default catalog
(:func:`glue_instances`, :func:`assemblies`, :func:`lemma_suite_items`,
:func:`names`), the singleton extension of a meet-congruence of an ideal
(:func:`singleton_extension`) and :func:`is_sublattice`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from helpers import Incompatible, reference_glue_pair, respects, set_partitions
from latcon import catalog, core
from latcon import congruence as cg
from latcon import rectangular as rl
from latcon.core import FiniteLattice
from latcon.errors import EmptySet, LatconError, NotAnIdeal
from latcon.rectangular import GluedLattice, RectLattice, TripleGluingAssembly
from latcon.verify import CheckResult, VerificationReport


class NotAPartition(LatconError):
    pass


class NotACongruence(LatconError):
    pass


# ---------------------------------------------------------------------------
# the default catalog


def glue_instances() -> dict[str, GluedLattice]:
    """Two-piece gluings over shared chains of length one and two."""
    g22 = rl.grid(2, 2).lattice
    g23 = rl.grid(2, 3).lattice
    a = catalog.m3().lattice
    return {
        "grid-on-grid": rl.glue(g22, g22, {3: 0}),
        "grid-chain2-overlap": rl.glue(g22, g22, {1: 0, 3: 2}),
        "m3-on-m3": rl.glue(a, a, {4: 0}),
        "grid-on-wide": rl.glue(g23, g22, {5: 0}),
    }


def assemblies() -> dict[str, TripleGluingAssembly]:
    """Triple-gluing assemblies of small rectangular pieces."""
    g22 = rl.grid(2, 2)
    a = catalog.m3()
    f = catalog.s7()

    def build(top: RectLattice, bottom: RectLattice) -> TripleGluingAssembly:
        left = rl.grid(top.bl, bottom.tl)
        right = rl.grid(bottom.tr, top.br)
        return rl.triple_glue(top, left, right, bottom)[1]

    return {
        "four-grids": build(g22, g22),
        "fork-top": build(f, g22),
        "fork-bottom": build(g22, f),
        "fork-both": build(f, f),
        "diamond-both": build(a, a),
    }


def lemma_suite_items() -> tuple:
    """Default quantification domain for :func:`lemma_suite`."""
    return (
        tuple(catalog.congruence_catalog().values())
        + tuple(catalog.rect_catalog().values())
        + tuple(glue_instances().values())
        + tuple(assemblies().values())
    )


def names() -> tuple[str, ...]:
    return tuple(sorted(set(catalog.congruence_catalog()) | set(catalog.brt_catalog())))


# ---------------------------------------------------------------------------
# singleton extension and sublattices


def _check_partition(elems: Iterable[int], blocks: Iterable[Iterable[int]]) -> list[list[int]]:
    """``blocks`` as sorted lists, checked to be a partition of ``elems``."""
    inside = set(elems)
    out = []
    seen = set()
    for b in blocks:
        b = sorted(map(core._element_id, b))
        if not b:
            raise NotAPartition("empty block")
        for x in b:
            if x not in inside:
                raise NotAPartition(f"element {x} is not among the partitioned elements")
            if x in seen:
                raise NotAPartition(f"element {x} appears in two blocks")
            seen.add(x)
        out.append(b)
    if len(seen) != len(inside):
        missing = sorted(inside - seen)
        raise NotAPartition(f"elements {missing} missing from the partition")
    return out


def _broken_pair(
    L: FiniteLattice, blocks: Sequence[Sequence[int]], zs: Sequence[int]
) -> tuple[int, int, int] | None:
    """First ``(a, y, z)`` that breaks meet substitution, or None.

    ``a`` is the first member of a block holding ``y``, ``z`` runs over
    ``zs`` and ``a ∧ z`` and ``y ∧ z`` lie in different blocks.  Elements
    in no block count as singletons.
    """
    down = L._down
    cls = [-1 - x for x in range(L.n)]
    for i, b in enumerate(blocks):
        for x in b:
            cls[x] = i
    for b in blocks:
        a = b[0]
        da = down[a]
        for y in b[1:]:
            dy = down[y]
            for z in zs:
                dz = down[z]
                if cls[(da & dz).bit_length() - 1] != cls[(dy & dz).bit_length() - 1]:
                    return a, y, z
    return None


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
    ideal = sorted(set(map(core._element_id, I)))
    if not core.is_ideal(L, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    bl = _check_partition(ideal, alpha_blocks)
    # meet-substitution inside the ideal is the weakest sensible input;
    # callers needing a full congruence check the extension themselves
    bad = _broken_pair(L, bl, ideal)
    if bad is not None:
        a, y, z = bad
        raise NotACongruence(
            f"blocks are not a meet-congruence of the ideal: ({a},{y}) with z={z}"
        )
    iset = set(ideal)
    out = [tuple(b) for b in bl] + [(x,) for x in range(L.n) if x not in iset]
    return tuple(sorted(out, key=lambda b: b[0]))


def is_sublattice(L: FiniteLattice, S: Iterable[int]) -> bool:
    elems = sorted(set(S))
    if not elems:
        raise EmptySet("empty set is not a sublattice")
    mask = core._hull(L, elems)[0]
    for i, x in enumerate(elems):
        for y in elems[i + 1 :]:
            if not mask >> L.meet(x, y) & 1 or not mask >> L.join(x, y) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# the lemma suite


_IDEAL_ENUM_CAP = 7  # full partition enumeration up to this ideal size


def _rect_ideals(R: RectLattice):
    """Principal ideals of R that are themselves rectangular.

    Yields ``(elems, sub, subR)`` with ``elems`` the sorted parent ids.
    Ideals the validator rejects are skipped; this under-approximates
    nothing we quantify over, since every check is universally quantified.
    """
    for x in range(R.n):
        elems = R.lattice.down(x)
        if len(elems) < 4 or len(elems) == R.n:
            continue
        sub = core.sublattice(R.lattice, elems)[0]
        try:
            subR = rl.make_rectangular(sub)
        except LatconError:
            continue
        yield elems, sub, subR


def _holds(name: str, cases: Iterable[str | None]) -> CheckResult:
    """One universally quantified check: count its configurations.

    ``cases`` yields ``None`` for each configuration that holds and a
    witness text for one that fails; the first witness ends the check.
    """
    cfg = 0
    for witness in cases:
        if witness is not None:
            return CheckResult(name, False, witness)
        cfg += 1
    return CheckResult(name, True, f"{cfg} configurations")


def _meet_extension(lattices):
    """Singleton extension of a meet-congruence of an ideal stays one."""
    for L in lattices:
        for x in range(L.n - 1):
            elems = L.down(x)
            if len(elems) <= _IDEAL_ENUM_CAP:
                candidates = (
                    [[elems[i] for i in b] for b in p] for p in set_partitions(len(elems))
                )
            else:
                sub, to_parent, _ = core.sublattice(L, elems)
                candidates = [
                    [[to_parent[i] for i in b] for b in beta.blocks]
                    for beta in cg.congruence_lattice(sub)
                ]
            for blocks in candidates:
                try:
                    ext = singleton_extension(L, elems, blocks)
                except NotACongruence:
                    continue
                yield None if respects(L, ext, L.meet) else (
                    f"ideal {list(elems)} with {blocks} on a {L.n}-element lattice"
                )


def _ideal_corners(rects):
    """Corners of a rectangular ideal lie on the lower boundary chains."""
    for R in rects:
        low_left = set(R.lower_left)
        low_right = set(R.lower_right)
        for elems, _sub, subR in _rect_ideals(R):
            lc, rc = elems[subR.lc], elems[subR.rc]
            on_lower = (lc in low_left and rc in low_right) or (lc in low_right and rc in low_left)
            yield None if on_lower else (
                f"ideal {list(elems)} of a {R.n}-element lattice has"
                f" corners {lc}, {rc} off the lower chains"
            )


def _corner_decomposition(rects):
    """Every non-eye element is the join of its meets with the corners."""
    for R in rects:
        L, eyes = R.lattice, set(R.eyes)
        for x in range(R.n):
            if x in eyes:
                continue
            yield None if L.join(L.meet(x, R.lc), L.meet(x, R.rc)) == x else (
                f"element {x} of a {R.n}-element lattice"
            )


def _outside_ideal(rects):
    """Everything outside a rectangular ideal is above one of its corners."""
    for R in rects:
        L = R.lattice
        for elems, _sub, subR in _rect_ideals(R):
            inside = set(elems)
            lc, rc = elems[subR.lc], elems[subR.rc]
            for x in range(R.n):
                if x in inside:
                    continue
                yield None if L.leq(lc, x) or L.leq(rc, x) else (
                    f"element {x} outside ideal {list(elems)} in a"
                    f" {R.n}-element lattice"
                )


def _singleton_full(rects):
    """Congruences of a rectangular ideal leaving its upper chains alone
    extend by singletons to full congruences."""
    for R in rects:
        L = R.lattice
        for elems, sub, subR in _rect_ideals(R):
            upper_edges = [
                (ch[i], ch[i + 1])
                for ch in (subR.upper_left, subR.upper_right)
                for i in range(len(ch) - 1)
            ]
            for beta in cg.congruence_lattice(sub):
                if any(beta.cls[p] == beta.cls[q] for p, q in upper_edges):
                    continue
                blocks = [[elems[i] for i in b] for b in beta.blocks]
                ext = singleton_extension(L, elems, blocks)
                yield None if respects(L, ext, L.meet) and respects(L, ext, L.join) else (
                    f"ideal {list(elems)} with {blocks} in a {R.n}-element lattice"
                )


def _flap_unions(assemblies):
    """Flap plus the piece across the center is closed under meet and join."""
    for asm in assemblies:
        L = asm.result.lattice
        for part in (
            set(asm.lf_map) | set(asm.t_map),
            set(asm.b_map) | set(asm.rf_map),
        ):
            yield None if is_sublattice(L, part) else (
                f"union of size {len(part)} in a {L.n}-element assembly"
            )


def _relation(cls: Sequence[int], ids: Sequence[int]) -> set[tuple[int, int]]:
    by_class = defaultdict(list)
    for local, amb in enumerate(ids):
        by_class[cls[local]].append(amb)
    rel = set()
    for members in by_class.values():
        rel.update((a, b) for a in members for b in members)
    return rel


def _compose(r: set[tuple[int, int]], s: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The relation ``r`` followed by ``s``: pairs (x, z) with x r y s z."""
    by_first = defaultdict(list)
    for y, z in s:
        by_first[y].append(z)
    return {(x, z) for x, y in r for z in by_first.get(y, ())}


def _two_piece(glued):
    """Compatible piece congruences assemble uniquely, by the relation
    formula: the union of both parts and their two compositions.  Past the
    pairs, each gluing is one more possible witness: the pairs must build
    every congruence of the gluing once."""
    for g in glued:
        L = g.lattice
        con_a = cg.congruence_lattice(g.a_lattice)
        con_b = cg.congruence_lattice(g.b_lattice)
        built_keys = []
        for alpha_a in con_a:
            for alpha_b in con_b:
                try:
                    gamma = reference_glue_pair((L, g.a_map, g.b_map, g.iso), alpha_a, alpha_b)
                except Incompatible:
                    continue
                rel_a = _relation(alpha_a.cls, g.a_map)
                rel_b = _relation(alpha_b.cls, g.b_map)
                formula = rel_a | rel_b | _compose(rel_a, rel_b) | _compose(rel_b, rel_a)
                yield None if formula == _relation(gamma.cls, range(L.n)) else (
                    f"relation formula differs on a {L.n}-element gluing"
                )
                built_keys.append(gamma.cls)
        want = {gamma.cls for gamma in cg.congruence_lattice(L)}
        if len(built_keys) != len(set(built_keys)) or set(built_keys) != want:
            yield (
                f"{len(built_keys)} compatible pairs against"
                f" {len(want)} congruences on a {L.n}-element gluing"
            )


def lemma_suite(catalog: Iterable | None = None) -> VerificationReport:
    """Run the structural lemma checks over a catalog.

    Items may be finite lattices, rectangular lattices, two-piece gluings,
    or triple-gluing assemblies; each check quantifies over the applicable
    items and skips the rest (skips are reported, not failures).  With no
    argument the default catalog is used.
    """
    if catalog is None:
        catalog = lemma_suite_items()
    items = list(catalog)
    if not items:
        return VerificationReport(
            (CheckResult("catalog", True, "empty catalog — vacuously passing"),)
        )

    # the first of equal lattices (and rectangular lattices) is kept
    lattices: dict[tuple, FiniteLattice] = {}
    rects: dict[tuple, RectLattice] = {}
    glued: list[GluedLattice] = []
    assemblies: list[TripleGluingAssembly] = []
    skipped: list[str] = []

    def add_lattice(L: FiniteLattice) -> None:
        lattices.setdefault((L.n, tuple(L.covers())), L)

    def add_rect(R: RectLattice) -> None:
        rects.setdefault((R.n, tuple(R.lattice.covers()), R.lc, R.rc), R)
        add_lattice(R.lattice)

    for item in items:
        if isinstance(item, TripleGluingAssembly):
            assemblies.append(item)
            add_rect(item.result)
        elif isinstance(item, GluedLattice):
            glued.append(item)
            add_lattice(item.lattice)
        elif isinstance(item, RectLattice):
            add_rect(item)
        elif isinstance(item, FiniteLattice):
            add_lattice(item)
            try:
                add_rect(rl.make_rectangular(item))
            except LatconError as exc:
                skipped.append(
                    f"{item.n}-element lattice not rectangular ({exc})"
                )
        else:
            raise LatconError(f"unsupported catalog item {item!r}")

    checks = [
        _holds("ideal_singleton_meet_extension", _meet_extension(lattices.values())),
        _holds("rect_ideal_corners_on_lower_chains", _ideal_corners(rects.values())),
        _holds("non_eye_corner_decomposition", _corner_decomposition(rects.values())),
        _holds("outside_ideal_above_a_corner", _outside_ideal(rects.values())),
        _holds(
            "singleton_full_congruence_when_upper_chains_untouched",
            _singleton_full(rects.values()),
        ),
        _holds("flap_union_sublattice", _flap_unions(assemblies)),
        _holds("two_piece_congruence_assembly", _two_piece(glued)),
    ]
    if skipped:
        checks.append(
            CheckResult("inapplicable-items", True, "; ".join(skipped))
        )
    return VerificationReport(tuple(checks))
