"""Independent verification harness for the representation pipelines.

The checks here trust nothing from :mod:`latcon.construction`: embeddings
come in as plain ordered id tuples, the embedded copies are rebuilt from
the ambient lattice's own cover relation, and the congruence bookkeeping is
recomputed from scratch.  A :class:`VerificationReport` lists every check
with a witness for any failure.

``lemma_suite`` runs the structural facts the pipelines rely on as
universally quantified checks over a catalog of lattices, rectangular
lattices, gluings, and triple-gluing assemblies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import congruence as cg, core, rectangular as rl
from .birkhoff import BoundedHom
from .core import FiniteLattice
from .errors import EmbeddingInvalid, Incompatible, LatconError, NotACongruence
from .rectangular import GluedLattice, RectLattice, TripleGluingAssembly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def summary(self) -> bool:
        return all(c.passed for c in self.checks)

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            if c.witness:
                line += f" — {c.witness}"
            lines.append(line)
        lines.append(f"summary: {'PASS' if self.summary else 'FAIL'}")
        return "\n".join(lines)


def _induced_copy(L: FiniteLattice, emb: Sequence[int]) -> FiniteLattice:
    """Rebuild the lattice an ordered embedding claims to carry.

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


def _endpoints_match(phi: BoundedHom, conF: cg.ConLattice, conG: cg.ConLattice) -> bool:
    """Are phi's source and target Con F and Con G, cover for cover?"""
    return all(
        lat.n == len(con) and lat.covers() == con.covers()
        for lat, con in ((phi.source, conF), (phi.target, conG))
    )


def _verify_representation(
    L: FiniteLattice,
    f_emb: Sequence[int],
    g_emb: Sequence[int],
    phi: BoundedHom,
    mode: str,
) -> VerificationReport:
    f_emb = tuple(map(core._element_id, f_emb))
    g_emb = tuple(map(core._element_id, g_emb))
    fsub = _induced_copy(L, f_emb)
    gsub = _induced_copy(L, g_emb)
    conL = cg.congruence_lattice(L)
    conF = cg.congruence_lattice(fsub)
    conG = cg.congruence_lattice(gsub)
    if not _endpoints_match(phi, conF, conG):
        raise EmbeddingInvalid(
            "homomorphism endpoints do not match the embedded copies'"
            " congruence lattices"
        )

    checks = []

    side = core.is_filter if mode == "filter" else core.is_ideal
    article = "a filter" if mode == "filter" else "an ideal"
    ok = side(L, g_emb)
    checks.append(
        CheckResult(
            f"target-copy-is-{mode}",
            ok,
            None if ok else f"{sorted(g_emb)} is not {article} of the output",
        )
    )

    # restriction Con L -> Con F must be a bijection, decided on J(Con L)
    # as in cg.is_cp_extension
    witness = cg.restriction_mismatch(conL, f_emb, conF)
    checks.append(CheckResult("restriction-bijective", witness is None, witness))

    # the diagram: restricting to the target copy must act as phi.  Both
    # sides preserve joins and 0, so they agree when they agree on J(Con L)
    key = cg._restricted_key
    bad = [c for c in conL.theta_cls
           if conG.index[key(c, g_emb)] != phi(conF.index[key(c, f_emb)])]
    witness = None if not bad else (
        f"join-irreducible congruence {list(map(list, cg.Congruence(L, bad[0]).blocks))}"
        " of the output restricts off the prescribed map"
    )
    checks.append(CheckResult("restriction-diagram", not bad, witness))
    return VerificationReport(tuple(checks))


def verify_filter_representation(
    L: FiniteLattice, f_emb: Sequence[int], g_emb: Sequence[int], phi: BoundedHom
) -> VerificationReport:
    """Check a claimed filter representation of ``phi`` inside ``L``.

    ``f_emb``/``g_emb`` are ordered embeddings of the two inputs; the
    checks are: the target copy is a filter, restriction to the source copy
    is a congruence-lattice bijection, and restriction to the target copy
    acts as ``phi`` on every congruence of ``L``; both cut down only the
    join-irreducible congruences of ``L``, as partitions.
    """
    return _verify_representation(L, f_emb, g_emb, phi, "filter")


def verify_ideal_representation(
    L: FiniteLattice, f_emb: Sequence[int], g_emb: Sequence[int], phi: BoundedHom
) -> VerificationReport:
    """Check a claimed ideal representation; see the filter variant."""
    return _verify_representation(L, f_emb, g_emb, phi, "ideal")


# ---------------------------------------------------------------------------
# the lemma suite


def _partitions(elems: Sequence[int]):
    """All set partitions of ``elems``, blocks and elements in input order."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


_IDEAL_ENUM_CAP = 7  # full partition enumeration up to this ideal size


def _rect_ideals(R: RectLattice):
    """Principal ideals of R that are themselves rectangular.

    Yields ``(elems, sub, subR)`` with ``elems`` the sorted parent ids.
    Ideals the validator rejects are skipped; this under-approximates
    nothing we quantify over, since every check is universally quantified.
    """
    for x in range(R.n):
        elems = core.ideal_filter(R.lattice, x)[0]
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
            elems = core.ideal_filter(L, x)[0]
            if len(elems) <= _IDEAL_ENUM_CAP:
                candidates = _partitions(list(elems))
            else:
                sub, to_parent, _ = core.sublattice(L, elems)
                candidates = [
                    [[to_parent[i] for i in b] for b in beta.blocks]
                    for beta in cg.congruence_lattice(sub)
                ]
            for blocks in candidates:
                try:
                    ext = cg.singleton_extension(L, elems, blocks)
                except NotACongruence:
                    continue
                yield None if cg.is_meet_congruence(L, ext) else (
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
                ext = cg.singleton_extension(L, elems, blocks)
                yield None if cg.is_congruence(L, ext) else (
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
            yield None if core.is_sublattice(L, part) else (
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
                    gamma = rl.glue_congruence_pair(g, alpha_a, alpha_b)
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
        from . import catalog as _catalog

        catalog = _catalog.lemma_suite_items()
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
