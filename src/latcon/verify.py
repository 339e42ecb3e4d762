"""Independent verification harness for the representation pipelines.

The checks here trust nothing from :mod:`latcon.construction`: embeddings
come in as plain ordered id tuples, each embedded copy is read from the
ambient lattice's own cover relation, numbered as its embedding lists it,
and the output's congruence lattice is computed here.  Each join-irreducible
congruence of the output is restricted to a copy as the set of the copy's
colors it collapses, read off the two colorings; the hom is read as an
element map on join-irreducibles, not through its dual map, and no list of
all congruences of the output is built.  A :class:`VerificationReport`
lists every check with a witness for any failure.

A caller may pass ``inputs``, the lattices it expects the two copies to
be.  An embedding that carries its input (:func:`core._carries`: its ids
list a convex sublattice whose cover rows, kept to it, are the input's) is
read through that input, and no copy is built, so its congruence lattice
is read from the input's cache.  Any other embedding is rebuilt by
:func:`core.sublattice`, which must number the copy as the embedding lists
it.  The report is the same value either way: the carried input is the
lattice ``sublattice`` would build, field for field, and a lattice is
immutable.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import congruence as cg, core
from .birkhoff import BoundedHom
from .core import FiniteLattice
from .errors import EmbeddingInvalid, LatconError


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None


class VerificationReport(NamedTuple):
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


def _embedded(L: FiniteLattice, emb: Sequence[int], given: FiniteLattice | None):
    """The embedding, ids as :func:`core._element_ids` gives them, and
    ``given`` if the embedding carries it, else the copy it carries,
    rebuilt by :func:`core.sublattice`.  ``emb[i]`` must be the ambient id
    of the copy's element ``i``, so ``emb`` must list a convex sublattice
    in its numbering."""
    emb = core._element_ids(emb)
    if given is not None and core._carries(L, emb, given):
        return emb, given
    try:
        sub, to_parent, _ = core.sublattice(L, emb)
    except LatconError as exc:
        raise EmbeddingInvalid(str(exc)) from exc
    if to_parent != emb:
        raise EmbeddingInvalid(
            "embedding order is not the canonical numbering of the copy"
        )
    return emb, sub


def _verify_representation(
    L: FiniteLattice,
    f_emb: Sequence[int],
    g_emb: Sequence[int],
    phi: BoundedHom,
    mode: str,
    inputs: tuple[FiniteLattice, FiniteLattice] | None,
) -> VerificationReport:
    """The report of :func:`verify_filter_representation` or of
    :func:`verify_ideal_representation`, by ``mode``.

    Restriction to each copy is read off the colorings: entry r of
    ``cg._restricted`` is the down-set of the copy's colors that theta_r,
    the join-irreducible congruence of L at position r, collapses there,
    and it fixes the restricted congruence.  Both sides of the diagram
    preserve joins and 0, so they agree once they agree on J(Con L).

    The hom is read as an element map on join-irreducibles.  Why the
    positions line up: the endpoint test passed, so element i of
    ``phi.source`` is the i-th of Con F's ``congruences``, which are listed
    in ``congruence._rank`` order, and Con F's color positions follow the
    same order.  So the j-th join-irreducible of ``phi.source`` in id order
    is the congruence of F's color j, and so for ``phi.target`` and G
    (``TestNumberedJoinIrreducibles`` checks it).  Row g of ``pulled`` is
    the set of F's colors j whose join-irreducible phi maps above G's
    join-irreducible g.  The restriction of theta_r to F is the join of the
    join-irreducibles of its colors, and phi maps it to the join of their
    images; g lies below that join exactly when it lies below one image,
    as g is join-prime in the distributive ``phi.target``.  So the image
    collapses G's color g exactly when row g meets F's mask of theta_r.
    """
    given = inputs or (None, None)
    f_emb, fsub = _embedded(L, f_emb, given[0])
    g_emb, gsub = _embedded(L, g_emb, given[1])
    conL = cg.congruence_lattice(L)
    conF = cg.congruence_lattice(fsub)
    conG = cg.congruence_lattice(gsub)
    if not (conF._numbers(phi.source) and conG._numbers(phi.target)):
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
            None if ok else f"{core._quoted(sorted(g_emb))} is not {article} of the output",
        )
    )

    # restriction Con L -> Con F must be a bijection, decided on J(Con L)
    # as in cg.is_cp_extension; each copy carries its lattice, as _embedded
    # made sure, so the masks are read without restriction_mismatch's check
    f_masks = cg._restricted(conL, f_emb, conF)
    witness = cg._mismatch(conL, f_masks, conF)
    checks.append(CheckResult("restriction-bijective", witness is None, witness))

    # the diagram: restricting to the target copy must act as phi
    D, E = phi.source, phi.target
    jd = D.ji_elements()
    pulled = [sum(1 << j for j, x in enumerate(jd) if E.leq(y, phi(x))) for y in E.ji_elements()]
    bad = [r for r, (f, g) in enumerate(zip(f_masks, cg._restricted(conL, g_emb, conG)))
           if g != sum(1 << q for q, m in enumerate(pulled) if m & f)]
    witness = None if not bad else (
        f"join-irreducible congruence {cg._theta_blocks(conL, bad[0])}"
        " of the output restricts off the prescribed map"
    )
    checks.append(CheckResult("restriction-diagram", not bad, witness))
    return VerificationReport(tuple(checks))


def verify_filter_representation(
    L: FiniteLattice,
    f_emb: Sequence[int],
    g_emb: Sequence[int],
    phi: BoundedHom,
    *,
    inputs: tuple[FiniteLattice, FiniteLattice] | None = None,
) -> VerificationReport:
    """Check a claimed filter representation of ``phi`` inside ``L``.

    ``f_emb``/``g_emb`` are ordered embeddings of the two inputs; the
    checks are: the target copy is a filter, restriction to the source copy
    is a congruence-lattice bijection, and restriction to the target copy
    acts as ``phi`` on every congruence of ``L``; both are decided on the
    join-irreducible congruences of ``L``, each restricted to a copy as the
    set of the copy's colors it collapses.

    ``inputs``, when given, is the pair of lattices the two embeddings are
    expected to carry.  An embedding that carries its input is read through
    it, with no copy built, so the input's cached congruence lattice is
    read; the report is the same with or without ``inputs`` (see the module
    docstring).
    """
    return _verify_representation(L, f_emb, g_emb, phi, "filter", inputs)


def verify_ideal_representation(
    L: FiniteLattice,
    f_emb: Sequence[int],
    g_emb: Sequence[int],
    phi: BoundedHom,
    *,
    inputs: tuple[FiniteLattice, FiniteLattice] | None = None,
) -> VerificationReport:
    """Check a claimed ideal representation; see the filter variant."""
    return _verify_representation(L, f_emb, g_emb, phi, "ideal", inputs)
