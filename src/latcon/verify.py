"""Independent verification harness for the representation pipelines.

The checks here trust nothing from :mod:`latcon.construction`: embeddings
come in as plain ordered id tuples, the embedded copies are rebuilt from
the ambient lattice's own cover relation by :func:`core.sublattice`, which
must number each copy as its embedding lists it, and the congruence
bookkeeping is recomputed from scratch.  A :class:`VerificationReport`
lists every check with a witness for any failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import congruence as cg, core
from .birkhoff import BoundedHom
from .core import FiniteLattice
from .errors import EmbeddingInvalid, LatconError


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


def _copy(L: FiniteLattice, emb: Sequence[int]) -> tuple[tuple[int, ...], FiniteLattice]:
    """The embedding as ids, and the copy it carries, rebuilt by
    :func:`core.sublattice`.  ``emb[i]`` must be the ambient id of the copy's
    element ``i``, so ``emb`` must list a convex sublattice in its numbering."""
    emb = core._element_ids(emb)
    try:
        sub, to_parent, _ = core.sublattice(L, emb)
    except LatconError as exc:
        raise EmbeddingInvalid(str(exc)) from exc
    if to_parent != emb:
        raise EmbeddingInvalid(
            "embedding order is not the canonical numbering of the copy"
        )
    return emb, sub


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
    f_emb, fsub = _copy(L, f_emb)
    g_emb, gsub = _copy(L, g_emb)
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
