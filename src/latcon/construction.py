"""Congruence-preserving rectangular extensions and representation pipelines.

Everything here grows a rectangular lattice into a larger one while keeping
its congruence lattice intact, by triple-gluing grid flaps around it and
inserting eyes where a boundary color of one piece must merge with a
boundary color of another.  The pipelines are:

* :func:`boundary_color_extension` — extend ``F`` below so that every
  join-irreducible color shows up on both upper boundary chains (and, as a
  byproduct of the bottom piece used, on both lower chains as well);
* :func:`filter_representation` — realize a bounded homomorphism
  ``Con F -> Con G`` as restriction-to-``G`` inside one lattice that has
  ``G`` as a filter and preserves the congruences of ``F``;
* :func:`ideal_representation` — the same with ``G`` as an ideal, available
  exactly when every nontrivial congruence of ``G`` collapses an edge of an
  upper boundary chain;
* :func:`simple_ideal_embedding` — embed ``G`` as an ideal of a simple
  rectangular lattice.

All pipelines return ``(RectLattice, ConstructionReport)``.  The two
representation pipelines check their output once, through
:mod:`latcon.verify`: a failing check raises :class:`VerificationFailed`,
and a passing report is kept in ``ConstructionReport.verification``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import birkhoff, congruence as cg, rectangular as rl, verify
from .birkhoff import BoundedHom
from .congruence import ConLattice, Congruence
from .errors import (
    ColorMissingOnLowerBoundary,
    LatconError,
    UpperChainConditionFails,
    VerificationFailed,
)
from .rectangular import RectLattice, TripleGluingAssembly

CHAIN_NAMES = ("ll", "ul", "lr", "ur")


@dataclass(frozen=True)
class EyeRecord:
    """One eye insertion: which flap, which cell, which two colors it ties.

    ``color_x`` is the position (in the join-irreducible order of the top
    piece's congruence lattice) of the color whose edge the eye reaches
    through the facing upper boundary; ``color_y`` the corresponding
    position for the bottom piece.  For the diagonal eyes of the bottom
    grid both coincide.
    """

    flap: str
    cell: tuple[int, int]
    color_x: int
    color_y: int


@dataclass
class ConstructionReport:
    """What a pipeline built and how.

    ``embedded_f``/``embedded_g`` map input element ids to output ids (as
    ordered tuples); ``eye_log`` records every inserted eye; ``color_table``
    maps each join-irreducible color position of the output to the edge
    positions where it appears along the four boundary chains; ``pieces``
    holds the glued pieces by role and ``assembly`` the gluing bookkeeping.
    ``inner`` is the report of a nested pipeline stage, when there is one.
    ``verification`` is the passing :mod:`latcon.verify` report of a
    representation pipeline (``None`` for the boundary color extension).
    """

    output: RectLattice
    embedded_f: tuple[int, ...]
    embedded_g: tuple[int, ...] | None
    eye_log: tuple[EyeRecord, ...]
    color_table: dict[int, dict[str, tuple[int, ...]]]
    pieces: dict[str, RectLattice]
    assembly: TripleGluingAssembly
    inner: "ConstructionReport | None" = None
    verification: verify.VerificationReport | None = None


@dataclass(frozen=True)
class ChainCollapseReport:
    """Whether every nontrivial congruence collapses an upper-chain edge."""

    holds: bool
    witnesses: tuple[Congruence, ...]


def _chain(R: RectLattice, name: str) -> tuple[int, ...]:
    return {
        "ll": R.lower_left,
        "ul": R.upper_left,
        "lr": R.lower_right,
        "ur": R.upper_right,
    }[name]


def _color_table(R: RectLattice) -> dict[int, dict[str, tuple[int, ...]]]:
    """Edge positions of every join-irreducible color on the boundary chains."""
    con = cg.congruence_lattice(R.lattice)
    pos_of = {idx: p for p, idx in enumerate(con.ji_indices)}
    table: dict[int, dict[str, list[int]]] = {
        p: {nm: [] for nm in CHAIN_NAMES} for p in range(len(con.ji_indices))
    }
    for nm in CHAIN_NAMES:
        ch = _chain(R, nm)
        for i in range(len(ch) - 1):
            table[pos_of[con.edge_color[(ch[i], ch[i + 1])]]][nm].append(i)
    return {
        p: {nm: tuple(v) for nm, v in row.items()} for p, row in table.items()
    }


def _first_lower_edge(R: RectLattice, con: ConLattice, color: int) -> tuple[str, int]:
    """First boundary edge of the given color: lower-left scanned first."""
    for nm in ("ll", "lr"):
        ch = _chain(R, nm)
        for i in range(len(ch) - 1):
            if con.edge_color[(ch[i], ch[i + 1])] == color:
                return nm, i
    raise ColorMissingOnLowerBoundary(
        f"join-irreducible congruence #{color} colors no lower-boundary edge"
    )


def _check_hom_endpoints(phi: BoundedHom, conF: ConLattice, conG: ConLattice) -> None:
    if not verify._endpoints_match(phi, conF, conG):
        raise LatconError(
            "homomorphism endpoints do not match the congruence lattices"
            " of the inputs"
        )


def boundary_color_extension(
    F: RectLattice, *, _order: Sequence[int] | None = None
) -> tuple[RectLattice, ConstructionReport]:
    """Extend ``F`` downward so every color reaches both upper chains.

    The result R glues ``F`` on top of a square grid U (one diagonal eye per
    join-irreducible color) with two plain grid flaps; one flap eye per
    color ties the first lower-boundary edge of that color in ``F`` to the
    matching column or row of U.  ``F`` sits in R as the filter above the
    gluing center; the extension preserves ``F``'s congruence lattice.

    ``_order`` overrides the color processing order (positions into the
    join-irreducible list); the output is isomorphic for any order.  The
    result for the default order is computed once per input instance and
    cached.
    """
    if _order is None and F._bce is not None:
        return F._bce

    con = cg.congruence_lattice(F.lattice)
    ji = con.ji_indices
    j = len(ji)
    order = list(range(j)) if _order is None else [int(p) for p in _order]
    assert sorted(order) == list(range(j)), "order must permute the colors"

    # precondition: every color owns a lower-boundary edge
    first_edge = {p: _first_lower_edge(F, con, ji[p]) for p in order}

    log: list[EyeRecord] = [
        EyeRecord("bottom", (p, p), p, p) for p in range(j)
    ]
    y_cells: list[tuple[int, int]] = []
    z_cells: list[tuple[int, int]] = []
    for p in order:
        nm, a = first_edge[p]
        if nm == "ll":
            # left flap rows follow F's lower-left edges, columns follow
            # U's upper-left edges (color p sits on column p)
            y_cells.append((a, p))
            log.append(EyeRecord("left", (a, p), p, p))
        else:
            z_cells.append((p, a))
            log.append(EyeRecord("right", (p, a), p, p))

    u_rect, _ = rl.grid_with_eyes(j + 1, j + 1, [(p, p) for p in range(j)])
    y_rect, _ = rl.grid_with_eyes(F.bl, j + 1, y_cells)
    z_rect, _ = rl.grid_with_eyes(j + 1, F.br, z_cells)
    R, asm = rl.triple_glue(F, y_rect, z_rect, u_rect)

    embedded_f = asm.t_map
    assert cg.is_cp_extension(R.lattice, embedded_f)

    table = _color_table(R)
    assert len(table) == j
    # the lower chains are the bottom grid's, one diagonal eye per color
    assert all(all(table[p].values()) for p in range(j)), (
        "every color must appear on all four boundary chains"
    )

    report = ConstructionReport(
        output=R,
        embedded_f=embedded_f,
        embedded_g=None,
        eye_log=tuple(log),
        color_table=table,
        pieces={"top": F, "bottom": u_rect, "left": y_rect, "right": z_rect},
        assembly=asm,
    )
    if _order is None:
        F._bce = (R, report)
    return R, report


def filter_representation(
    F: RectLattice, G: RectLattice, phi: BoundedHom
) -> tuple[RectLattice, ConstructionReport]:
    """One lattice realizing ``phi: Con F -> Con G`` as restriction to a filter.

    ``G`` becomes the filter above the gluing center of the output L, the
    color-extended copy of ``F`` the ideal below it, and each
    join-irreducible color of ``G`` is tied by a flap eye to the image
    color's edge on the facing upper chain below.  Restriction
    ``Con L -> Con F`` is a bijection and, transported along it, restriction
    to ``G`` is exactly ``phi``; both facts are checked through
    :mod:`latcon.verify` before returning, and :class:`VerificationFailed`
    is raised when one fails.
    """
    conF = cg.congruence_lattice(F.lattice)
    conG = cg.congruence_lattice(G.lattice)
    _check_hom_endpoints(phi, conF, conG)

    R, inner = boundary_color_extension(F)
    conR = cg.congruence_lattice(R.lattice)
    psi = birkhoff.ji_of_hom(phi)
    # the color of R that restricts to each color of F (R preserves F's congruences)
    rho = cg.restriction(conR, inner.embedded_f, conF)
    lift = {rho[idx]: q for q, idx in enumerate(conR.ji_indices)}

    log: list[EyeRecord] = []
    y_cells: list[tuple[int, int]] = []
    z_cells: list[tuple[int, int]] = []
    for q in range(len(conG.ji_indices)):
        lifted = lift[conF.ji_indices[psi(q)]]
        nm, a = _first_lower_edge(G, conG, conG.ji_indices[q])
        if nm == "ll":
            b = inner.color_table[lifted]["ul"][0]
            y_cells.append((a, b))
            log.append(EyeRecord("left", (a, b), q, lifted))
        else:
            b = inner.color_table[lifted]["ur"][0]
            z_cells.append((b, a))
            log.append(EyeRecord("right", (b, a), q, lifted))

    y_rect, _ = rl.grid_with_eyes(G.bl, R.tl, y_cells)
    z_rect, _ = rl.grid_with_eyes(R.tr, G.br, z_cells)
    L, asm = rl.triple_glue(G, y_rect, z_rect, R)

    embedded_g = asm.t_map
    embedded_f = tuple(asm.b_map[x] for x in inner.embedded_f)
    vrep = verify.verify_filter_representation(L.lattice, embedded_f, embedded_g, phi)
    if not vrep.summary:
        raise VerificationFailed(vrep)

    report = ConstructionReport(
        output=L,
        embedded_f=embedded_f,
        embedded_g=embedded_g,
        eye_log=tuple(log),
        color_table=_color_table(L),
        pieces={"top": G, "bottom": R, "left": y_rect, "right": z_rect},
        assembly=asm,
        inner=inner,
        verification=vrep,
    )
    return L, report


def upper_chain_collapse_check(G: RectLattice) -> ChainCollapseReport:
    """Does every nontrivial congruence collapse an upper-chain edge?

    Checked on the atoms of the congruence lattice: anything nontrivial
    lies above an atom and collapses whatever the atom collapses.
    """
    con = cg.congruence_lattice(G.lattice)
    edges = [
        (ch[i], ch[i + 1])
        for ch in (G.upper_left, G.upper_right)
        for i in range(len(ch) - 1)
    ]

    def touches(alpha: Congruence) -> bool:
        return any(alpha.cls[p] == alpha.cls[q] for p, q in edges)

    atom_misses = tuple(
        con.congruences[t] for t in con.atoms() if not touches(con.congruences[t])
    )
    return ChainCollapseReport(not atom_misses, atom_misses)


def ideal_representation(
    F: RectLattice, G: RectLattice, phi: BoundedHom
) -> tuple[RectLattice, ConstructionReport]:
    """One lattice realizing ``phi: Con F -> Con G`` as restriction to an ideal.

    Requires every nontrivial congruence of ``G`` to collapse an edge of an
    upper boundary chain of ``G`` (:func:`upper_chain_collapse_check`);
    raises :class:`UpperChainConditionFails` otherwise.  ``G`` becomes the
    ideal below the gluing center, the boundary color extension of ``F``
    (whose colors also reach both lower chains) the filter above it, and
    EVERY upper-chain edge of ``G`` is tied by a flap eye to an edge of the
    image color on the facing lower chain above.  The output is checked
    through :mod:`latcon.verify` as in :func:`filter_representation`.
    """
    conF = cg.congruence_lattice(F.lattice)
    conG = cg.congruence_lattice(G.lattice)
    _check_hom_endpoints(phi, conF, conG)

    chk = upper_chain_collapse_check(G)
    if not chk.holds:
        blocks = ", ".join(str(list(map(list, w.blocks))) for w in chk.witnesses)
        raise UpperChainConditionFails(
            f"congruence collapsing no upper-chain edge: {blocks}"
        )

    Fp, inner = boundary_color_extension(F)
    conFp = cg.congruence_lattice(Fp.lattice)
    psi = birkhoff.ji_of_hom(phi)
    pos_of_g = {idx: q for q, idx in enumerate(conG.ji_indices)}
    rho = cg.restriction(conFp, inner.embedded_f, conF)
    lift = {rho[idx]: q for q, idx in enumerate(conFp.ji_indices)}

    log: list[EyeRecord] = []
    y_cells: list[tuple[int, int]] = []
    z_cells: list[tuple[int, int]] = []
    for nm_g, nm_fp, flap, cells in (
        ("ul", "ll", "left", y_cells),
        ("ur", "lr", "right", z_cells),
    ):
        ch = _chain(G, nm_g)
        for a in range(len(ch) - 1):
            q = pos_of_g[conG.edge_color[(ch[a], ch[a + 1])]]
            lifted = lift[conF.ji_indices[psi(q)]]
            b = inner.color_table[lifted][nm_fp][0]
            cell = (b, a) if flap == "left" else (a, b)
            cells.append(cell)
            log.append(EyeRecord(flap, cell, q, lifted))

    y_rect, _ = rl.grid_with_eyes(Fp.bl, G.tl, y_cells)
    z_rect, _ = rl.grid_with_eyes(G.tr, Fp.br, z_cells)
    L, asm = rl.triple_glue(Fp, y_rect, z_rect, G)

    embedded_g = asm.b_map
    embedded_f = tuple(asm.t_map[x] for x in inner.embedded_f)
    top_of_f = embedded_f[F.lattice.bottom]
    up_of_f = tuple(x for x in range(L.n) if L.lattice.leq(top_of_f, x))
    assert tuple(sorted(embedded_f)) == up_of_f, "F must be a filter of the result"
    vrep = verify.verify_ideal_representation(L.lattice, embedded_f, embedded_g, phi)
    if not vrep.summary:
        raise VerificationFailed(vrep)

    report = ConstructionReport(
        output=L,
        embedded_f=embedded_f,
        embedded_g=embedded_g,
        eye_log=tuple(log),
        color_table=_color_table(L),
        pieces={"top": Fp, "bottom": G, "left": y_rect, "right": z_rect},
        assembly=asm,
        inner=inner,
        verification=vrep,
    )
    return L, report


def simple_ideal_embedding(G: RectLattice) -> tuple[RectLattice, ConstructionReport]:
    """Embed ``G`` as an ideal of a simple rectangular lattice.

    Runs :func:`ideal_representation` from the five-element modular diamond
    (whose congruence lattice is the two-element chain) along the unique
    bounds-preserving homomorphism; the output therefore has exactly two
    congruences.
    """
    F = rl.grid_with_eyes(2, 2, [(0, 0)])[0]
    D = cg.congruence_lattice(F.lattice).as_lattice()
    E = cg.congruence_lattice(G.lattice).as_lattice()
    phi = birkhoff.make_bounded_hom(D, E, (0, E.n - 1))
    L, report = ideal_representation(F, G, phi)
    if not cg.is_simple(L.lattice):
        simple = verify.CheckResult("output-is-simple", False, "Con L is not 2-element")
        checks = (*report.verification.checks, simple)
        raise VerificationFailed(verify.VerificationReport(checks))
    return L, report
