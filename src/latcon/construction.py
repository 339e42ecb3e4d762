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

The pipelines work on colors, positions in the join-irreducible order
that :attr:`ConLattice.colors` gives every edge, and one
routine (:func:`_glue_flaps`) turns ties between colors into flap eyes and
glues the pieces.  Both representation pipelines first check the hom's
endpoints (:func:`_check_hom_endpoints`), the ideal one then its
upper-chain condition, so a failing input is refused before any
extension is built; then both share one start, :func:`_tied_colors`: F's
boundary color extension, the color of it tied to each color of G, and
the chain colors of G and of the extension.  Every helper reads Con L
off the lattice it is given, where it is cached.  All return
``(RectLattice, ConstructionReport)``.  The
representation pipelines check their output once through
:mod:`latcon.verify`, which restricts the output's join-irreducible
congruences to both copies on the colorings, never builds the output's list
of all congruences, and shares no color matching with the pipelines: it
reads the hom as an element map, where the pipelines read its dual map.  A
failing check raises :class:`VerificationFailed`, and a passing report is
kept in ``ConstructionReport.verification``.  The verifier is handed ``F``
and ``G`` as ``inputs``: an embedding that carries its input, a convex
sublattice of the output whose cover rows are the input's, is read through
it with no copy built, so Con F and Con G, computed once by the pipeline's
entry check, are not computed again per output.  Any other embedding is
rebuilt from the output and verified as rebuilt.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import birkhoff, congruence as cg, rectangular as rl, verify
from .birkhoff import BoundedHom
from .congruence import Congruence
from .errors import (
    ColorMissingOnLowerBoundary,
    LatconError,
    PostconditionFailed,
    UpperChainConditionFails,
    VerificationFailed,
)
from .rectangular import RectLattice, TripleGluingAssembly

CHAIN_NAMES = ("ll", "ul", "lr", "ur")


class EyeRecord(NamedTuple):
    """One eye insertion: which flap, which cell, which two colors it ties.

    ``color_x`` is the tied color of the piece whose edges the pipeline
    walks (``G``, or ``F`` in the boundary color extension), ``color_y``
    the color of the color-extended piece it is tied to.  For the diagonal
    eyes of the bottom grid both coincide.
    """

    flap: str
    cell: tuple[int, int]
    color_x: int
    color_y: int


class ConstructionReport(NamedTuple):
    """What a pipeline built and how.

    ``assembly`` is the gluing bookkeeping, from which ``output``,
    ``pieces`` (by role) and ``color_table`` are read.
    ``embedded_f``/``embedded_g`` map input element ids to output ids;
    ``eye_log`` records every inserted eye; ``color_table`` maps each color
    of the output to the edge positions where it appears along the four
    boundary chains.
    ``inner`` is the report of a nested pipeline stage, when there is one.
    ``verification`` is the passing :mod:`latcon.verify` report of a
    representation pipeline (``None`` for the boundary color extension).
    """

    embedded_f: tuple[int, ...]
    embedded_g: tuple[int, ...] | None
    eye_log: tuple[EyeRecord, ...]
    assembly: TripleGluingAssembly
    inner: "ConstructionReport | None" = None
    verification: verify.VerificationReport | None = None

    @property
    def output(self) -> RectLattice:
        return self.assembly.result

    @property
    def pieces(self) -> dict[str, RectLattice]:
        a = self.assembly
        return {"top": a.top, "bottom": a.bottom, "left": a.left, "right": a.right}

    @property
    def color_table(self) -> dict[int, dict[str, tuple[int, ...]]]:
        return _color_table(self.output)


class ChainCollapseReport(NamedTuple):
    """Whether every nontrivial congruence collapses an upper-chain edge."""

    holds: bool
    witnesses: tuple[Congruence, ...]


def _chain_colors(R: RectLattice) -> dict[str, tuple[int, ...]]:
    """The colors of each boundary chain's edges, bottom-up, by chain name."""
    colors = cg.congruence_lattice(R.lattice).colors
    chains = (R.lower_left, R.upper_left, R.lower_right, R.upper_right)
    return {nm: tuple(colors[e] for e in zip(ch, ch[1:])) for nm, ch in zip(CHAIN_NAMES, chains)}


def _color_table(R: RectLattice) -> dict[int, dict[str, tuple[int, ...]]]:
    """Edge positions of every join-irreducible color on the boundary chains."""
    chains = _chain_colors(R)
    return {
        p: {nm: tuple(i for i, c in enumerate(chains[nm]) if c == p) for nm in CHAIN_NAMES}
        for p in range(cg.congruence_lattice(R.lattice).ji_order.n)
    }


def _first_lower_edge(chains: dict[str, tuple[int, ...]], color: int) -> tuple[str, int]:
    """First lower-boundary edge of a color, lower-left first: its flap and position."""
    for nm, flap in (("ll", "left"), ("lr", "right")):
        if color in chains[nm]:
            return flap, chains[nm].index(color)
    raise ColorMissingOnLowerBoundary(f"color {color} is on no lower-boundary edge")


def _check_hom_endpoints(phi: BoundedHom, F: RectLattice, G: RectLattice) -> None:
    con = cg.congruence_lattice
    if not (con(F.lattice)._numbers(phi.source) and con(G.lattice)._numbers(phi.target)):
        msg = "homomorphism endpoints do not match the congruence lattices of the inputs"
        raise LatconError(msg)


def _tied_colors(F: RectLattice, G: RectLattice, phi: BoundedHom) -> tuple[
    ConstructionReport, list[int], dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]
]:
    """The shared start of both representation pipelines: F's boundary color
    extension R, the color of R that ``phi`` sends each color of G to, and
    the chain colors (:func:`_chain_colors`) of G and of R.

    F's colors are lifted to R along the edges of F's copy: F is a filter of
    R and R preserves F's congruences, so each color of F has one in R.
    """
    R, inner = boundary_color_extension(F)
    colors_f = cg.congruence_lattice(F.lattice).colors
    colors_r = cg.congruence_lattice(R.lattice).colors
    emb = inner.embedded_f
    lift = {p: colors_r[emb[a], emb[b]] for (a, b), p in colors_f.items()}
    tie = [lift[p] for p in birkhoff.ji_of_hom(phi).assignment]
    return inner, tie, _chain_colors(G), _chain_colors(R)


def _glue_flaps(
    T: RectLattice, B: RectLattice, ties: Sequence[tuple[str, int, int, int, int]]
) -> tuple[TripleGluingAssembly, tuple[EyeRecord, ...]]:
    """Triple-glue ``T`` over ``B`` with two grid flaps that carry the ties as eyes.

    A tie ``(flap, t, b, color_x, color_y)`` puts an eye in the cell of the
    flap where edge ``t`` of T's facing lower chain meets edge ``b`` of B's
    facing upper chain: cell ``(t, b)`` of the left flap, ``(b, t)`` of the
    right one.  The eye records follow the order of the ties.
    """
    cells: dict[str, list[tuple[int, int]]] = {"left": [], "right": []}
    log = []
    for flap, t, b, color_x, color_y in ties:
        cell = (t, b) if flap == "left" else (b, t)
        cells[flap].append(cell)
        log.append(EyeRecord(flap, cell, color_x, color_y))
    left, _ = rl.grid_with_eyes(T.bl, B.tl, cells["left"])
    right, _ = rl.grid_with_eyes(B.tr, T.br, cells["right"])
    _, asm = rl.triple_glue(T, left, right, B)
    return asm, tuple(log)


def _verified(
    check, F, G, phi, inner, asm, log, f_map, g_map
) -> tuple[RectLattice, ConstructionReport]:
    """Output and report, once ``check`` passes; ``f_map``/``g_map`` place F's extension and G."""
    L = asm.result
    embedded_f = tuple(f_map[x] for x in inner.embedded_f)
    vrep = check(L.lattice, embedded_f, g_map, phi, inputs=(F.lattice, G.lattice))
    if not vrep.summary:
        raise VerificationFailed(vrep)
    return L, ConstructionReport(
        embedded_f=embedded_f,
        embedded_g=g_map,
        eye_log=log,
        assembly=asm,
        inner=inner,
        verification=vrep,
    )


def boundary_color_extension(F: RectLattice) -> tuple[RectLattice, ConstructionReport]:
    """Extend ``F`` downward so every color reaches both upper chains.

    The result R glues ``F`` on top of a square grid U (one diagonal eye per
    join-irreducible color) with two plain grid flaps; one flap eye per
    color ties the first lower-boundary edge of that color in ``F`` to the
    matching column or row of U.  ``F`` sits in R as the filter above the
    gluing center; the extension preserves ``F``'s congruence lattice, and
    both facts are checked: a failure raises :class:`PostconditionFailed`.
    The result is computed once per input instance and cached.
    """
    if F._bce is not None:
        return F._bce

    con = cg.congruence_lattice(F.lattice)
    j = con.ji_order.n

    # precondition: every color owns a lower-boundary edge; color p sits on
    # edge p of both upper chains of U
    chains = _chain_colors(F)
    ties = [(*_first_lower_edge(chains, p), p, p, p) for p in range(j)]
    u_rect, _ = rl.grid_with_eyes(j + 1, j + 1, [(p, p) for p in range(j)])
    asm, flap_log = _glue_flaps(F, u_rect, ties)
    R = asm.result

    if not cg.is_cp_extension(R.lattice, asm.t_map):
        raise PostconditionFailed("the extension does not preserve the congruences of F")
    # the lower chains are the bottom grid's, one diagonal eye per color
    if not all(all(row.values()) for row in _color_table(R).values()):
        raise PostconditionFailed("every color must appear on all four boundary chains")

    report = ConstructionReport(
        embedded_f=asm.t_map,
        embedded_g=None,
        eye_log=tuple(EyeRecord("bottom", (p, p), p, p) for p in range(j)) + flap_log,
        assembly=asm,
    )
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
    _check_hom_endpoints(phi, F, G)
    inner, tie, chains, below = _tied_colors(F, G, phi)
    ties = []
    for q, lifted in enumerate(tie):
        flap, a = _first_lower_edge(chains, q)
        facing = "ul" if flap == "left" else "ur"
        ties.append((flap, a, below[facing].index(lifted), q, lifted))
    asm, log = _glue_flaps(G, inner.output, ties)
    check = verify.verify_filter_representation
    return _verified(check, F, G, phi, inner, asm, log, asm.b_map, asm.t_map)


def upper_chain_collapse_check(G: RectLattice) -> ChainCollapseReport:
    """Does every nontrivial congruence collapse an upper-chain edge?

    Checked on the atoms of the congruence lattice, the minimal colors:
    anything nontrivial lies above an atom and collapses whatever the atom
    collapses.  An atom collapses an edge exactly when the edge has the
    atom's color.  The witnesses are the atoms' congruences that miss, read
    off the coloring.
    """
    con = cg.congruence_lattice(G.lattice)
    upper = {con.colors[e] for ch in (G.upper_left, G.upper_right) for e in zip(ch, ch[1:])}
    P = con.ji_order
    misses = [P._down[p] for p in range(P.n) if not P._lower[p] and p not in upper]
    return ChainCollapseReport(not misses, tuple(con._congruences(misses)) if misses else ())


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
    _check_hom_endpoints(phi, F, G)
    chk = upper_chain_collapse_check(G)
    if not chk.holds:
        blocks = ", ".join(str(list(map(list, w.blocks))) for w in chk.witnesses)
        raise UpperChainConditionFails(f"congruence collapsing no upper-chain edge: {blocks}")

    inner, tie, chains, above = _tied_colors(F, G, phi)
    ties = [
        (flap, above[facing].index(tie[q]), a, q, tie[q])
        for upper, facing, flap in (("ul", "ll", "left"), ("ur", "lr", "right"))
        for a, q in enumerate(chains[upper])
    ]
    asm, log = _glue_flaps(inner.output, G, ties)
    check = verify.verify_ideal_representation
    return _verified(check, F, G, phi, inner, asm, log, asm.t_map, asm.b_map)


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
