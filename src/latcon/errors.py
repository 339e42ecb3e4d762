"""Exception hierarchy for latcon.

Every error raised by the library derives from :class:`LatconError`, so
callers (and the CLI) can catch one base class.  Validation errors carry
enough context in their message to locate the offending element or pair.
"""

from __future__ import annotations


class LatconError(Exception):
    """Base class for all latcon errors."""


# ---------------------------------------------------------------------------
# core: building and validating lattices


class InvalidLattice(LatconError):
    """The given cover data does not describe a finite lattice."""


class ZeroSize(InvalidLattice):
    pass


class ElementOutOfRange(InvalidLattice):
    pass


class Cyclic(InvalidLattice):
    """The cover relation contains a directed cycle."""


class NotReduced(InvalidLattice):
    """A listed cover pair is not an actual cover (a longer path exists)."""


class NotALattice(InvalidLattice):
    """Some pair of elements lacks a join or a meet."""


class EmptySet(LatconError):
    pass


class NotConvexSublattice(LatconError):
    pass


class NotAnIdeal(LatconError):
    pass


class NotAFilter(LatconError):
    pass


class NotIsomorphic(LatconError):
    pass


# ---------------------------------------------------------------------------
# congruences and homomorphisms


class NotAPartition(LatconError):
    pass


class NotACongruence(LatconError):
    pass


class NotBounded(LatconError):
    """A map meant to preserve 0 and 1 does not."""


class NotHomomorphic(LatconError):
    """A map fails meet- or join-preservation."""


class NotDistributive(LatconError):
    pass


class NotIsotone(LatconError):
    pass


# ---------------------------------------------------------------------------
# rectangular lattices and gluing


class NotSemimodular(LatconError):
    pass


class SizeTooSmall(LatconError):
    """A grid needs at least two elements along each side."""


class BoundaryNotChain(LatconError):
    """A corner's up-set or down-set is not totally ordered."""


class NoCorner(LatconError):
    """A boundary walk has no doubly irreducible element (or the two corners coincide)."""


class AmbiguousCorner(LatconError):
    """A boundary walk has more than one doubly irreducible element."""


class CornersNotComplementary(LatconError):
    """The two corners do not meet to 0 and join to 1."""


class NotACell(LatconError):
    pass


class IndexOutOfRange(LatconError):
    pass


class BoundaryMismatch(LatconError):
    """Gluing boundaries have different lengths or are not chains."""


class Incompatible(LatconError):
    """Piece congruences disagree on a shared boundary."""


# ---------------------------------------------------------------------------
# representation pipelines


class ColorMissingOnLowerBoundary(LatconError):
    """A join-irreducible congruence colors no lower-boundary edge."""


class UpperChainConditionFails(LatconError):
    """A nontrivial congruence collapses no edge of either upper chain."""


class EmbeddingInvalid(LatconError):
    """A claimed ideal/filter embedding does not hold in the ambient lattice."""


class VerificationFailed(LatconError):
    """A pipeline output failed its :mod:`latcon.verify` check; ``report`` says which."""

    def __init__(self, report) -> None:
        super().__init__(report.render_text())
        self.report = report
