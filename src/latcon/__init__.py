"""latcon: a workbench for finite lattices, congruence lattices, and
planar rectangular gluing constructions.

The core objects are :class:`~latcon.core.FiniteLattice` (elements are the
ints ``0..n-1`` in a fixed linear extension) and
:class:`~latcon.rectangular.RectLattice` (a lattice together with its planar
rectangular boundary data).  On top of those sit congruence lattices with
cover colorings, the finite distributive duality between lattices and their
join-irreducible posets, rectangular triple gluing, and the representation
pipelines that realize a bounded homomorphism between two congruence
lattices as the restriction map of a single ambient lattice.
"""

from .birkhoff import (
    BoundedHom,
    BrtReport,
    IsotoneMap,
    brt_report,
    enumerate_bounded_homs,
    enumerate_isotone_maps,
    hom_of_isotone,
    ji_of_hom,
    make_bounded_hom,
)
from .congruence import (
    ConLattice,
    Congruence,
    congruence_lattice,
    generated_congruence,
    is_cp_extension,
    is_simple,
    principal_congruence,
)
from .construction import (
    ChainCollapseReport,
    ConstructionReport,
    EyeRecord,
    boundary_color_extension,
    filter_representation,
    ideal_representation,
    simple_ideal_embedding,
    upper_chain_collapse_check,
)
from .core import (
    FiniteLattice,
    Poset,
    are_isomorphic,
    chain,
    direct_product,
    find_isomorphism,
    is_distributive,
    is_semimodular,
    join_irreducibles,
    make_lattice,
    make_lattice_with_map,
    sublattice,
)
from .errors import (
    ColorMissingOnLowerBoundary,
    EmbeddingInvalid,
    InvalidLattice,
    LatconError,
    NotDistributive,
    NotSemimodular,
    PostconditionFailed,
    UpperChainConditionFails,
    VerificationFailed,
)
from .rectangular import (
    Cell,
    GluedLattice,
    RectLattice,
    TripleGluingAssembly,
    cells,
    glue,
    grid,
    grid_with_eyes,
    insert_eye,
    make_rectangular,
    triple_glue,
)
from .verify import (
    CheckResult,
    VerificationReport,
    verify_filter_representation,
    verify_ideal_representation,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedHom",
    "BrtReport",
    "Cell",
    "ChainCollapseReport",
    "CheckResult",
    "ColorMissingOnLowerBoundary",
    "ConLattice",
    "Congruence",
    "ConstructionReport",
    "EmbeddingInvalid",
    "EyeRecord",
    "FiniteLattice",
    "GluedLattice",
    "InvalidLattice",
    "IsotoneMap",
    "LatconError",
    "NotDistributive",
    "NotSemimodular",
    "Poset",
    "PostconditionFailed",
    "RectLattice",
    "TripleGluingAssembly",
    "UpperChainConditionFails",
    "VerificationFailed",
    "VerificationReport",
    "are_isomorphic",
    "boundary_color_extension",
    "brt_report",
    "cells",
    "chain",
    "congruence_lattice",
    "direct_product",
    "enumerate_bounded_homs",
    "find_isomorphism",
    "enumerate_isotone_maps",
    "filter_representation",
    "generated_congruence",
    "glue",
    "grid",
    "grid_with_eyes",
    "hom_of_isotone",
    "ideal_representation",
    "insert_eye",
    "is_cp_extension",
    "is_distributive",
    "is_semimodular",
    "is_simple",
    "ji_of_hom",
    "join_irreducibles",
    "make_bounded_hom",
    "make_lattice",
    "make_lattice_with_map",
    "make_rectangular",
    "principal_congruence",
    "simple_ideal_embedding",
    "sublattice",
    "triple_glue",
    "upper_chain_collapse_check",
    "verify_filter_representation",
    "verify_ideal_representation",
    "__version__",
]
