"""Exact-arithmetic structural analysis of chemical reaction networks.

The package answers three questions about a mass-action reaction network,
using only exact rational arithmetic so that every verdict comes with a
checkable witness or certificate:

1. Which species sets are minimal siphons (sets that can be absent in a
   steady state)?
2. Which conservation laws hold, and what does the cone of attainable
   conserved quantities look like (facets, chambers, invariant polytopes)?
3. Which siphons are *relevant*, i.e. admit a boundary point compatible
   with some (or a given) positive initial condition?

Networks are written in a small plain-text format (see
:func:`crnsiphon.network.parse_network`) and analyzed either through the
library API or the ``crnsiphon`` command line tool.
"""

from __future__ import annotations

from crnsiphon.network import (
    Complex,
    ConnectivityInfo,
    ParseError,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    canonical_text,
    connectivity,
    parse_network,
    stoichiometric_generators,
)
from crnsiphon.linalg import (
    RationalMatrix,
    SubspaceBasis,
    conservation_basis,
    in_row_space,
    nullspace_basis,
    row_reduce,
)
from crnsiphon.lp import FeasibilityResult, LinearSystem, affine_dim, feasible
from crnsiphon.siphons import (
    Budget,
    BudgetExceededError,
    Hypergraph,
    Siphon,
    is_siphon,
    minimal_siphon_counts,
    minimal_siphons,
    minimal_transversals,
    siphon_violation,
    transversal_counts,
)
from crnsiphon.geometry import (
    ConeQ,
    Facet,
    InvariantPolytope,
    NotPointedError,
    build_cone,
    cone_facets,
    conservation_cone,
    face_dimension,
    face_nonempty,
    vertex_supports,
)
from crnsiphon.relevance import (
    AnalysisReport,
    RelevanceVerdict,
    RouteDisagreementError,
    analyze,
    is_c0_relevant,
    is_relevant,
    is_relevant_by_facets,
    omega_relevant,
    relevant_minimal_siphons,
)
from crnsiphon.dynamics import (
    MassActionSystem,
    PolynomialVectorField,
    build_rhs,
    check_face_invariance,
    check_steady_face,
    eval_rhs,
)
from crnsiphon.casexport import export_cas_script

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Budget",
    "BudgetExceededError",
    "Complex",
    "ConeQ",
    "ConnectivityInfo",
    "Facet",
    "FeasibilityResult",
    "Hypergraph",
    "InvariantPolytope",
    "LinearSystem",
    "MassActionSystem",
    "NotPointedError",
    "ParseError",
    "PolynomialVectorField",
    "RationalMatrix",
    "Reaction",
    "ReactionNetwork",
    "RelevanceVerdict",
    "RouteDisagreementError",
    "Siphon",
    "SpeciesTable",
    "SubspaceBasis",
    "affine_dim",
    "analyze",
    "build_cone",
    "build_rhs",
    "canonical_text",
    "check_face_invariance",
    "check_steady_face",
    "cone_facets",
    "connectivity",
    "conservation_basis",
    "conservation_cone",
    "eval_rhs",
    "export_cas_script",
    "face_dimension",
    "face_nonempty",
    "feasible",
    "in_row_space",
    "is_c0_relevant",
    "is_relevant",
    "is_relevant_by_facets",
    "is_siphon",
    "minimal_siphon_counts",
    "minimal_siphons",
    "minimal_transversals",
    "nullspace_basis",
    "omega_relevant",
    "parse_network",
    "relevant_minimal_siphons",
    "row_reduce",
    "siphon_violation",
    "stoichiometric_generators",
    "transversal_counts",
    "vertex_supports",
]
