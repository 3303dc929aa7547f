"""critlab: exact critical-group computations for graphs.

Graphs, arbitrary-precision integer matrices, Smith normal forms, per-prime
elementary-divisor profiles, p-adic filtration checks, chip-firing oracles,
and the strongly-regular constraint analysis that pins down the admissible
critical groups of Moore-graph parameter sets.
"""

from .arith import UnfactoredError, factorize, is_prime, prime_power_divisors, valuation
from .critical import (
    CriticalGroup,
    bicycle_dimension,
    critical_group,
    predicted_order_from_spectrum,
)
from .exact import ElemDivisorProfile, SnfResult, elem_divisor_profile, rank_mod_p, snf
from .filtration import FiltrationReport, verify_filtration_dims
from .graphs import (
    ExistenceUnknownError,
    Graph,
    InfeasibleParametersError,
    QuadraticNumber,
    SrgParams,
    SrgSpectrum,
    check_srg,
    complete_graph,
    cycle_graph,
    hoffman_singleton_graph,
    laplacian_matrix,
    moore_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
    srg_spectrum,
)
from .intmatrix import IntMatrix, parse_matrix
from .moore import (
    AffineExpr,
    ContradictionError,
    DivisorBound,
    LaplacianIdentity,
    SolutionFamily,
    analyze,
    derive_laplacian_identity,
    divisor_bound,
    enumerate_families,
    family_membership,
)
from .sandpile import SizeGuardError, recurrent_count, sandpile_group_structure

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "ContradictionError",
    "CriticalGroup",
    "DivisorBound",
    "ElemDivisorProfile",
    "ExistenceUnknownError",
    "FiltrationReport",
    "Graph",
    "InfeasibleParametersError",
    "IntMatrix",
    "LaplacianIdentity",
    "QuadraticNumber",
    "SizeGuardError",
    "SnfResult",
    "SolutionFamily",
    "SrgParams",
    "SrgSpectrum",
    "UnfactoredError",
    "analyze",
    "bicycle_dimension",
    "check_srg",
    "complete_graph",
    "critical_group",
    "cycle_graph",
    "derive_laplacian_identity",
    "divisor_bound",
    "elem_divisor_profile",
    "enumerate_families",
    "factorize",
    "family_membership",
    "hoffman_singleton_graph",
    "is_prime",
    "laplacian_matrix",
    "moore_graph",
    "parse_edge_list",
    "parse_matrix",
    "path_graph",
    "petersen_graph",
    "predicted_order_from_spectrum",
    "prime_power_divisors",
    "rank_mod_p",
    "recurrent_count",
    "sandpile_group_structure",
    "snf",
    "srg_spectrum",
    "valuation",
    "verify_filtration_dims",
]
