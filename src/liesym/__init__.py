"""Symmetry systems for Lie systems: exact construction and verification.

The package turns a finite-dimensional Lie algebra of vector fields plus
time-dependent coefficients into the auxiliary system whose solutions are
the Lie symmetries of the original system, integrates it, and checks the
results against independent bracket oracles.
"""

from .errors import (
    BadParams,
    DependentBasis,
    DimensionMismatch,
    DivisionByZero,
    FixtureMissing,
    GridEmpty,
    LiesymError,
    MissingDerivative,
    NotClosed,
    NotIntegrable,
    NotVertical,
    OpaqueNoDerivative,
    OpaqueNoEvaluator,
    OpaqueSubstitution,
    ParseError,
    PoleEncountered,
    QuadratureDiverged,
    StepNotPositive,
    TransportLeftDomain,
    UnboundSymbol,
    UnknownName,
)
from .expr import (
    Expr,
    OpaqueFunction,
    ZeroStatus,
    compile_numeric,
    parse,
)
from .vectorfield import (
    VectorField,
    jet_var,
    lie_bracket,
    prolong_first,
)
from .liealg import (
    LieAlgebraBasis,
    StructureTensor,
    center,
    extract_structure_constants,
    field_rank,
    jacobi_residual,
    match_in_span,
    transform_tensor,
)
from .integrate import Trajectory, cumulative_simpson, rk4_solve
from .liesys import (
    LieSystem,
    ResidualReport,
    SymmetryCandidate,
    SymmetrySystem,
    TransportReport,
    VerticalFamilyReport,
    aff_closed_form,
    build_symmetry_system,
    candidate_bracket,
    candidate_from_trajectory,
    flow_transport_check,
    function_bracket,
    integrate,
    riccati_f3_ode_residual,
    symmetry_algebra_f0_zero,
    symmetry_residual,
    symmetry_system_basis,
    vertical_symmetry_dimension,
)
from .pdesys import (
    PDELieSystem,
    PDESymmetryCandidate,
    PDESymmetrySystem,
    TimePath,
    build_pde_symmetry_system,
    curvature_exprs,
    curvature_residual,
    integrate_along_path,
    pde_candidate_from_path,
    pde_symmetry_basis,
    pde_symmetry_residual,
    time_grid,
)
from .fixtures import airy_profile_pair, bessel_profile_pair, opaque_chain
from .catalog import (
    CatalogEntry,
    NamedFamily,
    dbh_symmetry_family,
    make,
    names,
    table1_candidate,
    table1_f3,
    table1_power_aux,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
