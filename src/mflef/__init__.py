"""Exact verification toolkit for matrix-factorization trace formulas.

Everything is computed in exact arithmetic over Q or a cyclotomic field; no
floating point enters any verdict.  The layers, bottom up: cyclotomic scalars,
sparse polynomials, a Groebner/syzygy engine, Milnor algebras with the residue
pairing, the matrix-factorization calculus, Hom-complex cohomology with two
independent supertrace engines, the trace-formula verifiers, and the
Hilbert-series corollaries.  `mflef.cli` drives everything from workspace
documents.

Values (scalars, polynomials, bases, factorizations, reports) are immutable
after construction and safe to share read-only across concurrent verification
tasks; every algorithm is deterministic, so outputs are reproducible bit for
bit.
"""

from .scalars import (
    RootOfUnity,
    Scalar,
    one_minus_zeta_valuation,
)
from .polyring import (
    PolyRing,
    Polynomial,
    WeightSystem,
    check_symmetry,
    difference_quotients,
    hessian_determinant,
    partial_derivative,
    scale_substitute,
)
from .groebner import (
    GradedModulePresentation,
    GroebnerBasis,
    buchberger,
    free_resolution,
    normal_form,
    standard_monomials,
    syzygy_basis,
)
from .milnor import (
    MilnorAlgebra,
    NonIsolatedError,
    TraceSpace,
    TraceSpaceElement,
    canonical_pairing,
    milnor_data,
    trace_space,
)
from .mfcore import (
    MatrixFactorization,
    MFMorphism,
    equivariance_power_check,
    koszul_mf,
    odd_rank11_generator,
    pullback,
    stabilize_module,
    stabilized_diagonal,
    supertrace_at_origin,
    tensor_mf,
    tensor_morphisms,
    validate_mf,
)
from .homcoh import (
    CohomologyBasis,
    HomComplex,
    cohomology,
    graded_cohomology_dimensions,
    graded_euler_supertrace,
    hom_complex,
    induced_endomorphism,
    supertrace_on_cohomology,
)
from .lefschetz import (
    DivisibilityReport,
    LefschetzReport,
    boundary_bulk,
    divisibility_check,
    lhs_hlf,
    lunts_check,
    rhs_hlf,
    trace_identity_check,
    verify_hlf,
    verify_isolated,
    zero_fixed_locus_check,
)
from .hilbert import (
    HilbertData,
    UniPoly,
    chi_polynomial,
    chi_stabilization_consistency,
    multiplicity_data,
    verify_even_multiplicity_divisibility,
)
from .document import WorkspaceDocument, parse_document, serialize_document

__all__ = [
    "RootOfUnity", "Scalar", "one_minus_zeta_valuation",
    "PolyRing", "Polynomial", "WeightSystem", "check_symmetry",
    "difference_quotients", "hessian_determinant", "partial_derivative",
    "scale_substitute",
    "GradedModulePresentation", "GroebnerBasis", "buchberger",
    "free_resolution", "normal_form", "standard_monomials",
    "syzygy_basis",
    "MilnorAlgebra", "NonIsolatedError", "TraceSpace", "TraceSpaceElement",
    "canonical_pairing", "milnor_data", "trace_space",
    "MatrixFactorization", "MFMorphism", "equivariance_power_check",
    "koszul_mf", "odd_rank11_generator", "pullback", "stabilize_module",
    "stabilized_diagonal", "supertrace_at_origin", "tensor_mf",
    "tensor_morphisms", "validate_mf",
    "CohomologyBasis", "HomComplex", "cohomology",
    "graded_cohomology_dimensions", "graded_euler_supertrace", "hom_complex",
    "induced_endomorphism", "supertrace_on_cohomology",
    "DivisibilityReport", "LefschetzReport", "boundary_bulk",
    "divisibility_check", "lhs_hlf", "lunts_check", "rhs_hlf",
    "trace_identity_check", "verify_hlf", "verify_isolated",
    "zero_fixed_locus_check",
    "HilbertData", "UniPoly", "chi_polynomial",
    "chi_stabilization_consistency", "multiplicity_data",
    "verify_even_multiplicity_divisibility",
    "WorkspaceDocument", "parse_document", "serialize_document",
]
