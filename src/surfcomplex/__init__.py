"""surfcomplex: complexes of embedded surfaces in 4-manifolds.

Exact arithmetic on blow-up lattices and surface catalogs, integer
simplicial homology with certified Smith normal forms, wall-crossing
collection certification with fundamental cycles and bounding collections,
and the stretching-parameter geometry behind the vanishing estimates.
"""

from .lattice import (
    AggregateSummand,
    Catalog,
    HomologyClass,
    LatticeError,
    ManifoldModel,
    NonzeroSelfIntersectionError,
    SpinCStructure,
    SurfaceClass,
    blowup,
    blowup_resolve_surface,
    c1_square,
    chi_minus,
    connected_sum,
    formal_dimension,
    is_adjunction_violator,
    k3_model,
    make_example_family,
    projective_sum_model,
    sphere_model,
    standard_spinc,
    zero_spinc,
)
from .simplicial import (
    Chain,
    Cochain,
    ComplexTooLarge,
    FillError,
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    boundary,
    chain_simax,
    chain_simin,
    coboundary,
    cone_fill,
    evaluate,
    flag_complex,
    full_subcomplex,
    oriented,
    prism_fill,
    simplex_complex,
    solve_boundary,
)
from .snf import SNFResult, bareiss_determinant, smith_normal_form, solve_integer_system
from .adjunction import AdjunctionComplex, build as build_adjunction_complex
from .wallcross import (
    BoundingCollection,
    BoundingError,
    Certificate,
    CollectionError,
    ConstraintReport,
    EvaluationReport,
    HypothesisError,
    SWSeed,
    WallCrossingCollection,
    certify,
    collection_complex,
    cone_bounding,
    connected_sum_catalog,
    derive_constraints,
    evaluate_invariant,
    fundamental_cycle,
    verify_bounding,
)
from . import paramgeo

__version__ = "0.1.0"
