"""Exact computation of index step functions for weighted de Rham
complexes on manifolds with periodic ends.

The pipeline: a cell structure for the infinite cyclic cover (or the
characteristic polynomials directly) -> homology as modules over the
Laurent ring -> characteristic polynomials of the covering translation ->
exceptional weights -> the piecewise constant index function, together
with independent verification oracles (twisted fibers, coefficient
splittings, weighted shift kernels, cup products).
"""

from .complexes import (
    ChainComplexOverLambda,
    SimplicialInput,
    from_boundary_matrices,
    lift_simplicial,
)
from .cup import cup_product_check
from .errors import (
    AmbiguousWallError,
    CertificationError,
    ComplexValidationError,
    EndexError,
    NotFiniteError,
    OnWallError,
    UnsupportedInputError,
    WindowTooSmallError,
)
from .homology import (
    AlexanderData,
    HomologyModule,
    alexander_polynomials,
    homology,
)
from .indexfn import (
    IndexFunction,
    duality_check,
    excision_index,
    index_at,
    index_function,
)
from .laurent import LaurentPoly, canonicalize, laurent_gcd, poly, squarefree_decomposition
from .polymatrix import LaurentMatrix, SnfResult, smith_normal_form
from .rationals import GaussianRational
from .spectral import RootDatum, Wall, exceptional_weights, find_roots
from .twisted import (
    TwistedFiber,
    fredholm_check,
    l2_hom_dim_analytic,
    l2_kernel_truncated,
    twisted_dims,
    uct_dims,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderData",
    "AmbiguousWallError",
    "CertificationError",
    "ChainComplexOverLambda",
    "ComplexValidationError",
    "EndexError",
    "GaussianRational",
    "HomologyModule",
    "IndexFunction",
    "LaurentMatrix",
    "LaurentPoly",
    "NotFiniteError",
    "OnWallError",
    "RootDatum",
    "SimplicialInput",
    "SnfResult",
    "TwistedFiber",
    "UnsupportedInputError",
    "Wall",
    "WindowTooSmallError",
    "alexander_polynomials",
    "canonicalize",
    "cup_product_check",
    "duality_check",
    "excision_index",
    "exceptional_weights",
    "find_roots",
    "fredholm_check",
    "from_boundary_matrices",
    "homology",
    "index_at",
    "index_function",
    "l2_hom_dim_analytic",
    "l2_kernel_truncated",
    "laurent_gcd",
    "lift_simplicial",
    "poly",
    "smith_normal_form",
    "squarefree_decomposition",
    "twisted_dims",
    "uct_dims",
]
