"""functal: exact-arithmetic study of pairs (associative algebra, functional)."""

from .algebra import (
    Algebra,
    direct_sum,
    mat,
    nilpotent_pair,
    opposite,
    parse_algebra,
    seaweed,
    serialize_algebra,
    tensor_product,
    unital_extension,
    ut,
    validate,
)
from .functional import (
    ALPHA_INF,
    Alpha,
    Functional,
    Subspace,
    gram,
    is_multiplicative,
    nil,
    pencil_at,
    stab,
    subspace_product,
    trace_functional,
    vanishes_on,
)
from .linalg import RatMatrix, kernel
from .poly import (
    BivariatePoly,
    UnivariatePoly,
    pencil_det,
    uni_roots,
)
from .sampling import SamplerConfig
from .scalars import ComplexApprox, Rational
from .spectrum import (
    ClassificationReport,
    IndexReport,
    JordanFiltration,
    SpectrumReport,
    char_poly,
    char_poly_raw,
    classify,
    find_regular,
    index,
    jordan_spaces,
    regularity_corollary_suite,
    spectrum,
)
from .tensor import (
    IdentityReport,
    conjecture_probe,
    extended_cayley_check,
    kronecker_swap_matrix,
    mat_tensor_index_experiment,
    tensor_char_check,
    tensor_functional,
    tensor_stab_suite,
)

__version__ = "0.1.0"
