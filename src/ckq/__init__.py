"""Exact quantum orthogonal Cayley-Klein groups and their dual algebras."""

from .ckclassical import (
    CKMatrix,
    cayley,
    is_j_orthogonal,
    lie_generator,
    random_cayley,
    to_symplectic,
    weight_pattern_symplectic,
)
from .coeffring import (
    Cyclo8,
    DegreeCapError,
    DimensionError,
    DualElement,
    JSignature,
    NotInvertibleError,
    ScalarExpr,
    specialize_q,
)
from .freealg import GenSymbol, NCPoly, mat_symbol
from .qdual import (
    DualPairing,
    formal_l_pattern,
    relations_pair_to_zero,
    verify_antipode_duality,
    verify_l_additional,
    verify_ll,
)
from .qgroup import (
    QuantumCKGroup,
    RelationSet,
    antipode,
    build_t,
    coproduct,
    counit,
    verify_antipode,
    verify_coassociativity,
    verify_counit_axioms,
    verify_delta_compat,
)
from .rmatrix import (
    QTensor,
    contract,
    frt_c,
    frt_r,
    projector_check,
    r_plus_minus,
    verify_cubic,
    verify_ybe,
)

__version__ = "0.1.0"
