"""Finite categories with split-subobject structure and the induced
equivalence between ordinary and zero-preserving matrix-valued functor
categories."""

from .exactlin import (
    PreconditionViolated,
    QMat,
    Subspace,
    block,
    direct_sum,
    orthogonal_idempotents,
    restrict,
)
from .fincat import FinCat, ValidationReport
from .structure import (
    AssumptionReport,
    DCat,
    Factorization,
    MRStructure,
    build_d_cat,
    check_assumptions,
    verify_coend_bijections,
)
from .functors import (
    AdditiveFunctor,
    InfeasibleRelations,
    NatTransform,
    PointedFunctor,
    random_pointed_functor,
)
from .equivalence import (
    EquivalenceCertificate,
    KernelModule,
    TransportError,
    TriangularityError,
    build_kernel_module,
    certify_equivalence,
    hat,
    theta_matrix,
    tilde,
    unit,
)
from .builders import (
    ParInput,
    ParInputError,
    build_cube,
    build_delta_bt,
    build_fi_sharp,
    build_finset_input,
    build_fi_input,
    build_flinj_input,
    build_par,
    build_pt,
)
