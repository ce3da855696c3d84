"""Exact-arithmetic workbench for free Lie algebras, tangential derivations,
their trace maps, and presentation-based twisted cohomology."""

from .cyclic import (
    CyclicElement,
    QuotientMode,
    cyclic_rank,
    j_project,
    j_rank,
    project_cyclic,
)
from .exactlin import (
    IncrementalSpan,
    QuotientStructure,
    kernel_basis,
    quotient_structure,
    smith_normal_form,
)
from .freelie import (
    LieElement,
    TensorElement,
    bracket,
    embed_tensor,
    hall_basis,
    multidegree_rank,
    normalize,
    witt_rank,
)
from .grouppres import (
    CrossedHom,
    LatticeAction,
    Presentation,
    abelianization,
    builtin,
    evaluate_cocycle,
    h1_twisted,
    h2_psigma_rank,
    parse_presentation,
    standard_action,
    trivial_action,
)
from .johnson import (
    AlphaReport,
    ImageBasis,
    c_alpha,
    check_T0530,
    coker_structure,
    johnson_image,
    trace_image_dim,
    trace_kernel_dim,
    verify_E_generators,
)
from .tangent import (
    Derivation,
    apply,
    contract,
    der_bracket,
    p_basis,
    p_rank,
    tangential,
    tau1_generator,
    trace,
    trace_J,
)

__version__ = "0.1.0"
