"""crownlab: numerical laboratory for the complexified Iwasawa decomposition
on the crown domain of SL(n,R).

Modules: numkernel (dense complex kernels), liegroup (sl(n,R) structure and
scales), iwasawa (KAN factorization and branch-tracked continuation),
weights (exterior-power weight expansions), growth (sup sweeps and blow-up
fits), prinseries (SL(2,R) principal-series bench), checks (named
verification suites) and cli (command-line frontend).
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    BranchAmbiguityError,
    CrownLabError,
    DomainExitError,
    NearSingularMinorError,
    OrderUndeterminedError,
    SingularInputError,
    SymmetryError,
)
from .growth import (
    BlowupFit,
    GrowthSample,
    ScaleRelationReport,
    component_scales,
    crown_corpus,
    fit_blowup,
    fit_power_law,
    scale_relation_check,
    sweep_components,
)
from .iwasawa import (
    IwasawaFactors,
    check_H_range,
    decompose_path,
    decompose_real,
    domain_test,
)
from .liegroup import (
    LieStructure,
    PElement,
    boundary_direction,
    crown_contains,
    haar_so,
    lie_structure,
    rho,
    s_max,
)
from .numkernel import group_exp, principal_minors, singular_values, sym_eig, sym_ldl
from .prinseries import (
    ModeVector,
    PairingReport,
    SeriesParams,
    Sl2Components,
    boundary_pairing,
    extended_norm_sq,
    growth_exponent,
    sl2_iwasawa_closed,
    smooth_test_vector,
    unitary_params,
)
from .weights import (
    WeightProfile,
    alpha_pow,
    cos_formula,
    fundamental_profile,
    leading_vanishing_order,
    taylor_coeffs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
