"""crownlab: numerical laboratory for the complexified Iwasawa decomposition
on the crown domain of SL(n,R).

Modules: config (the tolerance record), numkernel (dense complex kernels),
liegroup (rho, boundary normalization, Haar sampling and scales), iwasawa (KAN
factorization and branch-tracked continuation), weights (exterior-power
weight expansions), growth (sup sweeps and blow-up fits), prinseries
(SL(2,R) principal-series bench), checks (named verification suites) and
cli (command-line frontend).
"""

from .config import TOLERANCES, Tolerances
from .errors import (
    BranchAmbiguityError,
    CrownLabError,
    DomainExitError,
    NearSingularMinorError,
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
    PElement,
    boundary_direction,
    haar_so,
    rho,
    s_max,
)
from .numkernel import group_exp, principal_minors, singular_values, sym_eig, sym_ldl
from .prinseries import (
    ModeVector,
    PairingReport,
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
    taylor_coeffs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
