"""imspe-kit: integrated mean-squared prediction error of kriging designs.

Closed-form evaluation of the design criterion for four stationary
correlation families on the cube [-1, 1]^d, an independent adaptive-
quadrature oracle for validating every closed form, cluster-variable
expansions for proximal point pairs, and optimal-design search utilities.
"""

from .cluster import (
    ExpansionSeries,
    expansion_gauss,
    expansion_gauss_operator,
    imspe_operator_form,
    imspe_quadratic,
    st_term,
)
from .errors import (
    ImspeKitError,
    NearSingularError,
    QuadratureError,
    SolveError,
    ValidationError,
)
from .imspe import (
    ImspeMatrices,
    build_matrices,
    build_matrices_unit_exp,
    domain_transform,
    imspe,
    imspe_closed_n1,
    imspe_n2,
)
from .kernels import FAMILY_NAMES, Family, Kernel, corr_pair
from .optimize import (
    OptimumReport,
    ProbeReport,
    discontinuity_probe,
    envelope_x1,
    fig_design,
    fig_imspe,
    fig_kernel,
    log_grid,
    optimize_n1,
    optimize_n2,
    scan_surface,
    sweep_theta,
)

__version__ = "0.1.0"

__all__ = [
    "ExpansionSeries",
    "FAMILY_NAMES",
    "Family",
    "ImspeKitError",
    "ImspeMatrices",
    "Kernel",
    "NearSingularError",
    "OptimumReport",
    "ProbeReport",
    "QuadratureError",
    "SolveError",
    "ValidationError",
    "build_matrices",
    "build_matrices_unit_exp",
    "corr_pair",
    "discontinuity_probe",
    "domain_transform",
    "envelope_x1",
    "expansion_gauss",
    "expansion_gauss_operator",
    "fig_design",
    "fig_imspe",
    "fig_kernel",
    "imspe",
    "imspe_closed_n1",
    "imspe_n2",
    "imspe_operator_form",
    "imspe_quadratic",
    "log_grid",
    "optimize_n1",
    "optimize_n2",
    "scan_surface",
    "st_term",
    "sweep_theta",
]
