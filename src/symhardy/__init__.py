"""Hardy and Rellich inequalities on antisymmetric and odd function classes.

The package evaluates every closed-form constant, reproduces the
certificate optimization behind them, and verifies the inequalities by
quadrature of Rayleigh quotients over explicit trial families.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantValue,
    FunctionClass,
    Functional,
    Params,
    asymptotic_checks,
    classical_hardy,
    hardy_antisymmetric,
    hardy_odd,
    reference_constant,
    rellich_antisymmetric,
    rellich_mitidieri,
    rellich_odd,
)
from .errors import SymHardyError
from .fields import SectorDomain, SectorKind, divergence_T, field_T, pointwise_certificate
from .minimax import (
    CertificateParams,
    MinimaxResult,
    closed_form_optimum,
    closed_form_value,
    f_certificate,
    numeric_minimax,
    t_minimizer,
)
from .polynomials import (
    AngularFactor,
    ConstantFactor,
    OddLinear,
    Vandermonde,
    euler_residual,
    laplacian_residual,
    odd_linear,
    schwarz_ratio,
    vandermonde,
    vandermonde_gradient,
    vandermonde_value,
)
from .quadrature import (
    Estimate,
    QuadratureConfig,
    QuotientReport,
    hardy_denominator,
    hardy_numerator,
    rayleigh_quotient,
    rellich_denominator,
    rellich_numerator,
    separable_hardy_quotient,
    separable_rellich_quotient,
)
from .trials import TrialFunction, gaussian_trial, sharpness_family

__all__ = [
    "__version__",
    "AngularFactor",
    "CertificateParams",
    "ConstantFactor",
    "ConstantValue",
    "Estimate",
    "FunctionClass",
    "Functional",
    "MinimaxResult",
    "OddLinear",
    "Params",
    "QuadratureConfig",
    "QuotientReport",
    "SectorDomain",
    "SectorKind",
    "SymHardyError",
    "TrialFunction",
    "Vandermonde",
    "asymptotic_checks",
    "classical_hardy",
    "closed_form_optimum",
    "closed_form_value",
    "divergence_T",
    "euler_residual",
    "f_certificate",
    "field_T",
    "gaussian_trial",
    "hardy_antisymmetric",
    "hardy_denominator",
    "hardy_numerator",
    "hardy_odd",
    "laplacian_residual",
    "numeric_minimax",
    "odd_linear",
    "pointwise_certificate",
    "rayleigh_quotient",
    "reference_constant",
    "rellich_antisymmetric",
    "rellich_denominator",
    "rellich_mitidieri",
    "rellich_numerator",
    "rellich_odd",
    "schwarz_ratio",
    "separable_hardy_quotient",
    "separable_rellich_quotient",
    "sharpness_family",
    "t_minimizer",
    "vandermonde",
    "vandermonde_gradient",
    "vandermonde_value",
]
