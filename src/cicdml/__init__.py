"""Quantile-transport treatment-effect estimation for two-period panels.

Point and distributional effects on the treated are identified by
transporting baseline outcomes through the control group's conditional
quantile-quantile map, and estimated either by direct plug-in or by
cross-fitted, Neyman-orthogonal estimating equations with valid
normal-quantile confidence intervals.
"""

from .data_model import (
    EstimandKind,
    EstimandSpec,
    FoldAssignment,
    PanelDataset,
    partition_folds,
    validate,
)
from .dgp import (
    OracleTruth,
    StmConfig,
    TransformSpec,
    gen_did,
    gen_stm,
    named_config,
    qq_invariance_diagnostic,
    true_nuisances,
)
from .eif import (
    GTildeSpec,
    gtilde_cdf_indicator,
    gtilde_counterfactual_mean,
    gtilde_quantile,
)
from .estimator import (
    CrossFitConfig,
    EstimateReport,
    confidence_interval,
    estimate,
    median_adjust,
    plugin_att,
    plugin_cdt,
    plugin_qtt,
    solve_att_once,
    solve_quantile_root,
)
from .nuisance import (
    CondCdf,
    CondQuantile,
    DensityFn,
    GammaMap,
    NuFn,
    NuisanceSet,
    estimate_pi,
    fit_cond_cdf,
    fit_cond_quantile,
    fit_density,
    fit_gamma,
    fit_nu,
)
from .validation import (
    CoverageReport,
    OrthogonalityResult,
    Perturbation,
    coverage_study,
    orthogonality_check,
    phi_at,
    rate_probe,
)

__version__ = "0.1.0"

__all__ = [
    "CondCdf",
    "CondQuantile",
    "CoverageReport",
    "CrossFitConfig",
    "DensityFn",
    "EstimandKind",
    "EstimandSpec",
    "EstimateReport",
    "FoldAssignment",
    "GTildeSpec",
    "GammaMap",
    "NuFn",
    "NuisanceSet",
    "OracleTruth",
    "OrthogonalityResult",
    "PanelDataset",
    "Perturbation",
    "StmConfig",
    "TransformSpec",
    "confidence_interval",
    "coverage_study",
    "estimate",
    "estimate_pi",
    "fit_cond_cdf",
    "fit_cond_quantile",
    "fit_density",
    "fit_gamma",
    "fit_nu",
    "gen_did",
    "gen_stm",
    "gtilde_cdf_indicator",
    "gtilde_counterfactual_mean",
    "gtilde_quantile",
    "median_adjust",
    "named_config",
    "orthogonality_check",
    "partition_folds",
    "phi_at",
    "plugin_att",
    "plugin_cdt",
    "plugin_qtt",
    "qq_invariance_diagnostic",
    "rate_probe",
    "solve_att_once",
    "solve_quantile_root",
    "true_nuisances",
    "validate",
]
