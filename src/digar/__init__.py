"""Simulation and estimation toolkit for the Gaussian AR(1) process whose
innovations are linked to the lagged level through a Gaussian copula."""

from .dependence import (
    DependenceProfile,
    delta_limit,
    dependence_profile,
    eta_bar,
    mixing_decay_bound,
    ols_bias,
    sigma_bar_sq,
    tau_bar,
    tau_lag_k,
)
from .errors import (
    DegenerateDenominatorError,
    DigarError,
    NonFiniteError,
    OutOfRangeError,
)
from .estimation import (
    EstimateResult,
    infeasible_estimate,
    studentized_statistic,
)
from .experiments import (
    DEFAULT_PHI_GRID,
    DEFAULT_RHO_GRID,
    AcfRow,
    AcfTable,
    ExperimentSummary,
    Moments,
    bias_curve,
    empirical_acf_experiment,
    ks_distance,
    normal_cdf,
    run_clt_experiment,
    run_consistency_experiment,
    vbar_curve,
)
from .model import (
    ModelParams,
    stationary_sd,
    variance_sequence,
    vbar_limit,
)
from .simulation import (
    BatchSpec,
    SamplePath,
    mix_seed,
    normal_stream,
    simulate_path,
)

__version__ = "0.1.0"

__all__ = [
    "AcfRow",
    "AcfTable",
    "BatchSpec",
    "DEFAULT_PHI_GRID",
    "DEFAULT_RHO_GRID",
    "DegenerateDenominatorError",
    "DependenceProfile",
    "DigarError",
    "EstimateResult",
    "ExperimentSummary",
    "ModelParams",
    "Moments",
    "NonFiniteError",
    "OutOfRangeError",
    "SamplePath",
    "bias_curve",
    "delta_limit",
    "dependence_profile",
    "empirical_acf_experiment",
    "eta_bar",
    "infeasible_estimate",
    "ks_distance",
    "mix_seed",
    "mixing_decay_bound",
    "normal_cdf",
    "normal_stream",
    "ols_bias",
    "run_clt_experiment",
    "run_consistency_experiment",
    "sigma_bar_sq",
    "simulate_path",
    "stationary_sd",
    "studentized_statistic",
    "tau_bar",
    "tau_lag_k",
    "variance_sequence",
    "vbar_curve",
    "vbar_limit",
]
