"""Dependence functionals of the process.

Everything here is a deterministic function of the parameters (and, for
finite-t quantities, of the variance sequence): the one-step copula
parameter tau_{t,t+1} between consecutive levels, its lag-k products and
large-t limit tau_bar, the induced innovation autocorrelation limit, the
asymptotic bias of least squares, the asymptotic standard deviation
eta_bar of the corrected estimator, and the geometric decay bound eta_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .model import ModelParams, VarianceSequence, variance_sequence, vbar_limit

__all__ = [
    "DependenceProfile",
    "tau_one_step",
    "tau_lag_k",
    "tau_bar",
    "delta_limit",
    "ols_bias",
    "eta_bar",
    "sigma_bar_sq",
    "mixing_decay_bound",
    "dependence_profile",
]

# |V_T - vbar| < CONVERGENCE_RTOL * vbar is the "converged" criterion used
# by mixing_decay_bound and the automatic horizon search.
CONVERGENCE_RTOL = 1e-10
_MAX_AUTO_HORIZON = 1 << 22


@dataclass(frozen=True)
class DependenceProfile:
    """Bundle of the limiting dependence quantities for one parameter set."""

    params: ModelParams
    tau_bar: float
    ols_bias: float
    eta_bar: float
    sigma_bar_sq: float
    eta_hat: float

    def __post_init__(self) -> None:
        if self.tau_bar != self.params.phi + self.ols_bias:
            raise OutOfRangeError("tau_bar must equal phi + ols_bias exactly")
        if not abs(self.tau_bar) < 1.0:
            raise OutOfRangeError(f"|tau_bar| < 1 required, got {self.tau_bar!r}")
        if not self.eta_bar > 0.0:
            raise OutOfRangeError(f"eta_bar > 0 required, got {self.eta_bar!r}")
        if not self.sigma_bar_sq > 0.0:
            raise OutOfRangeError(f"sigma_bar_sq > 0 required, got {self.sigma_bar_sq!r}")
        if not 0.0 <= self.eta_hat < 1.0:
            raise OutOfRangeError(f"eta_hat in [0,1) required, got {self.eta_hat!r}")


def _require_same_params(params: ModelParams, vseq: VarianceSequence) -> None:
    if vseq.params != params:
        raise OutOfRangeError("variance sequence was computed for different parameters")


def tau_one_step(params: ModelParams, vseq: VarianceSequence, t: int) -> float:
    """Copula parameter tau_{t,t+1} = (phi*V_t + rho*sigma_xi)/V_{t+1}.

    Equals the correlation of (Y_t, Y_{t+1}) since both are Gaussian.
    Always strictly inside (-1, 1): V_{t+1}^2 - (phi*V_t + rho*sigma_xi)^2
    = sigma_xi^2*(1 - rho^2) > 0.

    Parameters
    ----------
    params : ModelParams
    vseq : VarianceSequence
        Must be computed from the same params with horizon >= t+1.
    t : int
        Time index, >= 1.

    Raises
    ------
    OutOfRangeError
        If t+1 exceeds the horizon of vseq.
    """
    _require_same_params(params, vseq)
    if t < 1:
        raise OutOfRangeError(f"t must be >= 1, got {t}")
    if t + 1 > vseq.horizon:
        raise OutOfRangeError(f"t+1={t + 1} exceeds horizon {vseq.horizon}")
    v = vseq.values
    return (params.phi * v[t - 1] + params.rho * params.sigma_xi) / v[t]


def tau_lag_k(params: ModelParams, vseq: VarianceSequence, t: int, k: int) -> float:
    """Copula parameter between Y_t and Y_{t+k}: the product of the k
    intermediate one-step parameters tau_{t+s,t+s+1}, s = 0..k-1.

    Gaussian copulas compose along the Markov chain by multiplying their
    parameters, so the magnitude is bounded by eta_hat^k.
    """
    _require_same_params(params, vseq)
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    if t + k > vseq.horizon:
        raise OutOfRangeError(f"t+k={t + k} exceeds horizon {vseq.horizon}")
    out = 1.0
    for s in range(k):
        out *= tau_one_step(params, vseq, t + s)
    return out


def ols_bias(params: ModelParams) -> float:
    """Asymptotic bias rho*sigma_xi/vbar of the least-squares slope."""
    return params.rho * params.sigma_xi / vbar_limit(params)


def tau_bar(params: ModelParams) -> float:
    """Large-t limit of tau_{t,t+1}: phi + rho*sigma_xi/vbar.

    Also the probability limit of the least-squares slope estimator, which
    is what makes that estimator inconsistent whenever rho != 0.
    """
    return params.phi + ols_bias(params)


def delta_limit(params: ModelParams, k: int) -> float:
    """Large-t limit of corr(xi_t, xi_{t+k}).

    delta_k = vbar^2 * tau_bar^{k-1} * (tau_bar - phi) * (1 - phi*tau_bar)
              / sigma_xi^2,
    which decays geometrically in k with ratio tau_bar and vanishes when
    rho = 0 (tau_bar = phi).
    """
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    vb = vbar_limit(params)
    tb = tau_bar(params)
    phi = params.phi
    sig2 = params.sigma_xi * params.sigma_xi
    return vb * vb * tb ** (k - 1) * (tb - phi) * (1.0 - phi * tb) / sig2


def eta_bar(params: ModelParams) -> float:
    """Asymptotic standard deviation of sqrt(T)*(corrected estimate - phi).

    eta_bar = sigma_xi*sqrt(1 - rho^2)/vbar.  At rho = 0 this reduces to
    sqrt(1 - phi^2), the classical AR(1) value, which pins down the
    standard-deviation (not variance) reading.
    """
    return params.sigma_xi * math.sqrt(1.0 - params.rho * params.rho) / vbar_limit(params)


def sigma_bar_sq(params: ModelParams) -> float:
    """Limit variance sigma_xi^2*(1 - rho^2)*vbar^2 of the score terms.

    Satisfies sigma_bar_sq = eta_bar^2 * vbar^4; dividing by the squared
    limit vbar^2 of the normalized denominator gives eta_bar^2.
    """
    vb = vbar_limit(params)
    return params.sigma_xi * params.sigma_xi * (1.0 - params.rho * params.rho) * vb * vb


def mixing_decay_bound(params: ModelParams, vseq: VarianceSequence) -> float:
    """Geometric decay bound eta_hat = sup_t |tau_{t,t+1}| < 1.

    Computed as the max of |tau_{t,t+1}| over the supplied horizon and of
    the analytic limit |tau_bar|; since V_t converges geometrically this
    equals the supremum once the sequence has converged, which is required.

    Raises
    ------
    OutOfRangeError
        If the variance sequence has not yet converged to vbar.
    """
    _require_same_params(params, vseq)
    vb = vbar_limit(params)
    if abs(float(vseq.values[-1]) - vb) >= CONVERGENCE_RTOL * vb:
        raise OutOfRangeError(
            f"variance sequence not converged at horizon {vseq.horizon}"
        )
    v = vseq.values
    scan = 0.0
    if vseq.horizon >= 2:
        taus = (params.phi * v[:-1] + params.rho * params.sigma_xi) / v[1:]
        scan = float(np.max(np.abs(taus)))
    return max(scan, abs(tau_bar(params)))


def _converged_sequence(params: ModelParams) -> VarianceSequence:
    vb = vbar_limit(params)
    T = 256
    while T <= _MAX_AUTO_HORIZON:
        vseq = variance_sequence(params, T)
        if abs(float(vseq.values[-1]) - vb) < CONVERGENCE_RTOL * vb:
            return vseq
        T *= 2
    raise OutOfRangeError(
        f"variance sequence did not converge within {_MAX_AUTO_HORIZON} steps"
    )


def dependence_profile(params: ModelParams, vseq: VarianceSequence | None = None) -> DependenceProfile:
    """Assemble the DependenceProfile for one parameter set.

    When vseq is omitted, a variance sequence long enough for the decay
    bound is computed automatically (horizon doubling until converged).
    """
    if vseq is None:
        vseq = _converged_sequence(params)
    bias = ols_bias(params)
    return DependenceProfile(
        params=params,
        tau_bar=params.phi + bias,
        ols_bias=bias,
        eta_bar=eta_bar(params),
        sigma_bar_sq=sigma_bar_sq(params),
        eta_hat=mixing_decay_bound(params, vseq),
    )
