"""Least-squares slope estimation and its corrected, infeasible variant.

The plain least-squares slope of Y_t on Y_{t-1} converges to tau_bar, not
to phi, whenever rho != 0.  Subtracting the correction term
rho*sigma_xi*sum(Y_{t-1}^2/V_{t-1})/sum(Y_{t-1}^2) restores consistency;
the corrected estimator is infeasible in practice because the correction
consumes the true rho, sigma_xi and V_t, which is why these operations
take the true parameters (through the path and the variance sequence)
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dependence import DependenceProfile, _require_same_params
from .errors import DegenerateDenominatorError, NonFiniteError, OutOfRangeError
from .model import VarianceSequence
from .simulation import SamplePath, _accumulate

__all__ = [
    "EstimateResult",
    "MartingaleDiagnostics",
    "infeasible_estimate",
    "z_series",
    "studentized_statistic",
]

_Sums = float | np.ndarray  # one sum, or one per path


@dataclass(frozen=True)
class EstimateResult:
    """Slope estimates from one path: plain, corrected, and the correction."""

    phi_hat: float
    phi_tilde: float
    correction: float
    sample_size: int

    def __post_init__(self) -> None:
        if self.phi_tilde != self.phi_hat - self.correction:
            raise OutOfRangeError("phi_tilde must equal phi_hat - correction exactly")
        if self.sample_size < 2:
            raise OutOfRangeError(f"sample_size must be >= 2, got {self.sample_size}")


@dataclass(frozen=True)
class MartingaleDiagnostics:
    """Score diagnostics Z_2..Z_T, W_2..W_T and the deterministic E[Z_t^2].

    Z_t = xi_t*Y_{t-1} - rho*sigma_xi*Y_{t-1}^2/V_{t-1} has zero mean given
    the past; W_t = Z_t^2 - sigma_xi^2*Y_{t-1}^2*(1-rho^2) is the analogous
    centered sequence for the squares; sigma_t_sq holds the unconditional
    second moments sigma_xi^2*V_{t-1}^2*(1-rho^2).
    """

    z: np.ndarray
    w: np.ndarray
    sigma_t_sq: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        w = np.asarray(self.w, dtype=float)
        s = np.asarray(self.sigma_t_sq, dtype=float)
        if not (z.shape == w.shape == s.shape) or z.ndim != 1:
            raise OutOfRangeError("z, w, sigma_t_sq must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
            raise NonFiniteError("diagnostics contain non-finite values")
        if np.any(s <= 0.0):
            raise OutOfRangeError("every sigma_t_sq entry must be positive")
        for name, arr in (("z", z), ("w", w), ("sigma_t_sq", s)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _require_match(path: SamplePath, vseq: VarianceSequence) -> None:
    _require_same_params(path.params, vseq)
    if vseq.horizon < path.horizon:
        raise OutOfRangeError(
            f"variance horizon {vseq.horizon} shorter than path horizon {path.horizon}"
        )


def _slopes(coef: float, den: _Sums, cross: _Sums, weighted: _Sums) -> tuple[_Sums, _Sums]:
    # Plain slope cross/den and correction coef*weighted/den from the
    # time-ordered sums.
    if np.any(den <= 0.0):
        raise DegenerateDenominatorError(
            "sum of squared lagged values is zero (need T >= 2 and a nonzero path)"
        )
    return cross / den, coef * weighted / den


def infeasible_estimate(path: SamplePath, vseq: VarianceSequence) -> EstimateResult:
    """Plain least-squares slope and its corrected, infeasible variant.

    phi_hat = sum(Y_t*Y_{t-1})/sum(Y_{t-1}^2), which converges to tau_bar,
    and phi_tilde = phi_hat - correction with the bias correction
    rho*sigma_xi*sum(Y_{t-1}^2/V_{t-1})/sum(Y_{t-1}^2), which converges
    almost surely to rho*sigma_xi/vbar and is exactly zero when rho = 0.
    Sums run over t=2..T and add their terms in time order, as the batch
    kernel does, so a batch row's estimates equal its path's bit for bit.

    Parameters
    ----------
    path : SamplePath
    vseq : VarianceSequence
        Computed from path.params with horizon >= path.horizon.

    Raises
    ------
    OutOfRangeError
        If vseq does not belong to the path or is too short.
    DegenerateDenominatorError
        If the path is too short (T < 2) or all lagged values are zero.
    """
    _require_match(path, vseq)
    lag = path.y[1:-1]  # Y_{t-1}, t = 2..T
    terms = np.empty((lag.size, 3))
    np.multiply(lag, lag, out=terms[:, 0])
    np.multiply(path.y[2:], lag, out=terms[:, 1])
    np.divide(terms[:, 0], vseq.values[: lag.size], out=terms[:, 2])
    acc = np.full(3, -0.0)  # -0.0 + x == x for every x
    if lag.size:
        _accumulate(acc, terms)
    hat, corr = _slopes(path.params.rho * path.params.sigma_xi, *acc.tolist())
    return EstimateResult(
        phi_hat=hat, phi_tilde=hat - corr, correction=corr, sample_size=path.horizon
    )


def z_series(path: SamplePath, vseq: VarianceSequence) -> MartingaleDiagnostics:
    """Score diagnostics for one path; see MartingaleDiagnostics."""
    if path.horizon < 2:
        raise OutOfRangeError(f"need path horizon >= 2, got {path.horizon}")
    _require_match(path, vseq)
    T = path.horizon
    lag = path.y[1:-1]  # Y_{t-1}, t = 2..T
    x = path.xi[1:]  # xi_t, t = 2..T
    v = vseq.values[: T - 1]  # V_{t-1}
    rho = path.params.rho
    sig = path.params.sigma_xi
    one_minus_rho2 = 1.0 - rho * rho
    lag_sq = lag * lag
    z = x * lag - rho * sig * lag_sq / v
    w = z * z - sig * sig * lag_sq * one_minus_rho2
    sigma_t_sq = sig * sig * v * v * one_minus_rho2
    return MartingaleDiagnostics(z=z, w=w, sigma_t_sq=sigma_t_sq)


def studentized_statistic(
    result: EstimateResult, true_phi: float, profile: DependenceProfile
) -> float:
    """sqrt(T)*(phi_tilde - true_phi)/eta_bar.

    Asymptotically standard normal across replications when true_phi is
    the data-generating coefficient and profile matches the generator.
    """
    if not math.isfinite(true_phi):
        raise NonFiniteError(f"true_phi must be finite, got {true_phi!r}")
    return (
        math.sqrt(result.sample_size) * (result.phi_tilde - true_phi) / profile.eta_bar
    )
