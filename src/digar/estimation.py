"""Least-squares slope estimation and its corrected, infeasible variant.

The plain least-squares slope of Y_t on Y_{t-1} converges to tau_bar, not
to phi, whenever rho != 0.  Subtracting the correction term
rho*sigma_xi*sum(Y_{t-1}^2/V_{t-1})/sum(Y_{t-1}^2) restores consistency;
the corrected estimator is infeasible in practice because the correction
consumes the true rho, sigma_xi and V_t, which is why these operations
take the true parameters explicitly, through the path or as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dependence import eta_bar
from .errors import DegenerateDenominatorError, NonFiniteError, OutOfRangeError
from .model import ModelParams
from .simulation import SamplePath, _path_pieces, _PathSums

__all__ = [
    "EstimateResult",
    "infeasible_estimate",
    "studentized_statistic",
]

_Sums = float | np.ndarray  # one sum, or one per path


@dataclass(frozen=True)
class EstimateResult:
    """Slope estimates from one path: plain, corrected, and the correction."""

    phi_hat: float
    phi_tilde: float = field(init=False)  # phi_hat - correction
    correction: float
    sample_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_tilde", self.phi_hat - self.correction)
        if self.sample_size < 2:
            raise OutOfRangeError(f"sample_size must be >= 2, got {self.sample_size}")


def _slopes(coef: float, den: _Sums, cross: _Sums, weighted: _Sums) -> tuple[_Sums, _Sums]:
    # Plain slope cross/den and correction coef*weighted/den from the
    # time-ordered sums, refused by name when the denominator is zero or
    # when the sums or the slopes overflow.
    if np.any(den <= 0.0):
        raise DegenerateDenominatorError(
            "sum of squared lagged values is zero (need T >= 2 and a nonzero path)"
        )
    with np.errstate(all="ignore"):
        hat, corr = cross / den, coef * weighted / den
    if not np.isfinite([den, hat, corr]).all():
        raise NonFiniteError("estimator sums or slopes are not finite (they overflow double precision)")
    return hat, corr


def infeasible_estimate(path: SamplePath) -> EstimateResult:
    """Plain least-squares slope and its corrected, infeasible variant.

    phi_hat = sum(Y_t*Y_{t-1})/sum(Y_{t-1}^2), which converges to tau_bar,
    and phi_tilde = phi_hat - correction with the bias correction
    rho*sigma_xi*sum(Y_{t-1}^2/V_{t-1})/sum(Y_{t-1}^2), which converges
    almost surely to rho*sigma_xi/vbar and is exactly zero when rho = 0.
    V_t comes from variance_sequence's recursion.  Sums run over t=2..T
    and add their terms in time order, chunk by chunk, as the batch kernel
    does, so a batch row's estimates equal its path's bit for bit.

    Raises
    ------
    DegenerateDenominatorError
        If the path is too short (T < 2) or all lagged values are zero.
    """
    return _estimate(path.params, _path_pieces(path.y, path.xi))


def _estimate(params: ModelParams, pieces: Iterable[tuple[np.ndarray, np.ndarray]]) -> EstimateResult:
    # infeasible_estimate of the path whose (Y, xi) pieces these are, in
    # time order, with SamplePath's refusals; no T-long array is held.
    sums = _PathSums(params)
    for piece in pieces:
        sums.add(*piece)
    hat, corr = _slopes(params.rho * params.sigma_xi, *sums.close()[:, 0].tolist())
    return EstimateResult(phi_hat=hat, correction=corr, sample_size=sums.nx)


def studentized_statistic(result: EstimateResult, true_phi: float, params: ModelParams) -> float:
    """sqrt(T)*(phi_tilde - true_phi)/eta_bar(params).

    Asymptotically standard normal across replications when true_phi is
    the data-generating coefficient and params are the generator's.
    """
    if not math.isfinite(true_phi):
        raise NonFiniteError(f"true_phi must be finite, got {true_phi!r}")
    return math.sqrt(result.sample_size) * (result.phi_tilde - true_phi) / eta_bar(params)
