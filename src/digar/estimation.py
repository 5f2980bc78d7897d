"""Least-squares slope estimation and its corrected, infeasible variant.

The plain least-squares slope of Y_t on Y_{t-1} converges to tau_bar, not
to phi, whenever rho != 0.  Subtracting the correction term
rho*sigma_xi*sum(Y_{t-1}^2/V_{t-1})/sum(Y_{t-1}^2) restores consistency;
the corrected estimator is infeasible in practice because the correction
consumes the true rho, sigma_xi and V_t, which is why infeasible_estimate
takes the true parameters from the path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateDenominatorError, NonFiniteError, OutOfRangeError
from .model import ModelParams, _check_variances, _variance_walk
from .simulation import SamplePath, _add_sums, _checked_steps, _path_pieces

__all__ = [
    "EstimateResult",
    "infeasible_estimate",
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
    # subnormal, or when the sums or the slopes overflow.
    if np.any(den <= 0.0):
        raise DegenerateDenominatorError(
            "sum of squared lagged values is zero (need T >= 2 and a nonzero path)"
        )
    if np.any(den < sys.float_info.min):
        raise DegenerateDenominatorError(
            "sum of squared lagged values is subnormal, so its terms lost digits (the path is too small)"
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
        If T < 2, or the squared lagged values sum to zero or a subnormal.
    """
    return _estimate(path.params, _path_pieces(path.y, path.xi))


def _estimate(params: ModelParams, pieces: Iterable[tuple[np.ndarray, np.ndarray]]) -> EstimateResult:
    # infeasible_estimate of the path whose (Y, xi) pieces these are, in
    # time order, summed by _walk_estimate from the Y_t that _checked_steps
    # hands out and V_{t-1} from a walk begun at step t = 2.  SamplePath's
    # refusals come first, then V_1..V_T's; no T-long array is held.
    next_v = _variance_walk(params)

    def chunks() -> Iterator[tuple[np.ndarray, None, np.ndarray]]:
        T = 0
        for ys in _checked_steps(params, pieces):
            yield ys, None, next_v(ys.size - (T == 0))  # V_{t-1} of the steps t >= 2
            T += ys.size
        _check_variances(params, T)

    return _walk_estimate(params, chunks())


def _walk_estimate(
    params: ModelParams, chunks: Iterable[tuple[Sequence[float], object, np.ndarray]]
) -> EstimateResult:
    # The single-path summer: infeasible_estimate of the path whose chunks
    # these are, in _walk's (ys, xs, v) form, summed chunk by chunk from Y_t
    # and V_{t-1} as _block_writer sums its rows.  `estimate -T` passes _walk's
    # own chunks, so the walk's checks are its only ones.
    acc = np.full((3, 1), -0.0)  # -0.0 + x == x for every x
    level = 0.0  # Y_0, then the last Y_t of the chunk before
    T = 0
    for ys, _, v in chunks:
        y = np.concatenate(([level], ys))[len(ys) - v.size :, None]  # Y_{t-1} of the steps t >= 2, then Y_t
        if v.size:
            _add_sums(acc, y[:-1], y[1:], v[:, None], np.empty((v.size, 1)))
        level = ys[-1]
        T += len(ys)
    return _result(params, acc, T)


def _result(params: ModelParams, sums: np.ndarray, n: int) -> EstimateResult:
    # The estimate of an n-step path from its (3, 1) sums.
    hat, corr = _slopes(params.rho * params.sigma_xi, *sums[:, 0].tolist())
    return EstimateResult(phi_hat=hat, correction=corr, sample_size=n)
