"""Monte Carlo experiments.

The asymptotic claims about the process (slope limit tau_bar, corrected
estimator consistency and its sqrt(T) normal limit, level and innovation
autocorrelation limits) are checked here at finite (T, R) with explicit
Monte Carlo standard errors.  Moments of non-stationary quantities are
always computed cross-sectionally: across independent replications at a
fixed time index, never along a single path.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dependence import delta_limit, eta_bar, tau_bar
from .errors import DegenerateDenominatorError, NonFiniteError, OutOfRangeError
from .estimation import _slopes
from .model import _Frozen
from .simulation import BatchSpec, _run_batch

__all__ = [
    "Moments",
    "ExperimentSummary",
    "AcfRow",
    "AcfTable",
    "normal_cdf",
    "ks_distance",
    "run_consistency_experiment",
    "run_clt_experiment",
    "empirical_acf_experiment",
]

_SQRT2 = math.sqrt(2.0)


class Moments(_Frozen):
    """Mean, sample variance, skewness and excess kurtosis of a sample.

    Variance uses the unbiased (n-1) denominator; skewness and excess
    kurtosis are the plain method-of-moments ratios.
    """

    __slots__ = __match_args__ = ("mean", "variance", "skewness", "excess_kurtosis")


class ExperimentSummary(_Frozen):
    """Aggregated Monte Carlo statistics for one estimator and target."""

    __slots__ = ("spec", "target", "estimate_mean", "estimate_sd", "mc_standard_error",  # estimate_sd/sqrt(R)
                 "standardized_moments", "ks_distance")
    __match_args__ = ("spec", "target", "estimate_mean", "estimate_sd", "standardized_moments", "ks_distance")

    def __init__(self, spec: BatchSpec, target: float, estimate_mean: float, estimate_sd: float,
                 standardized_moments: Moments, ks_distance: float) -> None:
        se = estimate_sd / math.sqrt(spec.replications)
        self._set(spec, target, estimate_mean, estimate_sd, se, standardized_moments, ks_distance)
        if not 0.0 <= ks_distance <= 1.0:
            raise OutOfRangeError(f"ks_distance must lie in [0,1], got {ks_distance!r}")

    def as_tree(self) -> dict:
        """JSON-compatible tree with all spec fields and statistics."""
        return _tree(self)


class AcfRow(_Frozen):
    """Empirical vs theoretical autocorrelations at one lag k."""

    __slots__ = __match_args__ = (
        "k", "y_empirical", "y_theory", "y_mc_se", "xi_empirical", "xi_theory", "xi_mc_se",
    )


class AcfTable(_Frozen):
    """Cross-sectional autocorrelation comparison at a fixed time t_obs."""

    __slots__ = __match_args__ = ("spec", "t_obs", "rows")  # rows: a tuple of AcfRow

    def as_tree(self) -> dict:
        """JSON-compatible tree with all spec fields and one dict per row."""
        return _tree(self)


def _tree(result: ExperimentSummary | AcfTable) -> dict:
    # The result's fields in slot order, nested values as dicts and tuples
    # of rows as lists, as JSON reads them back, with the spec's params
    # inlined ahead of its other fields.
    def plain(value: object) -> object:
        if isinstance(value, _Frozen):
            return {name: plain(field) for name, field in value._asdict().items()}
        return [plain(v) for v in value] if isinstance(value, tuple) else value

    tree = plain(result)
    spec = tree["spec"]
    tree["spec"] = {**spec.pop("params"), **spec}
    return tree


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to well below 1e-12 absolute over the whole real line.
    """
    if not math.isfinite(x):
        raise NonFiniteError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def ks_distance(sample: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of a sample to N(0, 1).

    Uses the two one-sided suprema over the sorted sample, exact for a
    continuous reference distribution.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 1:
        raise OutOfRangeError("sample must be nonempty")
    fx = np.array([normal_cdf(float(v)) for v in x])
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - fx))
    d_minus = float(np.max(fx - (grid - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def _moments(sample: np.ndarray) -> Moments:
    mean = float(np.mean(sample))
    centered = sample - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    if m2 <= 0.0:
        raise DegenerateDenominatorError("sample has zero variance")
    return Moments(
        mean=mean,
        variance=float(np.var(sample, ddof=1)),
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
    )


def _summary(
    spec: BatchSpec, target: float, sample: np.ndarray, statistic: np.ndarray | None = None
) -> ExperimentSummary:
    sd = float(np.std(sample, ddof=1))
    if sd <= 0.0:
        raise DegenerateDenominatorError("estimate sample has zero variance")
    if statistic is None:
        statistic = (sample - np.mean(sample)) / sd
    return ExperimentSummary(
        spec=spec,
        target=float(target),
        estimate_mean=float(np.mean(sample)),
        estimate_sd=sd,
        standardized_moments=_moments(statistic),
        ks_distance=ks_distance(statistic),
    )


def _collect_estimates(spec: BatchSpec) -> tuple[np.ndarray, np.ndarray]:
    # Plain and corrected slopes of every replication, from the sums the
    # batch kernel accumulates, through the same step as infeasible_estimate.
    hat, corr = _slopes(spec.params.rho * spec.params.sigma_xi, *_run_batch(spec))
    return hat, hat - corr


def run_consistency_experiment(spec: BatchSpec) -> tuple[ExperimentSummary, ExperimentSummary]:
    """Estimate both slopes on R independent paths of length T.

    Returns one summary for the plain estimator (target tau_bar, which it
    converges to) and one for the corrected estimator (target phi).  The
    standardized-moment and KS fields describe the z-scored estimate
    sample, a shape check of approximate normality.

    Requires R >= 100 and T >= 100.
    """
    if spec.replications < 100:
        raise OutOfRangeError(f"need R >= 100, got {spec.replications}")
    if spec.path_length < 100:
        raise OutOfRangeError(f"need T >= 100, got {spec.path_length}")
    hats, tildes = _collect_estimates(spec)
    return (
        _summary(spec, tau_bar(spec.params), hats),
        _summary(spec, spec.params.phi, tildes),
    )


def run_clt_experiment(spec: BatchSpec) -> ExperimentSummary:
    """Distributional check of sqrt(T)*(phi_tilde - phi)/eta_bar at the generating phi.

    The summary's estimate fields describe the phi_tilde sample; the
    standardized moments and the KS distance describe the studentized
    statistic, which should approach N(0,1).

    Requires R >= 1000 and T >= 5000.
    """
    if spec.replications < 1000:
        raise OutOfRangeError(f"need R >= 1000, got {spec.replications}")
    if spec.path_length < 5000:
        raise OutOfRangeError(f"need T >= 5000, got {spec.path_length}")
    _, tildes = _collect_estimates(spec)
    stats = math.sqrt(spec.path_length) * (tildes - spec.params.phi) / eta_bar(spec.params)
    return _summary(spec, spec.params.phi, tildes, statistic=stats)


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def empirical_acf_experiment(spec: BatchSpec, t_obs: int, k_max: int) -> AcfTable:
    """Cross-sectional autocorrelations of levels and innovations.

    For each lag k = 1..k_max, correlates (Y_t, Y_{t+k}) and
    (xi_t, xi_{t+k}) across replications at t = t_obs, next to the
    theoretical limits tau_bar^k and delta_limit(k).  The MC standard
    errors use the (1-r^2)/sqrt(R-3) approximation for a correlation
    estimate.

    The theory columns are t -> infinity limits, so they describe t_obs
    only once V_t has settled near vbar.  That holds at t_obs = 200 for
    moderate parameters, but not near the boundary: at phi = rho = 0.99,
    |V_200 - vbar|/vbar is still 0.134.

    Requires t_obs >= 200, t_obs + k_max <= T, and R >= 30.
    """
    if t_obs < 200:
        raise OutOfRangeError(f"need t_obs >= 200, got {t_obs}")
    if k_max < 1:
        raise OutOfRangeError(f"need k_max >= 1, got {k_max}")
    if t_obs + k_max > spec.path_length:
        raise OutOfRangeError(
            f"t_obs+k_max={t_obs + k_max} exceeds path length {spec.path_length}"
        )
    if spec.replications < 30:
        raise OutOfRangeError(f"need R >= 30, got {spec.replications}")
    ys, xs = _run_batch(spec, keep=(t_obs, t_obs + k_max + 1))
    tb = tau_bar(spec.params)
    se_scale = 1.0 / math.sqrt(spec.replications - 3)
    rows = []
    for k in range(1, k_max + 1):
        ry = _corr(ys[:, 0], ys[:, k])
        rx = _corr(xs[:, 0], xs[:, k])
        rows.append(
            AcfRow(
                k=k,
                y_empirical=ry,
                y_theory=tb**k,
                y_mc_se=(1.0 - ry * ry) * se_scale,
                xi_empirical=rx,
                xi_theory=delta_limit(spec.params, k),
                xi_mc_se=(1.0 - rx * rx) * se_scale,
            )
        )
    return AcfTable(spec=spec, t_obs=t_obs, rows=tuple(rows))

