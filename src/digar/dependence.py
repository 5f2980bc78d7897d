"""Dependence functionals of the process.

Everything here is a deterministic function of the parameters alone: the
copula parameter tau_{t,t+k} between levels k steps apart, which derives
V_t itself, the large-t limit tau_bar of tau_{t,t+1}, the induced
innovation autocorrelation limit, the asymptotic bias of least squares,
the asymptotic standard deviation eta_bar of the corrected estimator, the
geometric decay bound eta_hat, and the figure curves: vbar_curve and
bias_curve, rows (phi, rho, vbar) and (phi, rho, bias) over a (phi, rho)
grid, which `digar figure` takes as DEFAULT_PHI_GRID by DEFAULT_RHO_GRID
unless told otherwise.  Only tau_lag_k, through variance_sequence, loads
numpy.  tau_lag_k, tau_bar, delta_limit, ols_bias, eta_bar and eta_hat are
scale-free and run at sigma_xi's binary mantissa, for any sigma_xi > 0.

eta_hat = sup_t |tau_{t,t+1}| comes from a short walk of the variance map
f(v) = sqrt(u(v)^2 + s2), u(v) = phi*v + rho*sigma_xi, s2 = sigma_xi^2*(1-rho^2):
|tau_{t,t+1}| = H(|u(V_t)|) with H(x) = x/sqrt(x^2 + s2) increasing, and
f' = phi*tau, so |f'| <= |phi| < 1 and the orbit after V_t stays in
J_t = [vbar - d_t, vbar + d_t], d_t = |V_t - vbar|.  Once |phi|*d_t <=
|u(vbar)| = |tau_bar|*vbar, u keeps one sign on J_t, f is monotone there,
and the orbits of f or f∘f from V_t and V_{t+1} move monotonically toward
vbar, so eta_hat = max(|tau_1|, ..., |tau_{t+1}|, |tau_bar|); that holds at
t = 1 when phi*rho >= 0.  At tau_bar = 0 it never does: the walk then stops
once H(|u(vbar)| + |phi|*d_t) is at most the running max, or at a
floating-point fixed point V_{t+1} == V_t.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import OutOfRangeError
from .model import ModelParams, _Frozen, variance_sequence, vbar_limit

__all__ = [
    "DependenceProfile",
    "tau_lag_k",
    "tau_bar",
    "delta_limit",
    "ols_bias",
    "eta_bar",
    "mixing_decay_bound",
    "dependence_profile",
    "DEFAULT_PHI_GRID",
    "DEFAULT_RHO_GRID",
    "vbar_curve",
    "bias_curve",
]

# Grid behind the exported curves: six phi values by seven rho values
# at unit innovation scale.
DEFAULT_PHI_GRID = (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)
DEFAULT_RHO_GRID = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)

# Relative rounding in vbar, tau_bar and H that mixing_decay_bound allows for
_ROUNDING = 8 * math.ulp(1.0)


def _unit_scale(params: ModelParams) -> ModelParams:
    # params at sigma_xi's binary mantissa, in [0.5, 1).  Division by a power
    # of two is exact: same bits wherever sigma_xi's own arithmetic is in range.
    return ModelParams(params.phi, params.rho, math.frexp(params.sigma_xi)[0])


class DependenceProfile(_Frozen):
    """Bundle of the limiting dependence quantities for one parameter set."""

    __slots__ = ("params", "tau_bar", "ols_bias", "eta_bar", "eta_hat")  # tau_bar = phi + ols_bias
    __match_args__ = ("params", "ols_bias", "eta_bar", "eta_hat")

    def __init__(self, params: ModelParams, ols_bias: float, eta_bar: float, eta_hat: float) -> None:
        self._set(params, params.phi + ols_bias, ols_bias, eta_bar, eta_hat)
        if abs(self.tau_bar) == 1.0:  # the exact 1 - tau_bar^2 is eta_bar^2 > 0
            raise OutOfRangeError(
                f"|tau_bar| < 1 required, got {self.tau_bar!r}: tau_bar rounds to +-1 in double "
                f"precision, since the exact 1 - |tau_bar| is about {self.eta_bar ** 2 / 2:.2g}"
            )
        if not abs(self.tau_bar) < 1.0:
            raise OutOfRangeError(f"|tau_bar| < 1 required, got {self.tau_bar!r}")
        if not self.eta_bar > 0.0:
            raise OutOfRangeError(f"eta_bar > 0 required, got {self.eta_bar!r}")
        if not abs(self.tau_bar) <= self.eta_hat < 1.0:  # the sup includes the limit
            raise OutOfRangeError(f"|tau_bar| <= eta_hat < 1 required, got eta_hat={self.eta_hat!r}")


def tau_lag_k(params: ModelParams, t: int, k: int) -> float:
    """Copula parameter tau_{t,t+k} between Y_t and Y_{t+k}.

    The product of the k one-step parameters
    tau_{s,s+1} = (phi*V_s + rho*sigma_xi)/V_{s+1}, s = t..t+k-1, each the
    correlation of (Y_s, Y_{s+1}) since both are Gaussian; tau_lag_k(params,
    t, 1) is tau_{t,t+1}.  Every factor is strictly inside (-1, 1):
    V_{s+1}^2 - (phi*V_s + rho*sigma_xi)^2 = sigma_xi^2*(1 - rho^2) > 0.
    Gaussian copulas compose along the Markov chain by multiplying their
    parameters, so the magnitude is bounded by eta_hat^k.

    Raises
    ------
    OutOfRangeError
        If t < 1 or k < 1.
    """
    if t < 1:
        raise OutOfRangeError(f"t must be >= 1, got {t}")
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    params = _unit_scale(params)
    v = variance_sequence(params, t + k)
    out = 1.0
    for s in range(t, t + k):
        out *= (params.phi * v[s - 1] + params.rho * params.sigma_xi) / v[s]
    return out


def ols_bias(params: ModelParams) -> float:
    """Asymptotic bias rho*sigma_xi/vbar of the least-squares slope."""
    params = _unit_scale(params)
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
    params = _unit_scale(params)
    vb = vbar_limit(params)
    tb = tau_bar(params)
    phi = params.phi
    sig2 = params.sigma_xi * params.sigma_xi
    return vb * vb * tb ** (k - 1) * (tb - phi) * (1.0 - phi * tb) / sig2


def eta_bar(params: ModelParams) -> float:
    """Asymptotic standard deviation of sqrt(T)*(corrected estimate - phi).

    eta_bar = sigma_xi*sqrt(1 - rho^2)/vbar.  At rho = 0 this reduces to
    sqrt(1 - phi^2), the classical AR(1) value, which pins down the
    standard-deviation (not variance) reading.  1 - rho^2 is formed as
    (1 - rho)*(1 + rho), which keeps its digits as |rho| nears 1.
    """
    params = _unit_scale(params)
    rho = params.rho
    return params.sigma_xi * math.sqrt((1.0 - rho) * (1.0 + rho)) / vbar_limit(params)


def mixing_decay_bound(params: ModelParams) -> float:
    """Geometric decay bound eta_hat = sup_t |tau_{t,t+1}| < 1.

    Walks V_t by the recursion of variance_sequence, keeping the running max
    of |tau_{t,t+1}|.  Once |phi|*|V_t - vbar| <= |tau_bar|*vbar the map is
    monotone where the orbit stays, so |tau_{s,s+1}| moves monotonically to
    |tau_bar| from s = t and s = t+1 on: the max over s <= t+1 and |tau_bar|
    is exact.  At tau_bar = 0 a tail bound or a fixed point stops the walk
    (module docstring).  Rules allow a few ulps; 1.0 if tau_bar rounds to 1.
    """
    params = _unit_scale(params)
    phi, rho, sig = params.phi, params.rho, params.sigma_xi
    # evaluated as in variance_sequence, so each tau equals tau_lag_k's at k = 1
    a, b, c = phi * phi, 2.0 * phi * rho * sig, sig * sig
    rs, s2 = rho * sig, c * (1.0 - rho * rho)
    vb = vbar_limit(params)
    tb = abs(tau_bar(params))
    u_bar = tb * vb
    sign_slack = u_bar - _ROUNDING * (abs(phi) * vb + abs(rs))
    v, head = sig, 0.0
    while True:
        w = math.sqrt(a * v * v + b * v + c)
        head = max(head, abs(phi * v + rs) / w)
        reach = abs(phi) * abs(v - vb)  # bounds |u(V_s) - u(vbar)| for s >= t
        if reach <= sign_slack:
            return max(head, abs(phi * w + rs) / math.sqrt(a * w * w + b * w + c), tb)
        x = u_bar + reach
        if w == v or x / math.sqrt(x * x + s2) * (1.0 + _ROUNDING) <= head:
            return max(head, tb)
        v = w


def dependence_profile(params: ModelParams) -> DependenceProfile:
    """Assemble the DependenceProfile for one parameter set."""
    return DependenceProfile(
        params=params,
        ols_bias=ols_bias(params),
        eta_bar=eta_bar(params),
        eta_hat=mixing_decay_bound(params),
    )


def _curve(
    value: Callable[[ModelParams], float],
    phi_list: Sequence[float],
    rho_grid: Sequence[float],
    sigma_xi: float,
) -> tuple[tuple[float, float, float], ...]:
    # Rows (phi, rho, value(params)), phi-major; ModelParams refuses any
    # grid point outside the domain.
    rows = []
    for phi in phi_list:
        for rho in rho_grid:
            p = ModelParams(phi, rho, sigma_xi)
            rows.append((p.phi, p.rho, value(p)))
    return tuple(rows)


def vbar_curve(
    phi_list: Sequence[float], rho_grid: Sequence[float], sigma_xi: float
) -> tuple[tuple[float, float, float], ...]:
    """Rows (phi, rho, vbar) of the variance limit over a (phi, rho) grid."""
    return _curve(vbar_limit, phi_list, rho_grid, sigma_xi)


def bias_curve(
    phi_list: Sequence[float], rho_grid: Sequence[float], sigma_xi: float
) -> tuple[tuple[float, float, float], ...]:
    """Rows (phi, rho, bias) of the asymptotic slope bias rho*sigma_xi/vbar
    over a (phi, rho) grid."""
    return _curve(ols_bias, phi_list, rho_grid, sigma_xi)
