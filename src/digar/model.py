"""Model parameters and the deterministic variance structure of the process.

The process is an AR(1) recursion Y_t = phi*Y_{t-1} + xi_t started at
Y_0 = 0, whose innovation xi_t is N(0, sigma_xi^2) marginally but shares a
Gaussian copula with parameter rho with the lagged level Y_{t-1}.  The
standard deviation V_t of Y_t then follows a deterministic recursion with a
closed-form limit vbar; both are implemented here.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteError, OutOfRangeError

__all__ = [
    "ModelParams",
    "stationary_sd",
    "variance_sequence",
    "vbar_limit",
]


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter triple (phi, rho, sigma_xi).

    Construction enforces the constraints below, so every instance in
    circulation is valid.

    Parameters
    ----------
    phi : float
        Autoregressive coefficient, |phi| < 1 strictly.
    rho : float
        Gaussian copula parameter between the innovation and the lagged
        level, |rho| < 1 strictly.
    sigma_xi : float
        Marginal standard deviation of the innovation, > 0.

    Raises
    ------
    NonFiniteError
        If any input is NaN or infinite.
    OutOfRangeError
        If any constraint is violated.
    """

    phi: float
    rho: float
    sigma_xi: float

    def __post_init__(self) -> None:
        for name in ("phi", "rho", "sigma_xi"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
                raise NonFiniteError(f"{name} must be a real number, got {type(value).__name__}")
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if abs(self.phi) >= 1.0:
            raise OutOfRangeError(f"|phi| < 1 required, got phi={self.phi!r}")
        if abs(self.rho) >= 1.0:
            raise OutOfRangeError(f"|rho| < 1 required, got rho={self.rho!r}")
        if self.sigma_xi <= 0.0:
            raise OutOfRangeError(f"sigma_xi > 0 required, got sigma_xi={self.sigma_xi!r}")


def stationary_sd(params: ModelParams) -> float:
    """Standard deviation sigma_xi/sqrt(1 - phi^2) of the classical AR(1).

    This is the rho = 0 value of the variance limit; with dependence it
    serves as the reference level the limit is compared against.  1 - phi^2
    is formed as (1 - phi)*(1 + phi), which keeps its digits as |phi|
    nears 1.
    """
    phi = params.phi
    return params.sigma_xi / math.sqrt((1.0 - phi) * (1.0 + phi))


def variance_sequence(params: ModelParams, T: int) -> np.ndarray:
    """Compute V_1..V_T, the standard deviations of Y_t, by the one-step recursion.

    Uses V_t^2 = phi^2*V_{t-1}^2 + 2*phi*rho*sigma_xi*V_{t-1} + sigma_xi^2
    with V_1 = sigma_xi, which is Var(phi*Y_{t-1} + xi_t) with
    Cov(Y_{t-1}, xi_t) = rho*sigma_xi*V_{t-1}.  O(T) cost.  Once an entry
    maps exactly onto itself, the rest of the sequence is filled with it
    instead of iterating further; the values are the same.  Returns a
    read-only float array whose entry t-1 is V_t.

    Parameters
    ----------
    params : ModelParams
    T : int
        Number of entries, >= 1.

    Raises
    ------
    OutOfRangeError
        If T < 1, or if an entry is zero, as when sigma_xi^2 underflows.
    NonFiniteError
        If an entry is not finite, as when sigma_xi^2 overflows.
    """
    values = _checked_variance_walk(params, T)(T)
    values.setflags(write=False)
    return values


def _checked_variance_walk(params: ModelParams, T: int) -> Callable[[int], np.ndarray]:
    # variance_sequence's refusals, T < 1 first and then V_1..V_T's, made
    # before a fresh _variance_walk is returned: the one place that orders them.
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    _check_variances(params, T)
    return _variance_walk(params)


def _variance_walk(params: ModelParams) -> Callable[[int], np.ndarray]:
    # next_v(n) returns the next n >= 0 entries of V_1, V_2, ... as a float
    # array, by variance_sequence's recursion and fixed-point fill; a walk
    # taken in pieces yields the same entries as one taken whole.
    a = params.phi * params.phi
    b = 2.0 * params.phi * params.rho * params.sigma_xi
    c = params.sigma_xi * params.sigma_xi
    sqrt = math.sqrt
    v = None  # the last entry returned
    fixed = False

    def next_v(n: int) -> np.ndarray:
        nonlocal v, fixed
        out = array("d", [0.0]) * n  # cheaper to store into from Python than numpy
        values = np.frombuffer(out)
        start = 0
        if v is None and n:
            v = params.sigma_xi
            out[0] = v
            start = 1
        if fixed:
            values[:] = v
            return values
        for t in range(start, n):
            nxt = sqrt(a * v * v + b * v + c)
            if nxt == v:
                # An exact fixed point of the map: every later entry equals it.
                fixed = True
                values[t:] = v
                break
            v = nxt
            out[t] = v
        return values

    return next_v


def _check_variances(params: ModelParams, T: int) -> None:
    # variance_sequence's refusals for V_1..V_T, and the only code that
    # decides them: a non-finite entry, else an entry <= 0.  It walks V_t
    # in pieces and stops at the first entry equal to one of the two before
    # it: V_{t+1} is a function of V_t alone, so every later entry repeats
    # a checked one.
    next_v = _variance_walk(params)
    w = np.empty(0)  # the last two entries checked, then the next piece
    positive = True
    for lo in range(0, T, 4_096):
        w = np.concatenate((w[-2:], next_v(min(4_096, T - lo))))
        if not np.all(np.isfinite(w)):
            raise NonFiniteError("variance sequence contains non-finite entries")
        positive = positive and bool(np.all(w > 0.0))
        if np.any(w[2:] == w[1:-1]) or np.any(w[2:] == w[:-2]):
            break
    if not positive:
        raise OutOfRangeError("every V_t must be positive")


def vbar_limit(params: ModelParams) -> float:
    """Closed-form limit vbar of V_t as t grows.

    vbar = sigma_xi*(rho*phi + sqrt(rho^2*phi^2 + 1 - phi^2))/(1 - phi^2),
    the positive root of (1-phi^2)*v^2 - 2*rho*phi*sigma_xi*v - sigma_xi^2,
    i.e. the fixed point of the one-step variance recursion.  Where
    rho*phi < 0 that sum cancels, so there the equal form
    sigma_xi/(sqrt(rho^2*phi^2 + (1-phi)*(1+phi)) - rho*phi) is used, whose
    terms are all positive.  Both forms take 1 - phi^2 as (1-phi)*(1+phi),
    which keeps its digits as |phi| nears 1.
    """
    phi = params.phi
    rp = params.rho * phi
    d = (1.0 - phi) * (1.0 + phi)  # 1 - phi^2
    if rp < 0.0:
        return params.sigma_xi / (math.sqrt(rp * rp + d) - rp)
    return params.sigma_xi * (rp + math.sqrt(params.rho * params.rho * phi * phi + d)) / d
