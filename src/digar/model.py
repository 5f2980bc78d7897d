"""Model parameters and the deterministic variance structure of the process.

The process is an AR(1) recursion Y_t = phi*Y_{t-1} + xi_t started at
Y_0 = 0, whose innovation xi_t is N(0, sigma_xi^2) marginally but shares a
Gaussian copula with parameter rho with the lagged level Y_{t-1}.  The
standard deviation V_t of Y_t then follows a deterministic recursion with a
closed-form limit vbar; both are implemented here.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import TYPE_CHECKING, Callable

from .errors import NonFiniteError, OutOfRangeError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModelParams",
    "stationary_sd",
    "variance_sequence",
    "vbar_limit",
]

# Time steps per chunk of the single-path route: simulate_path, the CSV
# writers, the path checker and _check_variances take the path or V_t this
# many steps at a time.  `simulate -T 1000000` formats at the same speed with
# chunks of 2,048 to 65,536 steps; its peak RSS is 44.6 MiB at 4,096,
# 46.4 MiB at 8,192 and 72.9 MiB at 65,536.
_PATH_CHUNK = 4_096


class _Frozen:
    # A value whose __slots__ are its fields, each set once by __init__, and
    # whose __match_args__ are __init__'s arguments: equal, hashed and printed
    # by its fields, and copied and pickled through __init__'s checks.  A
    # subclass whose fields are its arguments, with no checks, declares only
    # __slots__ = __match_args__ = (...).
    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        # Binds args, then kwargs, to __match_args__, each once, as a def
        # with those parameters and no defaults would.
        names = self.__match_args__
        values = {**dict(zip(names, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {', '.join(names)}, each once, "
                f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
            )
        self._set(*(values[name] for name in names))

    def _set(self, *values: object) -> None:
        # Sets the fields, in __slots__ order, to values.
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class ModelParams(_Frozen):
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

    __slots__ = __match_args__ = ("phi", "rho", "sigma_xi")

    def __init__(self, phi: float, rho: float, sigma_xi: float) -> None:
        # numpy's scalars are real too; none exists before numpy is loaded.
        numpy = sys.modules.get("numpy")
        real = (int, float) if numpy is None else (int, float, numpy.floating, numpy.integer)
        for name, value in zip(self.__slots__, (phi, rho, sigma_xi)):
            if isinstance(value, bool) or not isinstance(value, real):
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


def _unit_scale(params: ModelParams) -> ModelParams:
    # params at sigma_xi's binary mantissa, in [0.5, 1).  Division by a power
    # of two is exact: same bits wherever sigma_xi's own arithmetic is in range.
    return ModelParams(params.phi, params.rho, math.frexp(params.sigma_xi)[0])


def _at_scale(name: str, value: float, params: ModelParams) -> float:
    # value, proportional to sigma_xi and computed at _unit_scale(params),
    # at params' own scale: the bits of the same arithmetic at that scale
    # wherever it stays in the normal range.  A result past it is refused.
    try:
        value = math.ldexp(value, math.frexp(params.sigma_xi)[1])
    except OverflowError:
        raise NonFiniteError(f"{name} overflows a double at sigma_xi={params.sigma_xi!r}")
    if value < sys.float_info.min:
        raise OutOfRangeError(
            f"{name} is below the smallest normal double at sigma_xi={params.sigma_xi!r}, "
            "so its digits would be lost"
        )
    return value


def stationary_sd(params: ModelParams) -> float:
    """Standard deviation sigma_xi/sqrt(1 - phi^2) of the classical AR(1).

    This is the rho = 0 value of the variance limit; with dependence it
    serves as the reference level the limit is compared against.  1 - phi^2
    is formed as (1 - phi)*(1 + phi), which keeps its digits as |phi|
    nears 1.  Computed at sigma_xi's binary mantissa and scaled back, so
    every digit holds at any sigma_xi.  Raises NonFiniteError if it
    overflows and OutOfRangeError if it is subnormal.
    """
    phi = params.phi
    sd = math.frexp(params.sigma_xi)[0] / math.sqrt((1.0 - phi) * (1.0 + phi))
    return _at_scale("S", sd, params)


def variance_sequence(params: ModelParams, T: int) -> np.ndarray:
    """Compute V_1..V_T, the standard deviations of Y_t, by the one-step recursion.

    Uses V_t^2 = phi^2*V_{t-1}^2 + 2*phi*rho*sigma_xi*V_{t-1} + sigma_xi^2
    with V_1 = sigma_xi, which is Var(phi*Y_{t-1} + xi_t) with
    Cov(Y_{t-1}, xi_t) = rho*sigma_xi*V_{t-1}.  O(T) cost.  Once an entry
    equals one of the two before it, the rest repeats that fixed point or
    2-cycle and is filled, not iterated; the values are the same.  Returns
    a read-only float array whose entry t-1 is V_t.

    Parameters
    ----------
    params : ModelParams
    T : int
        Number of entries, >= 1.

    Raises
    ------
    OutOfRangeError
        If T < 1, or if an entry is zero, as when sigma_xi^2 underflows or
        the sum under the root cancels to 0 or below, near phi*rho = -1.
    NonFiniteError
        If an entry is not finite, as when sigma_xi^2 overflows.
    """
    values = _check_variances(params, T)(T)
    values.setflags(write=False)
    return values


def _variance_walk(params: ModelParams) -> Callable[[int], np.ndarray]:
    # next_v(n) returns the next n >= 0 entries of V_1, V_2, ... as a float
    # array, by variance_sequence's recursion and repeat fill; a walk taken
    # in pieces yields the same entries as one taken whole.
    import numpy as np
    a = params.phi * params.phi
    b = 2.0 * params.phi * params.rho * params.sigma_xi
    c = params.sigma_xi * params.sigma_xi
    sqrt = math.sqrt
    u = v = None  # the last two entries returned, v the last
    periodic = False  # once set, the entries go on u, v, u, v, ...

    def next_v(n: int) -> np.ndarray:
        nonlocal u, v, periodic
        out = array("d", [0.0]) * n  # cheaper to store into from Python than numpy
        values = np.frombuffer(out)
        t = 0
        if v is None and n:
            v = out[0] = params.sigma_xi
            t = 1
        try:
            for t in range(t, 0 if periodic else n):  # no step once periodic
                nxt = sqrt(a * v * v + b * v + c)
                if nxt == v or nxt == u:
                    # V_{t+1} depends on V_t alone, so the walk repeats from
                    # here: a fixed point (v, v) or a 2-cycle (u, v).
                    periodic, u = True, v if nxt == v else u
                    break
                u, v = v, nxt
                out[t] = v
        except ValueError:  # the sum cancelled below 0, as it can where phi*rho < 0 and |rho| nears 1
            periodic, u, v = True, 0.0, 0.0  # V_t and every later entry read 0, which _check_variances refuses
        if periodic:
            values[t::2], values[t + 1 :: 2] = u, v
            if (n - t) % 2:
                u, v = v, u  # the next entry is the other of the pair
        return values

    return next_v


def _check_variances(params: ModelParams, T: int) -> Callable[[int], np.ndarray]:
    # variance_sequence's refusals, T < 1 first and then V_1..V_T's, and
    # the only code that decides them: a non-finite entry, else an entry
    # <= 0.  Returns a fresh _variance_walk once they pass.  It walks V_t in
    # pieces and stops after a piece whose last entry equals the one two
    # before it, where the walk repeats a checked pair.
    import numpy as np
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    next_v = _variance_walk(params)
    positive = True
    for lo in range(0, T, _PATH_CHUNK):
        w = next_v(min(_PATH_CHUNK, T - lo))
        if not np.all(np.isfinite(w)):
            raise NonFiniteError("variance sequence contains non-finite entries")
        positive = positive and bool(np.all(w > 0.0))
        if w.size > 2 and w[-1] == w[-3]:
            break
    if not positive:
        raise OutOfRangeError("every V_t must be positive")
    return _variance_walk(params)


def vbar_limit(params: ModelParams) -> float:
    """Closed-form limit vbar of V_t as t grows.

    vbar = sigma_xi*(rho*phi + sqrt(rho^2*phi^2 + 1 - phi^2))/(1 - phi^2),
    the positive root of (1-phi^2)*v^2 - 2*rho*phi*sigma_xi*v - sigma_xi^2,
    i.e. the fixed point of the one-step variance recursion.  Where
    rho*phi < 0 that sum cancels, so there the equal form
    sigma_xi/(sqrt(rho^2*phi^2 + (1-phi)*(1+phi)) - rho*phi) is used, whose
    terms are all positive.  Both forms take 1 - phi^2 as (1-phi)*(1+phi),
    which keeps its digits as |phi| nears 1.  Computed at sigma_xi's binary
    mantissa and scaled back, so every digit holds at any sigma_xi.  Raises
    NonFiniteError if vbar overflows and OutOfRangeError if it is subnormal.
    """
    phi = params.phi
    rp = params.rho * phi
    d = (1.0 - phi) * (1.0 + phi)  # 1 - phi^2
    sig = math.frexp(params.sigma_xi)[0]
    if rp < 0.0:
        vbar = sig / (math.sqrt(rp * rp + d) - rp)
    else:
        vbar = sig * (rp + math.sqrt(params.rho * params.rho * phi * phi + d)) / d
    return _at_scale("vbar", vbar, params)
