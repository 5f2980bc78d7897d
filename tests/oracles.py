"""Independent reference computations the tests check the package against."""

import csv
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from digar import (
    ModelParams,
    NonFiniteError,
    OutOfRangeError,
    SamplePath,
    tau_bar,
    variance_sequence,
    vbar_limit,
)


def variance_sum_sequence(params: ModelParams, T: int) -> np.ndarray:
    """Compute V_1..V_T by the expanded sum formula, O(T^2).

    V_t^2 = sigma^2*(phi^{2(t-1)} + sum_{i=1}^{t-1} phi^{2(i-1)})
            + 2*rho*sigma*sum_{i=1}^{t-1} phi^{2i-1}*V_{t-i},
    where the lower-index V values are themselves produced by this same
    formula, so the route never touches the one-step recursion.
    """
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    phi = params.phi
    sig = params.sigma_xi
    even = (phi * phi) ** np.arange(T)  # phi^{2(i-1)} for i = 1..T
    odd = phi * even  # phi^{2i-1}
    prefix = np.cumsum(even)
    sig2 = sig * sig
    two_rho_sig = 2.0 * params.rho * sig
    vs = np.empty(T)
    vs[0] = sig
    for s in range(2, T + 1):
        head = even[s - 1] + prefix[s - 2]
        cross = float(np.dot(odd[: s - 1], vs[s - 2 :: -1]))
        vs[s - 1] = math.sqrt(sig2 * head + two_rho_sig * cross)
    return vs


def variance_sum_form(params: ModelParams, t: int) -> float:
    """Return V_t computed purely by the expanded sum formula."""
    return float(variance_sum_sequence(params, t)[-1])


def decay_bound_scan(params: ModelParams, T: int) -> float:
    """sup_t |tau_{t,t+1}| by brute force: the max of |tau_{t,t+1}| over
    V_1..V_T and of |tau_bar|.

    This is the bound only once the sequence has converged, so the scan
    refuses unless |V_T - vbar| < 1e-10*vbar; choose T large enough.
    """
    vs = variance_sequence(params, T)
    vb = vbar_limit(params)
    if not abs(float(vs[-1]) - vb) < 1e-10 * vb:
        raise OutOfRangeError(f"variance sequence not converged at horizon {T}")
    taus = (params.phi * vs[:-1] + params.rho * params.sigma_xi) / vs[1:]
    return max(float(np.max(np.abs(taus))), abs(tau_bar(params)))


def decimal_limits(params: ModelParams) -> tuple[Decimal, Decimal, Decimal, Decimal, Decimal]:
    """vbar, tau_bar, eta_bar, sigma_bar_sq and S at 60 digits, taking the
    binary parameter values as exact.

    vbar = sigma*(rho*phi + sqrt(rho^2*phi^2 + 1 - phi^2))/(1 - phi^2),
    tau_bar = phi + rho*sigma/vbar, eta_bar = sigma*sqrt(1 - rho^2)/vbar,
    sigma_bar_sq = sigma^2*(1 - rho^2)*vbar^2, S = sigma/sqrt(1 - phi^2).
    """
    p, r, s = Decimal(params.phi), Decimal(params.rho), Decimal(params.sigma_xi)
    with localcontext() as ctx:
        ctx.prec = 60
        vbar = s * (r * p + (r * r * p * p + 1 - p * p).sqrt()) / (1 - p * p)
        return (
            vbar,
            p + r * s / vbar,
            s * (1 - r * r).sqrt() / vbar,
            s * s * (1 - r * r) * vbar * vbar,
            s / (1 - p * p).sqrt(),
        )


def decimal_decay_bound(params: ModelParams) -> Decimal:
    """eta_hat = sup_t |tau_{t,t+1}| at 60 digits, taking the binary
    parameter values as exact.

    Walks V_{t+1} = sqrt(u(V_t)^2 + s2), u(v) = phi*v + rho*sigma,
    s2 = sigma^2*(1 - rho^2), from V_1 = sigma with |tau_{t,t+1}| =
    H(|u(V_t)|), H(x) = x/sqrt(x^2 + s2).  Every later V_s lies within
    d = |V_{t+1} - vbar| of vbar, so every later |tau| is at most
    H(|u(vbar)| + |phi|*d); the walk stops once that bound is at most the
    running max, and the answer is that max or |tau_bar| = H(|u(vbar)|).
    """
    p, r, s = Decimal(params.phi), Decimal(params.rho), Decimal(params.sigma_xi)
    vbar = decimal_limits(params)[0]
    with localcontext() as ctx:
        ctx.prec = 60
        rs, s2 = r * s, s * s * (1 - r * r)
        u_bar = abs(p * vbar + rs)

        def h(x: Decimal) -> Decimal:
            return x / (x * x + s2).sqrt()

        v, head = s, Decimal(0)
        while True:
            u = p * v + rs
            w = (u * u + s2).sqrt()
            head = max(head, abs(u) / w)
            if h(u_bar + abs(p) * abs(w - vbar)) <= head:
                return max(head, h(u_bar))
            v = w


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


def z_series(path: SamplePath) -> MartingaleDiagnostics:
    """Martingale-score diagnostics for one path; see MartingaleDiagnostics."""
    if path.horizon < 2:
        raise OutOfRangeError(f"need path horizon >= 2, got {path.horizon}")
    lag = path.y[1:-1]  # Y_{t-1}, t = 2..T
    x = path.xi[1:]  # xi_t, t = 2..T
    v = variance_sequence(path.params, path.horizon)[:-1]  # V_{t-1}
    rho = path.params.rho
    sig = path.params.sigma_xi
    one_minus_rho2 = 1.0 - rho * rho
    lag_sq = lag * lag
    z = x * lag - rho * sig * lag_sq / v
    w = z * z - sig * sig * lag_sq * one_minus_rho2
    sigma_t_sq = sig * sig * v * v * one_minus_rho2
    return MartingaleDiagnostics(z=z, w=w, sigma_t_sq=sigma_t_sq)


def one_shot_sums(path: SamplePath) -> np.ndarray:
    """sum(Y_{t-1}^2), sum(Y_t*Y_{t-1}) and sum(Y_{t-1}^2/V_{t-1}) over
    t = 2..T, from one (T-1, 3) array of all terms reduced along its rows,
    which numpy adds one row after another: the estimator's sums as they
    were taken before the single-path route summed chunk by chunk."""
    lag = path.y[1:-1]  # Y_{t-1}, t = 2..T
    terms = np.empty((lag.size, 3))
    np.multiply(lag, lag, out=terms[:, 0])
    np.multiply(path.y[2:], lag, out=terms[:, 1])
    np.divide(terms[:, 0], variance_sequence(path.params, path.horizon)[:-1], out=terms[:, 2])
    return np.add.reduce(terms, axis=0)


def read_path_csv(infile: str, params: ModelParams) -> SamplePath:
    """A path CSV read row by row with csv.reader and float(), the whole
    file in one loop: the reader the CLI's chunked reader must agree with
    on every file, in the values it reads and in every refusal."""
    y: list[float] = []
    xi: list[float] = []
    with open(infile, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise OutOfRangeError(f"empty path file: {infile}")
        if [h.strip() for h in header] != ["t", "y", "xi"]:
            raise OutOfRangeError(f"expected header t,y,xi in {infile}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise OutOfRangeError(f"{infile}:{lineno}: expected 3 fields, got {len(row)}")
            if row[0] != str(len(y)):
                raise OutOfRangeError(f"{infile}:{lineno}: expected t = {len(y)}, got {row[0]!r}")
            try:
                y.append(float(row[1]))
                if row[2].strip() != "":
                    xi.append(float(row[2]))
                elif len(y) != 1:
                    raise ValueError("xi may be empty only at t=0")
            except ValueError as exc:
                raise OutOfRangeError(f"{infile}:{lineno}: {exc}")
    return SamplePath(params, y, xi, None)
