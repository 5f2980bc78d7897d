"""Exact sequential simulation of the process.

The joint law is generated through the conditional distribution of the
innovation given the lagged level,

    xi_t | Y_{t-1} = y  ~  N(rho*sigma_xi*y/V_{t-1}, sigma_xi^2*(1-rho^2)),

with xi_1 ~ N(0, sigma_xi^2) and Y_0 = 0.  This is the unique law
consistent with the marginal/copula definition of the model plus the
Markov property, so simulating it is exact, not approximate.

Reproducibility contract: standard normals come from numpy's PCG64 bit
generator through Generator.standard_normal (the ziggurat method); each
path consumes exactly T variates.  The batch kernel draws them in chunks
of time steps, which yields the same variates as one T-length draw.
Replication r of a batch uses the derived seed mix_seed(master_seed, r),
a SplitMix64 step, so batch output is independent of execution order,
batch rows are bit-identical to the corresponding single-path calls, and
the estimator sums, which the kernel and estimation.infeasible_estimate
both add in time order with _accumulate, agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonFiniteError, OutOfRangeError
from .model import ModelParams, variance_sequence

__all__ = [
    "SamplePath",
    "BatchSpec",
    "mix_seed",
    "normal_stream",
    "simulate_path",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Rows per block in batch generation.  Every operation of the kernel is
# elementwise across rows, so the block size never affects the bytes.
_BLOCK_SIZE = 500

# Time steps per chunk of the batch kernel.  A block's buffers hold one
# chunk, so the kernel's memory does not grow with T.
_CHUNK = 256


@dataclass(frozen=True)
class SamplePath:
    """One simulated trajectory: levels Y_0..Y_T and innovations xi_1..xi_T.

    seed is the PCG64 seed that produced the path, or None for paths
    loaded from external data.
    """

    params: ModelParams
    y: np.ndarray
    xi: np.ndarray
    seed: int | None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if y.ndim != 1 or xi.ndim != 1 or y.shape[0] != xi.shape[0] + 1 or xi.shape[0] < 1:
            raise OutOfRangeError(
                f"need len(y) = len(xi)+1 >= 2, got len(y)={y.shape} len(xi)={xi.shape}"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(xi))):
            raise NonFiniteError("path contains non-finite values")
        if y[0] != 0.0:
            raise OutOfRangeError(f"y[0] must be exactly 0, got {y[0]!r}")
        resid = y[1:] - (self.params.phi * y[:-1] + xi)
        atol = 1e-12 * max(1.0, float(np.max(np.abs(y))))
        worst = float(np.max(np.abs(resid)))
        if worst > atol:
            raise OutOfRangeError(
                f"path violates y[t] = phi*y[t-1] + xi[t] (max residual {worst:.3e})"
            )
        if self.seed is not None:
            _check_seed(self.seed)
        y = y.copy()
        xi = xi.copy()
        y.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi", xi)

    @property
    def horizon(self) -> int:
        return int(self.xi.shape[0])


@dataclass(frozen=True)
class BatchSpec:
    """Specification of a Monte Carlo batch of independent paths."""

    params: ModelParams
    path_length: int
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.path_length < 2:
            raise OutOfRangeError(f"path_length must be >= 2, got {self.path_length}")
        if self.replications < 1:
            raise OutOfRangeError(f"replications must be >= 1, got {self.replications}")
        _check_seed(self.master_seed)


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise OutOfRangeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 1 << 64:
        raise OutOfRangeError(f"seed must be a 64-bit unsigned integer, got {seed}")


def mix_seed(master_seed: int, r: int) -> int:
    """Derived seed for replication r: SplitMix64 output number r+1 when
    the generator state starts at master_seed.

    The full 64-bit avalanche makes the derived seeds effectively
    independent, and the direct formula (no sequential state walk) is what
    makes batches order- and parallelism-independent.
    """
    _check_seed(master_seed)
    if r < 0:
        raise OutOfRangeError(f"replication index must be >= 0, got {r}")
    z = (master_seed + (r + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def normal_stream(seed: int) -> np.random.Generator:
    """Fresh deterministic stream of standard normals for one path."""
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _accumulate(acc: np.ndarray, terms: np.ndarray) -> None:
    # acc + terms[0] + terms[1] + ..., added in that order.  Reducing axis 0
    # of a C-ordered array adds whole rows in turn; numpy sums pairwise only
    # along the fast axis, which a single column becomes.
    terms[0] += acc
    if terms.shape[1] > 1:
        np.add.reduce(terms, axis=0, out=acc)
    else:
        acc[0] = np.cumsum(terms[:, 0])[-1]


def simulate_path(params: ModelParams, T: int, seed: int) -> SamplePath:
    """Simulate one trajectory of length T from the given seed.

    Identical (params, T, seed) yield bit-identical paths, and the result
    is bit-identical to the corresponding row of any batch that derives
    this seed.  Scalar loop; the batch kernel performs the same IEEE
    operations in the same order on whole columns.

    Raises
    ------
    OutOfRangeError
        If T < 1.
    """
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    _check_seed(seed)
    eps = normal_stream(seed).standard_normal(T).tolist()
    v = variance_sequence(params, T).values
    phi = params.phi
    sig = params.sigma_xi
    cond_sd = sig * math.sqrt(1.0 - params.rho * params.rho)
    slope = (params.rho * sig / v).tolist()
    y = np.empty(T + 1)
    xi = np.empty(T)
    y[0] = 0.0
    x = sig * eps[0]
    xi[0] = x
    level = phi * 0.0 + x
    y[1] = level
    for t in range(2, T + 1):
        x = slope[t - 2] * level + cond_sd * eps[t - 1]
        xi[t - 1] = x
        level = phi * level + x
        y[t] = level
    return SamplePath(params, y, xi, seed)


def _run_blocks(
    spec: BatchSpec,
    keep: tuple[int, int] | None = None,
    sums: bool = False,
    block_size: int = _BLOCK_SIZE,
    chunk: int = _CHUNK,
) -> Iterator[tuple[int, np.ndarray | None, np.ndarray | None, np.ndarray | None]]:
    # Yield (start_index, ys, xs, sums) per block of replications, in
    # replication order.  Each block is walked time-major: time in chunks of
    # `chunk` steps with the rows contiguous at each step, each row's normals
    # drawn chunk by chunk from its own stream.  Every operation is
    # elementwise, so each row's arithmetic is that of simulate_path.
    #
    # keep=(lo, hi) yields Y_t for lo <= t < hi and xi_t for
    # max(lo, 1) <= t < hi, one row per path.  sums=True yields the (3, n)
    # sums over t = 2..T of Y_{t-1}^2, Y_t*Y_{t-1} and Y_{t-1}^2/V_{t-1},
    # each accumulated in time order, as np.cumsum adds.  Without sums the
    # walk stops at the last kept step.  The yielded arrays are fresh per
    # block; the chunk buffers are allocated once, and a shorter last block
    # uses prefixes of them.
    if block_size < 1:
        raise OutOfRangeError(f"block_size must be >= 1, got {block_size}")
    params = spec.params
    T = spec.path_length
    v = variance_sequence(params, T).values
    phi = params.phi
    sig = params.sigma_xi
    cond_sd = sig * math.sqrt(1.0 - params.rho * params.rho)
    slope = (params.rho * sig / v).tolist()
    last = T
    if keep is not None:
        lo, hi = keep
        xlo = max(lo, 1)
        if not sums:
            last = min(T, hi - 1)
    c = min(chunk, last)
    width = min(block_size, spec.replications)
    raw_buf = np.empty(width * c)  # the chunk's draws, then scratch for the sums
    xi_buf = np.empty(c * width)
    y_buf = np.empty((c + 1) * width)  # row 0 is the level before the chunk
    tmp_buf = np.empty(width)
    mul = np.multiply
    add = np.add
    for start in range(0, spec.replications, block_size):
        n = min(block_size, spec.replications - start)
        streams = [normal_stream(mix_seed(spec.master_seed, r)) for r in range(start, start + n)]
        raw = raw_buf[: n * c]
        eps = raw.reshape(n, c)
        xi = xi_buf[: c * n].reshape(c, n)
        y = y_buf[: (c + 1) * n].reshape(c + 1, n)
        tmp = tmp_buf[:n]
        y[0] = 0.0
        eps_rows = list(eps)
        y_rows = list(y)
        xi_rows = list(xi)
        ys = xs = acc = None
        if keep is not None:
            ys = np.zeros((n, hi - lo))
            xs = np.empty((n, hi - xlo))
        if sums:
            acc = np.full((3, n), -0.0)  # -0.0 + x == x for every x, as cumsum starts
        for t0 in range(1, last + 1, c):
            m = min(c, last + 1 - t0)  # steps t = t0 .. t0+m-1; xi[j] is xi_{t0+j}
            rows = eps_rows if m == c else [row[:m] for row in eps_rows]
            for row, stream in zip(rows, streams):
                stream.standard_normal(out=row)
            mul(eps[:, :m].T, cond_sd, out=xi[:m])
            j0 = 0
            if t0 == 1:
                mul(eps[:, 0], sig, out=xi[0])
                mul(y[0], phi, out=y[1])
                add(y[1], xi[0], out=y[1])
                j0 = 1
            for lag, lead, x, s in zip(
                y_rows[j0:m], y_rows[j0 + 1 : m + 1], xi_rows[j0:m],
                slope[t0 + j0 - 2 : t0 + m - 2],
            ):
                mul(lag, s, tmp)  # xi_t = (rho*sigma_xi/V_{t-1})*Y_{t-1} + cond_sd*eps_t
                add(tmp, x, x)
                mul(lag, phi, lead)  # Y_t = phi*Y_{t-1} + xi_t
                add(lead, x, lead)
            if acc is not None:
                d = 1 if t0 == 1 else 0  # the sums start at t = 2
                k = m - d
                if k > 0:
                    lags = y[d:m]
                    terms = raw[: k * n].reshape(k, n)
                    _accumulate(acc[0], mul(lags, lags, out=terms))
                    _accumulate(acc[1], mul(y[d + 1 : m + 1], lags, out=terms))
                    mul(lags, lags, out=terms)
                    v_lag = v[t0 + d - 2 : t0 + m - 2, None]
                    _accumulate(acc[2], np.divide(terms, v_lag, out=terms))
            if ys is not None:
                a, b = max(lo, t0), min(hi, t0 + m)
                if a < b:
                    ys[:, a - lo : b - lo] = y[a - t0 + 1 : b - t0 + 1].T
                    xs[:, a - xlo : b - xlo] = xi[a - t0 : b - t0].T
            y[0] = y[m]
        yield start, ys, xs, acc
