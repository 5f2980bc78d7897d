"""Exact sequential simulation of the process.

The joint law is generated through the conditional distribution of the
innovation given the lagged level,

    xi_t | Y_{t-1} = y  ~  N(rho*sigma_xi*y/V_{t-1}, sigma_xi^2*(1-rho^2)),

with xi_1 ~ N(0, sigma_xi^2) and Y_0 = 0.  This is the unique law
consistent with the marginal/copula definition of the model plus the
Markov property, so simulating it is exact, not approximate.

Reproducibility contract: standard normals come from numpy's PCG64 bit
generator through Generator.standard_normal (the ziggurat method); each
path consumes exactly T variates.  Both kernels draw them in chunks of
time steps (_CHUNK for the batch, _PATH_CHUNK for the single path), which
yields the same variates as one T-length draw, and walk each chunk
before drawing the next.  The single-path kernel, _walk, hands out its
path a chunk at a time: simulate_path stores the chunks, and `digar
simulate` formats and writes each one, so it holds V_t and one chunk,
not the path.  _PathSums runs SamplePath's checks and adds the
estimator's sums over a path fed in pieces, taking V_t piece by piece
from variance_sequence's recursion; infeasible_estimate feeds it a
stored path, and `digar estimate --in` each chunk it parses from the
file, so it holds a few chunks and nothing T-long.
Replication r of a batch uses the derived seed mix_seed(master_seed, r),
a SplitMix64 step, so batch output is independent of execution order and
batch rows are bit-identical to the corresponding single-path calls.  The
estimator's sums have one reduction, _add_sums, which adds them in time
order: the batch kernel calls it once per chunk of a block, and _PathSums
once per piece of a path, with one-column views, so a batch row's sums
and its path's agree bit for bit.

Row r's stream is PCG64(mix_seed(master_seed, r)).  The batch kernel
computes the starting states of a block's rows in one numpy pass
(_pcg64_states) instead of constructing each through numpy's
SeedSequence, which costs about 20 us per row.  A guard compares each
block's first row with numpy's own constructor; on a mismatch the batch
seeds row by row through normal_stream from there on, so a numpy that
seeds differently cannot change the bytes silently.  simulate_path
always seeds through normal_stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NonFiniteError, OutOfRangeError
from .model import ModelParams, _check_variances, _variance_walk, variance_sequence

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

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_HASH_INIT_A = 0x43B0D7E5
_HASH_MULT_A = 0x931E8875
_HASH_INIT_B = 0x8B51F9DD
_HASH_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Rows per block in batch generation.  Every operation of the kernel is
# elementwise across rows, so the block size never affects the bytes.
_BLOCK_SIZE = 500

# Time steps per chunk of the batch kernel.  A block's buffers hold one
# chunk, so the kernel's memory does not grow with T.
_CHUNK = 256

# Time steps per chunk of the single-path route: simulate_path and the
# CSV writer walk the path, and _PathSums checks and sums a stored path,
# this many steps at a time.  `simulate -T 1000000` formats at the same
# speed with chunks of 2,048 to 65,536 steps; its peak RSS is 44.6 MiB at
# 4,096, 46.4 MiB at 8,192 and 72.9 MiB at 65,536.
_PATH_CHUNK = 4_096


@dataclass(frozen=True)
class SamplePath:
    """One simulated trajectory: levels Y_0..Y_T and innovations xi_1..xi_T.

    seed is the PCG64 seed that produced the path, or None for paths
    loaded from external data.  The path keeps read-only copies of the
    arrays it is given, so later writes to them do not reach it.
    """

    params: ModelParams
    y: np.ndarray
    xi: np.ndarray
    seed: int | None

    def __post_init__(self) -> None:
        self._adopt(np.array(self.y, dtype=float), np.array(self.xi, dtype=float))

    def _adopt(self, y: np.ndarray, xi: np.ndarray) -> None:
        # Check y and xi and keep them, made read-only, as the path's arrays.
        _check_lengths(y.shape, xi.shape)
        check = _PathSums(self.params, sums=False)
        for piece in _path_pieces(y, xi):
            check.add(*piece)
        check.close()
        if self.seed is not None:
            _check_seed(self.seed)
        y.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xi", xi)

    @property
    def horizon(self) -> int:
        return int(self.xi.shape[0])


def _owned_path(params: ModelParams, y: np.ndarray, xi: np.ndarray, seed: int | None) -> SamplePath:
    # A SamplePath that keeps y and xi themselves instead of copies, for
    # float arrays that nothing else refers to.
    path = object.__new__(SamplePath)
    object.__setattr__(path, "params", params)
    object.__setattr__(path, "seed", seed)
    path._adopt(y, xi)
    return path


def _check_lengths(y_shape: tuple[int, ...], xi_shape: tuple[int, ...]) -> None:
    if len(y_shape) != 1 or len(xi_shape) != 1 or y_shape[0] != xi_shape[0] + 1 or xi_shape[0] < 1:
        raise OutOfRangeError(f"need len(y) = len(xi)+1 >= 2, got len(y)={y_shape} len(xi)={xi_shape}")


def _path_pieces(y: np.ndarray, xi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # Y_0.. and xi_1.. of a stored path in pieces of _PATH_CHUNK, for _PathSums.add.
    for lo in range(0, y.shape[0], _PATH_CHUNK):
        yield y[lo : lo + _PATH_CHUNK], xi[lo : lo + _PATH_CHUNK]


class _PathSums:
    # SamplePath's checks on a path fed in pieces, and with sums=True the
    # estimator's sums over t = 2..T of Y_{t-1}^2, Y_t*Y_{t-1} and
    # Y_{t-1}^2/V_{t-1}, each added in time order by _add_sums.
    # add(y, xi) takes the next Y values (Y_0 first) and the next xi values
    # (xi_1 first); a piece may hold more of one than of the other.  V_t
    # comes piece by piece from variance_sequence's recursion, so no
    # T-long array is held.  close() raises the first refusal in
    # SamplePath's order (lengths, finiteness, y_0 = 0, the recursion
    # against an atol from the extremes of all Y), then variance_sequence's
    # for V_1..V_T, and returns the three sums (None without sums).  Once a
    # refusal is certain the rest is only counted.
    def __init__(self, params: ModelParams, sums: bool = True) -> None:
        self.params = params
        self.ny = self.nx = 0
        self.finite = True
        self.y0 = 0.0
        self.scale = 1.0  # max(1, |Y|) over the Y seen
        self.worst = 0.0  # largest |y[t] - (phi*y[t-1] + xi[t])| seen
        self.ys = self.xs = np.empty(0)  # Y_{t-1}.. and xi_t.. of steps not yet taken
        self.next_v = _variance_walk(params) if sums else None
        self.v_lag = None  # V_{t-1} of the next step t, None before t = 2
        self.v_finite = self.v_positive = True
        self.acc = np.full((3, 1), -0.0)  # -0.0 + x == x for every x

    def add(self, y: Sequence[float], xi: Sequence[float]) -> None:
        y = np.asarray(y, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self.ny == 0 and y.size:
            self.y0 = float(y[0])
        self.ny += y.size
        self.nx += xi.size
        self.finite = self.finite and bool(np.all(np.isfinite(y)) and np.all(np.isfinite(xi)))
        if not self.finite:
            return
        if y.size:
            self.scale = max(self.scale, -float(y.min()), float(y.max()))
        ys = np.concatenate((self.ys, y))
        xs = np.concatenate((self.xs, xi))
        k = max(0, min(ys.size - 1, xs.size))  # steps that have Y_{t-1}, Y_t and xi_t
        if k:
            lag, lead = ys[:k], ys[1 : k + 1]
            # A path may still be refused after its residuals overflow, so
            # numpy's floating-point warnings stay off here.
            with np.errstate(all="ignore"):
                resid = self.params.phi * lag  # |y[t] - (phi*y[t-1] + xi[t])|, in one buffer
                resid += xs[:k]
                np.subtract(lead, resid, out=resid)
                self.worst = max(self.worst, float(np.max(np.abs(resid, out=resid))))
            if self.next_v is not None:
                self._add_terms(lag, lead)
        self.ys, self.xs = ys[k:], xs[k:]

    def _add_terms(self, lag: np.ndarray, lead: np.ndarray) -> None:
        v = self.next_v(lag.size)  # V_t of these steps
        self.v_finite = self.v_finite and bool(np.all(np.isfinite(v)))
        self.v_positive = self.v_positive and not np.any(v <= 0.0)
        if self.v_lag is None:  # step t = 1 adds no terms
            lag, lead, v_lag = lag[1:], lead[1:], v[:-1]
        else:
            v_lag = np.concatenate(([self.v_lag], v[:-1]))
        self.v_lag = v[-1]
        if lag.size and self.v_finite and self.v_positive:
            _add_sums(self.acc, lag[:, None], lead[:, None], v_lag[:, None], np.empty((lag.size, 1)))

    def close(self) -> np.ndarray | None:
        _check_lengths((self.ny,), (self.nx,))
        if not self.finite:
            raise NonFiniteError("path contains non-finite values")
        if self.y0 != 0.0:
            raise OutOfRangeError(f"y[0] must be exactly 0, got {self.y0!r}")
        if self.worst > 1e-12 * self.scale:
            raise OutOfRangeError(
                f"path violates y[t] = phi*y[t-1] + xi[t] (max residual {self.worst:.3e})"
            )
        if self.next_v is None:
            return None
        _check_variances(self.v_finite, self.v_positive)
        return self.acc


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


def _mix_seeds(master_seed: int, start: int, n: int) -> np.ndarray:
    # mix_seed(master_seed, r) for r = start .. start+n-1, in uint64
    # arithmetic, which wraps modulo 2^64 as the masks in mix_seed do.
    u = np.uint64
    z = np.arange(start + 1, start + n + 1, dtype=u) * u(_GOLDEN) + u(master_seed)
    z = (z ^ (z >> u(30))) * u(_MIX_A)
    z = (z ^ (z >> u(27))) * u(_MIX_B)
    return z ^ (z >> u(31))


def _hasher(init: int, mult: int):
    # SeedSequence's hash step, v -> (v ^ h)*h' ^ ((v ^ h)*h' >> 16) with
    # h' = h*mult, on uint32 arrays; h walks a data-independent sequence.
    u32 = np.uint32
    h = init

    def step(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ u32(h)
        h = (h * mult) & _MASK32
        v = v * u32(h)
        return v ^ (v >> u32(16))

    return step


def _pcg64_states(seeds: np.ndarray) -> list[dict]:
    # The state dict of np.random.PCG64(seed) for each uint64 seed.  numpy
    # seeds PCG64 through SeedSequence(seed).generate_state(4, uint64); that
    # hash is uint32 arithmetic with constants that do not depend on the
    # data, so it runs here across all seeds at once.  A 64-bit seed is at
    # most two entropy words, and the missing pool words hash as 0.
    u32 = np.uint32
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    pool = [
        hashmix((seeds & np.uint64(_MASK32)).astype(u32)),
        hashmix((seeds >> np.uint64(32)).astype(u32)),
    ]
    zero = np.zeros_like(pool[0])
    pool += [hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                m = pool[dst] * u32(_MIX_MULT_L) - hashmix(pool[src]) * u32(_MIX_MULT_R)
                pool[dst] = m ^ (m >> u32(16))
    output = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    words = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # uint64 word j is uint32 words 2j (low half) and 2j+1.  PCG64 takes
    # words 0-1 as the initial state and words 2-3 as the stream, then
    # steps its LCG twice: from 0, and again after adding the state.
    s0, s1, s2, s3 = (words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4))
    states = []
    for a, b, c, d in zip(s0.tolist(), s1.tolist(), s2.tolist(), s3.tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
             "has_uint32": 0, "uinteger": 0}
        )
    return states


def _add_sums(
    acc: np.ndarray, lag: np.ndarray, lead: np.ndarray, v_lag: np.ndarray, scratch: np.ndarray
) -> None:
    # The estimator's one reduction, shared by both kernels.  For a
    # (steps, paths) block of lag = Y_{t-1} and lead = Y_t, and v_lag =
    # V_{t-1} as a (steps, 1) column, it adds the terms Y_{t-1}^2,
    # Y_t*Y_{t-1} and Y_{t-1}^2/V_{t-1} to rows 0, 1 and 2 of acc, a
    # (3, paths) array, each as acc + term_1 + term_2 + ..., in time order.
    # Reducing axis 0 of a C-ordered array adds whole rows in turn; numpy
    # sums pairwise only along the fast axis, which a single column becomes,
    # so one path goes through cumsum.  scratch is a C-ordered (steps, paths)
    # buffer for the terms.  estimation._slopes refuses sums that overflow,
    # so numpy's floating-point warnings stay off here.
    with np.errstate(all="ignore"):
        for i in range(3):
            terms = np.multiply(lag, lead if i == 1 else lag, out=scratch)
            if i == 2:
                np.divide(terms, v_lag, out=terms)
            terms[0] += acc[i]
            if terms.shape[1] > 1:
                np.add.reduce(terms, axis=0, out=acc[i])
            else:
                acc[i] = np.cumsum(terms[:, 0])[-1]


def _coefficients(params: ModelParams, T: int) -> tuple[np.ndarray, float, float]:
    # V_1..V_T, rho*sigma_xi and the conditional sd of xi_t, shared by both
    # kernels.  Each takes the slopes rho*sigma_xi/V_t chunk by chunk as
    # rho*sigma_xi / v[chunk], so a batch row and its single path multiply
    # by the same numbers.
    v = variance_sequence(params, T)
    cond_sd = params.sigma_xi * math.sqrt(1.0 - params.rho * params.rho)
    return v, params.rho * params.sigma_xi, cond_sd


def simulate_path(params: ModelParams, T: int, seed: int) -> SamplePath:
    """Simulate one trajectory of length T from the given seed.

    Identical (params, T, seed) yield bit-identical paths, and the result
    is bit-identical to the corresponding row of any batch that derives
    this seed.  Scalar loop over chunks of _PATH_CHUNK steps, each drawn
    and walked before the next; the batch kernel performs the same IEEE
    operations in the same order on whole columns.

    Raises
    ------
    OutOfRangeError
        If T < 1.
    """
    chunks = _walk(params, T, seed)
    y = np.empty(T + 1)
    xi = np.empty(T)
    y[0] = 0.0
    t = 1
    for ys, xs in chunks:
        y[t : t + len(ys)] = ys
        xi[t - 1 : t - 1 + len(xs)] = xs
        t += len(ys)
    return _owned_path(params, y, xi, seed)


def _walk(params: ModelParams, T: int, seed: int) -> Iterator[tuple[list[float], list[float]]]:
    # The single-path kernel: lists of Y_t and of xi_t for t = 1..T, one
    # pair per chunk of _PATH_CHUNK steps, each chunk drawn from the path's
    # stream and walked before the next.  T, the seed and V_t are checked
    # here, before the first chunk is asked for.
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    stream = normal_stream(seed)
    v, rs, cond_sd = _coefficients(params, T)
    phi = params.phi

    def chunks() -> Iterator[tuple[list[float], list[float]]]:
        level = 0.0  # Y_0
        for t0 in range(1, T + 1, _PATH_CHUNK):  # steps t = t0 .. t1-1
            t1 = min(t0 + _PATH_CHUNK, T + 1)
            eps = stream.standard_normal(t1 - t0)
            ys: list[float] = []
            xs: list[float] = []
            first = t0
            if t0 == 1:
                x = params.sigma_xi * float(eps[0])  # xi_1 = sigma_xi*eps_1
                level = phi * level + x
                xs.append(x)
                ys.append(level)
                first = 2
            noise = (cond_sd * eps[first - t0 :]).tolist()
            slope = (rs / v[first - 2 : t1 - 2]).tolist()  # rho*sigma_xi/V_{t-1}
            y_append, x_append = ys.append, xs.append
            for s, e in zip(slope, noise):
                x = s * level + e
                x_append(x)
                level = phi * level + x
                y_append(level)
            yield ys, xs

    return chunks()


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
    v, rs, cond_sd = _coefficients(params, T)
    phi = params.phi
    sig = params.sigma_xi
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
    gens = [np.random.Generator(np.random.PCG64(0)) for _ in range(width)]
    bits = [g.bit_generator for g in gens]
    bulk = True
    mul = np.multiply
    add = np.add
    for start in range(0, spec.replications, block_size):
        n = min(block_size, spec.replications - start)
        # The block's first row checks the bulk states against numpy's own
        # constructor; after a mismatch every block seeds row by row.
        if bulk:
            states = _pcg64_states(_mix_seeds(spec.master_seed, start, n))
            guard = normal_stream(mix_seed(spec.master_seed, start)).bit_generator.state
            bulk = guard == states[0]
        if bulk:
            for bit, state in zip(bits, states):
                bit.state = state
            streams = gens[:n]
        else:
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
            slope = (rs / v[t0 + j0 - 2 : t0 + m - 2]).tolist()  # rho*sigma_xi/V_{t-1}
            for lag, lead, x, s in zip(y_rows[j0:m], y_rows[j0 + 1 : m + 1], xi_rows[j0:m], slope):
                mul(lag, s, tmp)  # xi_t = (rho*sigma_xi/V_{t-1})*Y_{t-1} + cond_sd*eps_t
                add(tmp, x, x)
                mul(lag, phi, lead)  # Y_t = phi*Y_{t-1} + xi_t
                add(lead, x, lead)
            d = 1 if t0 == 1 else 0  # the sums start at t = 2
            if acc is not None and m > d:
                terms = raw[: (m - d) * n].reshape(m - d, n)
                _add_sums(acc, y[d:m], y[d + 1 : m + 1], v[t0 + d - 2 : t0 + m - 2, None], terms)
            if ys is not None:
                a, b = max(lo, t0), min(hi, t0 + m)
                if a < b:
                    ys[:, a - lo : b - lo] = y[a - t0 + 1 : b - t0 + 1].T
                    xs[:, a - xlo : b - xlo] = xi[a - t0 : b - t0].T
            y[0] = y[m]
        yield start, ys, xs, acc
