"""Exact sequential simulation of the process.

The joint law is generated through the conditional distribution of the
innovation given the lagged level,

    xi_t | Y_{t-1} = y  ~  N(rho*sigma_xi*y/V_{t-1}, sigma_xi^2*(1-rho^2)),

with xi_1 ~ N(0, sigma_xi^2) and Y_0 = 0.  This is the unique law
consistent with the marginal/copula definition of the model plus the
Markov property, so simulating it is exact, not approximate.

Reproducibility contract: standard normals come from numpy's PCG64 bit
generator through Generator.standard_normal (the ziggurat method); each
path consumes exactly T variates, drawn in chunks of time steps (_CHUNK
for the batch, model._PATH_CHUNK for the single path), which yields the
same variates as one T-length draw, and each chunk is walked before the
next.  Both routes refuse V_1..V_T with model._check_variances, a walk in
constant memory, before their first chunk, and take V_t chunk by chunk
from a fresh model._variance_walk, so none holds a T-long V.  The
single-path kernel, _walk, hands out its path and V_{t-1} a chunk at a
time: simulate_path stores the chunks, and `digar simulate` formats and
`digar estimate -T` sums each one.  _checked_steps only checks: it runs
SamplePath's checks on a path fed in pieces (a stored one, or the chunks
`digar estimate --in` parses) and hands out its levels, walking no V_t.
Replication r of a batch uses the derived seed mix_seed(master_seed, r),
a SplitMix64 step, so batch output is independent of execution order and
batch rows are bit-identical to the corresponding single-path calls.  The
estimator's sums have one reduction, _add_sums, which adds them in time
order, once per chunk of a block or, with one-column views, of a path, so
a batch row's sums and its path's agree bit for bit.

Row r's stream is normal_stream(mix_seed(master_seed, r)): a PCG64 whose
128-bit state and increment are four SplitMix64 outputs of the row's
seed (_pcg64_states), not numpy's integer seeding; each PCG64 is built
from a fixed SeedSequence(0), so none draws OS entropy, before its state
is set.  A batch block holds two chunk buffers of _CHUNK steps by its
rows, the draws (then xi_t at the steps a window keeps, then scratch for
the sums) and the levels, in which each other step makes xi_t before
Y_t, and sets its rows' states as they are made in one numpy pass.  Both
kernels walk every step with one body: step 1 is the common step with
slope -0.0 and noise sd sigma_xi, since -0.0*Y_0 + sigma_xi*eps_1 is
sigma_xi*eps_1, sign of zero included.

Work in n pieces goes through one worker protocol, _chunk_map, in W
processes: the CPUs in os.sched_getaffinity(0), at most n, but 1 where
os.fork or sched_getaffinity is missing or the process runs more than one
thread, which is never forked.  Piece k is done by process k mod W, this
one or one of W - 1 forked workers, each of which sends its results on its
own pipe, leaves by os._exit and stops once its parent is gone.  The
calling process does every piece whose result never arrived and reaps
every worker, killed first where it raised, so the bytes do not depend on
W.  A batch's pieces are its blocks, each of which returns its rows as
bytes, which _run_batch hands on in block order, so nothing is pickled
and no process writes memory another reads.  V_1..V_T is checked before
any fork, and the slopes are refused once, in the calling process, from
the returned sums.  The CLI's single-path commands share out the chunks
of a path, a variance walk or a path file: every process walks them all,
or opens the file and reads it all, and does the costly step (formatting
or parsing) of its own.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import NonFiniteError, OutOfRangeError
from .model import _PATH_CHUNK, ModelParams, _check_variances, _Frozen, _variance_walk

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


class SamplePath(_Frozen):
    """One simulated trajectory: levels Y_0..Y_T and innovations xi_1..xi_T.

    seed is the seed of the stream that produced the path, or None for paths
    loaded from external data.  The path keeps read-only copies of the
    arrays it is given, so later writes to them do not reach it.
    """

    __slots__ = __match_args__ = ("params", "y", "xi", "seed")

    def __init__(self, params: ModelParams, y: np.ndarray, xi: np.ndarray, seed: int | None) -> None:
        y, xi = np.array(y, dtype=float), np.array(xi, dtype=float)
        _check_lengths(y.shape, xi.shape)
        for _ in _checked_steps(params, _path_pieces(y, xi)):
            pass
        if seed is not None:
            _check_seed(seed)
        y.setflags(write=False)
        xi.setflags(write=False)
        self._set(params, y, xi, seed)

    @property
    def horizon(self) -> int:
        return int(self.xi.shape[0])


def _check_lengths(y_shape: tuple[int, ...], xi_shape: tuple[int, ...]) -> None:
    if len(y_shape) != 1 or len(xi_shape) != 1 or y_shape[0] != xi_shape[0] + 1 or xi_shape[0] < 1:
        raise OutOfRangeError(f"need len(y) = len(xi)+1 >= 2, got len(y)={y_shape} len(xi)={xi_shape}")


def _path_pieces(y: np.ndarray, xi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # Y_0.. and xi_1.. of a stored path in pieces of _PATH_CHUNK, for _checked_steps.
    for lo in range(0, y.shape[0], _PATH_CHUNK):
        yield y[lo : lo + _PATH_CHUNK], xi[lo : lo + _PATH_CHUNK]


def _checked_steps(
    params: ModelParams, pieces: Iterable[tuple[np.ndarray, np.ndarray]]
) -> Iterator[np.ndarray]:
    # SamplePath's checks on a path fed as (Y, xi) pieces in time order: the
    # next Y values (Y_0 first) and the next xi values (xi_1 first), where a
    # piece may hold more of one than of the other.  Yields the Y_t of the
    # steps t it has seen whole, with Y_{t-1}, Y_t and xi_t, in time order.
    # Once the pieces end it raises the first refusal in SamplePath's order:
    # lengths, finiteness, y_0 = 0, the recursion against a tolerance of
    # 1e-12 times the largest |Y| and |xi|, so it holds at any scale.  Once
    # a refusal is certain the rest is only counted.
    ny = nx = 0
    finite = True
    y0 = 0.0
    scale = 0.0  # the largest |Y| and |xi| seen
    worst = 0.0  # largest |y[t] - (phi*y[t-1] + xi[t])| seen
    ys = xs = np.empty(0)  # Y_{t-1}.. and xi_t.. of steps not yet taken
    for y, xi in pieces:
        if ny == 0 and y.size:
            y0 = float(y[0])
        ny += y.size
        nx += xi.size
        finite = finite and bool(np.all(np.isfinite(y)) and np.all(np.isfinite(xi)))
        if not finite:
            continue
        for values in (y, xi):
            if values.size:
                scale = max(scale, -float(values.min()), float(values.max()))
        ys = np.concatenate((ys, y))
        xs = np.concatenate((xs, xi))
        k = max(0, min(ys.size - 1, xs.size))  # steps that have Y_{t-1}, Y_t and xi_t
        if k:
            # A path may still be refused after its residuals overflow, so
            # numpy's floating-point warnings stay off here.
            with np.errstate(all="ignore"):
                resid = params.phi * ys[:k]  # |y[t] - (phi*y[t-1] + xi[t])|, in one buffer
                resid += xs[:k]
                np.subtract(ys[1 : k + 1], resid, out=resid)
                worst = max(worst, float(np.max(np.abs(resid, out=resid))))
            yield ys[1 : k + 1]
        ys, xs = ys[k:], xs[k:]
    _check_lengths((ny,), (nx,))
    if not finite:
        raise NonFiniteError("path contains non-finite values")
    if y0 != 0.0:
        raise OutOfRangeError(f"y[0] must be exactly 0, got {y0!r}")
    if worst > 1e-12 * scale:
        raise OutOfRangeError(
            f"path violates y[t] = phi*y[t-1] + xi[t] (max residual {worst:.3e})"
        )


class BatchSpec(_Frozen):
    """Specification of a Monte Carlo batch of independent paths."""

    __slots__ = __match_args__ = ("params", "path_length", "replications", "master_seed")

    def __init__(self, params: ModelParams, path_length: int, replications: int, master_seed: int) -> None:
        if path_length < 2:
            raise OutOfRangeError(f"path_length must be >= 2, got {path_length}")
        if replications < 1:
            raise OutOfRangeError(f"replications must be >= 1, got {replications}")
        _check_seed(master_seed)
        self._set(params, path_length, replications, master_seed)


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
    """Fresh deterministic stream of standard normals for one path.

    Its PCG64 starts at state mix_seed(seed, 0)*2^64 + mix_seed(seed, 1)
    with increment (mix_seed(seed, 2)*2^64 + mix_seed(seed, 3)) | 1, as
    every batch row with this seed does.
    """
    _check_seed(seed)
    bits = np.random.PCG64(0)  # a holder, seeded without OS entropy: its state is set next
    bits.state = next(_pcg64_states(np.array([seed], dtype=np.uint64)))
    return np.random.Generator(bits)


def _mix_seeds(master_seed: int | np.ndarray, start: int, n: int) -> np.ndarray:
    # mix_seed(master_seed, r) for r = start .. start+n-1 along the last
    # axis, in uint64 arithmetic, which wraps modulo 2^64 as the masks in
    # mix_seed do.  master_seed is an int or a uint64 array that broadcasts
    # against the n indices; every operation is on arrays, since numpy
    # warns on overflow in uint64 scalar arithmetic.
    u = np.uint64
    z = np.arange(start + 1, start + n + 1, dtype=u) * u(_GOLDEN) + u(master_seed)
    z = (z ^ (z >> u(30))) * u(_MIX_A)
    z = (z ^ (z >> u(27))) * u(_MIX_B)
    return z ^ (z >> u(31))


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    # The PCG64 state dict of the stream of each uint64 seed s, in order,
    # each yielded as it is made, so no list of them is held: the state is
    # mix_seed(s, 0)*2^64 + mix_seed(s, 1) and the increment, which PCG64
    # needs odd, (mix_seed(s, 2)*2^64 + mix_seed(s, 3)) | 1.
    for a, b, c, d in _mix_seeds(seeds[:, None], 0, 4).tolist():
        yield {"bit_generator": "PCG64", "state": {"state": a << 64 | b, "inc": c << 64 | d | 1},
               "has_uint32": 0, "uinteger": 0}


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
    for ys, xs, _ in chunks:
        y[t : t + len(ys)] = ys
        xi[t - 1 : t - 1 + len(xs)] = xs
        t += len(ys)
    y.setflags(write=False)
    xi.setflags(write=False)
    path = object.__new__(SamplePath)  # the kernel's own arrays, without SamplePath's check pass
    path._set(params, y, xi, seed)
    return path


def _walk(params: ModelParams, T: int, seed: int) -> Iterator[tuple[list[float], list[float], np.ndarray]]:
    # The single-path kernel: for t = 1..T, lists of Y_t and xi_t and the
    # array of V_{t-1} of the steps t >= 2, one triple per _PATH_CHUNK steps,
    # each drawn from the path's stream and walked before the next.  T, the
    # seed and V_1..V_T are checked here, before the first chunk is asked for.
    if T < 1:
        raise OutOfRangeError(f"T must be >= 1, got {T}")
    stream = normal_stream(seed)
    next_v = _check_variances(params, T)
    rs = params.rho * params.sigma_xi
    cond_sd = params.sigma_xi * math.sqrt(1.0 - params.rho * params.rho)  # sd of xi_t | Y_{t-1}
    phi = params.phi

    def chunks() -> Iterator[tuple[list[float], list[float], np.ndarray]]:
        level = 0.0  # Y_0
        for t0 in range(1, T + 1, _PATH_CHUNK):  # steps t = t0 .. t1-1
            t1 = min(t0 + _PATH_CHUNK, T + 1)
            j0 = int(t0 == 1)  # V_{t-1} starts at t = 2
            eps = stream.standard_normal(t1 - t0)
            noise = cond_sd * eps
            noise[:j0] = params.sigma_xi * eps[:j0]  # step 1's noise sd; its slope is -0.0
            v = next_v(t1 - t0 - j0)  # V_{t-1} of steps t = t0+j0 .. t1-1
            slope = [-0.0] * j0 + (rs / v).tolist()  # rho*sigma_xi/V_{t-1}
            ys: list[float] = []
            xs: list[float] = []
            y_append, x_append = ys.append, xs.append
            for s, e in zip(slope, noise.tolist()):
                x = s * level + e
                x_append(x)
                level = phi * level + x
                y_append(level)
            yield ys, xs, v

    return chunks()


def _block_writer(spec: BatchSpec, keep: tuple[int, int] | None = None) -> Callable[[int], bytes]:
    # write(block), which returns the rows of that block of replications,
    # _BLOCK_SIZE rows per block, as bytes, once the caller has checked
    # V_1..V_T.  Each block is walked time-major: time in chunks of _CHUNK
    # steps with the rows contiguous at each step, each row's normals
    # drawn chunk by chunk from its own stream and V_{t-1} chunk by chunk
    # from the block's own walk of V_t.  Every operation is elementwise, so
    # each row's arithmetic is simulate_path's, step 1 too: the common step
    # with slope -0.0 and noise sd sigma_xi, as in _walk.
    #
    # keep=(lo, hi), 1 <= lo < hi, returns Y_t and xi_t for lo <= t < hi,
    # (2, n, hi-lo) for a block of n rows, and the walk stops at the last
    # kept step.  Without keep it returns (3, n) sums over t = 2..T of
    # Y_{t-1}^2, Y_t*Y_{t-1} and Y_{t-1}^2/V_{t-1}, each accumulated in time
    # order, as np.cumsum adds.  The two chunk buffers and the result buffer
    # are allocated once, and a shorter last block uses prefixes of them.
    # Each step makes xi_t from its noise in the row of Y_t, or at a kept
    # step t0+j in row j of the draws, which are then in the levels, and
    # copies them to the result once per chunk; then it makes Y_t: the same
    # two roundings as simulate_path, since IEEE addition commutes.
    params = spec.params
    T = spec.path_length
    rs = params.rho * params.sigma_xi
    cond_sd = params.sigma_xi * math.sqrt(1.0 - params.rho * params.rho)  # as in _walk
    phi = params.phi
    lo, hi = keep or (T + 1, T + 1)  # without keep, no step is kept
    last = min(T, hi - 1)
    c = min(_CHUNK, last)
    width = min(_BLOCK_SIZE, spec.replications)
    raw_buf = np.empty(width * c)  # the chunk's draws, then its kept xi_t, then scratch for the sums
    y_buf = np.empty((c + 1) * width)  # row 0 is the level before the chunk
    tmp_buf = np.empty(width)
    per_row = 3 if keep is None else 2 * (hi - lo)  # a row's result: its sums, or its Y_t and xi_t
    out_buf = np.empty(per_row * width)
    seq = np.random.SeedSequence(0)  # seeds the holders without OS entropy; their states are set per block
    gens = [np.random.Generator(np.random.PCG64(seq)) for _ in range(width)]
    bits = [g.bit_generator for g in gens]
    mul = np.multiply
    add = np.add

    def write(block: int) -> bytes:
        start = block * _BLOCK_SIZE
        n = min(_BLOCK_SIZE, spec.replications - start)
        for state, bit in zip(_pcg64_states(_mix_seeds(spec.master_seed, start, n)), bits):
            bit.state = state
        streams = gens[:n]
        raw = raw_buf[: n * c]
        eps = raw.reshape(n, c)
        xi = raw.reshape(c, n)  # once the draws are in y, row j is xi_t of a kept step t0+j
        y = y_buf[: (c + 1) * n].reshape(c + 1, n)
        tmp = tmp_buf[:n]
        y[0] = 0.0
        eps_rows = list(eps)
        xi_rows = list(xi)
        y_rows = list(y)
        rows = out_buf[: per_row * n].reshape((3, n) if keep is None else (2, n, hi - lo))
        if keep is None:
            rows[...] = -0.0  # -0.0 + x == x for every x, as cumsum starts
        next_v = _variance_walk(params)
        for t0 in range(1, last + 1, c):
            m = min(c, last + 1 - t0)  # steps t = t0 .. t0+m-1; y[j+1] is step t0+j
            j0 = int(t0 == 1)  # V_{t-1} and the sums start at t = 2
            draws = eps_rows if m == c else [row[:m] for row in eps_rows]
            for row, stream in zip(draws, streams):
                stream.standard_normal(out=row)
            mul(eps[:, :m].T, cond_sd, out=y[1 : m + 1])  # the noise of xi_t, as in _walk,
            mul(eps[:, :j0].T, params.sigma_xi, out=y[1 : 1 + j0])  # of sd sigma_xi at step 1
            v = next_v(m - j0)  # V_{t-1} of steps t = t0+j0 .. t0+m-1
            slope = [-0.0] * j0 + (rs / v).tolist()  # rho*sigma_xi/V_{t-1}
            a, b = max(lo, t0), min(hi, t0 + m)  # the kept steps of the chunk
            xs = y_rows[1 : m + 1]  # the row each step makes xi_t in: that of Y_t,
            xs[a - t0 : b - t0] = xi_rows[a - t0 : b - t0]  # or row j of xi at kept step t0+j
            for lag, lead, x, s in zip(y_rows, y_rows[1 : m + 1], xs, slope):
                mul(lag, s, tmp)  # xi_t = (rho*sigma_xi/V_{t-1})*Y_{t-1} + noise
                add(tmp, lead, x)
                mul(lag, phi, tmp)  # Y_t = phi*Y_{t-1} + xi_t
                add(tmp, x, lead)
            if a < b:
                rows[0, :, a - lo : b - lo] = y[a - t0 + 1 : b - t0 + 1].T
                rows[1, :, a - lo : b - lo] = xi[a - t0 : b - t0].T
            if keep is None and m > j0:
                terms = raw[: (m - j0) * n].reshape(m - j0, n)
                _add_sums(rows, y[j0:m], y[j0 + 1 : m + 1], v[:, None], terms)
            y[0] = y[m]
        return rows.tobytes()

    return write


def _worker_count(blocks: int) -> int:
    # W of the module docstring for work in this many pieces.
    try:
        with open("/proc/self/status", "rb") as status:
            threads = int(status.read().split(b"Threads:")[1].split()[0])
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError, IndexError, ValueError):
        return 1
    return min(cpus, blocks) if threads == 1 and hasattr(os, "fork") else 1


def _work(steps: Iterable, parent: int, close: Iterable[int] = ()) -> None:
    # A forked worker: it closes the fds in close, the read ends of pipes,
    # so its own pipe breaks once its parent is gone, walks steps, stopping
    # at the next once its parent is gone, and leaves by os._exit, flushing
    # no inherited stdio, with status 1 where anything raised.
    try:
        for fd in close:
            os.close(fd)
        for _ in steps:
            if os.getppid() != parent:
                break
        os._exit(0)
    finally:
        os._exit(1)


def _run_batch(spec: BatchSpec, keep: tuple[int, int] | None = None) -> Iterator[np.ndarray]:
    # The batch's rows block by block, in block order: each block's (3, n)
    # sums or with keep=(lo, hi) its (2, n, hi-lo) window of Y_t and xi_t,
    # read from the bytes _block_writer returns as _chunk_map yields them.
    # V_1..V_T is checked at the first next(), before any fork; a caller
    # that may stop early closes the iterator, which reaps every worker.
    _check_variances(spec.params, spec.path_length)
    shape = (3, -1) if keep is None else (2, -1, keep[1] - keep[0])
    n = -(-spec.replications // _BLOCK_SIZE)
    with closing(_chunk_map(range(n), _block_writer(spec, keep), n)) as blocks:
        for _, raw in blocks:
            yield np.frombuffer(raw).reshape(shape)


def _chunk_map(items: Iterable, work: Callable[[object], bytes], n: int) -> Iterator[tuple[object, bytes]]:
    # (item, work(item)) for each of the n items in order, the work of item
    # k done by process k mod W: this one, or forked worker j = k mod W,
    # which walks its own copy of items by _work and sends each result down
    # its pipe after its length.  The workers fork before items is first
    # advanced, so a generator that opens a file then (pathcsv._texts) reads it
    # in each process at an offset of its own.  This process does the items
    # whose result did not arrive.  Once the map ends the read ends close,
    # so a worker that would still write ends, and every worker is reaped,
    # killed first where the map raised or was closed.
    w = _worker_count(n)

    def send(j: int, fd: int) -> Iterator[None]:
        with open(fd, "wb") as pipe:
            for k, item in enumerate(items):
                if k % w == j:
                    raw = work(item)
                    pipe.write(len(raw).to_bytes(8, "little"))
                    pipe.write(raw)
                    pipe.flush()
                yield

    def receive(pipe: BinaryIO) -> bytes | None:
        head = pipe.read(8)  # short or empty once the worker's pipe has ended
        raw = pipe.read(size := int.from_bytes(head, "little"))
        return raw if len(head) == 8 and len(raw) == size else None

    parent, pids, pipes = os.getpid(), [], []
    try:
        for j in range(1, w):
            r, fd = os.pipe()
            if (pid := os.fork()) == 0:
                _work(send(j, fd), parent, (r, *(pipe.fileno() for pipe in pipes)))
            os.close(fd)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        for k, item in enumerate(items):
            raw = receive(pipes[k % w - 1]) if k % w else None
            yield item, work(item) if raw is None else raw
    except BaseException:
        import signal  # loaded only where a worker is killed
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:  # first, so that a worker blocked on its pipe ends
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
