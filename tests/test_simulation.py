import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from digar import (
    BatchSpec,
    ModelParams,
    NonFiniteError,
    OutOfRangeError,
    SamplePath,
    ks_distance,
    mix_seed,
    normal_stream,
    simulate_path,
    variance_sequence,
    vbar_limit,
)
from digar import simulation
from digar.simulation import _block_writer, _mix_seeds, _pcg64_states
from conftest import batch_rows, boundary_params_strategy, peak_rss, seeds_strategy

P = ModelParams(0.5, 0.3, 1.0)
# V_t reaches its fixed point at t = 36 at P, but only at t = 646 here,
# so it is still moving at every chunk edge of the tests' paths.
MOVING = ModelParams(0.95, 0.9, 1.0)

_M = (1 << 64) - 1


def _path_blocks(spec):
    # (start, Y_1..Y_T, xi_1..xi_T) per block, read from the bytes the block
    # returns for the window of every step, each once the block is made.
    write = _block_writer(spec, keep=(1, spec.path_length + 1))
    size = simulation._BLOCK_SIZE
    for block in range(-(-spec.replications // size)):
        start = block * size
        ys, xs = np.frombuffer(write(block)).reshape(2, -1, spec.path_length)
        assert len(ys) == min(size, spec.replications - start)
        yield start, ys, xs


def _splitmix64_outputs(state: int, n: int) -> list[int]:
    # Reference implementation that walks the state sequentially, unlike
    # the closed-form jump used by mix_seed.
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        out.append((z ^ (z >> 31)) & _M)
    return out


class TestMixSeed:
    def test_published_vectors(self):
        # first three SplitMix64 outputs from state 0, a widely published
        # reference sequence
        assert mix_seed(0, 0) == 0xE220A8397B1DCDAF
        assert mix_seed(0, 1) == 0x6E789E6AA1B965F4
        assert mix_seed(0, 2) == 0x06C45D188009454F

    @pytest.mark.parametrize("master", [0, 12345, (1 << 64) - 1])
    def test_matches_sequential_stepper(self, master):
        expected = _splitmix64_outputs(master, 40)
        assert [mix_seed(master, r) for r in range(40)] == expected

    def test_derived_seeds_distinct(self):
        seeds = {mix_seed(12345, r) for r in range(1000)}
        assert len(seeds) == 1000

    @pytest.mark.parametrize("master", [-1, 1 << 64, 2.5, "7", True])
    def test_bad_master_rejected(self, master):
        with pytest.raises(OutOfRangeError):
            mix_seed(master, 0)

    def test_negative_replication_rejected(self):
        with pytest.raises(OutOfRangeError):
            mix_seed(0, -1)

    @given(seeds_strategy(), st.integers(0, 10**6))
    def test_output_is_valid_seed(self, master, r):
        out = mix_seed(master, r)
        assert 0 <= out < 1 << 64


class TestNormalStream:
    def test_deterministic(self):
        a = [normal_stream(7).standard_normal() for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_block_draw_equals_sequential_draws(self):
        block = normal_stream(99).standard_normal(64)
        stream = normal_stream(99)
        singles = np.array([stream.standard_normal() for _ in range(64)])
        assert np.array_equal(block, singles)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, None, 0.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            normal_stream(seed)

    def test_moments_at_one_million_draws(self):
        z = normal_stream(2718).standard_normal(1_000_000)
        assert abs(z.mean()) <= 0.004
        assert abs(z.var(ddof=1) - 1.0) <= 0.005

    def test_distribution_close_to_normal(self):
        z = normal_stream(31415).standard_normal(100_000)
        assert ks_distance(z) < 0.01


class TestBulkSeeding:
    """A row's stream is a PCG64 whose state and increment are four
    SplitMix64 outputs of its seed.  normal_stream makes it for one seed,
    and the batch kernel makes a block's states in bulk; both must give
    the documented state."""

    EDGE_SEEDS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]

    @staticmethod
    def documented_state(seed):
        # The contract in Python ints, the oracle for the uint64 arithmetic.
        state = mix_seed(seed, 0) << 64 | mix_seed(seed, 1)
        inc = (mix_seed(seed, 2) << 64 | mix_seed(seed, 3)) | 1
        return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}

    def test_edge_seeds_follow_the_contract(self):
        for seed in self.EDGE_SEEDS:
            assert normal_stream(seed).bit_generator.state == self.documented_state(seed)

    def test_random_seeds_follow_the_contract(self):
        seeds = np.random.default_rng(20170411).integers(0, 1 << 64, 10_000, dtype=np.uint64)
        expected = [self.documented_state(s) for s in seeds.tolist()]
        assert [normal_stream(s).bit_generator.state for s in seeds.tolist()] == expected
        assert list(_pcg64_states(seeds)) == expected

    @pytest.mark.parametrize("master", [0, 12345, (1 << 64) - 1])
    @pytest.mark.parametrize("start, n", [(0, 1), (0, 500), (1000, 203)])
    def test_block_seeds_match_mix_seed(self, master, start, n):
        seeds = _mix_seeds(master, start, n).tolist()
        assert seeds == [mix_seed(master, r) for r in range(start, start + n)]

    @pytest.mark.parametrize("master", [0, 12345, (1 << 64) - 1])
    def test_batch_builds_no_stream_through_normal_stream(self, monkeypatch, master):
        calls = []
        monkeypatch.setattr(simulation, "normal_stream", calls.append)
        list(_path_blocks(BatchSpec(P, 10, 1203, master)))
        assert calls == []

    def test_every_row_matches_its_single_path(self):
        spec = BatchSpec(P, 10, 1203, 5150)
        for start, y, xi in _path_blocks(spec):
            for i in range(y.shape[0]):
                solo = simulate_path(P, 10, mix_seed(5150, start + i))
                assert np.array_equal(y[i], solo.y[1:])
                assert np.array_equal(xi[i], solo.xi)


class TestSimulatePath:
    def test_shapes_and_anchors(self):
        path = simulate_path(P, 50, 7)
        assert path.y.shape == (51,)
        assert path.xi.shape == (50,)
        assert path.horizon == 50
        assert path.y[0] == 0.0
        assert path.seed == 7
        assert path.params == P

    def test_deterministic(self):
        a = simulate_path(P, 50, 7)
        b = simulate_path(P, 50, 7)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.xi, b.xi)

    def test_seeds_differ(self):
        a = simulate_path(P, 50, 7)
        b = simulate_path(P, 50, 8)
        assert not np.array_equal(a.y, b.y)

    def test_recursion_identity_exact(self):
        path = simulate_path(P, 200, 11)
        assert np.array_equal(path.y[1:], P.phi * path.y[:-1] + path.xi)

    @pytest.mark.parametrize("T", [0, -5])
    def test_zero_horizon_rejected(self, T):
        with pytest.raises(OutOfRangeError, match="T must be >= 1"):
            simulate_path(P, T, 7)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, True, "7", 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            simulate_path(P, 10, seed)

    def test_arrays_read_only(self):
        path = simulate_path(P, 10, 7)
        with pytest.raises(ValueError):
            path.y[0] = 1.0
        with pytest.raises(ValueError):
            path.xi[0] = 1.0

    @pytest.mark.parametrize("chunk", [1, 2, 7, 48, 49])
    def test_path_does_not_depend_on_chunk_length(self, monkeypatch, chunk):
        # simulate_path draws and walks chunk by chunk; the walk covers 50
        # steps here, so chunks of 49 and 48 leave one and two over.
        wholes = [simulate_path(p, 50, 3) for p in (P, MOVING)]
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        for p, whole in zip((P, MOVING), wholes):
            part = simulate_path(p, 50, 3)
            assert whole.y.tobytes() == part.y.tobytes()
            assert whole.xi.tobytes() == part.xi.tobytes()
            spec = BatchSpec(p, 50, 1, 3)
            (_, y, xi), = _path_blocks(spec)
            solo = simulate_path(p, 50, mix_seed(3, 0))
            assert y[0].tobytes() == solo.y[1:].tobytes() and xi[0].tobytes() == solo.xi.tobytes()

    def test_memory_is_a_few_words_per_step(self):
        # y and xi are a word (8 bytes) per step each; normals, slopes and
        # V_t are held a chunk at a time, and the recursion is checked
        # chunk by chunk.  From T = 1e3 to 1e6 the peak RSS of a fresh
        # process grew 2.1 words per step on a 2-core Linux host with numpy
        # 2.4; holding V_t whole as well made it 3.0, and holding all T
        # steps as Python lists more still.
        code = "from digar import ModelParams, simulate_path; simulate_path(ModelParams(0.5, 0.3, 1.0), {}, 7)"
        grown = peak_rss("-c", code.format(1_000_000)) - peak_rss("-c", code.format(1_000))
        assert grown < 2.5 * 8 * (1_000_000 - 1_000)

    @given(boundary_params_strategy(), seeds_strategy(), st.integers(1, 40))
    def test_recursion_identity_generic(self, p, seed, T):
        path = simulate_path(p, T, seed)
        assert np.array_equal(path.y[1:], p.phi * path.y[:-1] + path.xi)

    def test_independent_innovations_are_white(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 20000, 424242)
        x = path.xi
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 4.0 / math.sqrt(20000)
        assert ks_distance(x) < 0.0136


class TestSamplePathValidation:
    def test_accepts_consistent_path(self):
        path = SamplePath(P, np.array([0.0, 1.0, 2.0, 1.0]), np.array([1.0, 1.5, 0.0]), None)
        assert path.horizon == 3
        assert path.seed is None

    def test_nonzero_origin_rejected(self):
        # Worded by the float's repr, not the numpy scalar's (which NumPy
        # 2 prints as np.float64(0.5)).
        with pytest.raises(OutOfRangeError, match=r"^y\[0\] must be exactly 0, got 0\.5$"):
            SamplePath(P, np.array([0.5, 1.25]), np.array([1.0]), None)

    def test_broken_recursion_rejected(self):
        with pytest.raises(OutOfRangeError):
            SamplePath(P, np.array([0.0, 1.0, 9.0]), np.array([1.0, 1.5]), None)

    def test_length_mismatch_rejected(self):
        with pytest.raises(OutOfRangeError):
            SamplePath(P, np.array([0.0, 1.0]), np.array([1.0, 1.5]), None)

    def test_two_dimensional_arrays_rejected(self):
        msg = r"^need len\(y\) = len\(xi\)\+1 >= 2, got len\(y\)=\(3, 1\) len\(xi\)=\(2,\)$"
        with pytest.raises(OutOfRangeError, match=msg):
            SamplePath(P, np.zeros((3, 1)), np.zeros(2), None)

    def test_empty_path_rejected(self):
        with pytest.raises(OutOfRangeError):
            SamplePath(P, np.array([0.0]), np.array([]), None)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            SamplePath(P, np.array([0.0, np.nan]), np.array([np.nan]), None)

    def test_bad_seed_rejected(self):
        with pytest.raises(OutOfRangeError):
            SamplePath(P, np.array([0.0, 1.0]), np.array([1.0]), -1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_tolerance_scales_with_the_whole_path(self, monkeypatch, sign, chunk):
        # The recursion is checked chunk by chunk, but its tolerance is
        # 1e-12 times the largest |Y| and |xi| of the whole path, here
        # Y_1 = xi_1 = +-1e6, far from the residual at the last step.
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        y = np.concatenate(([0.0], sign * 1e6 * 0.5 ** np.arange(30.0)))  # exact at phi = 0.5
        xi = np.zeros(30)
        xi[0] = y[1]
        y[-1] += 1e-7
        SamplePath(P, y, xi, None)
        y[-1] += 1e-5
        with pytest.raises(OutOfRangeError, match="path violates"):
            SamplePath(P, y, xi, None)

    @pytest.mark.parametrize("e", [-300, 0, 300])
    def test_broken_recursion_refused_at_any_scale(self, e):
        # At sigma 1e-20 every |Y| is far below 1e-12, so any absolute
        # floor on the tolerance would let both corrupt copies through.
        params = ModelParams(0.5, 0.3, 1e-20 * 2.0**e)
        path = simulate_path(params, 1000, 7)
        SamplePath(params, path.y, path.xi, None)
        zero_xi, tripled_y = path.xi.copy(), path.y.copy()
        zero_xi[1:] = 0.0
        tripled_y[1:] *= 3.0
        for y, xi in ((path.y, zero_xi), (tripled_y, path.xi)):
            with pytest.raises(OutOfRangeError, match="path violates"):
                SamplePath(params, y, xi, None)

    def test_keeps_copies_of_the_callers_arrays(self):
        y = np.array([0.0, 1.0, 2.0, 1.0])
        xi = np.array([1.0, 1.5, 0.0])
        path = SamplePath(P, y, xi, None)
        y[1:] = 5.0
        xi[:] = 7.0
        assert path.y.tolist() == [0.0, 1.0, 2.0, 1.0]
        assert path.xi.tolist() == [1.0, 1.5, 0.0]
        # Read-only arrays are copied too: their owner can make them
        # writable again.
        again = SamplePath(P, path.y, path.xi, None)
        assert not np.shares_memory(again.y, path.y)
        assert not np.shares_memory(again.xi, path.xi)


class TestScaleEquivariance:
    def test_doubling_sigma_doubles_path_bitwise(self):
        base = simulate_path(P, 200, 7)
        scaled = simulate_path(ModelParams(0.5, 0.3, 2.0), 200, 7)
        assert np.array_equal(scaled.y, 2.0 * base.y)
        assert np.array_equal(scaled.xi, 2.0 * base.xi)

    def test_generic_scaling(self):
        c = 3.7
        base = simulate_path(P, 200, 7)
        scaled = simulate_path(ModelParams(0.5, 0.3, c), 200, 7)
        tol = 1e-12 * c * max(1.0, float(np.max(np.abs(base.y))))
        assert np.allclose(scaled.y, c * base.y, rtol=0.0, atol=tol)
        assert np.allclose(scaled.xi, c * base.xi, rtol=0.0, atol=tol)


class TestBatch:
    def test_spec_validation(self):
        with pytest.raises(OutOfRangeError):
            BatchSpec(P, 1, 10, 0)
        with pytest.raises(OutOfRangeError):
            BatchSpec(P, 10, 0, 0)
        with pytest.raises(OutOfRangeError):
            BatchSpec(P, 10, 1, -1)

    def test_single_replication_matches_single_path(self):
        (start, y, xi), = _path_blocks(BatchSpec(P, 50, 1, 999))
        solo = simulate_path(P, 50, mix_seed(999, 0))
        assert start == 0
        assert y.shape == (1, 50)
        assert np.array_equal(y[0], solo.y[1:])
        assert np.array_equal(xi[0], solo.xi)

    def test_rows_match_single_paths_bitwise(self):
        (_, y, xi), = _path_blocks(BatchSpec(P, 50, 5, 999))
        for r in (0, 3, 4):
            solo = simulate_path(P, 50, mix_seed(999, r))
            assert np.array_equal(y[r], solo.y[1:])
            assert np.array_equal(xi[r], solo.xi)

    @pytest.mark.parametrize("phi", [0.5, -0.5])
    @pytest.mark.parametrize("rho", [0.3, -0.3])
    def test_step_one_keeps_the_sign_of_zero(self, phi, rho):
        # Both kernels make xi_1 as the common step with slope -0.0 and
        # noise sd sigma_xi: -0.0*Y_0 + sigma_xi*eps_1 is sigma_xi*eps_1,
        # also where that product underflows to -0.0, as it does at sigma_xi
        # = 5e-324 in 10 of these 40 rows.  Y_1 = phi*Y_0 + xi_1 is -0.0
        # there only where phi < 0.  The window stops at step 1, so V_2,
        # which underflows to 0, is never walked.
        p = ModelParams(phi, rho, 5e-324)
        out = np.frombuffer(_block_writer(BatchSpec(p, 2, 40, 9), keep=(1, 2))(0)).reshape(2, 40, 1)
        ys, xs = out[:, :, 0]
        assert np.count_nonzero((xs == 0.0) & np.signbit(xs)) == 10
        assert np.count_nonzero((ys == 0.0) & np.signbit(ys)) == (10 if phi < 0 else 0)
        for r in range(40):
            solo = simulate_path(p, 1, mix_seed(9, r))
            assert out[0, r].tobytes() == solo.y[1:].tobytes()
            assert out[1, r].tobytes() == solo.xi.tobytes()

    def test_batch_deterministic(self):
        # The second spec spans two full blocks and a shorter last one.
        for spec in (BatchSpec(P, 20, 7, 31), BatchSpec(P, 10, 1300, 5150)):
            a = list(_path_blocks(spec))
            b = list(_path_blocks(spec))
            assert len(a) == len(b)
            for (sa, ya, xa), (sb, yb, xb) in zip(a, b):
                assert sa == sb
                assert np.array_equal(ya, yb)
                assert np.array_equal(xa, xb)

    def test_block_size_does_not_change_rows(self, monkeypatch):
        spec = BatchSpec(P, 10, 1300, 5150)
        big = np.concatenate([y for _, y, _ in _path_blocks(spec)])
        monkeypatch.setattr(simulation, "_BLOCK_SIZE", 64)
        small = np.concatenate([y for _, y, _ in _path_blocks(spec)])
        assert np.array_equal(small, big)

    def test_block_starts_cover_batch_in_order(self):
        # Block b returns rows 500*b.. and no other, so blocks 0, 1, 2 cover
        # the batch's rows in order, the last block short.
        spec = BatchSpec(P, 10, 1300, 5150)
        write = _block_writer(spec)
        out = np.concatenate([np.frombuffer(write(b)).reshape(3, -1) for b in range(3)], axis=1)
        assert np.array_equal(out, batch_rows(spec))
        assert [len(y) for _, y, _ in _path_blocks(spec)] == [500, 500, 300]

    @pytest.mark.parametrize("keep", [None, (3, 8)])
    def test_a_block_writes_only_its_own_rows(self, keep):
        # The processes of a batch each return whole blocks, and block 1's
        # bytes are exactly rows 500..999 of the batch.
        spec = BatchSpec(P, 10, 1203, 5150)
        assert _block_writer(spec, keep)(1) == batch_rows(spec, keep)[:, 500:1000].tobytes()


class TestKernelChunking:
    """The batch kernel walks time in chunks; the chunk length is not
    allowed to change a single bit of what it writes."""

    @staticmethod
    def _chunked(monkeypatch, chunk, spec, keep=None):
        monkeypatch.setattr(simulation, "_CHUNK", chunk)
        return batch_rows(spec, keep)

    def test_fused_sums_do_not_depend_on_chunk_length(self, monkeypatch):
        for p in (P, MOVING):
            spec = BatchSpec(p, 600, 1001, 4242)
            short = self._chunked(monkeypatch, 7, spec)
            assert np.array_equal(short, self._chunked(monkeypatch, 256, spec))

    def test_acf_window_does_not_depend_on_chunk_length(self, monkeypatch):
        for p in (P, MOVING):
            spec = BatchSpec(p, 600, 1001, 4242)
            short = self._chunked(monkeypatch, 7, spec, keep=(200, 205))
            assert short.shape == (2, 1001, 5)
            assert np.array_equal(short, self._chunked(monkeypatch, 256, spec, keep=(200, 205)))

    def test_full_window_matches_single_paths_for_any_chunk(self, monkeypatch):
        for p in (P, MOVING):
            spec = BatchSpec(p, 30, 3, 17)
            for chunk in (1, 7, 256):
                y, xi = self._chunked(monkeypatch, chunk, spec, keep=(1, 31))
                for r in range(3):
                    solo = simulate_path(p, 30, mix_seed(17, r))
                    assert np.array_equal(y[r], solo.y[1:])
                    assert np.array_equal(xi[r], solo.xi)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 256])
    @pytest.mark.parametrize("lo, hi", [(1, 2), (1, 31), (2, 9)])
    def test_windows_at_the_start_match_single_paths(self, monkeypatch, chunk, lo, hi):
        # Step 1 is the common step with slope -0.0, and a window from
        # t = 1 keeps its xi_1 = sigma_xi*eps_1.
        for p in (P, MOVING):
            spec = BatchSpec(p, 30, 3, 17)
            y, xi = self._chunked(monkeypatch, chunk, spec, keep=(lo, hi))
            for r in range(3):
                solo = simulate_path(p, 30, mix_seed(17, r))
                assert np.array_equal(y[r], solo.y[lo:hi])
                assert np.array_equal(xi[r], solo.xi[lo - 1 : hi - 1])


class TestKernelMemory:
    """A block holds two chunk buffers, the draws, in which a kept xi_t is
    made, and the levels, in which any other is made, and a buffer of its
    rows, which it returns as bytes; the seed states are set as they are
    computed."""

    @pytest.mark.parametrize("keep", [None, (200, 205)])
    def test_block_peak_below_three_chunk_buffers(self, keep):
        spec = BatchSpec(P, 2000, simulation._BLOCK_SIZE, 7)
        batch_rows(spec, keep)  # makes the allocations of a first call
        tracemalloc.start()
        try:
            _block_writer(spec, keep)(0)  # the writer's buffers and holders, its rows and their bytes count too
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * simulation._BLOCK_SIZE * simulation._CHUNK * 8


class TestCrossSectionalLaw:
    """Monte Carlo checks of the exact finite-t marginals."""

    def test_level_marginals(self):
        spec = BatchSpec(P, 500, 2000, 2024)
        y_mid, y_end = [], []
        for _, y, _ in _path_blocks(spec):
            y_mid.append(y[:, 199])  # Y_200
            y_end.append(y[:, 499])  # Y_500
        y_mid = np.concatenate(y_mid)
        y_end = np.concatenate(y_end)
        R = spec.replications
        v200 = variance_sequence(P, 500)[199]

        assert abs(y_end.mean()) < 3.0 * vbar_limit(P) / math.sqrt(R)
        assert abs(y_mid.std(ddof=1) - v200) < 3.0 * v200 / math.sqrt(2 * R)
        # standardized level should be N(0,1); 0.0364 is a deep-tail
        # critical value for the KS distance at R=2000
        assert ks_distance(y_mid / v200) < 0.0364

    def test_conditional_innovation_regression(self):
        # xi_t on Y_{t-1} is linear with slope rho*sigma/V_{t-1} and
        # homoskedastic residual sd sigma*sqrt(1-rho^2); fit by OLS and
        # check all three within 3 standard errors.
        spec = BatchSpec(P, 40, 4000, 778)
        lag, innov = [], []
        for _, y, xi in _path_blocks(spec):
            lag.append(y[:, 38])  # Y_39
            innov.append(xi[:, 39])  # xi_40
        lag = np.concatenate(lag)
        innov = np.concatenate(innov)
        n = len(lag)

        design = np.column_stack([np.ones(n), lag])
        coef, *_ = np.linalg.lstsq(design, innov, rcond=None)
        resid = innov - design @ coef
        s_sq = resid @ resid / (n - 2)
        cov = s_sq * np.linalg.inv(design.T @ design)
        se = np.sqrt(np.diag(cov))

        v39 = variance_sequence(P, 40)[38]
        slope_true = P.rho * P.sigma_xi / v39
        sd_true = P.sigma_xi * math.sqrt(1.0 - P.rho**2)
        assert abs(coef[0]) < 3.0 * se[0]
        assert abs(coef[1] - slope_true) < 3.0 * se[1]
        assert abs(math.sqrt(s_sq) - sd_true) < 3.0 * sd_true / math.sqrt(2 * (n - 2))
