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
from digar.simulation import _mix_seeds, _pcg64_states, _run_blocks
from conftest import boundary_params_strategy, seeds_strategy

P = ModelParams(0.5, 0.3, 1.0)

_M = (1 << 64) - 1


def _path_blocks(spec, **kw):
    # (start, y_block, xi_block) per block, every column kept.
    for start, y, xi, _ in _run_blocks(spec, keep=(0, spec.path_length + 1), **kw):
        yield start, y, xi


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
    """The batch kernel computes each block's PCG64 states itself; they
    must be the states numpy's own constructor starts from."""

    EDGE_SEEDS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]

    def test_edge_seeds_match_numpy(self):
        states = _pcg64_states(np.array(self.EDGE_SEEDS, dtype=np.uint64))
        assert states == [np.random.PCG64(s).state for s in self.EDGE_SEEDS]

    def test_random_seeds_match_numpy(self):
        seeds = np.random.default_rng(20170411).integers(0, 1 << 64, 10_000, dtype=np.uint64)
        states = _pcg64_states(seeds)
        assert states == [np.random.PCG64(s).state for s in seeds.tolist()]

    @pytest.mark.parametrize("master", [0, 12345, (1 << 64) - 1])
    @pytest.mark.parametrize("start, n", [(0, 1), (0, 500), (1000, 203)])
    def test_block_seeds_match_mix_seed(self, master, start, n):
        seeds = _mix_seeds(master, start, n).tolist()
        assert seeds == [mix_seed(master, r) for r in range(start, start + n)]

    @pytest.fixture
    def stream_seeds(self, monkeypatch):
        # The seeds the batch kernel passes to normal_stream, in call order.
        seeds = []

        def counted(seed):
            seeds.append(seed)
            return normal_stream(seed)

        monkeypatch.setattr(simulation, "normal_stream", counted)
        return seeds

    def test_guard_builds_one_stream_per_block(self, stream_seeds):
        list(_path_blocks(BatchSpec(P, 10, 1203, 5150)))
        assert stream_seeds == [mix_seed(5150, r) for r in (0, 500, 1000)]

    def test_mismatch_falls_back_to_numpy_seeding(self, monkeypatch, stream_seeds):
        spec = BatchSpec(P, 10, 1203, 5150)
        expected = [(y.copy(), xi.copy()) for _, y, xi in _path_blocks(spec)]
        stream_seeds.clear()

        def wrong(seeds):
            states = _pcg64_states(seeds)
            states[0]["state"]["state"] ^= 1
            return states

        monkeypatch.setattr(simulation, "_pcg64_states", wrong)
        fallback = list(_path_blocks(spec))
        # one guard stream, then every row seeded by numpy's constructor
        assert stream_seeds == [mix_seed(5150, 0)] + [mix_seed(5150, r) for r in range(1203)]
        for (y, xi), (_, yf, xf) in zip(expected, fallback, strict=True):
            assert np.array_equal(y, yf)
            assert np.array_equal(xi, xf)

    def test_every_row_matches_its_single_path(self):
        # The guard checks one row per block; this checks them all.
        spec = BatchSpec(P, 10, 1203, 5150)
        for start, y, xi in _path_blocks(spec):
            for i in range(y.shape[0]):
                solo = simulate_path(P, 10, mix_seed(5150, start + i))
                assert np.array_equal(y[i], solo.y)
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
        whole = simulate_path(P, 50, 3)
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        part = simulate_path(P, 50, 3)
        assert whole.y.tobytes() == part.y.tobytes()
        assert whole.xi.tobytes() == part.xi.tobytes()
        spec = BatchSpec(P, 50, 1, 3)
        (_, y, xi), = _path_blocks(spec)
        solo = simulate_path(P, 50, mix_seed(3, 0))
        assert y[0].tobytes() == solo.y.tobytes() and xi[0].tobytes() == solo.xi.tobytes()

    def test_memory_is_a_few_words_per_step(self):
        # y, xi and V_t are a word (8 bytes) per step each, and the check
        # of the recursion one more; normals and slopes are held a chunk
        # at a time.  Holding them for all T steps as Python lists, with a
        # second copy of y and xi, took 14 words per step.
        T = 1_000_000
        tracemalloc.start()
        try:
            simulate_path(P, T, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * T

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
        # The recursion is checked chunk by chunk, but its atol is 1e-12
        # times the largest |Y| of the whole path, here Y_1 = +-1e6, far
        # from the residual at the last step.
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        y = np.concatenate(([0.0], sign * 1e6 * 0.5 ** np.arange(30.0)))  # exact at phi = 0.5
        xi = np.zeros(30)
        xi[0] = y[1]
        y[-1] += 1e-7
        SamplePath(P, y, xi, None)
        y[-1] += 1e-5
        with pytest.raises(OutOfRangeError, match="path violates"):
            SamplePath(P, y, xi, None)

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
        assert y.shape == (1, 51)
        assert np.array_equal(y[0], solo.y)
        assert np.array_equal(xi[0], solo.xi)

    def test_rows_match_single_paths_bitwise(self):
        (_, y, xi), = _path_blocks(BatchSpec(P, 50, 5, 999))
        for r in (0, 3, 4):
            solo = simulate_path(P, 50, mix_seed(999, r))
            assert np.array_equal(y[r], solo.y)
            assert np.array_equal(xi[r], solo.xi)

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

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        # DIGAR_THREADS is no longer read; a value left in the environment
        # must not change the rows.
        spec = BatchSpec(P, 10, 1300, 5150)
        monkeypatch.delenv("DIGAR_THREADS", raising=False)
        serial = [(y.copy(), xi.copy()) for _, y, xi in _path_blocks(spec)]
        monkeypatch.setenv("DIGAR_THREADS", "3")
        threaded = [(y.copy(), xi.copy()) for _, y, xi in _path_blocks(spec)]
        assert len(serial) == len(threaded)
        for (ys, xs), (yt, xt) in zip(serial, threaded):
            assert np.array_equal(ys, yt)
            assert np.array_equal(xs, xt)

    def test_block_size_does_not_change_rows(self):
        spec = BatchSpec(P, 10, 1300, 5150)
        small = np.concatenate([y for _, y, _ in _path_blocks(spec, block_size=64)])
        big = np.concatenate([y for _, y, _ in _path_blocks(spec, block_size=500)])
        assert np.array_equal(small, big)

    def test_block_starts_cover_batch_in_order(self):
        spec = BatchSpec(P, 10, 1300, 5150)
        starts = [s for s, _, _ in _path_blocks(spec)]
        assert starts == [0, 500, 1000]

    def test_bad_block_size_rejected(self):
        spec = BatchSpec(P, 10, 10, 0)
        with pytest.raises(OutOfRangeError):
            next(_path_blocks(spec, block_size=0))


class TestKernelChunking:
    """The batch kernel walks time in chunks; the chunk length is not
    allowed to change a single bit of what it returns."""

    @staticmethod
    def _assert_same(a, b):
        # Each block's arrays are freshly allocated, so both runs can be held.
        assert len(a) == len(b)
        for xa, xb in zip(a, b):
            assert xa[0] == xb[0]
            for ea, eb in zip(xa[1:], xb[1:]):
                assert (ea is None and eb is None) or np.array_equal(ea, eb)

    def test_fused_sums_do_not_depend_on_chunk_length(self):
        spec = BatchSpec(P, 600, 1001, 4242)
        self._assert_same(
            list(_run_blocks(spec, sums=True, chunk=7)),
            list(_run_blocks(spec, sums=True, chunk=256)),
        )

    def test_acf_window_does_not_depend_on_chunk_length(self):
        spec = BatchSpec(P, 600, 1001, 4242)
        short = list(_run_blocks(spec, keep=(200, 205), chunk=7))
        self._assert_same(short, list(_run_blocks(spec, keep=(200, 205), chunk=256)))
        assert short[0][1].shape == short[0][2].shape == (500, 5)

    def test_full_window_matches_single_paths_for_any_chunk(self):
        spec = BatchSpec(P, 30, 3, 17)
        for chunk in (1, 7, 256):
            (start, y, xi, sums), = _run_blocks(spec, keep=(0, 31), chunk=chunk)
            assert sums is None
            for r in range(3):
                solo = simulate_path(P, 30, mix_seed(17, r))
                assert np.array_equal(y[r], solo.y)
                assert np.array_equal(xi[r], solo.xi)


class TestCrossSectionalLaw:
    """Monte Carlo checks of the exact finite-t marginals."""

    def test_level_marginals(self):
        spec = BatchSpec(P, 500, 2000, 2024)
        y_mid, y_end = [], []
        for _, y, _ in _path_blocks(spec):
            y_mid.append(y[:, 200])
            y_end.append(y[:, 500])
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
            lag.append(y[:, 39])
            innov.append(xi[:, 39])
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
