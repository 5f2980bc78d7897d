import math
import os
import threading
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given

from digar import (
    DEFAULT_PHI_GRID,
    DEFAULT_RHO_GRID,
    BatchSpec,
    DegenerateDenominatorError,
    ExperimentSummary,
    ModelParams,
    Moments,
    NonFiniteError,
    OutOfRangeError,
    bias_curve,
    delta_limit,
    empirical_acf_experiment,
    eta_bar,
    ks_distance,
    mix_seed,
    normal_cdf,
    normal_stream,
    ols_bias,
    run_clt_experiment,
    run_consistency_experiment,
    simulate_path,
    stationary_sd,
    tau_bar,
    vbar_curve,
    vbar_limit,
)
from digar import simulation
from digar.experiments import _collect_estimates
from digar.simulation import _run_batch
from conftest import boundary_params_strategy, no_child_left, seeds_strategy

P = ModelParams(0.5, 0.3, 1.0)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.959964, 3.5, 17.0])
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_upper_tail_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.9750000009035576, abs=1e-12)

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.5, 0.3, 1.0, 2.5])
    def test_against_quadrature(self, x):
        pdf = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        area, err = scipy.integrate.quad(pdf, 0.0, x)
        assert err < 1e-13
        assert normal_cdf(x) == pytest.approx(0.5 + area, abs=1e-12)

    def test_monotone(self):
        xs = [-5.0, -1.0, 0.0, 0.5, 2.0, 6.0]
        vals = [normal_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            normal_cdf(bad)


class TestKsDistance:
    def test_matches_reference_implementation(self):
        z = normal_stream(5).standard_normal(500)
        expected = scipy.stats.kstest(z, "norm").statistic
        assert ks_distance(z) == pytest.approx(expected, abs=1e-12)

    def test_single_point(self):
        assert ks_distance([0.0]) == 0.5

    def test_detects_shift(self):
        z = normal_stream(5).standard_normal(500) + 5.0
        assert ks_distance(z) > 0.9

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            ks_distance([])


class TestSummaryInvariants:
    def _valid_kwargs(self):
        return dict(
            spec=BatchSpec(P, 100, 100, 0),
            target=0.5,
            estimate_mean=0.51,
            estimate_sd=0.5,
            standardized_moments=Moments(0.0, 1.0, 0.0, 0.0),
            ks_distance=0.02,
        )

    def test_accepts_consistent_fields(self):
        s = ExperimentSummary(**self._valid_kwargs())
        assert s.mc_standard_error == 0.05

    def test_mc_standard_error_is_derived(self):
        kwargs = self._valid_kwargs()
        kwargs["estimate_sd"] = 0.3
        kwargs["spec"] = BatchSpec(P, 100, 300, 0)
        s = ExperimentSummary(**kwargs)
        assert s.mc_standard_error == 0.3 / math.sqrt(300)
        with pytest.raises(TypeError):
            ExperimentSummary(**kwargs, mc_standard_error=0.05)

    def test_ks_range_enforced(self):
        kwargs = self._valid_kwargs()
        kwargs["ks_distance"] = 1.5
        with pytest.raises(OutOfRangeError):
            ExperimentSummary(**kwargs)

    def test_tree_layout(self):
        # Key order is part of the JSON bytes.
        tree = ExperimentSummary(**self._valid_kwargs()).as_tree()
        assert list(tree) == [
            "spec",
            "target",
            "estimate_mean",
            "estimate_sd",
            "mc_standard_error",
            "standardized_moments",
            "ks_distance",
        ]
        assert list(tree["spec"]) == [
            "phi",
            "rho",
            "sigma_xi",
            "path_length",
            "replications",
            "master_seed",
        ]
        assert list(tree["standardized_moments"]) == [
            "mean",
            "variance",
            "skewness",
            "excess_kurtosis",
        ]


class TestConsistencyExperiment:
    def test_smoke_and_reproducibility(self):
        spec = BatchSpec(P, 100, 100, 7)
        hat, tilde = run_consistency_experiment(spec)
        hat2, tilde2 = run_consistency_experiment(spec)
        assert hat.estimate_mean == hat2.estimate_mean
        assert tilde.as_tree() == tilde2.as_tree()

        assert hat.target == tau_bar(P)
        assert tilde.target == P.phi
        # positive feedback inflates the plain slope
        assert hat.estimate_mean > tilde.estimate_mean
        assert hat.spec is spec
        assert hat.mc_standard_error == hat.estimate_sd / math.sqrt(spec.replications)
        assert hat.standardized_moments.variance == pytest.approx(1.0, rel=1e-12)

    def test_without_feedback_both_estimators_coincide(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        hat, tilde = run_consistency_experiment(BatchSpec(p0, 100, 100, 7))
        assert hat.estimate_mean == tilde.estimate_mean
        assert hat.ks_distance == tilde.ks_distance
        assert hat.target == tilde.target == 0.5

    def test_negative_phi_inflates_the_gap(self):
        # With phi < 0 and rho > 0 the feedback opposes the mean reversion,
        # so the plain slope overshoots by more than in the mirrored
        # positive-phi design.
        p_neg = ModelParams(-0.5, 0.3, 1.0)
        hat_neg, _ = run_consistency_experiment(BatchSpec(p_neg, 2000, 400, 2025))
        hat_pos, _ = run_consistency_experiment(BatchSpec(P, 2000, 400, 2025))
        assert abs(hat_neg.estimate_mean - tau_bar(p_neg)) < 3 * hat_neg.mc_standard_error
        gap_neg = hat_neg.estimate_mean - p_neg.phi
        gap_pos = hat_pos.estimate_mean - P.phi
        assert gap_neg > 0
        assert gap_neg > gap_pos

    def test_preconditions(self):
        with pytest.raises(OutOfRangeError):
            run_consistency_experiment(BatchSpec(P, 100, 99, 7))
        with pytest.raises(OutOfRangeError):
            run_consistency_experiment(BatchSpec(P, 99, 100, 7))


# The test process runs BLAS threads, so its batches stay in-process unless
# a test sets the worker count; forking it then is safe, since the workers
# call no BLAS, but Python 3.12 warns about it.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkedWorkers:
    @staticmethod
    def _workers(monkeypatch, w):
        monkeypatch.setattr(simulation, "_worker_count", lambda blocks: min(w, blocks))

    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        # 1203 rows are three blocks, the last one short.
        spec = BatchSpec(P, 300, 1203, 99)
        runs = []
        for w in (1, 2, 3):
            self._workers(monkeypatch, w)
            hats, tildes = _collect_estimates(spec)
            runs.append((hats.tobytes(), tildes.tobytes(), empirical_acf_experiment(spec, 200, 6)))
        no_child_left()
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_refusal_is_raised_here_at_any_worker_count(self, monkeypatch, w):
        # Every one of the three blocks' rows has a subnormal sum of squares;
        # the workers only write sums, and the slopes are refused once, here.
        self._workers(monkeypatch, w)
        spec = BatchSpec(ModelParams(0.5, 0.3, 1e-160), 200, 1200, 5)
        with pytest.raises(DegenerateDenominatorError, match="is subnormal"):
            _collect_estimates(spec)
        no_child_left()

    def test_variance_refusal_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        self._workers(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(NonFiniteError, match="variance sequence contains non-finite entries"):
            _collect_estimates(BatchSpec(ModelParams(0.5, 0.3, 1e200), 200, 1100, 5))

    def test_orphaned_worker_stops_at_its_next_block(self):
        # A worker told that its parent is some other process writes the
        # block it has made and stops before the next.
        spec = BatchSpec(P, 50, 1100, 5)
        out = simulation._shared_empty(3, spec.replications)
        out.fill(np.nan)
        pid = os.fork()
        if pid == 0:
            try:
                simulation._work(simulation._run_blocks(spec, out, None, range(3)), -1)
            finally:
                os._exit(99)
        assert os.waitpid(pid, 0)[1] == 0
        assert not np.isnan(out[:, :500]).any()
        assert np.isnan(out[:, 500:]).all()

    def test_failed_worker_range_is_walked_again(self, monkeypatch):
        # A worker that dies without a refusal leaves no hole in the rows.
        spec = BatchSpec(P, 50, 1100, 5)
        serial = _collect_estimates(spec)
        monkeypatch.setattr(simulation, "_work", lambda *args: os._exit(9))
        self._workers(monkeypatch, 2)
        forked = _collect_estimates(spec)
        no_child_left()
        assert np.array_equal(serial, forked)

    def test_live_threads_keep_the_batch_in_process(self, monkeypatch):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert simulation._worker_count(8) == 1
        finally:
            release.set()
            thread.join()
        monkeypatch.delattr(os, "fork")
        assert simulation._worker_count(8) == 1


class TestCltExperiment:
    def test_smoke(self):
        summary = run_clt_experiment(BatchSpec(P, 5000, 1000, 11))
        m = summary.standardized_moments
        assert summary.target == P.phi
        assert abs(m.mean) < 0.15
        assert abs(m.variance - 1.0) < 0.25
        assert summary.ks_distance < 0.1

    def test_preconditions(self):
        with pytest.raises(OutOfRangeError):
            run_clt_experiment(BatchSpec(P, 5000, 999, 11))
        with pytest.raises(OutOfRangeError):
            run_clt_experiment(BatchSpec(P, 4999, 1000, 11))

    def test_distance_to_normal_shrinks_with_horizon(self):
        # The studentized statistic is asymptotically N(0,1), so its KS
        # distance should fall as T grows.  Single comparisons at this
        # replication count are noise-dominated, so compare medians over
        # three master seeds.
        eta = eta_bar(P)
        distances = {}
        for T in (1000, 10000):
            ks = []
            for master in (101, 102, 103):
                _, tildes = _collect_estimates(BatchSpec(P, T, 4000, master))
                stats = math.sqrt(T) * (tildes - P.phi) / eta
                ks.append(ks_distance(stats))
            distances[T] = float(np.median(ks))
        assert distances[1000] > distances[10000]

    def test_memory_does_not_grow_with_horizon(self):
        # The kernel streams time in chunks, so T = 1e5 needs only the
        # O(T) variance array, not (R, T) path arrays (~240 MB).
        tracemalloc.start()
        try:
            run_consistency_experiment(BatchSpec(P, 100_000, 100, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestAcfExperiment:
    def test_empirical_matches_theory_at_three_mc_se(self):
        spec = BatchSpec(P, 208, 800, 888)
        table = empirical_acf_experiment(spec, 200, 4)
        assert [r.k for r in table.rows] == [1, 2, 3, 4]
        assert table.t_obs == 200
        for r in table.rows:
            assert r.y_theory == pytest.approx(tau_bar(P) ** r.k, rel=1e-12)
            assert r.xi_theory == delta_limit(P, r.k)
            assert abs(r.y_empirical - r.y_theory) < 3.0 * r.y_mc_se
            assert abs(r.xi_empirical - r.xi_theory) < 3.0 * r.xi_mc_se

    def test_tree_layout(self):
        table = empirical_acf_experiment(BatchSpec(P, 208, 30, 888), 200, 2)
        tree = table.as_tree()
        assert list(tree) == ["spec", "t_obs", "rows"]
        assert list(tree["spec"]) == [
            "phi", "rho", "sigma_xi", "path_length", "replications", "master_seed"
        ]
        assert isinstance(tree["rows"], list) and len(tree["rows"]) == 2
        assert list(tree["rows"][0]) == [
            "k",
            "y_empirical",
            "y_theory",
            "y_mc_se",
            "xi_empirical",
            "xi_theory",
            "xi_mc_se",
        ]

    def test_preconditions(self):
        with pytest.raises(OutOfRangeError):
            empirical_acf_experiment(BatchSpec(P, 208, 800, 888), 199, 4)
        with pytest.raises(OutOfRangeError):
            empirical_acf_experiment(BatchSpec(P, 208, 800, 888), 200, 0)
        with pytest.raises(OutOfRangeError):
            empirical_acf_experiment(BatchSpec(P, 208, 29, 888), 200, 4)
        with pytest.raises(OutOfRangeError, match="exceeds path length"):
            empirical_acf_experiment(BatchSpec(P, 203, 800, 888), 200, 4)

    @given(
        boundary_params_strategy(),
        st.integers(1, 40),
        st.integers(1, 5),
        st.integers(0, 3),
        st.integers(1, 3),
        seeds_strategy(),
    )
    def test_window_rows_equal_single_paths_at_boundary(self, p, t_obs, k_max, extra, R, seed):
        # The window the experiment asks the batch kernel for, Y_t and xi_t
        # at t_obs <= t <= t_obs + k_max, holds each row's single path.
        T = max(2, t_obs + k_max + extra)
        ys, xs = _run_batch(BatchSpec(p, T, R, seed), keep=(t_obs, t_obs + k_max + 1))
        for r in range(R):
            solo = simulate_path(p, T, mix_seed(seed, r))
            assert np.array_equal(ys[r], solo.y[t_obs : t_obs + k_max + 1])
            assert np.array_equal(xs[r], solo.xi[t_obs - 1 : t_obs + k_max])


class TestCurves:
    def test_default_grids(self):
        assert DEFAULT_PHI_GRID == (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)
        assert DEFAULT_RHO_GRID == (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)

    def test_vbar_curve_values(self):
        rows = vbar_curve(DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, 1.0)
        assert len(rows) == 42
        assert rows[0][:2] == (-0.9, -0.9)
        values = {(phi, rho): v for phi, rho, v in rows}
        assert values[(0.9, 0.9)] == pytest.approx(9.104404958272635, rel=1e-12)
        assert values[(-0.9, 0.6)] == pytest.approx(0.8103898048205207, rel=1e-12)
        for phi in DEFAULT_PHI_GRID:
            s = stationary_sd(ModelParams(phi, 0.0, 1.0))
            assert values[(phi, 0.0)] == pytest.approx(s, rel=1e-14)

    def test_vbar_exceeds_classical_sd_iff_feedback_reinforces(self):
        for phi, rho, v in vbar_curve(DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, 1.0):
            s = stationary_sd(ModelParams(phi, rho, 1.0))
            if phi * rho > 0:
                assert v > s
            elif phi * rho < 0:
                assert v < s
            else:
                assert v == pytest.approx(s, rel=1e-14)

    def test_bias_curve_values(self):
        rows = bias_curve(DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, 1.0)
        values = {(phi, rho): v for phi, rho, v in rows}
        assert values[(0.9, 0.3)] == pytest.approx(0.07282132491953122, rel=1e-12)
        assert values[(-0.9, 0.3)] == pytest.approx(0.23482132491953125, rel=1e-12)
        for (phi, rho), v in values.items():
            assert v == ols_bias(ModelParams(phi, rho, 1.0))

    def test_bias_increasing_in_rho(self):
        rows = bias_curve(DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, 1.0)
        values = {(phi, rho): v for phi, rho, v in rows}
        for phi in DEFAULT_PHI_GRID:
            col = [values[(phi, rho)] for rho in DEFAULT_RHO_GRID]
            assert all(a < b for a, b in zip(col, col[1:]))

    def test_scale_linearity(self):
        base = vbar_curve((0.5,), (0.3,), 1.0)[0][2]
        doubled = vbar_curve((0.5,), (0.3,), 2.0)[0][2]
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)
        assert doubled == pytest.approx(2.0 * vbar_limit(P), rel=1e-14)

    def test_invalid_grid_point_rejected(self):
        with pytest.raises(OutOfRangeError):
            vbar_curve((1.0,), (0.3,), 1.0)
        with pytest.raises(OutOfRangeError):
            bias_curve((0.5,), (-1.0,), 1.0)
