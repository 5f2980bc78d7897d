import math
import os
import signal
import threading
import tracemalloc
from contextlib import closing

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings

from digar import (
    BatchSpec,
    DegenerateDenominatorError,
    ExperimentSummary,
    ModelParams,
    Moments,
    NonFiniteError,
    OutOfRangeError,
    delta_limit,
    empirical_acf_experiment,
    eta_bar,
    ks_distance,
    mix_seed,
    normal_stream,
    ols_bias,
    run_clt_experiment,
    run_consistency_experiment,
    simulate_path,
    stationary_sd,
    tau_bar,
    vbar_limit,
)
from digar import simulation
from digar.cli import DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, main
from digar.experiments import _acf, _collect_estimates, _normal_cdf
from conftest import batch_rows, boundary_params_strategy, no_child_left, seeds_strategy
from oracles import two_pass_corr

P = ModelParams(0.5, 0.3, 1.0)


class TestNormalCdf:
    def test_center(self):
        assert _normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.959964, 3.5, 17.0])
    def test_symmetry(self, x):
        assert _normal_cdf(x) + _normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_upper_tail_quantile(self):
        assert _normal_cdf(1.959964) == pytest.approx(0.9750000009035576, abs=1e-12)

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.5, 0.3, 1.0, 2.5])
    def test_against_quadrature(self, x):
        pdf = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        area, err = scipy.integrate.quad(pdf, 0.0, x)
        assert err < 1e-13
        assert _normal_cdf(x) == pytest.approx(0.5 + area, abs=1e-12)

    def test_monotone(self):
        xs = [-5.0, -1.0, 0.0, 0.5, 2.0, 6.0]
        vals = [_normal_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            _normal_cdf(bad)


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
        # 1203 rows are three blocks, the last one short.  With a 91-step
        # window blocks 0 and 1 return 728,000 bytes each and block 2
        # 295,568, all past a pipe's 64 KiB, so a worker blocks on its pipe
        # until this process reads it.
        spec = BatchSpec(P, 300, 1203, 99)
        runs = []
        for w in (1, 2, 3):
            self._workers(monkeypatch, w)
            hats, tildes = _collect_estimates(spec)
            window = batch_rows(spec, keep=(200, 291)).tobytes()
            runs.append((hats.tobytes(), tildes.tobytes(), empirical_acf_experiment(spec, 200, 6), window))
        no_child_left()
        assert len(runs[0][3]) == 2 * 1203 * 91 * 8
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

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_a_batch_left_mid_way_reaps_every_worker(self, monkeypatch, w):
        # A refusal at block 3, in whichever process writes it, leaves the
        # acf fold mid-batch; a caller that closes the blocks after the
        # first leaves it too.
        block_writer = simulation._block_writer

        def refusing(*args):
            write = block_writer(*args)

            def checked(b):
                if b == 3:
                    raise OutOfRangeError("block 3 refused")
                return write(b)
            return checked

        self._workers(monkeypatch, w)
        spec = BatchSpec(P, 300, 2003, 5)
        with closing(simulation._run_batch(spec, (200, 291))) as blocks:
            assert next(blocks).shape == (2, 500, 91)
        no_child_left()
        monkeypatch.setattr(simulation, "_block_writer", refusing)
        with pytest.raises(OutOfRangeError, match="block 3 refused"):
            empirical_acf_experiment(spec, 200, 90)
        no_child_left()

    def test_variance_refusal_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        self._workers(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(NonFiniteError, match="variance sequence contains non-finite entries"):
            _collect_estimates(BatchSpec(ModelParams(0.5, 0.3, 1e200), 200, 1100, 5))

    def test_orphaned_worker_stops_at_its_next_block(self):
        # A worker told that its parent is some other process sends the
        # block it has made and stops before the next.
        spec = BatchSpec(P, 50, 1100, 5)
        r, fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                write = simulation._block_writer(spec)

                def send(pipe):
                    for b in range(3):
                        pipe.write(write(b))
                        pipe.flush()
                        yield

                simulation._work(send(open(fd, "wb")), -1, (r,))
            finally:
                os._exit(99)
        os.close(fd)
        with open(r, "rb") as pipe:
            sent = pipe.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert sent == batch_rows(spec)[:, :500].tobytes()

    def test_failed_worker_range_is_walked_again(self, monkeypatch):
        # A worker that dies without a refusal leaves no hole in the rows.
        spec = BatchSpec(P, 50, 1100, 5)
        serial = _collect_estimates(spec)
        monkeypatch.setattr(simulation, "_work", lambda *args: os._exit(9))
        self._workers(monkeypatch, 2)
        forked = _collect_estimates(spec)
        no_child_left()
        assert np.array_equal(serial, forked)

    def test_dead_worker_costs_the_parent_only_its_unsent_blocks(self, monkeypatch):
        # Five blocks at W = 2: the worker does blocks 1 and 3, and kills
        # itself once it has sent block 1, so this process writes block 3
        # as well as its own 0, 2 and 4, and no block twice.  The window's
        # block 1 is 728,000 bytes, more than a pipe holds.
        parent, written, block_writer = os.getpid(), [], simulation._block_writer

        def dying(*args):
            write, calls = block_writer(*args), []

            def counted(b):
                if os.getpid() == parent:
                    written.append(b)
                elif calls:
                    os.kill(os.getpid(), signal.SIGKILL)
                calls.append(b)
                return write(b)
            return counted

        monkeypatch.setattr(simulation, "_block_writer", dying)
        for T, keep in ((50, None), (300, (200, 291))):
            spec = BatchSpec(P, T, 2003, 5)
            self._workers(monkeypatch, 1)
            serial = batch_rows(spec, keep)
            written.clear()
            self._workers(monkeypatch, 2)
            forked = batch_rows(spec, keep)
            no_child_left()
            assert written == [0, 2, 3, 4]
            assert forked.tobytes() == serial.tobytes()

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
        ys, xs = batch_rows(BatchSpec(p, T, R, seed), keep=(t_obs, t_obs + k_max + 1))
        for r in range(R):
            solo = simulate_path(p, T, mix_seed(seed, r))
            assert np.array_equal(ys[r], solo.y[t_obs : t_obs + k_max + 1])
            assert np.array_equal(xs[r], solo.xi[t_obs - 1 : t_obs + k_max])

    @pytest.mark.parametrize("R, k_max", [(30, 1), (30, 90), (501, 7), (1203, 7), (1203, 90)])
    @settings(max_examples=5)
    @given(boundary_params_strategy(), st.integers(1, 20), seeds_strategy())
    def test_folded_r_matches_two_pass_r_of_whole_window(self, R, k_max, p, t_obs, seed):
        # The co-moments are merged block by block; R = 30 is one partial
        # block, R = 501 a full block and a one-row last one, and R = 1203
        # two full blocks and a partial last one.
        spec = BatchSpec(p, t_obs + k_max, R, seed)
        keep = (t_obs, t_obs + k_max + 1)
        window, folded = batch_rows(spec, keep), _acf(spec, *keep)
        for series, r in zip(window, folded):
            for k in range(k_max + 1):
                assert abs(r[k] - two_pass_corr(series[:, 0], series[:, k])) <= 1e-13


class TestCurves:
    """The curves of `digar figure`, read from its CSV output."""

    @staticmethod
    def rows(capsys, kind, *argv):
        # figure's rows as (phi, rho, value), in the order printed.
        assert main(["figure", kind, *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi,rho,value"
        return [tuple(map(float, line.split(","))) for line in lines[1:]]

    def test_default_grids(self, capsys):
        assert DEFAULT_PHI_GRID == (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)
        assert DEFAULT_RHO_GRID == (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
        grid = [(phi, rho) for phi in DEFAULT_PHI_GRID for rho in DEFAULT_RHO_GRID]
        for kind in ("vbar", "bias"):
            assert [row[:2] for row in self.rows(capsys, kind)] == grid

    def test_vbar_curve_values(self, capsys):
        rows = self.rows(capsys, "vbar")
        assert len(rows) == 42
        assert rows[0][:2] == (-0.9, -0.9)
        values = {(phi, rho): v for phi, rho, v in rows}
        assert values[(0.9, 0.9)] == pytest.approx(9.104404958272635, rel=1e-12)
        assert values[(-0.9, 0.6)] == pytest.approx(0.8103898048205207, rel=1e-12)
        for phi in DEFAULT_PHI_GRID:
            s = stationary_sd(ModelParams(phi, 0.0, 1.0))
            assert values[(phi, 0.0)] == pytest.approx(s, rel=1e-14)

    def test_vbar_exceeds_classical_sd_iff_feedback_reinforces(self, capsys):
        for phi, rho, v in self.rows(capsys, "vbar"):
            s = stationary_sd(ModelParams(phi, rho, 1.0))
            if phi * rho > 0:
                assert v > s
            elif phi * rho < 0:
                assert v < s
            else:
                assert v == pytest.approx(s, rel=1e-14)

    def test_bias_curve_values(self, capsys):
        rows = self.rows(capsys, "bias")
        values = {(phi, rho): v for phi, rho, v in rows}
        assert values[(0.9, 0.3)] == pytest.approx(0.07282132491953122, rel=1e-12)
        assert values[(-0.9, 0.3)] == pytest.approx(0.23482132491953125, rel=1e-12)
        for (phi, rho), v in values.items():
            assert v == ols_bias(ModelParams(phi, rho, 1.0))

    def test_bias_increasing_in_rho(self, capsys):
        values = {(phi, rho): v for phi, rho, v in self.rows(capsys, "bias")}
        for phi in DEFAULT_PHI_GRID:
            col = [values[(phi, rho)] for rho in DEFAULT_RHO_GRID]
            assert all(a < b for a, b in zip(col, col[1:]))

    def test_scale_linearity(self, capsys):
        argv = ("--phi-list", "0.5", "--rho-grid", "0.3")
        (*_, base), = self.rows(capsys, "vbar", *argv, "--sigma", "1.0")
        (*_, doubled), = self.rows(capsys, "vbar", *argv, "--sigma", "2.0")
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)
        assert doubled == pytest.approx(2.0 * vbar_limit(P), rel=1e-14)

    def test_invalid_grid_point_rejected(self, capsys):
        # The whole grid is refused before any row is printed.
        assert main(["figure", "vbar", "--phi-list", "0.5,1.0", "--rho-grid", "0.3"]) == 3
        assert capsys.readouterr() == ("", "error: |phi| < 1 required, got phi=1.0\n")
        assert main(["figure", "bias", "--phi-list", "0.5", "--rho-grid=0.3,-1.0"]) == 3
        assert capsys.readouterr() == ("", "error: |rho| < 1 required, got rho=-1.0\n")
