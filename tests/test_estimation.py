import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from digar import (
    BatchSpec,
    DegenerateDenominatorError,
    DigarError,
    EstimateResult,
    ModelParams,
    NonFiniteError,
    OutOfRangeError,
    SamplePath,
    infeasible_estimate,
    mix_seed,
    simulate_path,
    tau_bar,
    variance_sequence,
)
from digar.experiments import _collect_estimates
from digar import estimation, pathcsv, simulation
from conftest import batch_rows, boundary_params_strategy, seeds_strategy
from oracles import MartingaleDiagnostics, one_shot_sums, z_series

P = ModelParams(0.5, 0.3, 1.0)

# y = (0, 1, 2, 1) with xi = (1, 1.5, 0) satisfies the recursion at phi=0.5,
# and every estimation quantity below is checkable by hand.
HAND = SamplePath(P, np.array([0.0, 1.0, 2.0, 1.0]), np.array([1.0, 1.5, 0.0]), None)


def _phi_hat(path):
    return infeasible_estimate(path).phi_hat


def _time_ordered_sums(path, vs):
    # Sum(Y_{t-1}^2), sum(Y_t*Y_{t-1}) and sum(Y_{t-1}^2/V_{t-1}) over
    # t = 2..T, added one term at a time; vs holds V_1, V_2, ...
    lag, lead = path.y[1:-1].tolist(), path.y[2:].tolist()
    den = cross = weighted = 0.0
    for a, b, v in zip(lag, lead, vs.tolist()):
        den += a * a
        cross += b * a
        weighted += a * a / v
    return den, cross, weighted


class TestOlsEstimate:
    def test_hand_value_exact(self):
        # num = 2*1 + 1*2 = 4, den = 1 + 4 = 5
        assert _phi_hat(HAND) == 0.8

    def test_too_short(self):
        one = SamplePath(P, np.array([0.0, 1.0]), np.array([1.0]), None)
        with pytest.raises(DegenerateDenominatorError):
            _phi_hat(one)

    def test_all_zero_path(self):
        flat = SamplePath(P, np.zeros(3), np.zeros(2), None)
        with pytest.raises(DegenerateDenominatorError):
            _phi_hat(flat)

    def test_scale_invariant_bitwise(self):
        base = simulate_path(P, 400, 7)
        scaled = simulate_path(ModelParams(0.5, 0.3, 2.0), 400, 7)
        assert _phi_hat(scaled) == _phi_hat(base)

    def test_long_path_without_feedback(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 100_000, 271828)
        assert abs(_phi_hat(path) - 0.5) < 0.02


class TestCorrectionTerm:
    def test_hand_value(self):
        # 0.3 * (1/1 + 4/sqrt(1.55)) / 5
        assert infeasible_estimate(HAND).correction == pytest.approx(
            0.25277263893659974, rel=1e-14
        )

    def test_zero_without_feedback(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 50, 3)
        assert infeasible_estimate(path).correction == 0.0

    def test_longer_variance_sequence_accepted(self):
        # The estimate's V_t are a prefix of any longer variance sequence,
        # so its sums equal those taken over a longer one term by term.
        den, cross, weighted = _time_ordered_sums(HAND, variance_sequence(P, 10))
        res = infeasible_estimate(HAND)
        assert res.phi_hat == cross / den
        assert res.correction == P.rho * P.sigma_xi * weighted / den

    def test_degenerate_denominator(self):
        flat = SamplePath(P, np.zeros(3), np.zeros(2), None)
        with pytest.raises(DegenerateDenominatorError):
            infeasible_estimate(flat)


class TestInfeasibleEstimate:
    def test_hand_values(self):
        res = infeasible_estimate(HAND)
        assert res.phi_hat == 0.8
        assert res.phi_tilde == pytest.approx(0.5472273610634003, rel=1e-14)
        assert res.phi_tilde == res.phi_hat - res.correction
        assert res.sample_size == 3

    def test_collapses_to_plain_slope_without_feedback(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 200, 17)
        res = infeasible_estimate(path)
        den, cross, _ = _time_ordered_sums(path, variance_sequence(p0, 200))
        assert res.correction == 0.0
        assert res.phi_tilde == res.phi_hat == cross / den

    def test_long_path_recovers_both_targets(self):
        path = simulate_path(P, 100_000, 314159)
        res = infeasible_estimate(path)
        assert abs(res.phi_hat - tau_bar(P)) < 0.02
        assert abs(res.phi_tilde - 0.5) < 0.02

    @pytest.mark.parametrize("params", [P, ModelParams(0.95, 0.9, 2.0)], ids=["P", "slow_V"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 49])
    def test_sums_equal_one_shot_reduction(self, monkeypatch, tmp_path, params, chunk):
        # infeasible_estimate and estimate --in add the terms chunk by
        # chunk; the three sums their summer hands to _slopes equal those
        # of one (T-1, 3) reduction bit for bit, whatever the chunk and
        # read lengths.
        path = simulate_path(params, 50, 3)
        want = one_shot_sums(path)
        hat, corr = want[1] / want[0], params.rho * params.sigma_xi * want[2] / want[0]
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        monkeypatch.setattr(estimation, "_PATH_CHUNK", chunk)  # infeasible_estimate's chunks
        sums, slopes = [], estimation._slopes

        def captured(coef, *three):
            sums.append(np.array(three).tobytes())
            return slopes(coef, *three)

        monkeypatch.setattr(estimation, "_slopes", captured)
        res = infeasible_estimate(path)
        assert (res.phi_hat, res.correction, res.sample_size) == (hat, corr, 50)
        path_file = tmp_path / "path.csv"
        path_file.write_text("".join(pathcsv._path_csv(simulation._walk(params, 50, 3), 50)))
        for read_chars in (1, 7, 40):
            monkeypatch.setattr(pathcsv, "_READ_CHARS", read_chars)
            assert pathcsv._estimate_csv(str(path_file), params) == res
        assert sums == [want.tobytes()] * 4

    def test_stored_path_is_not_checked_again(self, monkeypatch):
        # A SamplePath is checked once, when it is made from arrays; summing
        # it runs no path checker and gives the estimate it gave before.
        made = simulate_path(P, 10_000, 5)  # more than two chunks of steps
        path = SamplePath(P, made.y, made.xi, None)
        want = infeasible_estimate(path)
        for module in (simulation, estimation):
            if hasattr(module, "_checked_steps"):
                monkeypatch.setattr(module, "_checked_steps", mock.Mock(side_effect=AssertionError("checked again")))
        assert infeasible_estimate(path) == want

    @given(
        boundary_params_strategy(),
        st.integers(2, 300),
        seeds_strategy(),
        st.sampled_from([1, 7, 4096]),
    )
    def test_single_path_routes_agree(self, params, T, seed, chunk):
        # estimate -T's summer over the walk, infeasible_estimate of the
        # simulated path and of a SamplePath rebuilt from its arrays give
        # the same estimate, or the same refusal, across the domain.
        def outcome(estimate, *args):
            try:
                return estimate(*args)
            except DigarError as exc:
                return type(exc), str(exc)

        with mock.patch.object(simulation, "_PATH_CHUNK", chunk):
            path = simulate_path(params, T, seed)
            got = {
                outcome(estimation._walk_estimate, params, simulation._walk(params, T, seed)),
                outcome(infeasible_estimate, path),
                outcome(infeasible_estimate, SamplePath(params, path.y.copy(), path.xi.copy(), None)),
            }
        assert len(got) == 1

    @pytest.mark.parametrize(
        "sigma, error, message",
        [
            (1e200, NonFiniteError, "variance sequence contains non-finite entries"),
            (1e-200, OutOfRangeError, "every V_t must be positive"),
        ],
    )
    def test_variance_refusal_follows_the_path_checks(self, tmp_path, sigma, error, message):
        # The recursion holds exactly at any sigma_xi, so the path is
        # accepted; V_2 overflows at sigma_xi 1e200 and underflows to 0 at
        # 1e-200, which the estimate refuses after the path's own checks.
        params = ModelParams(P.phi, P.rho, sigma)
        path = SamplePath(params, HAND.y, HAND.xi, None)
        with pytest.raises(error, match=message):
            infeasible_estimate(path)
        path_file = tmp_path / "path.csv"
        rows = ["t,y,xi", "0,0,", "1,1,1", "2,2,1.5", "3,1,0"]  # HAND's rows
        path_file.write_text("\n".join(rows) + "\n")
        with pytest.raises(error, match=message):
            pathcsv._estimate_csv(str(path_file), params)
        rows[3] = "2,2,1.25"  # xi_2 no longer makes Y_2
        path_file.write_text("\n".join(rows) + "\n")
        with pytest.raises(OutOfRangeError, match="path violates"):
            pathcsv._estimate_csv(str(path_file), params)

    def test_result_invariants_enforced(self):
        with pytest.raises(OutOfRangeError):
            EstimateResult(phi_hat=0.8, correction=0.25, sample_size=1)

    def test_phi_tilde_is_derived(self):
        res = EstimateResult(phi_hat=0.8, correction=0.25, sample_size=3)
        assert res.phi_tilde == 0.8 - 0.25
        with pytest.raises(TypeError):
            EstimateResult(phi_hat=0.8, phi_tilde=0.5, correction=0.25, sample_size=3)

    @given(boundary_params_strategy(), st.integers(0, 2**32))
    def test_score_decomposition_identity(self, p, seed):
        # phi_tilde - phi = sum(Z_t)/sum(Y_{t-1}^2): the corrected
        # estimation error is exactly the normalized score sum.
        path = simulate_path(p, 300, seed)
        res = infeasible_estimate(path)
        diag = z_series(path)
        lag = path.y[1:-1]
        den = float(np.dot(lag, lag))
        lhs = res.phi_tilde - p.phi
        assert float(diag.z.sum()) / den == pytest.approx(lhs, rel=1e-9, abs=1e-11)


class TestBatchAgreement:
    """A batch row's estimates equal those of its single path bit for bit:
    the batch kernel and the estimators add the same terms in time order.

    V_t settles on an exact fixed point at P; at the other two parameter
    sets it never does, so the slope changes at every t."""

    PARAMS = (P, ModelParams(-0.999, 0.9, 1.0), ModelParams(0.99, 0.99, 1.0))

    @pytest.mark.parametrize("R", [1100, 501])
    def test_batch_rows_equal_single_path_estimates(self, R):
        # 1100 spans three blocks; 501 ends in a one-row block.
        for p in self.PARAMS:
            spec = BatchSpec(p, 300, R, 2718)
            hats, tildes = _collect_estimates(spec)
            for r in range(R):
                res = infeasible_estimate(simulate_path(p, 300, mix_seed(2718, r)))
                assert (res.phi_hat, res.phi_tilde) == (hats[r], tildes[r]), (p, r)

    @given(boundary_params_strategy(), st.integers(2, 600), st.integers(1, 4), seeds_strategy())
    def test_batch_rows_equal_single_paths_at_boundary(self, p, T, R, seed):
        hats, tildes = _collect_estimates(BatchSpec(p, T, R, seed))
        for r in range(R):
            res = infeasible_estimate(simulate_path(p, T, mix_seed(seed, r)))
            assert (res.phi_hat, res.phi_tilde) == (hats[r], tildes[r]), r

    def test_subnormal_denominator_refused_on_both_routes(self):
        # At sigma_xi near 1e-158 the squares Y_{t-1}^2 are subnormal and
        # lose digits; a sum below the smallest normal double is refused.
        for sigma, refused in ((1e-150, False), (1e-158, True), (1e-160, True)):
            p = ModelParams(0.5, 0.3, sigma)
            routes = (
                lambda: infeasible_estimate(simulate_path(p, 200, 12345)).phi_hat,
                lambda: _collect_estimates(BatchSpec(p, 200, 3, 12345))[0][0],
            )
            for route in routes:
                if refused:
                    with pytest.raises(DegenerateDenominatorError, match="is subnormal"):
                        route()
                else:
                    assert math.isfinite(route())

    def test_sums_run_in_time_order(self):
        for p in self.PARAMS:
            path = simulate_path(p, 1000, 5)
            den, cross, weighted = _time_ordered_sums(path, variance_sequence(p, 1000))
            res = infeasible_estimate(path)
            assert res.phi_hat == cross / den, p
            assert res.correction == p.rho * p.sigma_xi * weighted / den, p


class TestZSeries:
    def test_hand_values(self):
        path = SamplePath(P, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5]), None)
        diag = z_series(path)
        assert diag.z.shape == (1,)
        # 1.5*1 - 0.3*1*1/1, exact in floating point
        assert diag.z[0] == 1.2
        assert diag.w[0] == pytest.approx(1.2**2 - 0.91, rel=1e-14)
        assert diag.sigma_t_sq[0] == pytest.approx(0.91, rel=1e-15)

    def test_without_feedback_reduces_to_plain_score(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 100, 23)
        diag = z_series(path)
        assert np.array_equal(diag.z, path.xi[1:] * path.y[1:-1])

    def test_horizon_one_rejected(self):
        one = SamplePath(P, np.array([0.0, 1.0]), np.array([1.0]), None)
        with pytest.raises(OutOfRangeError):
            z_series(one)

    def test_arrays_read_only(self):
        diag = z_series(HAND)
        with pytest.raises(ValueError):
            diag.z[0] = 1.0

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            MartingaleDiagnostics(z=np.zeros(3), w=np.zeros(2), sigma_t_sq=np.ones(3))
        with pytest.raises(OutOfRangeError):
            MartingaleDiagnostics(z=np.zeros(3), w=np.zeros(3), sigma_t_sq=np.zeros(3))
        with pytest.raises(NonFiniteError):
            MartingaleDiagnostics(
                z=np.array([np.nan]), w=np.zeros(1), sigma_t_sq=np.ones(1)
            )

    def test_score_moments_across_replications(self):
        # Z_t has mean zero, variance sigma_t_sq, and is uncorrelated
        # across t; W_t has mean zero.  All checked at 3 MC standard
        # errors with R = 5000 replications.
        ys, xs = batch_rows(BatchSpec(P, 15, 5000, 1618), keep=(1, 16))  # Y_t, xi_t for t = 1..15
        diags = [z_series(SamplePath(P, np.append(0.0, y), x, None)) for y, x in zip(ys, xs)]
        Z = np.stack([d.z for d in diags])
        W = np.stack([d.w for d in diags])
        R = Z.shape[0]
        i = 10  # t = 12
        sig_sq = diags[0].sigma_t_sq[i]

        assert np.array_equal(diags[0].sigma_t_sq, diags[1].sigma_t_sq)
        assert abs(Z[:, i].mean()) < 3.0 * Z[:, i].std(ddof=1) / math.sqrt(R)
        assert abs(W[:, i].mean()) < 3.0 * W[:, i].std(ddof=1) / math.sqrt(R)
        z_sq = Z[:, i] ** 2
        assert abs(z_sq.mean() - sig_sq) < 3.0 * z_sq.std(ddof=1) / math.sqrt(R)
        assert abs(np.corrcoef(Z[:, 3], Z[:, i])[0, 1]) < 3.0 / math.sqrt(R)
