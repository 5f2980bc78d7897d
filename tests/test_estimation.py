import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from digar import (
    BatchSpec,
    DegenerateDenominatorError,
    EstimateResult,
    MartingaleDiagnostics,
    ModelParams,
    NonFiniteError,
    OutOfRangeError,
    SamplePath,
    dependence_profile,
    eta_bar,
    infeasible_estimate,
    mix_seed,
    simulate_path,
    studentized_statistic,
    tau_bar,
    variance_sequence,
    z_series,
)
from digar.experiments import _collect_estimates
from digar.simulation import _run_blocks
from conftest import params_strategy

P = ModelParams(0.5, 0.3, 1.0)

# y = (0, 1, 2, 1) with xi = (1, 1.5, 0) satisfies the recursion at phi=0.5,
# and every estimation quantity below is checkable by hand.
HAND = SamplePath(P, np.array([0.0, 1.0, 2.0, 1.0]), np.array([1.0, 1.5, 0.0]), None)
HAND_VSEQ = variance_sequence(P, 3)


def _phi_hat(path):
    return infeasible_estimate(path, variance_sequence(path.params, path.horizon)).phi_hat


def _time_ordered_sums(path, vseq):
    # Sum(Y_{t-1}^2), sum(Y_t*Y_{t-1}) and sum(Y_{t-1}^2/V_{t-1}) over
    # t = 2..T, added one term at a time.
    lag, lead = path.y[1:-1].tolist(), path.y[2:].tolist()
    den = cross = weighted = 0.0
    for a, b, v in zip(lag, lead, vseq.values.tolist()):
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
        assert infeasible_estimate(HAND, HAND_VSEQ).correction == pytest.approx(
            0.25277263893659974, rel=1e-14
        )

    def test_zero_without_feedback(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 50, 3)
        assert infeasible_estimate(path, variance_sequence(p0, 50)).correction == 0.0

    def test_longer_variance_sequence_accepted(self):
        long_vseq = variance_sequence(P, 10)
        path = SamplePath(P, np.array([0.0, 1.0, 2.0, 1.0]), np.array([1.0, 1.5, 0.0]), None)
        assert (
            infeasible_estimate(path, long_vseq).correction
            == infeasible_estimate(path, HAND_VSEQ).correction
        )

    def test_short_variance_sequence_rejected(self):
        path = simulate_path(P, 20, 5)
        with pytest.raises(OutOfRangeError, match="shorter than path horizon"):
            infeasible_estimate(path, variance_sequence(P, 10))

    def test_foreign_variance_sequence_rejected(self):
        path = simulate_path(P, 20, 5)
        other = variance_sequence(ModelParams(0.4, 0.3, 1.0), 20)
        with pytest.raises(OutOfRangeError, match="different parameters"):
            infeasible_estimate(path, other)

    def test_degenerate_denominator(self):
        flat = SamplePath(P, np.zeros(3), np.zeros(2), None)
        with pytest.raises(DegenerateDenominatorError):
            infeasible_estimate(flat, HAND_VSEQ)


class TestInfeasibleEstimate:
    def test_hand_values(self):
        res = infeasible_estimate(HAND, HAND_VSEQ)
        assert res.phi_hat == 0.8
        assert res.phi_tilde == pytest.approx(0.5472273610634003, rel=1e-14)
        assert res.phi_tilde == res.phi_hat - res.correction
        assert res.sample_size == 3

    def test_collapses_to_plain_slope_without_feedback(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 200, 17)
        vseq = variance_sequence(p0, 200)
        res = infeasible_estimate(path, vseq)
        den, cross, _ = _time_ordered_sums(path, vseq)
        assert res.correction == 0.0
        assert res.phi_tilde == res.phi_hat == cross / den

    def test_long_path_recovers_both_targets(self):
        path = simulate_path(P, 100_000, 314159)
        res = infeasible_estimate(path, variance_sequence(P, 100_000))
        assert abs(res.phi_hat - tau_bar(P)) < 0.02
        assert abs(res.phi_tilde - 0.5) < 0.02

    def test_result_invariants_enforced(self):
        with pytest.raises(OutOfRangeError):
            EstimateResult(phi_hat=0.8, phi_tilde=0.5, correction=0.25, sample_size=3)
        with pytest.raises(OutOfRangeError):
            EstimateResult(phi_hat=0.8, phi_tilde=0.55, correction=0.25, sample_size=1)

    @given(params_strategy(), st.integers(0, 2**32))
    def test_score_decomposition_identity(self, p, seed):
        # phi_tilde - phi = sum(Z_t)/sum(Y_{t-1}^2): the corrected
        # estimation error is exactly the normalized score sum.
        path = simulate_path(p, 300, seed)
        vseq = variance_sequence(p, 300)
        res = infeasible_estimate(path, vseq)
        diag = z_series(path, vseq)
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
            vseq = variance_sequence(p, 300)
            for r in range(R):
                res = infeasible_estimate(simulate_path(p, 300, mix_seed(2718, r)), vseq)
                assert (res.phi_hat, res.phi_tilde) == (hats[r], tildes[r]), (p, r)

    def test_sums_run_in_time_order(self):
        for p in self.PARAMS:
            path = simulate_path(p, 1000, 5)
            vseq = variance_sequence(p, 1000)
            den, cross, weighted = _time_ordered_sums(path, vseq)
            res = infeasible_estimate(path, vseq)
            assert res.phi_hat == cross / den, p
            assert res.correction == p.rho * p.sigma_xi * weighted / den, p


class TestZSeries:
    def test_hand_values(self):
        path = SamplePath(P, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5]), None)
        diag = z_series(path, variance_sequence(P, 2))
        assert diag.z.shape == (1,)
        # 1.5*1 - 0.3*1*1/1, exact in floating point
        assert diag.z[0] == 1.2
        assert diag.w[0] == pytest.approx(1.2**2 - 0.91, rel=1e-14)
        assert diag.sigma_t_sq[0] == pytest.approx(0.91, rel=1e-15)

    def test_without_feedback_reduces_to_plain_score(self):
        p0 = ModelParams(0.5, 0.0, 1.0)
        path = simulate_path(p0, 100, 23)
        diag = z_series(path, variance_sequence(p0, 100))
        assert np.array_equal(diag.z, path.xi[1:] * path.y[1:-1])

    def test_horizon_one_rejected(self):
        one = SamplePath(P, np.array([0.0, 1.0]), np.array([1.0]), None)
        with pytest.raises(OutOfRangeError):
            z_series(one, HAND_VSEQ)

    def test_mismatched_sequence_rejected(self):
        path = simulate_path(P, 20, 5)
        with pytest.raises(OutOfRangeError, match="shorter than path horizon"):
            z_series(path, variance_sequence(P, 10))

    def test_arrays_read_only(self):
        diag = z_series(HAND, HAND_VSEQ)
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
        vseq = variance_sequence(P, 15)
        diags = [
            z_series(SamplePath(P, y, x, None), vseq)
            for _, ys, xs, _ in _run_blocks(BatchSpec(P, 15, 5000, 1618), keep=(0, 16))
            for y, x in zip(ys, xs)
        ]
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


class TestStudentizedStatistic:
    def test_zero_at_truth(self):
        res = EstimateResult(phi_hat=0.75, phi_tilde=0.5, correction=0.25, sample_size=400)
        assert studentized_statistic(res, 0.5, dependence_profile(P)) == 0.0

    def test_hand_algebra(self):
        res = EstimateResult(phi_hat=0.85, phi_tilde=0.6, correction=0.25, sample_size=400)
        stat = studentized_statistic(res, 0.5, dependence_profile(P))
        assert stat == pytest.approx(20.0 * 0.1 / eta_bar(P), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_truth_rejected(self, bad):
        res = EstimateResult(phi_hat=0.85, phi_tilde=0.6, correction=0.25, sample_size=400)
        with pytest.raises(NonFiniteError):
            studentized_statistic(res, bad, dependence_profile(P))
