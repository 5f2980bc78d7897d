import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from digar import (
    DependenceProfile,
    ModelParams,
    OutOfRangeError,
    delta_limit,
    dependence_profile,
    eta_bar,
    mixing_decay_bound,
    ols_bias,
    stationary_sd,
    tau_bar,
    tau_lag_k,
    variance_sequence,
    vbar_limit,
)
from digar.dependence import _ROUNDING
from conftest import boundary_params_strategy
from oracles import decay_bound_scan, decimal_decay_bound, decimal_limits

P = ModelParams(0.5, 0.3, 1.0)


class TestTauOneStep:
    """tau_{t,t+1}, which is tau_lag_k at k = 1."""

    def test_reference_point(self):
        # oracle: (0.5*1 + 0.3)/sqrt(1.55) by hand
        assert tau_lag_k(P, 1, 1) == pytest.approx(0.6425754631219992, rel=1e-14)

    def test_rho_zero_tends_to_phi(self):
        p = ModelParams(0.5, 0.0, 1.0)
        assert tau_lag_k(p, 900, 1) == pytest.approx(0.5, rel=1e-12)

    def test_phi_zero_tends_to_rho(self):
        p = ModelParams(0.0, 0.3, 1.0)
        assert tau_lag_k(p, 900, 1) == pytest.approx(0.3, rel=1e-12)

    def test_t_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            tau_lag_k(P, 0, 1)

    @given(boundary_params_strategy(), st.integers(1, 63))
    def test_strictly_inside_unit_interval(self, p, t):
        assert abs(tau_lag_k(p, t, 1)) < 1.0


def _one_step(p, t):
    # tau_{t,t+1} = (phi*V_t + rho*sigma_xi)/V_{t+1} straight from the sequence
    v = variance_sequence(p, t + 1)
    return (p.phi * v[t - 1] + p.rho * p.sigma_xi) / v[t]


class TestTauLagK:
    def test_single_factor_equals_one_step(self):
        assert tau_lag_k(P, 7, 1) == _one_step(P, 7)

    def test_classical_cube(self):
        p = ModelParams(0.5, 0.0, 1.0)
        assert tau_lag_k(p, 900, 3) == pytest.approx(0.125, rel=1e-10)

    def test_two_step_product(self):
        assert tau_lag_k(P, 1, 2) == _one_step(P, 1) * _one_step(P, 2)

    def test_k_must_be_positive(self):
        with pytest.raises(OutOfRangeError, match="k must be >= 1"):
            tau_lag_k(P, 1, 0)

    @given(boundary_params_strategy(), st.integers(1, 40), st.integers(1, 8))
    def test_bounded_by_decay_bound_power(self, p, t, k):
        bound = mixing_decay_bound(p)
        assert abs(tau_lag_k(p, t, k)) <= bound**k + 1e-15


class TestTauBarAndBias:
    def test_rho_zero(self):
        assert tau_bar(ModelParams(0.5, 0.0, 1.0)) == 0.5
        assert ols_bias(ModelParams(0.5, 0.0, 1.0)) == 0.0

    def test_phi_zero(self):
        assert tau_bar(ModelParams(0.0, 0.3, 1.0)) == pytest.approx(0.3, rel=1e-15)

    def test_reference_point(self):
        assert tau_bar(P) == pytest.approx(0.7186759374687043, rel=1e-12)
        assert ols_bias(P) == pytest.approx(0.21867593746870428, rel=1e-12)

    def test_bias_sign_matches_rho(self):
        assert ols_bias(ModelParams(0.5, -0.4, 1.0)) < 0
        assert ols_bias(ModelParams(-0.5, 0.4, 2.0)) > 0

    @given(boundary_params_strategy())
    def test_tau_bar_decomposition_exact(self, p):
        assert tau_bar(p) == p.phi + ols_bias(p)

    @given(boundary_params_strategy())
    def test_tau_bar_inside_unit_interval(self, p):
        assert abs(tau_bar(p)) < 1.0

    def test_bias_smaller_when_signs_agree(self):
        for mag in (0.3, 0.6, 0.9):
            for rho in (0.25, 0.5, 0.75):
                same = abs(ols_bias(ModelParams(mag, rho, 1.0)))
                opposite = abs(ols_bias(ModelParams(-mag, rho, 1.0)))
                assert same < opposite


class TestDeltaLimit:
    def test_rho_zero_vanishes(self):
        for k in (1, 2, 5):
            assert delta_limit(ModelParams(0.7, 0.0, 2.0), k) == 0.0

    def test_reference_points(self):
        assert delta_limit(P, 1) == pytest.approx(0.26367593746870405, rel=1e-12)
        assert delta_limit(P, 2) == pytest.approx(0.18949755154826034, rel=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            delta_limit(P, 0)

    @given(boundary_params_strategy(), st.integers(1, 10))
    def test_geometric_decay_ratio(self, p, k):
        assume(abs(p.rho) > 0.01)
        d_k = delta_limit(p, k)
        assume(abs(d_k) > 1e-300)
        assert delta_limit(p, k + 1) / d_k == pytest.approx(tau_bar(p), rel=1e-12)

    @given(boundary_params_strategy(), st.integers(1, 10))
    def test_magnitude_below_one(self, p, k):
        assert abs(delta_limit(p, k)) < 1.0


class TestEtaBarAndSigmaBar:
    def test_rho_zero_classical_value(self):
        p = ModelParams(0.5, 0.0, 1.0)
        assert eta_bar(p) == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert eta_bar(p) == pytest.approx(0.8660254037844386, rel=1e-14)

    def test_phi_zero(self):
        assert eta_bar(ModelParams(0.0, 0.3, 1.0)) == pytest.approx(
            math.sqrt(0.91), rel=1e-14
        )

    def test_reference_point(self):
        assert eta_bar(P) == pytest.approx(0.6953451638599925, rel=1e-12)

    @given(boundary_params_strategy())
    def test_eta_bar_squared_complements_tau_bar_squared(self, p):
        # eta_bar^2 = 1 - tau_bar^2 follows from the quadratic identity
        # satisfied by vbar; a strong consistency check across functions.
        assert eta_bar(p) ** 2 + tau_bar(p) ** 2 == pytest.approx(1.0, abs=1e-13)


class TestLimitsAgainstDecimal:
    """vbar, tau_bar, eta_bar and S to within 1e-15 relative
    of 60 digits, also where rho*phi nears -1 and a sum in the textbook
    form cancels, and where |rho| or |phi| nears 1 and 1 - rho^2 or
    1 - phi^2 loses digits."""

    @pytest.mark.parametrize(
        "phi, rho",
        [
            (-0.999999, 0.999999),
            (0.999999, -0.999999),
            (-0.99, 0.99),
            (0.5, 0.3),
            (0.5, 0.999999),
            (0.999999, 0.999999),
            (0.999999, 0.5),
        ],
    )
    def test_relative_error(self, phi, rho):
        p = ModelParams(phi, rho, 1.0)
        exact = decimal_limits(p)
        got = (vbar_limit(p), tau_bar(p), eta_bar(p), stationary_sd(p))
        names = ("vbar", "tau_bar", "eta_bar", "S")
        for name, value, want in zip(names, got, exact):
            assert abs((Decimal(value) - want) / want) <= Decimal("1e-15"), name


def _oracle_grid():
    """Fixed (phi, rho, sigma) grid for the oracle comparison: both signs of
    phi*rho, three scales, and the tau_bar = 0 family phi = -rho/sqrt(1-rho^2)."""
    axis = np.round(np.arange(-0.95, 0.951, 0.05), 2)
    grid = [(float(f), float(r)) for f in axis for r in axis]
    grid += [(-r / math.sqrt(1.0 - r * r), r) for r in np.round(np.arange(-0.7, 0.71, 0.05), 2)]
    return [ModelParams(f, float(r), s) for f, r in grid for s in (0.3, 1.0, 7.0)]


def _refuses_for_rounding(p, exc):
    """dependence_profile may refuse only where tau_bar rounds to +-1."""
    return abs(tau_bar(p)) == 1.0 and "rounds to +-1 in double precision" in str(exc)


class TestMixingDecayBound:
    def test_rho_zero_equals_abs_phi(self):
        p = ModelParams(0.5, 0.0, 1.0)
        assert mixing_decay_bound(p) == 0.5

    def test_reference_points(self):
        assert mixing_decay_bound(P) == pytest.approx(0.7186759374687043, rel=1e-12)
        pm = ModelParams(-0.5, 0.3, 1.0)
        # the scan at t=1 dominates the limit here
        assert mixing_decay_bound(pm) == pytest.approx(0.20519567041703085, rel=1e-12)

    @given(boundary_params_strategy())
    def test_below_one(self, p):
        assert mixing_decay_bound(p) < 1.0

    def test_matches_converged_scan_on_grid(self):
        grid = _oracle_grid()
        assert any(p.phi * p.rho < 0 for p in grid)
        assert any(abs(tau_bar(p)) < 1e-15 for p in grid)
        for p in grid:
            scan = decay_bound_scan(p, 20_000)
            assert mixing_decay_bound(p) == pytest.approx(scan, rel=1e-14, abs=1e-300), p

    def test_stops_at_floating_point_fixed_point(self):
        # tau_bar is ~1e-24 here: neither the sign rule nor the tail bound
        # ever fires, and only V_{t+1} == V_t ends the walk
        for phi, rho, sig in (
            (-4.00055585733605e-09, 4.0005558573360486e-09, 0.001637124367153567),
            (3.656990495425337e-08, -3.656990495425337e-08, 42.75804774600064),
        ):
            p = ModelParams(phi, rho, sig)
            assert mixing_decay_bound(p) == decay_bound_scan(p, 50)

    @pytest.mark.parametrize(
        "phi, rho, sigma",
        [
            (0.5, -0.3, 1.0),
            (-0.5, 0.3, 1.0),
            (-0.9, 0.6, 2.0),
            (0.95, -0.9, 3.0),
            (-0.999, 0.9, 1.0),
            (0.6, -0.5, 1.0),
            (0.3, -0.9, 0.5),
            (-0.999999, 0.999999, 1.0),
            (-4.00055585733605e-09, 4.0005558573360486e-09, 0.001637124367153567),
        ],
    )
    def test_matches_decimal_walk(self, phi, rho, sigma):
        # phi*rho < 0, where the sign rule decides when the walk stops, and
        # tau_bar near 0, where it fires only close to the fixed point
        p = ModelParams(phi, rho, sigma)
        want = decimal_decay_bound(p)
        assert abs((Decimal(mixing_decay_bound(p)) - want) / want) <= Decimal("1e-14"), p

    def test_matches_decimal_walk_where_tau_bar_cancels(self):
        # phi*V + rho*sigma_xi cancels to about 1e-24 of its terms here, so
        # eta_hat holds only the rounding of those terms, relative to vbar
        p = ModelParams(3.656990495425337e-08, -3.656990495425337e-08, 42.75804774600064)
        vb = vbar_limit(p)
        bound = _ROUNDING * (abs(p.phi) * vb + abs(p.rho) * p.sigma_xi) / vb
        assert abs(Decimal(mixing_decay_bound(p)) - decimal_decay_bound(p)) <= Decimal(bound)

    def test_answers_near_boundary_with_opposite_signs(self):
        # |phi*tau_bar|, the contraction of V_t at vbar, is 1 - 5e-6 here
        for phi, rho in ((-0.999999, 0.999999), (0.999999, -0.999999)):
            p = ModelParams(phi, rho, 1.0)
            assert abs(tau_bar(p)) < mixing_decay_bound(p) < 1.0
            assert mixing_decay_bound(p) == pytest.approx(0.9999989971655664, rel=1e-12)

    @given(boundary_params_strategy(), st.integers(1, 40), st.integers(1, 8))
    def test_bounds_lag_k_at_boundary(self, p, t, k):
        try:
            bound = dependence_profile(p).eta_hat
        except OutOfRangeError as exc:
            assert _refuses_for_rounding(p, exc), exc
            return
        assert abs(tau_lag_k(p, t, k)) <= bound**k + 1e-15


class TestDependenceProfile:
    def test_assembles_consistent_fields(self):
        prof = dependence_profile(P)
        assert prof.tau_bar == P.phi + prof.ols_bias
        assert prof.eta_bar == eta_bar(P)
        assert prof.eta_hat == pytest.approx(0.7186759374687043, rel=1e-12)
        assert prof.eta_hat == mixing_decay_bound(P)

    def test_automatic_horizon_handles_slow_mixing(self):
        p = ModelParams(0.95, -0.9, 3.0)
        prof = dependence_profile(p)
        assert 0.0 <= prof.eta_hat < 1.0

    @pytest.mark.parametrize("phi, rho", [(0.5, 0.3), (-0.9, 0.6), (0.95, -0.9)])
    def test_tau_bar_is_derived(self, phi, rho):
        p = ModelParams(phi, rho, 1.0)
        assert dependence_profile(p).tau_bar == p.phi + ols_bias(p)
        with pytest.raises(TypeError):
            DependenceProfile(params=p, tau_bar=0.7, ols_bias=0.1, eta_bar=0.5, eta_hat=0.7)

    def test_eta_hat_below_limit_rejected(self):
        prof = dependence_profile(P)
        with pytest.raises(OutOfRangeError, match=r"\|tau_bar\| <= eta_hat < 1 required"):
            DependenceProfile(prof.params, prof.ols_bias, prof.eta_bar, 0.5)

    def test_rounded_tau_bar_refused_by_name(self):
        for phi, rho in ((0.999999, 0.999999), (-0.999999, -0.999999)):
            p = ModelParams(phi, rho, 1.0)
            with pytest.raises(OutOfRangeError, match=r"rounds to \+-1 in double precision") as info:
                dependence_profile(p)
            assert _refuses_for_rounding(p, info.value)

    @given(boundary_params_strategy())
    def test_returns_or_refuses_for_rounding_at_boundary(self, p):
        try:
            prof = dependence_profile(p)
        except OutOfRangeError as exc:
            assert _refuses_for_rounding(p, exc), exc
            return
        assert abs(prof.tau_bar) <= prof.eta_hat < 1.0
        assert abs(tau_lag_k(p, 1, 1)) <= prof.eta_hat


class TestScaleFree:
    """tau_lag_k, tau_bar, delta_limit, ols_bias, eta_bar and eta_hat do not
    depend on sigma_xi's scale; they answer at every sigma_xi > 0 with the
    same bits as at sigma_xi's binary mantissa."""

    @given(boundary_params_strategy(), st.integers(-1000, 1000), st.integers(1, 40), st.integers(1, 8))
    def test_same_bits_at_every_power_of_two(self, p, e, t, k):
        scaled = ModelParams(p.phi, p.rho, math.ldexp(p.sigma_xi, e))
        for f in (
            lambda q: tau_lag_k(q, t, k),
            lambda q: delta_limit(q, k),
            mixing_decay_bound,
            ols_bias,
            tau_bar,
            eta_bar,
        ):
            assert f(scaled).hex() == f(p).hex()

    @pytest.mark.parametrize("sigma", [5e-324, 1e-320, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("phi, rho", [(0.5, 0.3), (0.9, 0.9), (0.9, -0.9), (-0.999, 0.999)])
    def test_same_bits_where_sigma_xi_arithmetic_leaves_range(self, phi, rho, sigma):
        # sigma_xi subnormal, or vbar and sigma_xi^2 past the largest double.
        p, unit = ModelParams(phi, rho, sigma), ModelParams(phi, rho, math.frexp(sigma)[0])
        for f in (ols_bias, tau_bar, eta_bar, mixing_decay_bound, lambda q: delta_limit(q, 3)):
            assert f(p).hex() == f(unit).hex()
        profile = dependence_profile(p)
        assert (profile.tau_bar, profile.ols_bias, profile.eta_bar, profile.eta_hat) == (
            tau_bar(unit), ols_bias(unit), eta_bar(unit), mixing_decay_bound(unit)
        )
