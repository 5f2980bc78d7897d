import json
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from digar import (
    ModelParams,
    NonFiniteError,
    OutOfRangeError,
    stationary_sd,
    variance_sequence,
    vbar_limit,
)
from digar.model import _variance_walk
from conftest import boundary_params_strategy, fresh_python
from oracles import variance_sum_form, variance_sum_sequence

P = ModelParams(0.5, 0.3, 1.0)

# outcomes() builds ModelParams with numpy scalars as sigma_xi, each stored
# as a float, and with other types as phi, each refused: [type name, value]
# of the stored sigma_xi, or [error name, message].
_TYPE_CASES = """
from decimal import Decimal
from fractions import Fraction

from digar.errors import DigarError
from digar.model import ModelParams
import numpy as np

def outcomes():
    out = []
    for value in (np.float32(0.5), np.float64(0.25), np.int64(2)):
        sigma = ModelParams(0.5, 0.3, value).sigma_xi
        out.append([type(sigma).__name__, sigma])
    for value in (True, "0.5", Decimal("0.5"), Fraction(1, 2), None):
        try:
            ModelParams(value, 0.3, 1.0)
        except DigarError as exc:
            out.append([type(exc).__name__, str(exc)])
    return out
"""
TYPE_OUTCOMES = [
    ["float", 0.5],
    ["float", 0.25],
    ["float", 2.0],
    *(["NonFiniteError", f"phi must be a real number, got {name}"]
      for name in ("bool", "str", "Decimal", "Fraction", "NoneType")),
]


class TestValidateParams:
    def test_valid_triple(self):
        p = ModelParams(0.5, 0.3, 1.0)
        assert (p.phi, p.rho, p.sigma_xi) == (0.5, 0.3, 1.0)

    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.5])
    def test_phi_boundary_rejected(self, phi):
        with pytest.raises(OutOfRangeError, match="phi"):
            ModelParams(phi, 0.0, 1.0)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 2.0])
    def test_rho_boundary_rejected(self, rho):
        with pytest.raises(OutOfRangeError, match="rho"):
            ModelParams(0.5, rho, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(OutOfRangeError, match="sigma"):
            ModelParams(0.5, 0.3, sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            ModelParams(bad, 0.3, 1.0)
        with pytest.raises(NonFiniteError):
            ModelParams(0.5, bad, 1.0)
        with pytest.raises(NonFiniteError):
            ModelParams(0.5, 0.3, bad)

    def test_non_numeric_rejected(self):
        with pytest.raises(NonFiniteError):
            ModelParams("0.5", 0.3, 1.0)

    def test_numpy_scalars_accepted_other_types_refused(self):
        namespace = {}
        exec(_TYPE_CASES, namespace)
        assert namespace["outcomes"]() == TYPE_OUTCOMES

    def test_types_when_numpy_loads_after_the_model(self):
        # digar.model loads no numpy; it must still take numpy's scalars
        # once a later import loads numpy.
        code = (
            "import json, sys\nimport digar.model\nloaded = 'numpy' in sys.modules\n"
            f"{_TYPE_CASES}\nprint(json.dumps([loaded, outcomes()]))"
        )
        assert json.loads(fresh_python("-c", code)) == [False, TYPE_OUTCOMES]


class TestStationarySd:
    def test_phi_zero_returns_sigma(self):
        assert stationary_sd(ModelParams(0.0, 0.7, 1.0)) == 1.0

    def test_half_phi(self):
        # oracle: 1/sqrt(0.75)
        assert stationary_sd(ModelParams(0.5, 0.0, 1.0)) == pytest.approx(
            1.1547005383792517, rel=1e-15
        )

    def test_sign_of_phi_irrelevant(self):
        assert stationary_sd(ModelParams(-0.5, 0.0, 2.0)) == pytest.approx(
            2.3094010767585034, rel=1e-15
        )


class TestVarianceSequence:
    def test_first_value_is_sigma(self):
        assert variance_sequence(P, 1).tolist() == [1.0]

    def test_second_value(self):
        # oracle: V_2^2 = 0.25 + 0.3 + 1 = 1.55 by hand
        v2 = variance_sequence(P, 2)[1]
        assert v2 == pytest.approx(math.sqrt(1.55), rel=1e-15)
        assert v2 == pytest.approx(1.2449899597988732, rel=1e-14)

    def test_rho_zero_converges_to_classical_sd(self):
        p = ModelParams(0.5, 0.0, 1.0)
        assert variance_sequence(p, 200)[-1] == pytest.approx(1.1547005383792517, rel=1e-12)

    def test_zero_horizon_rejected(self):
        with pytest.raises(OutOfRangeError, match="T must be >= 1"):
            variance_sequence(P, 0)
        with pytest.raises(OutOfRangeError, match="T must be >= 1"):
            variance_sequence(P, -3)

    def test_values_read_only(self):
        vs = variance_sequence(P, 5)
        with pytest.raises(ValueError):
            vs[0] = 2.0

    def test_overflow_refused(self):
        # sigma_xi^2 overflows to inf
        with pytest.raises(NonFiniteError, match="variance sequence contains non-finite entries"):
            variance_sequence(ModelParams(0.5, 0.3, 1e200), 3)

    def test_late_overflow_refused(self):
        # V_15009 is the first non-finite entry here: past several of the
        # pieces the refusal walk takes, so a walk that stopped early
        # would let T = 15009 through.
        p = ModelParams(0.999999, 0.9, 1e150)
        assert np.all(np.isfinite(variance_sequence(p, 15008)))
        with pytest.raises(NonFiniteError, match="variance sequence contains non-finite entries"):
            variance_sequence(p, 15009)

    def test_underflow_refused(self):
        # every term of V_2^2 underflows to 0
        with pytest.raises(OutOfRangeError, match="every V_t must be positive"):
            variance_sequence(ModelParams(0.5, 0.3, 1e-200), 3)

    @given(boundary_params_strategy())
    def test_all_entries_positive_and_finite(self, p):
        vs = variance_sequence(p, 64)
        assert np.all(vs > 0)
        assert np.all(np.isfinite(vs))

    @given(boundary_params_strategy())
    def test_geometric_convergence_with_ratio_below_abs_phi(self, p):
        # |g'(v)| = |phi|*|phi*v + rho*sigma|/g(v) < |phi| uniformly, so the
        # gap to the limit must contract at least that fast at every step.
        vs = variance_sequence(p, 128)
        vb = vbar_limit(p)
        gaps = np.abs(vs - vb)
        floor = 1e-13 * vb
        for t in range(len(gaps) - 1):
            if gaps[t] <= floor:
                break
            assert gaps[t + 1] <= abs(p.phi) * gaps[t] + 1e-15 * vb

    @pytest.mark.parametrize(
        "phi, rho",
        [(0.5, 0.3), (0.0, 0.5), (0.9999, 0.999), (0.999999, 0.999999), (-0.999, 0.9)],
    )
    def test_fixed_point_exit_matches_plain_loop(self, phi, rho):
        # (-0.999, 0.9) never reaches an exact fixed point, so the loop
        # runs to T there; the others stop early and fill.
        p = ModelParams(phi, rho, 1.0)
        T = 200_000
        assert np.array_equal(variance_sequence(p, T), _plain_recursion(p, T))

    @given(boundary_params_strategy())
    def test_fixed_point_exit_matches_plain_loop_generic(self, p):
        assert np.array_equal(variance_sequence(p, 3000), _plain_recursion(p, 3000))

    @pytest.mark.parametrize("piece", [1, 2, 7, 49])
    @pytest.mark.parametrize("phi, rho", [(0.5, 0.3), (0.9999, 0.999), (-0.999, 0.9)])
    def test_walk_in_pieces_matches_whole(self, phi, rho, piece):
        # The estimator takes V_t piece by piece from the recursion that
        # builds variance_sequence; at (0.5, 0.3) the fixed point is hit
        # inside a piece, and later pieces are only filled.
        p = ModelParams(phi, rho, 1.0)
        next_v = _variance_walk(p)
        pieces = [next_v(piece) for _ in range(0, 300, piece)]
        assert np.concatenate(pieces)[:300].tobytes() == variance_sequence(p, 300).tobytes()


def _plain_recursion(p, T):
    # Reference: the one-step recursion iterated T-1 times, no early exit.
    a = p.phi * p.phi
    b = 2.0 * p.phi * p.rho * p.sigma_xi
    c = p.sigma_xi * p.sigma_xi
    out = np.empty(T)
    v = out[0] = p.sigma_xi
    for t in range(1, T):
        v = math.sqrt(a * v * v + b * v + c)
        out[t] = v
    return out


class TestVarianceSumForm:
    def test_t1_empty_sums(self):
        assert variance_sum_form(P, 1) == 1.0
        assert variance_sum_form(ModelParams(0.2, -0.8, 3.5), 1) == 3.5

    def test_t2_hand_expansion(self):
        # sigma^2*(phi^2 + 1) + 2*rho*sigma*phi*V_1 = 1.55
        assert variance_sum_form(P, 2) == pytest.approx(1.2449899597988732, rel=1e-14)

    def test_agrees_with_recursion_at_t50(self):
        assert variance_sum_form(P, 50) == pytest.approx(variance_sequence(P, 50)[-1], rel=1e-12)

    @given(boundary_params_strategy())
    def test_sum_and_recursion_routes_agree(self, p):
        T = 64
        by_sum = variance_sum_sequence(p, T)
        by_recursion = variance_sequence(p, T)
        assert np.all(np.abs(by_sum - by_recursion) <= 1e-10 * by_recursion)

    def test_phi_zero_collapses_to_constant(self):
        p = ModelParams(0.0, 0.6, 2.0)
        assert variance_sum_sequence(p, 10).tolist() == [2.0] * 10


class TestVbarLimit:
    def test_rho_zero_equals_classical_sd(self):
        for phi in (-0.9, -0.3, 0.3, 0.9):
            p = ModelParams(phi, 0.0, 1.0)
            assert vbar_limit(p) == pytest.approx(stationary_sd(p), rel=1e-14)

    def test_phi_zero_equals_sigma(self):
        assert vbar_limit(ModelParams(0.0, 0.4, 1.0)) == 1.0
        assert vbar_limit(ModelParams(0.0, -0.8, 2.5)) == 2.5

    def test_reference_point(self):
        # oracle: fixed-point iteration of the one-step recursion
        assert vbar_limit(P) == pytest.approx(1.3718930554164623, rel=1e-12)

    @given(boundary_params_strategy())
    def test_fixed_point_of_one_step_map(self, p):
        vb = vbar_limit(p)
        g = math.sqrt(
            p.phi**2 * vb**2 + 2.0 * p.phi * p.rho * p.sigma_xi * vb + p.sigma_xi**2
        )
        assert abs(g - vb) <= 1e-12

    @given(boundary_params_strategy())
    def test_quadratic_identity(self, p):
        vb = vbar_limit(p)
        resid = (1.0 - p.phi**2) * vb**2 - 2.0 * p.rho * p.phi * p.sigma_xi * vb - p.sigma_xi**2
        assert abs(resid) <= 1e-12 * max(1.0, vb**2)

    @given(boundary_params_strategy())
    def test_sign_law_against_classical_sd(self, p):
        vb = vbar_limit(p)
        s = stationary_sd(p)
        prod = p.rho * p.phi
        if prod > 1e-12:
            assert vb > s
        elif prod < -1e-12:
            assert vb < s
        else:
            assert vb == pytest.approx(s, rel=1e-13)

    def test_variance_sequence_approaches_limit(self):
        p = ModelParams(-0.8, 0.6, 1.3)
        assert variance_sequence(p, 400)[-1] == pytest.approx(vbar_limit(p), rel=1e-12)
