import copy
import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from digar import (
    AcfRow,
    AcfTable,
    BatchSpec,
    DependenceProfile,
    EstimateResult,
    ExperimentSummary,
    ModelParams,
    Moments,
    NonFiniteError,
    OutOfRangeError,
    SamplePath,
    dependence_profile,
    simulate_path,
    stationary_sd,
    variance_sequence,
    vbar_limit,
)
from digar.model import _variance_walk
from conftest import boundary_params_strategy, fresh_python
from oracles import variance_sum_form, variance_sum_sequence

P = ModelParams(0.5, 0.3, 1.0)

_ROW = AcfRow(1, 0.7, 0.71, 0.01, 0.1, 0.11, 0.02)
_PARAMS_REPR = "ModelParams(phi=0.5, rho=0.3, sigma_xi=1.0)"

# The array-side result types: (type, its arguments in __match_args__
# order, another valid last argument, its repr).
RESULTS = [
    (
        SamplePath, (P, [0.0, 1.0, 1.5], [1.0, 1.0], None), 5,
        f"SamplePath(params={_PARAMS_REPR}, y=array([0. , 1. , 1.5]), xi=array([1., 1.]), seed=None)",
    ),
    (
        BatchSpec, (P, 100, 300, 7), 8,
        f"BatchSpec(params={_PARAMS_REPR}, path_length=100, replications=300, master_seed=7)",
    ),
    (
        EstimateResult, (0.8, 0.25, 3), 4,
        "EstimateResult(phi_hat=0.8, phi_tilde=0.55, correction=0.25, sample_size=3)",
    ),
    (
        Moments, (0.0, 1.0, 0.0, 0.0), 1.0,
        "Moments(mean=0.0, variance=1.0, skewness=0.0, excess_kurtosis=0.0)",
    ),
    (
        ExperimentSummary, (BatchSpec(P, 100, 300, 7), 0.5, 0.51, 0.5, Moments(0.0, 1.0, 0.0, 0.0), 0.02), 0.03,
        f"ExperimentSummary(spec=BatchSpec(params={_PARAMS_REPR}, path_length=100, replications=300, "
        "master_seed=7), target=0.5, estimate_mean=0.51, estimate_sd=0.5, "
        "mc_standard_error=0.028867513459481284, "
        "standardized_moments=Moments(mean=0.0, variance=1.0, skewness=0.0, excess_kurtosis=0.0), ks_distance=0.02)",
    ),
    (
        AcfRow, (1, 0.7, 0.71, 0.01, 0.1, 0.11, 0.02), 0.03,
        "AcfRow(k=1, y_empirical=0.7, y_theory=0.71, y_mc_se=0.01, xi_empirical=0.1, xi_theory=0.11, xi_mc_se=0.02)",
    ),
    (
        AcfTable, (BatchSpec(P, 250, 30, 7), 200, (_ROW,)), (),
        f"AcfTable(spec=BatchSpec(params={_PARAMS_REPR}, path_length=250, replications=30, master_seed=7), "
        "t_obs=200, rows=(AcfRow(k=1, y_empirical=0.7, y_theory=0.71, y_mc_se=0.01, xi_empirical=0.1, "
        "xi_theory=0.11, xi_mc_se=0.02),))",
    ),
]
_IDS = [cls.__name__ for cls, *_ in RESULTS]
_DUPLICATES = [copy.copy, copy.deepcopy] + [
    lambda x, n=n: pickle.loads(pickle.dumps(x, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)
]


def _forge(cls, *fields):
    # A value of cls holding these fields, made without its constructor's
    # checks, as simulate_path makes its paths.
    value = object.__new__(cls)
    for name, field in zip(cls.__slots__, fields):
        object.__setattr__(value, name, field)
    return value

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

    def test_overflow_refused_by_name(self):
        assert stationary_sd(ModelParams(0.0, 0.3, sys.float_info.max)) == sys.float_info.max
        with pytest.raises(NonFiniteError, match=r"^S overflows a double at sigma_xi=1e\+308$"):
            stationary_sd(ModelParams(0.9, 0.3, 1e308))


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

    @pytest.mark.parametrize("phi, rho", [(0.9, 0.9), (0.5, -0.1)])
    def test_overflow_refused_by_name(self, phi, rho):
        # Both forms: rho*phi >= 0, and rho*phi < 0 with a divisor below 1.
        with pytest.raises(NonFiniteError, match=r"^vbar overflows a double at sigma_xi=1\.7e\+308$"):
            vbar_limit(ModelParams(phi, rho, 1.7e308))


class TestVbarAndSAtEveryScale:
    """vbar and S are proportional to sigma_xi: at sigma_xi*2^e each is 2^e
    times its value at sigma_xi, bit for bit, wherever that is a normal
    double, and refused by name where it is not."""

    @given(boundary_params_strategy(), st.integers(-1000, 1000))
    @example(ModelParams(0.999999, 0.9, 1.0), -1030)  # sigma_xi subnormal, vbar and S normal
    @example(ModelParams(0.5, 0.3, 1.0), -1074)  # sigma_xi 5e-324: both subnormal
    @example(ModelParams(0.9, 0.3, 1.0), 1023)  # both overflow
    def test_power_of_two_scales_the_value(self, p, e):
        scaled = ModelParams(p.phi, p.rho, math.ldexp(p.sigma_xi, e))
        for f, name in ((vbar_limit, "vbar"), (stationary_sd, "S")):
            try:
                want = math.ldexp(f(p), e)
            except OverflowError:
                with pytest.raises(NonFiniteError, match=rf"^{name} overflows a double at sigma_xi="):
                    f(scaled)
                continue
            if want < sys.float_info.min:
                with pytest.raises(OutOfRangeError, match=rf"^{name} is below the smallest normal double at "):
                    f(scaled)
            else:
                assert f(scaled).hex() == want.hex()


class TestFrozenValues:
    """ModelParams and DependenceProfile are immutable values: built by
    position or keyword, equal and hashed by type and fields, and copied or
    unpickled only through their checking constructors."""

    PROFILE = dependence_profile(P)

    def test_reprs(self):
        assert repr(P) == "ModelParams(phi=0.5, rho=0.3, sigma_xi=1.0)"
        assert repr(self.PROFILE) == (
            "DependenceProfile(params=ModelParams(phi=0.5, rho=0.3, sigma_xi=1.0), "
            "tau_bar=0.7186759374687042, ols_bias=0.21867593746870423, "
            "eta_bar=0.6953451638599922, eta_hat=0.7186759374687042)"
        )

    def test_built_by_position_or_keyword(self):
        assert ModelParams(phi=0.5, rho=0.3, sigma_xi=1) == P
        prof = self.PROFILE
        again = DependenceProfile(params=P, ols_bias=prof.ols_bias, eta_bar=prof.eta_bar, eta_hat=prof.eta_hat)
        assert again == DependenceProfile(P, prof.ols_bias, prof.eta_bar, prof.eta_hat) == prof

    def test_equal_and_hashed_by_type_and_fields(self):
        twin = ModelParams(0.5, 0.3, 1.0)
        assert twin == P and hash(twin) == hash(P) == hash((0.5, 0.3, 1.0))
        assert len({P, twin, ModelParams(0.5, 0.3, 2.0)}) == 2
        assert P != ModelParams(0.5, 0.3, 2.0)
        assert P != (0.5, 0.3, 1.0)
        prof = self.PROFILE
        fields = (P, prof.tau_bar, prof.ols_bias, prof.eta_bar, prof.eta_hat)
        assert dependence_profile(twin) == prof and hash(prof) == hash(fields)
        assert dependence_profile(ModelParams(0.5, 0.3, 2.0)) != prof  # same numbers, other params

    @pytest.mark.parametrize("name", ["phi", "rho", "sigma_xi", "other"])
    def test_params_fields_read_only(self, name):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(P, name, 0.1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(P, name)
        assert P == ModelParams(0.5, 0.3, 1.0)

    @pytest.mark.parametrize("name", ["params", "tau_bar", "ols_bias", "eta_bar", "eta_hat"])
    def test_profile_fields_read_only(self, name):
        before = getattr(self.PROFILE, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(self.PROFILE, name, 0.1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(self.PROFILE, name)
        assert getattr(self.PROFILE, name) == before

    @pytest.mark.parametrize("duplicate", _DUPLICATES)
    def test_copies_round_trip_equal(self, duplicate):
        for value in (P, self.PROFILE):
            again = duplicate(value)
            assert type(again) is type(value) and again == value and repr(again) == repr(value)

    def test_pickle_refused_on_load(self):
        class Forged:
            # pickles as the call ModelParams(2.0, 0.3, 1.0) would
            def __reduce__(self):
                return ModelParams, (2.0, 0.3, 1.0)

        with pytest.raises(OutOfRangeError, match=r"\|phi\| < 1 required, got phi=2\.0"):
            pickle.loads(pickle.dumps(Forged()))

    @pytest.mark.parametrize("cls, args, _, text", RESULTS, ids=_IDS)
    def test_result_reprs(self, cls, args, _, text):
        assert repr(cls(*args)) == text

    def test_simulated_path_as_built(self):
        # simulate_path skips SamplePath's checks, not its fields.
        path = simulate_path(P, 3, 4)
        assert repr(path) == repr(SamplePath(path.params, path.y, path.xi, path.seed))
        assert not path.y.flags.writeable and not path.xi.flags.writeable

    @pytest.mark.parametrize("cls, args, _, text", RESULTS, ids=_IDS)
    def test_result_built_by_position_or_keyword(self, cls, args, _, text):
        names = cls.__match_args__
        assert len(names) == len(args)
        assert repr(cls(**dict(zip(names, args)))) == text
        assert repr(cls(*args[:1], **dict(zip(names[1:], args[1:])))) == text

    @pytest.mark.parametrize("cls, args, _, text", RESULTS, ids=_IDS)
    def test_result_refuses_missing_or_extra_arguments(self, cls, args, _, text):
        names = cls.__match_args__
        for call in (
            lambda: cls(*args[:-1]),  # missing
            lambda: cls(**dict(zip(names[1:], args[1:]))),  # missing the first
            lambda: cls(*args, args[-1]),  # one too many
            lambda: cls(*args, other=1),  # unknown
            lambda: cls(*args, **{names[0]: args[0]}),  # twice
        ):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("cls, args, _, text", RESULTS, ids=_IDS)
    def test_result_fields_read_only(self, cls, args, _, text):
        value = cls(*args)
        for name in (*cls.__slots__, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0.1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert repr(value) == text

    @pytest.mark.parametrize("cls, args, last, text", RESULTS[1:], ids=_IDS[1:])
    def test_result_equal_and_hashed_by_type_and_fields(self, cls, args, last, text):
        value, twin, other = cls(*args), cls(*args), cls(*args[:-1], last)
        fields = tuple(getattr(value, name) for name in cls.__slots__)
        assert value == twin and hash(value) == hash(twin) == hash(fields)
        assert value != other and len({value, twin, other}) == 2
        twin_type = type("Twin", (cls,), {"__slots__": ()})
        assert value != fields and value != twin_type(*args)

    def test_path_equal_by_its_fields_and_unhashable(self):
        # Its arrays have no truth value and no hash, as numpy has it.
        path = SamplePath(*RESULTS[0][1])
        assert path == path and path != P
        assert path == _forge(SamplePath, path.params, path.y, path.xi, path.seed)
        with pytest.raises(TypeError, match="unhashable"):
            hash(path)

    @pytest.mark.parametrize("duplicate", _DUPLICATES)
    @pytest.mark.parametrize("cls, args, _, text", RESULTS, ids=_IDS)
    def test_result_copies_round_trip_equal(self, cls, args, _, text, duplicate):
        again = duplicate(cls(*args))
        assert type(again) is cls and repr(again) == text
        if cls is SamplePath:
            assert not again.y.flags.writeable and not again.xi.flags.writeable
        else:
            assert again == cls(*args)

    @pytest.mark.parametrize("duplicate", _DUPLICATES)
    def test_forged_results_refused_on_load(self, duplicate):
        # Copies and pickles go through the checking constructor.
        with pytest.raises(OutOfRangeError, match="replications must be >= 1, got 0"):
            duplicate(_forge(BatchSpec, P, 100, 0, 7))
        broken = _forge(SamplePath, P, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]), None)
        with pytest.raises(OutOfRangeError, match=r"path violates y\[t\] = phi\*y\[t-1\] \+ xi\[t\]"):
            duplicate(broken)
