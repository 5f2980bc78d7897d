"""The corners of the admissible domain: each point answers or refuses by name.

The grid takes |phi| and |rho| up to the largest double below 1 and
sigma_xi from the smallest subnormal double to the largest double.  At
each point a command either answers, printing its output's form with no
number that is nan, inf or subnormal, or exits 3 with one line from a
fixed list of refusals; a traceback fails the test.  `limits`,
`estimate -T 300`, `variance-path -T 5` and `simulate -T 5` run over the
whole grid, and `estimate --in` on each path that `simulate` wrote;
`experiment consistency` and `experiment acf` over a subset of it,
`experiment clt` at a few points and `figure` at a corner grid of phi
and rho for each sigma_xi.  The count of each outcome is pinned, so a
change that turns refusals into answers shows as a count, and conftest
echoes the counts after the run.
"""

import contextlib
import io
import itertools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import conftest
from digar.cli import DEFAULT_SEED, main

EDGE = 1.0 - 2.0**-53  # the largest double below 1
PHIS = (0.0, 0.5, -0.5, 0.99, -0.99, 0.999999, -0.999999, EDGE, -EDGE)
RHOS = (0.0, 0.3, -0.3, 0.999999, -0.999999, EDGE, -EDGE)
SIGMAS = (5e-324, 1e-310, 1e-160, 1.0, 1e150, 1e300, sys.float_info.max)
GRID = list(itertools.product(PHIS, RHOS, SIGMAS))
SUBSET = list(
    itertools.product((0.5, -0.999999, EDGE), (0.3, 0.999999, -EDGE), (1e-160, 1.0, 1e150, sys.float_info.max))
)
CORNERS = ",".join(map(repr, (0.999999, -0.999999, EDGE, -EDGE)))  # figure's phi and rho grid

# Every refusal a command may give, by name: the pattern its message starts with.
REFUSALS = {
    "tau_bar rounds to +-1": r"\|tau_bar\| < 1 required, got -?1\.0: tau_bar rounds to \+-1 ",
    "eta_hat rounds to 1": r"\|tau_bar\| <= eta_hat < 1 required, got eta_hat=1\.0\n",
    "vbar overflows": r"vbar overflows a double at sigma_xi=",
    "S overflows": r"S overflows a double at sigma_xi=",
    "vbar subnormal": r"vbar is below the smallest normal double at sigma_xi=",
    "S subnormal": r"S is below the smallest normal double at sigma_xi=",
    "V_t not positive": r"every V_t must be positive\n",
    "V_t not finite": r"variance sequence contains non-finite entries\n",
    "sums subnormal": r"sum of squared lagged values is subnormal, ",
    "sums zero": r"sum of squared lagged values is zero ",
}
# The form of each command's answer.
LIMITS_LINES = ["vbar", "S", "tau_bar", "bias", "eta_bar", "eta_hat"]
ANSWERS = {
    "limits": "".join(rf"{name} *= \S+\n" for name in LIMITS_LINES),
    "estimate": r"phi_hat,phi_tilde,correction,sample_size\n\S+\n",
    "variance-path": r"t,v\n(?:\d+,\S+\n)+",
    "simulate": r"t,y,xi\n0,0,\n(?:\d+,\S+,\S+\n)+",
    "experiment": r"\{\n.*\}\n",
    "figure": r"phi,rho,value\n(?:\S+,\S+,\S+\n)+",
}


def _outcome(*argv: str) -> str:
    # "answer", or the name of the refusal, once the output of `digar
    # argv` is checked to be one or the other.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if code == 0 and "--out" in argv:  # the answer is in the file
        assert out == ""
        out = Path(argv[argv.index("--out") + 1]).read_text()
    if argv[0] in ("simulate", "estimate", "experiment") and "--in" not in argv:  # a seeded run
        assert err.startswith(f"seed = {DEFAULT_SEED}\n"), err
        err = err.split("\n", 1)[1]
    if code == 0:
        assert err == ""
        assert re.fullmatch(ANSWERS[argv[0]], out, re.DOTALL), out
        for token in re.split(r"[\s,=:\[\]{}\"]+", out):
            try:
                value = float(token)
            except ValueError:  # a name
                continue
            assert value == 0.0 or sys.float_info.min <= abs(value) < math.inf, out
        return "answer"
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    names = [name for name, pattern in REFUSALS.items() if re.match(pattern, err[len("error: "):])]
    assert len(names) == 1, err
    return names[0]


def _flags(points) -> list[tuple[str, ...]]:
    # The --phi, --rho and --sigma flags of each (phi, rho, sigma) point.
    return [(f"--phi={phi!r}", f"--rho={rho!r}", f"--sigma={sigma!r}") for phi, rho, sigma in points]


def _counts(*argv: str, points=GRID, tails=None) -> Counter:
    # The outcomes of `digar argv tail` for each tail, by default the
    # flags of each point, echoed after the run.
    counts = Counter(_outcome(*argv, *tail) for tail in (_flags(points) if tails is None else tails))
    conftest.DOMAIN_LINES.append(
        f"{' '.join(argv)}: {sum(counts.values())} points, "
        + ", ".join(f"{n} {name}" for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    )
    return counts


def test_limits_answers_or_refuses_by_name():
    assert _counts("limits") == {
        "answer": 205,
        "tau_bar rounds to +-1": 98,
        "vbar subnormal": 90,
        "vbar overflows": 24,
        "S overflows": 18,
        "eta_hat rounds to 1": 6,
    }


def test_estimate_answers_or_refuses_by_name():
    # Every refusal comes from the scale of sigma_xi: none is at sigma_xi = 1.
    assert _counts("estimate", "-T", "300") == {
        "answer": 126,
        "V_t not positive": 138,
        "V_t not finite": 126,
        "sums subnormal": 51,
    }


def test_variance_path_answers_or_refuses_by_name():
    assert _counts("variance-path", "-T", "5") == {
        "answer": 177,
        "V_t not positive": 138,
        "V_t not finite": 126,
    }


def test_simulate_and_estimate_in_answer_or_refuse_by_name(tmp_path):
    # estimate --in reads each path simulate wrote, at the point's flags.
    tails = [(*flags, "--out", str(tmp_path / f"{i}.csv")) for i, flags in enumerate(_flags(GRID))]
    assert _counts("simulate", "-T", "5", tails=tails) == {
        "answer": 177,
        "V_t not positive": 138,
        "V_t not finite": 126,
    }
    tails = [(tail[-1], *tail[:3]) for tail in tails if Path(tail[-1]).exists()]
    assert _counts("estimate", "--in", tails=tails) == {"answer": 126, "sums subnormal": 51}


def test_consistency_answers_or_refuses_by_name():
    assert _counts("experiment", "consistency", "-T", "100", "-R", "100", points=SUBSET) == {
        "answer": 18,
        "V_t not finite": 9,
        "sums subnormal": 6,
        "V_t not positive": 2,
        "sums zero": 1,
    }


def test_acf_answers_over_the_subset():
    # experiment acf runs at sigma_xi's binary mantissa.
    assert _counts("experiment", "acf", "-T", "210", "-R", "30", "--k-max", "2", points=SUBSET) == {"answer": 36}


def test_clt_answers_or_refuses_by_name():
    # One point of each of consistency's outcomes but the rare "sums zero":
    # clt's smallest run costs too much for the subset.
    points = [(0.5, 0.3, 1.0), (0.5, 0.3, 1e-160), (0.5, 0.3, sys.float_info.max), (EDGE, -EDGE, 1e-160)]
    assert _counts("experiment", "clt", "-T", "5000", "-R", "1000", points=points) == {
        "answer": 1,
        "sums subnormal": 1,
        "V_t not finite": 1,
        "V_t not positive": 1,
    }


@pytest.mark.parametrize("kind, counts", [
    ("bias", {"answer": 7}),
    ("vbar", {"answer": 3, "vbar subnormal": 2, "vbar overflows": 2}),
])
def test_figure_answers_or_refuses_by_name(kind, counts):
    tails = [(f"--sigma={sigma!r}",) for sigma in SIGMAS]
    assert _counts("figure", kind, f"--phi-list={CORNERS}", f"--rho-grid={CORNERS}", tails=tails) == counts


# Points where phi*rho < 0 and |rho| is within a few ulps of 1, at which
# phi^2*v^2 + 2*phi*rho*sigma_xi*v + sigma_xi^2 cancels: below zero at
# V_1 at the first two, which share a mantissa, and to V_2 = 0 at the
# third.
CANCELLING = [
    (-0.9999999999999778, 0.9999999999999999, 0.6840502069801166),
    (-0.9999999999999778, 0.9999999999999999, 1.3681004139602332),
    (-0.9999999999999944, 0.9999999999999998, 0.7169811800269608),
]
COMMANDS = {
    "limits": ("limits",),
    "variance-path": ("variance-path", "-T", "5"),
    "simulate": ("simulate", "-T", "5"),
    "estimate -T": ("estimate", "-T", "300"),
    "estimate --in": ("estimate", "--in"),
    "consistency": ("experiment", "consistency", "-T", "100", "-R", "100"),
    "clt": ("experiment", "clt", "-T", "5000", "-R", "1000"),
    "acf": ("experiment", "acf", "-T", "250", "-R", "100"),
}


@pytest.mark.parametrize("point", CANCELLING, ids=["below_zero", "below_zero_2x", "v2_zero"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cancelling_variance_map_refused_on_v(tmp_path, command, point):
    # Each command refuses on V_t, as variance_sequence does, where the sum
    # under the square root cancels; none exits with a traceback.
    argv = COMMANDS[command]
    if command == "estimate --in":
        path_file = tmp_path / "path.csv"  # a path the recursion at phi = -1 + 2e-14 keeps
        path_file.write_text("t,y,xi\n0,0,\n1,0.5,0.5\n2,0.1,0.6\n")
        argv += (str(path_file),)
    phi, rho, sigma = point
    assert _outcome(*argv, f"--phi={phi!r}", f"--rho={rho!r}", f"--sigma={sigma!r}") == "V_t not positive"
