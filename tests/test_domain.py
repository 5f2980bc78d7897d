"""The corners of the admissible domain: each point answers or refuses by name.

The grid takes |phi| and |rho| up to the largest double below 1 and
sigma_xi from the smallest subnormal double to the largest double.  At
each point `digar limits` either answers, printing no number that is
nan, inf or subnormal, or exits 3 with one line from a fixed list of
refusals; a traceback fails the test.  The count of each outcome is
pinned, so a change that turns refusals into answers shows as a count,
and conftest echoes the counts after the run.
"""

import contextlib
import io
import math
import re
import sys
from collections import Counter

import conftest
from digar.cli import main

EDGE = 1.0 - 2.0**-53  # the largest double below 1
PHIS = (0.0, 0.5, -0.5, 0.99, -0.99, 0.999999, -0.999999, EDGE, -EDGE)
RHOS = (0.0, 0.3, -0.3, 0.999999, -0.999999, EDGE, -EDGE)
SIGMAS = (5e-324, 1e-310, 1e-160, 1.0, 1e150, 1e300, sys.float_info.max)

# Every refusal limits may give, by name: the pattern its message starts with.
LIMITS_REFUSALS = {
    "tau_bar rounds to +-1": r"\|tau_bar\| < 1 required, got -?1\.0: tau_bar rounds to \+-1 ",
    "eta_hat rounds to 1": r"\|tau_bar\| <= eta_hat < 1 required, got eta_hat=1\.0\n",
    "vbar overflows": r"vbar overflows a double at sigma_xi=",
    "S overflows": r"S overflows a double at sigma_xi=",
    "vbar subnormal": r"vbar is below the smallest normal double at sigma_xi=",
    "S subnormal": r"S is below the smallest normal double at sigma_xi=",
}
LIMITS_LINES = ["vbar", "S", "tau_bar", "bias", "eta_bar", "eta_hat"]


def _limits(phi: float, rho: float, sigma: float) -> str:
    # "answer", or the name of the refusal, once limits' output at the
    # point is checked to be one or the other.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["limits", f"--phi={phi!r}", f"--rho={rho!r}", f"--sigma={sigma!r}"])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        lines = [line.split("=") for line in out.splitlines()]
        assert [name.strip() for name, _ in lines] == LIMITS_LINES
        for _, value in lines:
            assert float(value) == 0.0 or sys.float_info.min <= abs(float(value)) < math.inf, out
        return "answer"
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    names = [name for name, pattern in LIMITS_REFUSALS.items() if re.match(pattern, err[len("error: "):])]
    assert len(names) == 1, err
    return names[0]


def test_limits_answers_or_refuses_by_name():
    counts = Counter(_limits(phi, rho, sigma) for phi in PHIS for rho in RHOS for sigma in SIGMAS)
    conftest.DOMAIN_LINES.append(
        f"limits: {sum(counts.values())} points, "
        + ", ".join(f"{n} {name}" for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    )
    assert counts == {
        "answer": 205,
        "tau_bar rounds to +-1": 98,
        "vbar subnormal": 90,
        "vbar overflows": 24,
        "S overflows": 18,
        "eta_hat rounds to 1": 6,
    }
