import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from digar import ModelParams

# derandomize makes every run check the same example set, so the suite
# has no flaky property tests
settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


def params_strategy(min_sigma: float = 0.05, max_sigma: float = 20.0):
    """Valid parameter triples away from the open boundaries."""
    return st.builds(
        ModelParams,
        st.floats(-0.95, 0.95),
        st.floats(-0.95, 0.95),
        st.floats(min_sigma, max_sigma),
    )


def boundary_params_strategy(min_sigma: float = 0.05, max_sigma: float = 20.0):
    """Valid parameter triples up to |phi|, |rho| <= 1 - 1e-6, for the
    properties that must hold across the whole admissible domain."""
    edge = 1.0 - 1e-6
    return st.builds(
        ModelParams,
        st.floats(-edge, edge),
        st.floats(-edge, edge),
        st.floats(min_sigma, max_sigma),
    )


def fresh_python(*args: str, env: dict[str, str] | None = None) -> bytes:
    """stdout of `python *args` in a new interpreter that imports this
    checkout's digar, with none of the BLAS thread variables
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS set but
    those in env."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    child = {k: v for k, v in os.environ.items() if k not in blas}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child.update(env or {})
    return subprocess.run([sys.executable, *args], env=child, capture_output=True, check=True).stdout


def seeds_strategy():
    return st.integers(min_value=0, max_value=(1 << 64) - 1)


# scoreboard lines appended by tests/test_acceptance.py; echoed after the
# run because fd-level capture would swallow prints from inside the tests
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
