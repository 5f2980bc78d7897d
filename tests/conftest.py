import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from digar import ModelParams

# derandomize makes every run check the same example set, so the suite
# has no flaky property tests
settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


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


def no_child_left() -> None:
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def peak_rss(*args: str) -> int:
    """Max RSS in bytes of `python *args`, run as fresh_python runs it with
    its stdout discarded; it must exit 0.  A small interpreter starts it and
    reads the figure, since a child's max RSS counts its parent's size at
    the fork.  Linux reports ru_maxrss in KiB."""
    code = (
        "import resource, subprocess, sys; "
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    return int(fresh_python("-c", code, sys.executable, *args)) * 1024


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
