"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload's commands at small sizes with a fixed seed, requires
every checker to accept the genuine output, then corrupts each output the
way a broken program might and requires the checker to reject it: one
changed CSV digit, a limits value off in its 6th significant digit, a clt
variance of 1.2 and an acf value 10 MC SEs away from its theory.  It also
requires an exit 3 to make a run wrong unless the command may refuse.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as w
from run import Proc, Verifier

ROOT = Path(__file__).resolve().parent.parent
CLI = "import sys; from digar.cli import main; sys.exit(main())"
SEED = 1


def digar(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIGAR_THREADS", None)
    out = subprocess.run([sys.executable, "-c", CLI, *argv], env=env, capture_output=True, check=True)
    return out.stdout


def bump_digit(text: str, pos: int) -> str:
    """Replace the digit at or after pos with a different digit."""
    while not text[pos].isdigit():
        pos += 1
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def edit_json(data: bytes, edit) -> bytes:
    tree = json.loads(data)
    edit(tree)
    return json.dumps(tree).encode()


def sixth_digit_off(data: bytes, field: str) -> bytes:
    lines = data.decode().split("\n")
    for i, line in enumerate(lines):
        if line.startswith(field + " "):
            value = line.partition("=")[2].strip()
            digits = [j for j, c in enumerate(value) if c.isdigit()]
            first = next(j for j in digits if value[j] != "0")
            sixth = [j for j in digits if j >= first][5]
            lines[i] = line[: line.index(value)] + bump_digit(value, sixth)
    return "\n".join(lines).encode()


def cases(tmp: Path):
    T, R = 5000, 1000
    clt = digar("experiment", "clt", "-T", str(T), "-R", str(R), "--seed", str(SEED))
    check = lambda b: w.check_clt(b, SEED, T, R)  # noqa: E731
    yield "clt genuine", check(clt), True
    yield "clt variance 1.2", check(edit_json(clt, lambda t: t["summary"]["standardized_moments"].update(variance=1.2))), False
    yield "clt wrong seed echoed", w.check_clt(clt, SEED + 1, T, R), False

    T, R = 205, 2000
    acf = digar("experiment", "acf", "-T", str(T), "-R", str(R), "--seed", str(SEED))
    check = lambda b: w.check_acf(b, SEED, T, R, 200, 4)  # noqa: E731

    def far(tree):
        row = tree["rows"][1]
        row["xi_empirical"] = row["xi_theory"] + 10 * row["xi_mc_se"]

    yield "acf genuine", check(acf), True
    yield "acf value 10 SE off", check(edit_json(acf, far)), False

    T = 100_000
    path = tmp / "path.csv"
    digar("simulate", "-T", str(T), "--seed", str(SEED), "--out", str(path))
    csv = path.read_bytes()
    est = digar("estimate", "--in", str(path))
    direct = digar("estimate", "-T", str(T), "--seed", str(SEED))
    yield "path csv genuine", w.check_path_csv(csv, T), True
    text = csv.decode()
    mid = text.index("\n", len(text) // 2) + 1  # start of a row half way down
    yield "path csv one digit changed", w.check_path_csv(bump_digit(text, text.index(",", mid) + 4).encode(), T), False
    yield "path csv row dropped", w.check_path_csv((text[:mid] + text[text.index("\n", mid) + 1:]).encode(), T), False
    yield "estimate genuine", w.check_estimate(est, T, direct), True
    yield "estimate differs from direct", w.check_estimate(est, T, bump_digit(direct.decode(), 60).encode()), False

    for phi, rho in (("0.5", "0.3"), ("0.9999", "0.999")):
        lim = digar("limits", "--phi", phi, "--rho", rho)
        check = lambda b: w.check_limits(b, float(phi), float(rho))  # noqa: E731
        yield f"limits {phi},{rho} genuine", check(lim), True
        for field in ("vbar", "S", "bias", "eta_bar"):
            yield f"limits {phi},{rho} {field} off in 6th digit", check(sixth_digit_off(lim, field)), False


def refusal_cases(tmp: Path):
    """Exit 3 is a wrong result except from the one limits point that is
    allowed to refuse, where it only counts as a failed operation."""
    ops = w.WORKLOADS["limits_edge"].ops(SEED, tmp)
    marked = [op.may_refuse for op in ops]
    yield "only the last limits point may refuse", [] if marked == [False, False, True] else [f"may_refuse {marked}"], True
    for i, op in enumerate(ops):
        v = Verifier()
        v.record(i, op, Proc(rc=3, wall=0.1, cpu=0.1, rss_mb=1.0, stderr="error: did not converge"))
        problems = list(v.wrong.values()) + ([] if v.failed == 1 else ["exit 3 not counted as failed"])
        yield f"exit 3 from limits point {i}", problems, op.may_refuse
    v = Verifier()
    v.record(0, w.WORKLOADS["clt"].ops(SEED, tmp)[0], Proc(rc=3, wall=0.1, cpu=0.1, rss_mb=1.0, stderr="error"))
    yield "exit 3 from experiment clt", list(v.wrong.values()), False


def main() -> int:
    ok = True
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name, problems, should_pass in (*refusal_cases(Path(tmp)), *cases(Path(tmp))):
            good = (not problems) == should_pass
            ok &= good
            verdict = "accepted" if not problems else f"rejected: {problems[0]}"
            print(f"{'ok ' if good else 'BAD'} {name}: {verdict}")
    try:
        work.rmdir()
    except OSError:  # another run is using it
        pass
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
