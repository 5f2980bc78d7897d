"""Workloads of the digar benchmark and the checks on their outputs.

Each workload is a fixed list of `digar` CLI commands.  Every command
writes one output file, and every output is checked against values the
benchmark derives on its own (closed forms, sampling bounds, exact
recurrences), so a fast but wrong program cannot pass.

A checker takes the output bytes and the request and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable

import numpy as np

# Model parameters of every randomized workload: the CLI defaults.
PHI, RHO, SIGMA = 0.5, 0.3, 1.0

Check = Callable[[bytes], "list[str]"]


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv (without the program), its output file
    and the check its output must pass.  Only a command marked may_refuse
    may exit 3 (the CLI's domain error) without making the run wrong; it
    still counts as a failed operation."""

    argv: list[str]
    out: Path
    check: Check
    may_refuse: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # Work units per iteration: simulated steps, or limit points for
    # limits_edge; steps_per_s divides them by the iteration's wall time.
    steps: int
    ops: Callable[[int, Path], "list[Op]"]
    # Reference outputs computed once per run, outside the timed loop:
    # (argv, output file name) pairs whose bytes some check compares with.
    references: Callable[[int, Path], "list[tuple[list[str], Path]]"] = lambda seed, work: []
    # Batch shape (R, T) drawn through the batch route, for the traced
    # run's direct RNG fill; None where the batch route is unused.
    batch: tuple[int, int] | None = None


# ---------------------------------------------------------------- closed forms


def _dec(x: float) -> Decimal:
    return Decimal(float(x))


def closed_forms(phi: float, rho: float, sigma: float = 1.0) -> dict[str, Decimal]:
    """vbar, S, tau_bar, bias and eta_bar at 50 digits, from the binary
    values the CLI parses."""
    p, r, s = _dec(phi), _dec(rho), _dec(sigma)
    with localcontext(prec=50):
        vbar = s * (r * p + (r * r * p * p + 1 - p * p).sqrt()) / (1 - p * p)
        bias = r * s / vbar
        return {
            "vbar": vbar,
            "S": s / (1 - p * p).sqrt(),
            "tau_bar": p + bias,
            "bias": bias,
            "eta_bar": s * (1 - r * r).sqrt() / vbar,
        }


def delta_limit(phi: float, rho: float, k: int, sigma: float = 1.0) -> float:
    """Large-t correlation of (xi_t, xi_{t+k})."""
    cf = closed_forms(phi, rho, sigma)
    vb, tb, p = cf["vbar"], cf["tau_bar"], _dec(phi)
    with localcontext(prec=50):
        return float(vb * vb * tb ** (k - 1) * (tb - p) * (1 - p * tb) / _dec(sigma) ** 2)


def _agrees_7g(printed: float, exact: Decimal) -> bool:
    """True when printed is exact rounded to 7 significant digits."""
    if exact == 0:
        return printed == 0.0
    with localcontext(prec=50):
        half_unit = Decimal(10) ** (exact.copy_abs().adjusted() - 6) / 2
        return abs(_dec(printed) - exact) <= half_unit * (1 + Decimal("1e-9"))


# --------------------------------------------------------------------- checks


def _spec_problems(spec: dict, want: dict) -> list[str]:
    return [f"spec.{k} = {spec.get(k)!r}, requested {v!r}" for k, v in want.items() if spec.get(k) != v]


def check_clt(data: bytes, seed: int, T: int, R: int) -> list[str]:
    """Studentized statistic of `experiment clt` is close to N(0, 1).

    Bounds sit at least 4.5 sampling SDs from their centre at R = 2000:
    the variance's SD is about 0.03, the mean's 0.022 around a finite-T
    bias of about -0.02, and the KS distance under N(0, 1) exceeds 0.06
    with probability 1e-6 before that bias adds about 0.012.
    """
    tree = json.loads(data)
    s = tree["summary"]
    problems = _spec_problems(
        s["spec"],
        {"phi": PHI, "rho": RHO, "sigma_xi": SIGMA, "path_length": T, "replications": R, "master_seed": seed},
    )
    if tree.get("experiment") != "clt" or tree.get("true_phi") != PHI or s["target"] != PHI:
        problems.append("experiment, true_phi or target differ from the request")
    m = s["standardized_moments"]
    if not 0.85 <= m["variance"] <= 1.15:
        problems.append(f"studentized variance {m['variance']!r} outside [0.85, 1.15]")
    if not abs(m["mean"]) < 0.15:
        problems.append(f"|studentized mean| {abs(m['mean'])!r} >= 0.15")
    if not 0.0 <= s["ks_distance"] < 0.07:
        problems.append(f"KS distance {s['ks_distance']!r} outside [0, 0.07)")
    return problems


def check_acf(data: bytes, seed: int, T: int, R: int, t_obs: int, k_max: int) -> list[str]:
    """Each empirical autocorrelation lies within 4 MC SEs of its theory
    column, and the theory columns equal the closed-form limits."""
    tree = json.loads(data)
    problems = _spec_problems(
        tree["spec"],
        {"phi": PHI, "rho": RHO, "sigma_xi": SIGMA, "path_length": T, "replications": R, "master_seed": seed},
    )
    if tree.get("t_obs") != t_obs or tree.get("k_max") != k_max or len(tree["rows"]) != k_max:
        problems.append("t_obs, k_max or the row count differ from the request")
    tau = float(closed_forms(PHI, RHO)["tau_bar"])
    for row in tree["rows"]:
        k = row["k"]
        for col, theory in (("y", tau**k), ("xi", delta_limit(PHI, RHO, k))):
            emp, th, se = row[f"{col}_empirical"], row[f"{col}_theory"], row[f"{col}_mc_se"]
            if not math.isclose(th, theory, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"k={k} {col}_theory {th!r} != closed form {theory!r}")
            if not (se > 0 and abs(emp - th) <= 4.0 * se):
                problems.append(f"k={k} {col}: |{emp!r} - {th!r}| > 4 * {se!r}")
    return problems


def check_path_csv(data: bytes, T: int) -> list[str]:
    """A `simulate` CSV: header, T+1 rows t = 0..T, Y_0 = 0, and the exact
    IEEE recurrence y_t = phi * y_{t-1} + xi_t on every row."""
    lines = data.decode().split("\n")
    if lines[0] != "t,y,xi" or lines[1] != "0,0,":
        return [f"bad header or t=0 row: {lines[:2]!r}"]
    if lines[-1] != "" or len(lines) != T + 3:
        return [f"expected {T + 1} data rows, got {len(lines) - 2}"]
    try:
        cells = np.array(",".join(lines[2:-1]).split(","), dtype=float).reshape(T, 3)
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    problems = []
    if not np.array_equal(cells[:, 0], np.arange(1, T + 1)):
        problems.append("t column is not 1..T in order")
    y = np.concatenate(([0.0], cells[:, 1]))
    bad = np.flatnonzero(y[1:] != PHI * y[:-1] + cells[:, 2])
    if bad.size:
        problems.append(f"recurrence broken at {bad.size} rows, first t={int(bad[0]) + 1}")
    return problems


def check_estimate(data: bytes, T: int, reference: bytes | None) -> list[str]:
    """`estimate` output: both slopes near their limits at T = 1e6 (SD
    about 9e-4), phi_tilde = phi_hat - correction, and the same bytes as
    the reference run that estimates the in-memory path."""
    lines = data.decode().split("\n")
    if lines[0] != "phi_hat,phi_tilde,correction,sample_size" or len(lines) != 3:
        return [f"bad estimate output: {lines!r}"]
    hat, tilde, corr, n = lines[1].split(",")
    hat, tilde, corr = float(hat), float(tilde), float(corr)
    problems = []
    if int(n) != T:
        problems.append(f"sample_size {n} != {T}")
    if tilde != hat - corr:
        problems.append("phi_tilde != phi_hat - correction")
    tau = float(closed_forms(PHI, RHO)["tau_bar"])
    if not abs(hat - tau) < 0.01:
        problems.append(f"|phi_hat - tau_bar| = {abs(hat - tau)!r} >= 0.01")
    if not abs(tilde - PHI) < 0.01:
        problems.append(f"|phi_tilde - phi| = {abs(tilde - PHI)!r} >= 0.01")
    if reference is not None and data != reference:
        problems.append("estimate --in differs from estimating the in-memory path")
    return problems


def check_limits(data: bytes, phi: float, rho: float) -> list[str]:
    """`limits` output: vbar, S, tau_bar, bias and eta_bar equal the
    closed forms at 7 significant digits; eta_hat lies in [|tau_bar|, 1]."""
    got = {}
    for line in data.decode().splitlines():
        key, _, value = line.partition("=")
        got[key.strip()] = float(value)
    want = closed_forms(phi, rho)
    if set(got) != set(want) | {"eta_hat"}:
        return [f"unexpected fields {sorted(got)}"]
    problems = [
        f"{k} = {got[k]!r}, closed form {float(v)!r}" for k, v in want.items() if not _agrees_7g(got[k], v)
    ]
    lo = abs(want["tau_bar"])
    if not (_dec(got["eta_hat"]) >= lo or _agrees_7g(got["eta_hat"], lo)) or got["eta_hat"] > 1.0:
        problems.append(f"eta_hat {got['eta_hat']!r} outside [|tau_bar|, 1]")
    return problems


# ------------------------------------------------------------------ workloads


def _clt_ops(seed: int, work: Path) -> list[Op]:
    out = work / "clt.json"
    return [Op(["experiment", "clt", "--seed", str(seed), "--out", str(out)], out,
               lambda b: check_clt(b, seed, 10_000, 2000))]


def _acf_ops(seed: int, work: Path) -> list[Op]:
    out = work / "acf.json"
    argv = ["experiment", "acf", "-T", "250", "-R", "50000", "--t-obs", "200", "--k-max", "4"]
    return [Op(argv + ["--seed", str(seed), "--out", str(out)], out,
               lambda b: check_acf(b, seed, 250, 50_000, 200, 4))]


PATH_T = 1_000_000


def _path_refs(seed: int, work: Path) -> list[tuple[list[str], Path]]:
    out = work / "estimate_direct.csv"
    return [(["estimate", "-T", str(PATH_T), "--seed", str(seed), "--out", str(out)], out)]


def _path_ops(seed: int, work: Path) -> list[Op]:
    csv_out, est_out = work / "path.csv", work / "estimate.csv"
    ref = work / "estimate_direct.csv"
    return [
        Op(["simulate", "-T", str(PATH_T), "--seed", str(seed), "--out", str(csv_out)], csv_out,
           lambda b: check_path_csv(b, PATH_T)),
        Op(["estimate", "--in", str(csv_out), "--out", str(est_out)], est_out,
           lambda b: check_estimate(b, PATH_T, ref.read_bytes() if ref.exists() else None)),
    ]


# The last point exits 3 ("did not converge") at the time this benchmark
# was written; it stays in, may refuse, and a refusal counts as a failed
# operation.  Once it converges its output is checked like the others.
LIMIT_POINTS = (("0.9999", "0.999"), ("0.99999", "0.9999"), ("0.999999", "0.999999"))


def _limits_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for i, (phi, rho) in enumerate(LIMIT_POINTS):
        out = work / f"limits{i}.txt"
        ops.append(Op(["limits", "--phi", phi, "--rho", rho, "--out", str(out)], out,
                      lambda b, p=float(phi), r=float(rho): check_limits(b, p, r),
                      may_refuse=i == len(LIMIT_POINTS) - 1))
    return ops


WORKLOADS = {
    "clt": Workload("clt", 2000 * 10_000, _clt_ops, batch=(2000, 10_000)),
    "acf_wide": Workload("acf_wide", 50_000 * 250, _acf_ops, batch=(50_000, 250)),
    "path_roundtrip": Workload("path_roundtrip", PATH_T, _path_ops, references=_path_refs),
    "limits_edge": Workload("limits_edge", len(LIMIT_POINTS), _limits_ops),
}
