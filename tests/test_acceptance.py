"""End-to-end acceptance checks, one test per shipping criterion.

Each test records a single 'criterion N: PASS/FAIL' line and then
asserts; conftest echoes the scoreboard in the terminal summary, so a
plain pytest run shows all nine lines at the end.  Monte Carlo bands are
3 MC standard errors plus a small finite-horizon mean-bias allowance of
2*(1+3*|target|)/T, and every randomized criterion is pinned to master
seed 12345.
"""

import math
import time

import conftest
import numpy as np
import pytest

from digar import (
    BatchSpec,
    ModelParams,
    delta_limit,
    empirical_acf_experiment,
    eta_bar,
    run_clt_experiment,
    run_consistency_experiment,
    stationary_sd,
    tau_bar,
    variance_sequence,
    vbar_limit,
)
from digar.cli import DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, main
from oracles import variance_sum_sequence

P = ModelParams(0.5, 0.3, 1.0)
P0 = ModelParams(0.5, 0.0, 1.0)
MASTER = 12345


def _report(n: int, ok: bool, desc: str) -> None:
    conftest.ACCEPTANCE_LINES.append(
        f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    )


def _allowance(target: float, T: int) -> float:
    return 2.0 * (1.0 + 3.0 * abs(target)) / T


@pytest.fixture(scope="module")
def consistency_run():
    t0 = time.perf_counter()
    hat, tilde = run_consistency_experiment(BatchSpec(P, 5000, 500, MASTER))
    return hat, tilde, time.perf_counter() - t0


@pytest.fixture(scope="module")
def clt_run():
    t0 = time.perf_counter()
    summary = run_clt_experiment(BatchSpec(P, 10000, 2000, MASTER))
    return summary, time.perf_counter() - t0


def test_criterion_1_variance_oracle_agreement():
    rng = np.random.default_rng(20240819)
    T = 2000
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            rng.uniform(-0.95, 0.95),
            rng.uniform(-0.95, 0.95),
            rng.uniform(0.1, 10.0),
        )
        fast = variance_sequence(params, T)
        slow = variance_sum_sequence(params, T)
        worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        1,
        ok,
        f"one-step recursion vs expanded sum form, 20 random parameter sets, "
        f"T={T}: worst rel dev {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)",
    )
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_variance_limit_fixed_point():
    worst_quad = 0.0
    worst_iter = 0.0
    for phi in DEFAULT_PHI_GRID:
        for rho in DEFAULT_RHO_GRID:
            p = ModelParams(phi, rho, 1.0)
            vb = vbar_limit(p)
            quad = (1.0 - phi * phi) * vb * vb - 2.0 * rho * phi * p.sigma_xi * vb - p.sigma_xi**2
            worst_quad = max(worst_quad, abs(quad) / max(1.0, vb * vb))

            v = p.sigma_xi  # V_1, iterate the one-step variance map to its limit
            for _ in range(10000):
                nxt = math.sqrt(phi * phi * v * v + 2.0 * phi * rho * p.sigma_xi * v + p.sigma_xi**2)
                if abs(nxt - v) <= 1e-15 * v:
                    v = nxt
                    break
                v = nxt
            worst_iter = max(worst_iter, abs(vb - v) / v)
    ok = worst_quad <= 1e-12 and worst_iter <= 1e-8
    _report(
        2,
        ok,
        f"vbar solves the limit quadratic (worst {worst_quad:.2e} <= 1e-12) and "
        f"matches fixed-point iteration (worst {worst_iter:.2e} <= 1e-8) on the 6x7 grid",
    )
    assert worst_quad <= 1e-12
    assert worst_iter <= 1e-8


def test_criterion_3_plain_slope_inconsistency(consistency_run):
    hat, _, elapsed = consistency_run
    target = tau_bar(P)
    band = 3.0 * hat.mc_standard_error + _allowance(target, hat.spec.path_length)
    dev = abs(hat.estimate_mean - target)
    separation = abs(hat.estimate_mean - P.phi)
    ok = dev <= band and separation >= 10.0 * hat.mc_standard_error and elapsed < 60.0
    _report(
        3,
        ok,
        f"mean plain slope {hat.estimate_mean:.5f} within {band:.2e} of tau_bar "
        f"{target:.5f} and {separation / hat.mc_standard_error:.0f} MC SEs away from "
        f"phi=0.5 (>=10), {elapsed:.1f}s (<60s)",
    )
    assert dev <= band
    assert separation >= 10.0 * hat.mc_standard_error
    assert elapsed < 60.0


def test_criterion_4_corrected_slope_consistency(consistency_run):
    _, tilde, _ = consistency_run
    band = 3.0 * tilde.mc_standard_error + _allowance(P.phi, tilde.spec.path_length)
    dev = abs(tilde.estimate_mean - P.phi)
    ok = dev <= band
    _report(
        4,
        ok,
        f"mean corrected slope {tilde.estimate_mean:.5f} within {band:.2e} of phi=0.5",
    )
    assert dev <= band


def test_criterion_5_studentized_limit(clt_run):
    summary, elapsed = clt_run
    m = summary.standardized_moments
    neg_control_var = m.variance / eta_bar(P) ** 2  # rescaled as if eta_bar^2 were used
    ok = (
        0.9 <= m.variance <= 1.1
        and abs(m.mean) < 0.07
        and summary.ks_distance < 0.035
        and not 0.9 <= neg_control_var <= 1.1
        and elapsed < 180.0
    )
    _report(
        5,
        ok,
        f"studentized statistic at T=10000, R=2000: var {m.variance:.4f} in [0.9,1.1], "
        f"|mean| {abs(m.mean):.4f} < 0.07, KS {summary.ks_distance:.4f} < 0.035; "
        f"negative control var {neg_control_var:.3f} outside the band; "
        f"{elapsed:.1f}s (<3min)",
    )
    assert 0.9 <= m.variance <= 1.1
    assert abs(m.mean) < 0.07
    assert summary.ks_distance < 0.035
    assert not 0.9 <= neg_control_var <= 1.1
    assert elapsed < 180.0


def test_criterion_6_classical_reduction():
    hat, tilde = run_consistency_experiment(BatchSpec(P0, 5000, 500, MASTER))
    band = 3.0 * tilde.mc_standard_error + _allowance(P0.phi, 5000)
    consistent = abs(tilde.estimate_mean - 0.5) <= band
    collapsed = hat.estimate_mean == tilde.estimate_mean and hat.estimate_sd == tilde.estimate_sd

    summary = run_clt_experiment(BatchSpec(P0, 10000, 2000, MASTER))
    m = summary.standardized_moments
    clt_ok = (
        0.9 <= m.variance <= 1.1
        and abs(m.mean) < 0.07
        and abs(m.skewness) < 0.15
        and summary.ks_distance < 0.035
    )

    eta_classical = math.sqrt(1.0 - P0.phi**2)
    eta_ok = eta_bar(P0) == pytest.approx(eta_classical, rel=1e-14)

    ok = consistent and collapsed and clt_ok and eta_ok
    _report(
        6,
        ok,
        f"rho=0 reduction: plain and corrected estimators coincide, mean "
        f"{tilde.estimate_mean:.5f} near 0.5, CLT bands hold "
        f"(var {m.variance:.4f}, KS {summary.ks_distance:.4f}), "
        f"eta_bar = sqrt(1-phi^2)",
    )
    assert collapsed
    assert consistent
    assert clt_ok
    assert eta_ok


def test_criterion_7_autocorrelation_limits():
    t0 = time.perf_counter()
    table = empirical_acf_experiment(BatchSpec(P, 204, 5000, MASTER), 200, 4)
    elapsed = time.perf_counter() - t0
    tb = tau_bar(P)
    y_ok = all(abs(r.y_empirical - tb**r.k) <= 3.0 * r.y_mc_se for r in table.rows)
    xi_ok = all(
        abs(r.xi_empirical - delta_limit(P, r.k)) <= 3.0 * r.xi_mc_se
        for r in table.rows
        if r.k <= 3
    )
    ok = y_ok and xi_ok and elapsed < 120.0
    worst_y = max(abs(r.y_empirical - tb**r.k) / r.y_mc_se for r in table.rows)
    worst_x = max(
        abs(r.xi_empirical - delta_limit(P, r.k)) / r.xi_mc_se for r in table.rows if r.k <= 3
    )
    _report(
        7,
        ok,
        f"cross-sectional acf at t=200, R=5000: levels k=1..4 within 3 MC SEs "
        f"(worst {worst_y:.2f}), innovations k=1..3 within 3 MC SEs "
        f"(worst {worst_x:.2f}), {elapsed:.1f}s (<2min)",
    )
    assert y_ok
    assert xi_ok
    assert elapsed < 120.0


def test_criterion_8_figure_reproduction(tmp_path, capsys):
    vbar_csv = tmp_path / "vbar.csv"
    bias_csv = tmp_path / "bias.csv"
    assert main(["figure", "vbar", "--out", str(vbar_csv)]) == 0
    assert main(["figure", "bias", "--out", str(bias_csv)]) == 0
    capsys.readouterr()

    def load(path):
        rows = {}
        for line in path.read_text().strip().split("\n")[1:]:
            phi_s, rho_s, val_s = line.split(",")
            rows[(float(phi_s), float(rho_s))] = float(val_s)
        return rows

    vbar_rows = load(vbar_csv)
    bias_rows = load(bias_csv)

    sign_ok = True
    for (phi, rho), v in vbar_rows.items():
        s = stationary_sd(ModelParams(phi, rho, 1.0))
        if phi * rho > 0:
            sign_ok &= v > s
        elif phi * rho < 0:
            sign_ok &= v < s
        else:
            sign_ok &= v == pytest.approx(s, rel=1e-12)

    mono_ok = True
    for phi in DEFAULT_PHI_GRID:
        col = [bias_rows[(phi, rho)] for rho in DEFAULT_RHO_GRID]
        mono_ok &= all(a < b for a, b in zip(col, col[1:]))

    damp_ok = True
    for rho in DEFAULT_RHO_GRID:
        if rho > 0:
            damp_ok &= abs(bias_rows[(0.9, rho)]) < abs(bias_rows[(-0.9, rho)])
        elif rho < 0:
            damp_ok &= abs(bias_rows[(-0.9, rho)]) < abs(bias_rows[(0.9, rho)])

    ok = sign_ok and mono_ok and damp_ok
    _report(
        8,
        ok,
        "curve CSVs show vbar > S iff rho*phi > 0, bias monotone increasing in rho, "
        "and smaller |bias| when feedback and persistence share a sign at |phi|=0.9",
    )
    assert sign_ok
    assert mono_ok
    assert damp_ok


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    outputs = []
    for name in ("a", "b", "c"):
        cons = tmp_path / f"cons_{name}.json"
        acf = tmp_path / f"acf_{name}.json"
        assert main(
            ["experiment", "consistency", "-T", "200", "-R", "600", "--seed", "7",
             "--out", str(cons)]
        ) == 0
        assert main(
            ["experiment", "acf", "-T", "208", "-R", "600", "--seed", str(MASTER),
             "--t-obs", "200", "--k-max", "3", "--out", str(acf)]
        ) == 0
        outputs.append((cons.read_bytes(), acf.read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(9, ok, "experiment outputs byte-identical across reruns")
    assert ok
