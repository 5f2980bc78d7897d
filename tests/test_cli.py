import json

import pytest

from digar import (
    DEFAULT_PHI_GRID,
    DEFAULT_RHO_GRID,
    BatchSpec,
    ModelParams,
    dependence_profile,
    empirical_acf_experiment,
    infeasible_estimate,
    ols_bias,
    run_consistency_experiment,
    simulate_path,
    stationary_sd,
    variance_sequence,
    vbar_curve,
    vbar_limit,
)
from digar.cli import DEFAULT_SEED, main, parse_and_dispatch

P = ModelParams(0.5, 0.3, 1.0)


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "limits", "--bogus", "1")
        assert code == 2

    def test_experiment_requires_kind(self, capsys):
        code, _, _ = run_cli(capsys, "experiment")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--help",),
            ("limits", "--help"),
            ("variance-path", "--help"),
            ("simulate", "--help"),
            ("estimate", "--help"),
            ("experiment", "--help"),
            ("experiment", "consistency", "--help"),
            ("experiment", "clt", "--help"),
            ("experiment", "acf", "--help"),
            ("figure", "vbar", "--help"),
            ("figure", "bias", "--help"),
        ],
    )
    def test_help_exits_cleanly(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "usage" in out.lower()

    def test_main_wrapper(self, capsys):
        assert main(["limits"]) == 0
        capsys.readouterr()


class TestLimits:
    def test_output_matches_module_values(self, capsys):
        code, out, err = run_cli(capsys, "limits", "--phi", "0.5", "--rho", "0.3")
        assert code == 0
        prof = dependence_profile(P)
        expected = (
            f"vbar    = {vbar_limit(P):.7g}\n"
            f"S       = {stationary_sd(P):.7g}\n"
            f"tau_bar = {prof.tau_bar:.7g}\n"
            f"bias    = {prof.ols_bias:.7g}\n"
            f"eta_bar = {prof.eta_bar:.7g}\n"
            f"eta_hat = {prof.eta_hat:.7g}\n"
        )
        assert out == expected

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "limits.txt"
        code, out, _ = run_cli(capsys, "limits", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("vbar    = ")

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--phi", "1.0")
        assert code == 3
        assert err.startswith("error:")
        assert "phi" in err

    def test_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "limits", "--out", str(tmp_path / "no" / "dir.txt"))
        assert code == 4
        assert err.startswith("io error:")


class TestVariancePath:
    def test_values_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "variance-path", "-T", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,v"
        assert len(lines) == 51
        vseq = variance_sequence(P, 50)
        for t, line in enumerate(lines[1:], start=1):
            idx, val = line.split(",")
            assert int(idx) == t
            assert float(val) == vseq.value_at(t)

    def test_zero_horizon(self, capsys):
        code, _, err = run_cli(capsys, "variance-path", "-T", "0")
        assert code == 3
        assert err.startswith("error:")


class TestSimulate:
    def test_csv_round_trip_exactly(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "-T", "20", "--seed", "4")
        assert code == 0
        assert "seed = 4" in err
        lines = out.strip().split("\n")
        assert lines[0] == "t,y,xi"
        assert lines[1] == "0,0,"
        assert len(lines) == 22
        path = simulate_path(P, 20, 4)
        for t, line in enumerate(lines[2:], start=1):
            idx, y_s, xi_s = line.split(",")
            assert int(idx) == t
            assert float(y_s) == path.y[t]
            assert float(xi_s) == path.xi[t - 1]

    def test_json_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-T", "20", "--seed", "4", "--format", "json"
        )
        assert code == 0
        tree = json.loads(out)
        path = simulate_path(P, 20, 4)
        assert tree["phi"] == 0.5
        assert tree["rho"] == 0.3
        assert tree["sigma_xi"] == 1.0
        assert tree["seed"] == 4
        assert tree["y"] == path.y.tolist()
        assert tree["xi"] == path.xi.tolist()

    def test_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert parse_and_dispatch(["simulate", "-T", "30", "--out", str(a)]) == 0
        assert parse_and_dispatch(["simulate", "-T", "30", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_banner(self, capsys):
        _, _, err = run_cli(capsys, "simulate", "-T", "2")
        assert f"seed = {DEFAULT_SEED}" in err

    def test_bad_horizon(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-T", "0")
        assert code == 3


class TestEstimate:
    def test_fresh_simulation_matches_module(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "-T", "200", "--seed", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi_hat,phi_tilde,correction,sample_size"
        hat_s, tilde_s, corr_s, n_s = lines[1].split(",")
        res = infeasible_estimate(simulate_path(P, 200, 4), variance_sequence(P, 200))
        assert float(hat_s) == res.phi_hat
        assert float(tilde_s) == res.phi_tilde
        assert float(corr_s) == res.correction
        assert int(n_s) == 200

    def test_estimate_from_file_matches_fresh_run(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        assert parse_and_dispatch(
            ["simulate", "-T", "200", "--seed", "4", "--out", str(path_file)]
        ) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "estimate", "--in", str(path_file), "--format", "json"
        )
        assert code == 0
        tree = json.loads(out)
        res = infeasible_estimate(simulate_path(P, 200, 4), variance_sequence(P, 200))
        assert tree["phi_hat"] == res.phi_hat
        assert tree["phi_tilde"] == res.phi_tilde
        assert tree["correction"] == res.correction
        assert tree["sample_size"] == 200
        assert tree["seed"] is None

    def test_csv_across_write_pieces_round_trips_exactly(self, capsys, tmp_path):
        # The CSV is written in pieces of 65,536 rows; this path crosses
        # a piece boundary, and no row may be lost, repeated or altered.
        T = 65_536 + 5
        path_file = tmp_path / "path.csv"
        assert parse_and_dispatch(
            ["simulate", "-T", str(T), "--seed", "11", "--out", str(path_file)]
        ) == 0
        capsys.readouterr()
        path = simulate_path(P, T, 11)
        lines = path_file.read_text().split("\n")
        assert lines[:2] == ["t,y,xi", "0,0,"]
        assert lines[-1] == ""
        assert len(lines) == T + 3
        for t, line in enumerate(lines[2:-1], start=1):
            idx, y_s, xi_s = line.split(",")
            assert int(idx) == t
            assert float(y_s) == path.y[t]
            assert float(xi_s) == path.xi[t - 1]
        code, out, _ = run_cli(capsys, "estimate", "--in", str(path_file), "--format", "json")
        assert code == 0
        tree = json.loads(out)
        res = infeasible_estimate(path, variance_sequence(P, T))
        assert (tree["phi_hat"], tree["phi_tilde"]) == (res.phi_hat, res.phi_tilde)
        assert tree["correction"] == res.correction
        assert tree["sample_size"] == T

    def test_fresh_json_reports_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "-T", "150", "--seed", "9", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--in", str(tmp_path / "nope.csv"))
        assert code == 4
        assert err.startswith("io error:")

    def test_bad_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0,0,\n")
        code, _, err = run_cli(capsys, "estimate", "--in", str(bad))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("line, t", [(2, "foo"), (3, "7"), (4, "-3"), (5, "bar")])
    def test_wrong_t_column(self, capsys, tmp_path, line, t):
        # row i of a path file must read t = i
        path_file = tmp_path / "path.csv"
        parse_and_dispatch(["simulate", "-T", "3", "--seed", "4", "--out", str(path_file)])
        capsys.readouterr()
        rows = path_file.read_text().splitlines(keepends=True)
        rows[line - 1] = t + rows[line - 1][1:]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(rows))
        code, _, err = run_cli(capsys, "estimate", "--in", str(bad))
        assert code == 3
        assert err == f"error: {bad}:{line}: expected t = {line - 2}, got {t!r}\n"

    def test_wrong_parameters_for_file(self, capsys, tmp_path):
        # the loaded path must satisfy the recursion at the declared phi
        path_file = tmp_path / "path.csv"
        parse_and_dispatch(["simulate", "-T", "50", "--seed", "4", "--out", str(path_file)])
        capsys.readouterr()
        code, _, err = run_cli(capsys, "estimate", "--in", str(path_file), "--phi", "0.6")
        assert code == 3
        assert err.startswith("error:")


class TestExperimentCli:
    def test_consistency_tree_matches_module(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "consistency", "-T", "100", "-R", "100", "--seed", "7"
        )
        assert code == 0
        assert "seed = 7" in err
        tree = json.loads(out)
        hat, tilde = run_consistency_experiment(BatchSpec(P, 100, 100, 7))
        assert tree["experiment"] == "consistency"
        assert tree["ols"] == hat.as_tree()
        assert tree["corrected"] == tilde.as_tree()

    def test_acf_tree_matches_module(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment", "acf",
            "-T", "208", "-R", "30", "--seed", "888",
            "--t-obs", "200", "--k-max", "2",
        )
        assert code == 0
        tree = json.loads(out)
        table = empirical_acf_experiment(BatchSpec(P, 208, 30, 888), 200, 2)
        assert tree["experiment"] == "acf"
        assert tree["k_max"] == 2
        assert tree["t_obs"] == 200
        assert tree["rows"] == table.as_tree()["rows"]

    def test_clt_precondition_via_cli(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "clt", "-T", "100", "-R", "1000")
        assert code == 3
        assert "error:" in err

    def test_deterministic_output(self, capsys, tmp_path):
        # 600 replications span a full block and a shorter last one.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for R in ("100", "600"):
            argv = ["experiment", "consistency", "-T", "100", "-R", R, "--seed", "7"]
            assert parse_and_dispatch(argv + ["--out", str(a)]) == 0
            assert parse_and_dispatch(argv + ["--out", str(b)]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes(), R

    def test_worker_count_invariance(self, capsys, tmp_path, monkeypatch):
        # DIGAR_THREADS is no longer read; a value left in the environment
        # must not change the output.
        argv = ["experiment", "consistency", "-T", "100", "-R", "600", "--seed", "7"]
        serial = tmp_path / "serial.json"
        threaded = tmp_path / "threaded.json"
        monkeypatch.delenv("DIGAR_THREADS", raising=False)
        assert parse_and_dispatch(argv + ["--out", str(serial)]) == 0
        monkeypatch.setenv("DIGAR_THREADS", "4")
        assert parse_and_dispatch(argv + ["--out", str(threaded)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == threaded.read_bytes()


class TestFigure:
    def test_vbar_values_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "vbar")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,rho,value"
        assert len(lines) == 43
        table = vbar_curve(DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, 1.0)
        for line, row in zip(lines[1:], table.rows):
            phi_s, rho_s, val_s = line.split(",")
            assert (float(phi_s), float(rho_s), float(val_s)) == row

    def test_bias_custom_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "figure", "bias",
            "--phi-list", "0.5",
            "--rho-grid=-0.3,0.0,0.3",
            "--sigma", "2.0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        for line, rho in zip(lines[1:], (-0.3, 0.0, 0.3)):
            phi_s, rho_s, val_s = line.split(",")
            assert float(phi_s) == 0.5
            assert float(rho_s) == rho
            assert float(val_s) == ols_bias(ModelParams(0.5, rho, 2.0))

    def test_bad_float_list(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "vbar", "--phi-list", "0.5,oops")
        assert code == 2

    def test_out_of_range_grid(self, capsys):
        code, _, err = run_cli(capsys, "figure", "vbar", "--phi-list", "1.0")
        assert code == 3
        assert err.startswith("error:")
