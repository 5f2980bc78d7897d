import csv
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from digar import (
    BatchSpec,
    ModelParams,
    OutOfRangeError,
    dependence_profile,
    empirical_acf_experiment,
    infeasible_estimate,
    ols_bias,
    run_consistency_experiment,
    simulate_path,
    stationary_sd,
    variance_sequence,
    vbar_limit,
)
from digar import cli, estimation, model, pathcsv, simulation
from digar.cli import DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, DEFAULT_SEED, main
from conftest import fresh_python, no_child_left, peak_rss
from oracles import read_path_csv

P = ModelParams(0.5, 0.3, 1.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    HELP = [
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
    ]

    @pytest.mark.parametrize("argv", HELP)
    def test_help_exits_cleanly(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "usage" in out.lower()

    @pytest.mark.parametrize("argv", HELP)
    def test_help_shows_each_default_once_and_never_none(self, capsys, argv):
        # The help formatter appends each option's default to its help text.
        _, out, _ = run_cli(capsys, *argv)
        assert "(default: None)" not in out
        assert all(line.count("(default:") <= 1 for line in out.splitlines())

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

    def test_rounded_tau_bar_refused(self, capsys):
        code, out, err = run_cli(capsys, "limits", "--phi", "0.999999", "--rho", "0.999999")
        assert code == 3
        assert out == ""
        assert err == (
            "error: |tau_bar| < 1 required, got 1.0: tau_bar rounds to +-1 in double precision,"
            " since the exact 1 - |tau_bar| is about 1e-18\n"
        )

    def test_near_boundary_with_opposite_signs(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--phi", "-0.999999", "--rho", "0.999999")
        assert code == 0
        assert out.endswith("tau_bar = 0.999996\nbias    = 1.999995\neta_bar = 0.002828422\neta_hat = 0.999999\n")

    @pytest.mark.parametrize("sigma", ["5e-324", "1e-320", "1e-300", "1e-170", "1e-100", "1e155", "1e300"])
    @pytest.mark.parametrize("phi, rho", [("0.9", "-0.9"), ("0.5", "0.3"), ("0.9", "0.9")])
    def test_scale_free_lines_at_any_sigma(self, capsys, phi, rho, sigma):
        # tau_bar, bias, eta_bar and eta_hat do not depend on sigma_xi, down
        # to the scales where sigma_xi's own arithmetic loses digits.  At a
        # subnormal sigma_xi, vbar is subnormal too, and refused by name
        # (TestScaleFree checks the four at every sigma_xi).
        _, unit, _ = run_cli(capsys, "limits", "--phi", phi, "--rho", rho)
        code, out, err = run_cli(capsys, "limits", "--phi", phi, "--rho", rho, "--sigma", sigma)
        if float(sigma) < sys.float_info.min:
            assert (code, out) == (3, "")
            assert err.startswith(f"error: vbar is below the smallest normal double at sigma_xi={sigma}, ")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[2:] == unit.splitlines()[2:]

    def test_overflowing_vbar_refused_by_name(self, capsys):
        # tau_bar and the rest are in range at this scale; vbar is not.
        code, out, err = run_cli(capsys, "limits", "--phi", "0.9", "--rho", "0.9", "--sigma", "1e308")
        assert (code, out) == (3, "")
        assert err == "error: vbar overflows a double at sigma_xi=1e+308\n"

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
        vs = variance_sequence(P, 50)
        for t, line in enumerate(lines[1:], start=1):
            idx, val = line.split(",")
            assert int(idx) == t
            assert float(val) == vs[t - 1]

    def test_zero_horizon(self, capsys):
        code, _, err = run_cli(capsys, "variance-path", "-T", "0")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("phi, rho", [(0.5, 0.3), (0.999999, 0.9)])
    def test_bytes_equal_the_whole_sequence_joined(self, capsys, phi, rho):
        # The rows are written in pieces of _PATH_CHUNK; this T spans three.
        T = 2 * simulation._PATH_CHUNK + 5
        vs = variance_sequence(ModelParams(phi, rho, 1.0), T)
        want = "\n".join(["t,v", *(f"{t},{format(float(v), '.17g')}" for t, v in enumerate(vs, 1))]) + "\n"
        flags = ("--phi", str(phi), "--rho", str(rho), "-T", str(T))
        assert run_cli(capsys, "variance-path", *flags) == (0, want, "")

    def test_memory_is_a_chunk(self, tmp_path):
        # Holding V_t and every row before writing peaked at 24.9 MiB here.
        tracemalloc.start()
        try:
            assert main(["variance-path", "-T", "200000", "--out", str(tmp_path / "v.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


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
        assert main(["simulate", "-T", "30", "--out", str(a)]) == 0
        assert main(["simulate", "-T", "30", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_banner(self, capsys):
        _, _, err = run_cli(capsys, "simulate", "-T", "2")
        assert f"seed = {DEFAULT_SEED}" in err

    def test_bad_horizon(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-T", "0")
        assert code == 3

    def test_overflowing_variance_refused(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-T", "5", "--sigma", "1e200")
        assert code == 3
        assert "error: variance sequence contains non-finite entries" in err


class TestLateVarianceRefusal:
    """V_15009 is the first non-finite V_t at (0.999999, 0.9, 1e150), many
    chunks into the path; every route must refuse T = 15009 before its
    first output byte, as when V_1..V_T was built whole first."""

    FLAGS = ("--phi", "0.999999", "--rho", "0.9", "--sigma", "1e150")
    ERR = "error: variance sequence contains non-finite entries\n"

    def test_simulate_refuses_before_creating_the_file(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, err = run_cli(capsys, "simulate", *self.FLAGS, "-T", "15009", "--out", str(out))
        assert (code, err) == (3, f"seed = {DEFAULT_SEED}\n" + self.ERR)
        assert not out.exists()
        code, _, _ = run_cli(capsys, "simulate", *self.FLAGS, "-T", "15008", "--out", str(out))
        assert code == 0

    def test_variance_path_refuses_before_creating_the_file(self, capsys, tmp_path):
        out = tmp_path / "v.csv"
        code, _, err = run_cli(capsys, "variance-path", *self.FLAGS, "-T", "15009", "--out", str(out))
        assert (code, err) == (3, self.ERR)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["estimate"], ["experiment", "consistency", "-R", "100"]])
    def test_batch_and_estimate_refuse(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, *self.FLAGS, "-T", "15009")
        assert (code, out) == (3, "")
        assert err == f"seed = {DEFAULT_SEED}\n" + self.ERR


class TestEstimate:
    def test_fresh_simulation_matches_module(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "-T", "200", "--seed", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi_hat,phi_tilde,correction,sample_size"
        hat_s, tilde_s, corr_s, n_s = lines[1].split(",")
        res = infeasible_estimate(simulate_path(P, 200, 4))
        assert float(hat_s) == res.phi_hat
        assert float(tilde_s) == res.phi_tilde
        assert float(corr_s) == res.correction
        assert int(n_s) == 200

    def test_estimate_from_file_matches_fresh_run(self, capsys, tmp_path):
        path_file = tmp_path / "path.csv"
        assert main(
            ["simulate", "-T", "200", "--seed", "4", "--out", str(path_file)]
        ) == 0
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "estimate", "--in", str(path_file), "--format", "json"
        )
        assert code == 0
        tree = json.loads(out)
        res = infeasible_estimate(simulate_path(P, 200, 4))
        assert tree["phi_hat"] == res.phi_hat
        assert tree["phi_tilde"] == res.phi_tilde
        assert tree["correction"] == res.correction
        assert tree["sample_size"] == 200
        assert tree["seed"] is None

    def test_csv_across_write_pieces_round_trips_exactly(self, capsys, tmp_path):
        # The CSV is written in pieces of simulation._PATH_CHUNK rows; this
        # path crosses many piece boundaries and ends in a partial piece,
        # and no row may be lost, repeated or altered.
        T = 65_536 + 5
        path_file = tmp_path / "path.csv"
        assert main(
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
        res = infeasible_estimate(path)
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
        main(["simulate", "-T", "3", "--seed", "4", "--out", str(path_file)])
        capsys.readouterr()
        rows = path_file.read_text().splitlines(keepends=True)
        rows[line - 1] = t + rows[line - 1][1:]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(rows))
        code, _, err = run_cli(capsys, "estimate", "--in", str(bad))
        assert code == 3
        assert err == f"error: {bad}:{line}: expected t = {line - 2}, got {t!r}\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_refused(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "-T", "200", "--sigma", "1e153")
        assert (code, out) == (3, "")
        assert err == f"seed = {DEFAULT_SEED}\n" + _SUMS_OVERFLOW

    @pytest.mark.parametrize("sigma", ["1e-158", "1e-160"])
    @pytest.mark.parametrize(
        "argv", [("estimate", "-T", "200"), ("experiment", "consistency", "-T", "100", "-R", "100")]
    )
    def test_subnormal_sums_refused(self, capsys, argv, sigma):
        code, out, err = run_cli(capsys, *argv, "--sigma", sigma)
        assert (code, out) == (3, "")
        assert err == f"seed = {DEFAULT_SEED}\n" + _SUMS_SUBNORMAL

    def test_wrong_parameters_for_file(self, capsys, tmp_path):
        # the loaded path must satisfy the recursion at the declared phi
        path_file = tmp_path / "path.csv"
        main(["simulate", "-T", "50", "--seed", "4", "--out", str(path_file)])
        capsys.readouterr()
        code, _, err = run_cli(capsys, "estimate", "--in", str(path_file), "--phi", "0.6")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("e", [-300, 0, 300])
    @pytest.mark.parametrize(
        "first, cells",
        [(2, lambda t, y, xi: (t, y, "0")), (1, lambda t, y, xi: (t, repr(3 * float(y)), xi))],
        ids=["zero_xi", "tripled_y"],
    )
    def test_broken_recursion_refused_at_any_scale(self, capsys, tmp_path, e, first, cells):
        # At sigma 1e-20 every |Y| is far below 1e-12, so any absolute
        # floor on the tolerance would let both corrupt copies through.
        sigma = repr(1e-20 * 2.0**e)
        path_file = tmp_path / "path.csv"
        argv = ["--sigma", sigma, "--seed", "7", "-T", "1000"]
        assert main(["simulate", *argv, "--out", str(path_file)]) == 0
        _, direct, _ = run_cli(capsys, "estimate", *argv)
        assert run_cli(capsys, "estimate", "--sigma", sigma, "--in", str(path_file)) == (0, direct, "")

        def edit(row):
            return ",".join(cells(*row.rstrip("\n").split(","))) + "\n"

        _edited_rows(path_file, {t: edit for t in range(first, 1001)})
        code, out, err = run_cli(capsys, "estimate", "--sigma", sigma, "--in", str(path_file))
        assert (code, out) == (3, "") and err.startswith("error: path violates y[t] = phi*y[t-1] + xi[t]")


def _set_field(line, k, new):
    def edit(rows):
        cells = rows[line].rstrip("\n").split(",")
        cells[k] = new
        rows[line] = ",".join(cells) + "\n"
        return rows

    return edit


def _quote_y(extra=""):
    # Quote row t = 2's y, with `extra` inside the quotes.
    return lambda rows: _set_field(3, 1, '"' + rows[3].split(",")[1] + extra + '"')(rows)


# Edits of the file `simulate -T 4 --seed 4` writes (rows[0] is the
# header, rows[1] the t = 0 row), each with the exit status, stdout and
# stderr ("{}" for the file name) that estimate --in printed for it when
# it read the whole file with csv.reader.  _EST_T4 was recorded again when
# each stream's PCG64 state came straight from SplitMix64, which moved
# the path.
_EST_T4 = (
    "phi_hat,phi_tilde,correction,sample_size\n"
    "1.1065220410509899,0.85543876639523675,0.2510832746557532,4\n"
)
_SUMS_OVERFLOW = "error: estimator sums or slopes are not finite (they overflow double precision)\n"
_SUMS_SUBNORMAL = (
    "error: sum of squared lagged values is subnormal, so its terms lost digits (the path is too small)\n"
)
READER_CONTRACT = {
    "crlf": (lambda rows: [r.replace("\n", "\r\n") for r in rows], 0, _EST_T4, ""),
    "blank_line": (lambda rows: rows[:3] + ["\n"] + rows[3:], 0, _EST_T4, ""),
    "quoted_y": (_quote_y(), 0, _EST_T4, ""),
    "space_before_y": (
        lambda rows: _set_field(3, 1, " " + rows[3].split(",")[1])(rows), 0, _EST_T4, ""
    ),
    "t0_row_y_0.0": (_set_field(1, 1, "0.0"), 0, _EST_T4, ""),
    "t0_row_y_0.5": (_set_field(1, 1, "0.5"), 3, "", "error: y[0] must be exactly 0, got 0.5\n"),
    "no_trailing_newline": (lambda rows: rows[:-1] + [rows[-1].rstrip("\n")], 0, _EST_T4, ""),
    "newline_inside_quoted_y": (_quote_y("\n"), 0, _EST_T4, ""),
    "t_1.0": (_set_field(2, 0, "1.0"), 3, "", "error: {}:3: expected t = 1, got '1.0'\n"),
    "t_space_1": (_set_field(2, 0, " 1"), 3, "", "error: {}:3: expected t = 1, got ' 1'\n"),
    "t_01": (_set_field(2, 0, "01"), 3, "", "error: {}:3: expected t = 1, got '01'\n"),
    "t_+1": (_set_field(2, 0, "+1"), 3, "", "error: {}:3: expected t = 1, got '+1'\n"),
    "t_3e0": (_set_field(4, 0, "3e0"), 3, "", "error: {}:5: expected t = 3, got '3e0'\n"),
    "four_fields": (
        lambda rows: rows[:3] + [rows[3].rstrip("\n") + ",0\n"] + rows[4:],
        3, "", "error: {}:4: expected 3 fields, got 4\n",
    ),
    # Row t = 2 takes row t = 3's xi: two commas per line on average.
    "fields_shifted": (
        lambda rows: rows[:3] + [rows[3].rstrip("\n") + ",3\n", rows[4].split(",", 1)[1]] + rows[5:],
        3, "", "error: {}:4: expected 3 fields, got 4\n",
    ),
    "empty_xi": (_set_field(3, 2, ""), 3, "", "error: {}:4: xi may be empty only at t=0\n"),
    "y_abc": (_set_field(3, 1, "abc"), 3, "", "error: {}:4: could not convert string to float: 'abc'\n"),
    # numpy reads a field of only whitespace as -1.
    "y_space": (_set_field(3, 1, " "), 3, "", "error: {}:4: could not convert string to float: ' '\n"),
    "xi_tab": (_set_field(3, 2, "\t"), 3, "", "error: {}:4: xi may be empty only at t=0\n"),
    "y_nan(1)": (
        _set_field(3, 1, "nan(1)"), 3, "", "error: {}:4: could not convert string to float: 'nan(1)'\n"
    ),
    "y_infinity": (_set_field(3, 1, "infinity"), 3, "", "error: path contains non-finite values\n"),
    "y_inf": (_set_field(3, 1, "inf"), 3, "", "error: path contains non-finite values\n"),
    # A refusal names the line its record opens on: a record that spans
    # two lines counts both, so row t = 3 opens on line 6.
    "blank_line_before_t0_row_then_bad_t": (
        lambda rows: _set_field(3, 0, "x")(rows[:1] + ["\n"] + rows[1:]),
        3, "", "error: {}:4: expected t = 1, got 'x'\n",
    ),
    "bad_t_after_two_line_record": (
        lambda rows: _set_field(4, 0, "x")(_quote_y("\n")(rows)),
        3, "", "error: {}:6: expected t = 3, got 'x'\n",
    ),
    "bad_y_in_two_line_record": (
        _set_field(3, 1, '"x\n"'), 3, "", "error: {}:4: could not convert string to float: 'x\\n'\n",
    ),
    "two_line_header_then_bad_t": (
        lambda rows: _set_field(3, 0, "x")(['"t\n",y,xi\n'] + rows[1:]),
        3, "", "error: {}:5: expected t = 2, got 'x'\n",
    ),
    "header_only": (
        lambda rows: rows[:1], 3, "",
        "error: need len(y) = len(xi)+1 >= 2, got len(y)=(0,) len(xi)=(0,)\n",
    ),
    "t0_row_only": (
        lambda rows: rows[:2], 3, "",
        "error: need len(y) = len(xi)+1 >= 2, got len(y)=(1,) len(xi)=(0,)\n",
    ),
    # A path that keeps its recursion but whose sums overflow.
    "squares_overflow": (
        lambda rows: rows[:2] + ["1,1e300,1e300\n", "2,1e300,5e299\n"], 3, "", _SUMS_OVERFLOW,
    ),
    "slope_overflows": (
        lambda rows: rows[:2] + ["1,1e-150,1e-150\n", "2,1e200,1e200\n"], 3, "", _SUMS_OVERFLOW,
    ),
}


class TestReadPathCsv:
    """estimate --in parses a file with numpy up to its first chunk that is
    not in simulate's plain form and with the csv row loop from there to
    its end; either way a file reads as oracles.read_path_csv, the row loop
    over the whole file, reads it."""

    @pytest.mark.parametrize("read_chars", [1, 7, 40, 1 << 20])
    @pytest.mark.parametrize("case", sorted(READER_CONTRACT))
    def test_contract(self, capsys, tmp_path, monkeypatch, case, read_chars):
        # Small reads put chunk ends inside rows, between \r and \n and
        # inside a quoted field.
        edit, code, out, err = READER_CONTRACT[case]
        good = tmp_path / "good.csv"
        assert main(["simulate", "-T", "4", "--seed", "4", "--out", str(good)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(edit(good.read_text().splitlines(keepends=True))), newline="")
        monkeypatch.setattr(pathcsv, "_READ_CHARS", read_chars)
        capsys.readouterr()
        assert run_cli(capsys, "estimate", "--in", str(bad)) == (code, out, err.format(bad))

    @pytest.mark.parametrize("read_chars", [40, 1 << 20])
    def test_t_written_with_exponent(self, capsys, tmp_path, monkeypatch, read_chars):
        # "1e2" has as many characters as "100" and reads as 100.0.
        path_file = tmp_path / "path.csv"
        assert main(["simulate", "-T", "120", "--seed", "4", "--out", str(path_file)]) == 0
        rows = path_file.read_text().splitlines(keepends=True)
        rows[101] = "1e2" + rows[101][3:]
        path_file.write_text("".join(rows))
        monkeypatch.setattr(pathcsv, "_READ_CHARS", read_chars)
        capsys.readouterr()
        err = f"error: {path_file}:102: expected t = 100, got '1e2'\n"
        assert run_cli(capsys, "estimate", "--in", str(path_file)) == (3, "", err)

    @pytest.mark.parametrize("row, lineno", [(0, 1), (10, 11)], ids=["header", "row_9"])
    def test_unclosed_quote_refused_by_line(self, capsys, tmp_path, row, lineno):
        # A quote opened in the header, or in row t = 9, that does not close
        # within csv's field size limit (128 KiB) is refused at the record
        # it opens in; the 5,000-row file runs on past that limit.
        path_file = tmp_path / "path.csv"
        assert main(["simulate", "-T", "5000", "--out", str(path_file)]) == 0
        rows = path_file.read_text().splitlines(keepends=True)
        t, rest = rows[row].split(",", 1)
        rows[row] = f'{t},"{rest}' if row else f'"{rows[row]}'
        path_file.write_text("".join(rows))
        capsys.readouterr()
        err = f"error: {path_file}:{lineno}: field larger than field limit ({csv.field_size_limit()})\n"
        assert run_cli(capsys, "estimate", "--in", str(path_file)) == (3, "", err)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_refusal_after_two_line_record_names_its_line(self, capsys, tmp_path, newline):
        # Row t = 1's quoted y spans lines 3 and 4, so row t = 2 is on line
        # 5: the row loop and the oracle count lines, not records.
        path_file = tmp_path / "path.csv"
        path_file.write_text(newline.join(["t,y,xi", "0,0,", '1,"1', '",1', "2,x,1", ""]), newline="")
        msg = f"{path_file}:5: could not convert string to float: 'x'"
        assert run_cli(capsys, "estimate", "--in", str(path_file)) == (3, "", f"error: {msg}\n")
        with pytest.raises(OutOfRangeError) as refusal:
            read_path_csv(str(path_file), P)
        assert str(refusal.value) == msg

    @pytest.mark.parametrize("sigma", ["1", "1e-100", "1e100"])
    def test_simulate_output_never_reaches_row_loop(self, capsys, tmp_path, monkeypatch, sigma):
        # 70,000 rows span several read chunks and two write pieces; the
        # sigmas put exponents into the text.  Falling back to the row
        # loop would be correct but several times slower.
        path_file = tmp_path / "path.csv"
        argv = ["--sigma", sigma, "--seed", "5", "-T", "70000"]
        assert main(["simulate", *argv, "--out", str(path_file)]) == 0
        _, direct, _ = run_cli(capsys, "estimate", *argv)

        def refuse(*args):
            raise AssertionError("a file written by simulate reached the csv row loop")

        monkeypatch.setattr(pathcsv, "_csv_rows", refuse)
        assert run_cli(capsys, "estimate", "--sigma", sigma, "--in", str(path_file)) == (0, direct, "")

    @settings(max_examples=300)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "replace", "delete"]),
                st.integers(0, 10**6),
                st.sampled_from(list(' \t\r\n",,,.+-e00123456789x\x00\u00e9')),
            ),
            min_size=1,
            max_size=3,
        ),
        read_chars=st.sampled_from([1, 7, 40, 1 << 20]),
    )
    def test_edited_file_reads_as_the_row_loop_reads_it(self, edits, read_chars):
        # The chunked reader and its running checks and sums end as the
        # whole-file row loop, SamplePath and infeasible_estimate end: the
        # same estimate, or the same refusal.
        text = "".join(pathcsv._path_csv(simulation._walk(P, 12, 4), 12))
        for op, pos, ch in edits:
            pos %= len(text) + 1
            text = text[:pos] + ("" if op == "delete" else ch) + text[pos + (op != "insert") :]

        def outcome(estimate, infile):
            try:
                return estimate(infile, P)._asdict()
            except Exception as exc:
                return type(exc), str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            infile = str(Path(tmp) / "edited.csv")
            with open(infile, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            want = outcome(lambda f, p: infeasible_estimate(read_path_csv(f, p)), infile)
            with mock.patch.object(pathcsv, "_READ_CHARS", read_chars):
                assert outcome(pathcsv._estimate_csv, infile) == want

    @pytest.mark.parametrize("read_chars", [1, 40, 1 << 20])
    @pytest.mark.parametrize(
        "sigma, edit, err",
        [
            ("1e-200", None, "error: every V_t must be positive\n"),
            ("1e-200", _set_field(5, 0, "x"), "error: {}:6: expected t = 4, got 'x'\n"),
            ("1e200", _set_field(5, 1, "inf"), "error: path contains non-finite values\n"),
            ("1e200", None, "error: variance sequence contains non-finite entries\n"),
        ],
        ids=["underflow", "bad_t_then_underflow", "inf_then_overflow", "overflow"],
    )
    def test_variance_refusal_comes_last(self, capsys, tmp_path, monkeypatch, sigma, edit, err, read_chars):
        # V_t is taken and checked piece by piece as the rows arrive, but
        # its refusal waits for the file and the path checks, as when the
        # path was read whole first.  V_2 underflows to 0 at sigma 1e-200
        # and V_1 overflows at 1e200.
        path_file = tmp_path / "path.csv"
        assert main(["simulate", "-T", "4", "--seed", "4", "--out", str(path_file)]) == 0
        rows = path_file.read_text().splitlines(keepends=True)
        path_file.write_text("".join(edit(rows) if edit else rows))
        monkeypatch.setattr(pathcsv, "_READ_CHARS", read_chars)
        capsys.readouterr()
        got = run_cli(capsys, "estimate", "--sigma", sigma, "--in", str(path_file))
        assert got == (3, "", err.format(path_file))

    @pytest.mark.parametrize(
        "T, crlf",
        [
            pytest.param(100_000, False, id="100000"),
            pytest.param(1_000_000, False, id="1000000"),
            pytest.param(100_000, True, id="100000-crlf"),
            pytest.param(1_000_000, True, id="1000000-crlf"),
        ],
    )
    def test_memory_does_not_grow_with_horizon(self, path_file, T, crlf):
        # estimate --in holds a few copies of one read chunk and its sums'
        # buffers: from T = 1e3 to 1e6 its peak RSS grew 0.2 MiB plain and
        # 0.5 MiB CRLF on a 2-core Linux host with numpy 2.4; reading the
        # file whole in one piece grew it 355 and 337 MiB.  A CRLF copy goes
        # through the row loop from its first row to its last.  The process
        # is measured from outside, as tracing its allocations would make
        # each of the row loop's Python objects costly.
        argv = ("-m", "digar.cli", "estimate", "--in")
        assert peak_rss(*argv, path_file(T, crlf)) - peak_rss(*argv, path_file(1_000, crlf)) < 4 << 20

    @pytest.fixture(scope="class")
    def path_file(self, tmp_path_factory):
        # path_file(T, crlf) names simulate's path file at T, with CRLF line
        # ends if crlf, written once for the class.
        root = tmp_path_factory.mktemp("paths")

        def named(T, crlf):
            path = root / f"path{T}{'-crlf' * crlf}.csv"
            if not path.exists():
                if crlf:
                    path.write_bytes(Path(named(T, False)).read_bytes().replace(b"\n", b"\r\n"))
                else:
                    assert main(["simulate", "-T", str(T), "--out", str(path)]) == 0
            return str(path)

        return named


class TestSinglePathRoute:
    """The single-path route walks, writes, reads and sums a path chunk by
    chunk; no chunk length may change a byte."""

    @pytest.mark.parametrize("params", [P, ModelParams(0.95, 0.9, 2.0)], ids=["P", "slow_V"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 49])
    def test_estimate_in_equals_estimate_T(self, capsys, tmp_path, monkeypatch, params, chunk):
        # One summer adds estimate -T's sums over the walk's own chunks and
        # estimate --in's over the file's checked pieces; the two agree bit
        # for bit, also at T = 2, a single term.  At (0.95, 0.9) V_t is still
        # moving at T = 50, so its pieces come from the recursion, not the
        # fixed-point fill.
        flags = ["--phi", str(params.phi), "--rho", str(params.rho), "--sigma", str(params.sigma_xi)]
        monkeypatch.setattr(simulation, "_PATH_CHUNK", chunk)
        for T in ("2", "50"):
            path_file = tmp_path / f"path{T}.csv"
            assert main(["simulate", *flags, "-T", T, "--out", str(path_file)]) == 0
            capsys.readouterr()
            for fmt in ("csv", "json"):
                code, direct, _ = run_cli(capsys, "estimate", *flags, "-T", T, "--format", fmt)
                assert code == 0
                # A path read from a file has no seed.
                want = direct.replace(f'"seed": {DEFAULT_SEED}', '"seed": null')
                for read_chars in (1, 7, 40):
                    monkeypatch.setattr(pathcsv, "_READ_CHARS", read_chars)
                    got = run_cli(capsys, "estimate", *flags, "--in", str(path_file), "--format", fmt)
                    assert got == (0, want, "")

    def test_estimate_T_walks_V_twice_and_checks_it_once(self, capsys, monkeypatch):
        # One walk checks V_1..V_T and one gives the path and its sums
        # V_{t-1}; no path checker runs, and nothing walks or checks V_t
        # again.  At (0.999999, 0.9) no V_t repeats within T, so each walk
        # runs to its end.
        T = 20_000
        drawn, checked = [], []
        walk, check = model._variance_walk, simulation._check_variances

        def counted_walk(params):
            next_v = walk(params)

            def counted(n):
                drawn.append(n)
                return next_v(n)

            return counted

        def counted_check(params, T):
            checked.append(T)
            return check(params, T)

        monkeypatch.setattr(model, "_variance_walk", counted_walk)
        monkeypatch.setattr(simulation, "_variance_walk", counted_walk)
        monkeypatch.setattr(simulation, "_check_variances", counted_check)
        monkeypatch.setattr(estimation, "_checked_steps", mock.Mock(side_effect=AssertionError("checked a path")))
        code, out, _ = run_cli(capsys, "estimate", "-T", str(T), "--phi", "0.999999", "--rho", "0.9")
        assert code == 0 and out.startswith("phi_hat,")
        assert T <= sum(drawn) <= 2 * T
        assert checked == [T]

    def test_simulate_memory_is_a_chunk(self, tmp_path):
        # simulate holds one chunk of the walk and its CSV text, and checks
        # V_t in constant memory: from T = 1e3 to 1e6 its peak RSS grew 0.8
        # MiB on a 2-core Linux host with numpy 2.4.  Holding V_t whole as
        # well grew it 8.5 MiB, and holding the path's chunks as lists 78 MiB.
        argv = ("-m", "digar.cli", "simulate", "--out", str(tmp_path / "p.csv"), "-T")
        assert peak_rss(*argv, "1000000") - peak_rss(*argv, "1000") < 4 << 20


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_refused(self, capsys):
        argv = ("experiment", "consistency", "--sigma", "1e153", "-T", "200", "-R", "100")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"seed = {DEFAULT_SEED}\n" + _SUMS_OVERFLOW

    def test_acf_answers_with_a_one_row_last_block(self, capsys):
        # R = 501 leaves one row in the last block, whose transposed window
        # is already contiguous, so the fold must still copy it to centre it.
        code, out, _ = run_cli(capsys, "experiment", "acf", "-T", "208", "-R", "501", "--k-max", "2")
        assert code == 0
        table = empirical_acf_experiment(BatchSpec(P, 208, 501, DEFAULT_SEED), 200, 2)
        assert json.loads(out)["rows"] == table.as_tree()["rows"]

    def test_acf_memory_does_not_grow_with_horizon(self, tmp_path):
        # The batch kernel walks only to t_obs + k_max and checks V_t in
        # constant memory; holding V_1..V_T peaked at 43 MiB here.
        argv = ["experiment", "acf", "-T", "5000000", "-R", "30", "--out", str(tmp_path / "acf.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_acf_memory_does_not_grow_with_replications(self):
        # Each block's window is folded into per-lag co-moments as it
        # arrives, so no R-long array is held: from R = 4,000 to 40,000 at
        # k_max = 50 the peak RSS grew 0.1 MiB on a 2-core Linux host, and
        # 28 MiB when the whole 32 MB window was held.  The process is
        # measured from outside, as tracing its allocations made the test
        # four times slower.
        argv = ("-m", "digar.cli", "experiment", "acf", "-T", "250", "--k-max", "50", "-R")
        assert peak_rss(*argv, "40000") - peak_rss(*argv, "4000") < 4 << 20

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
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes(), R


# sha256 of the JSON each experiment prints.  Recorded again when each
# row's PCG64 state and increment came straight from four SplitMix64
# outputs of its seed, in place of numpy's integer seeding, which moved
# every random byte.  1203 replications cross two block edges and end in
# a partial block.  Five were recorded again when the acf correlations
# became sums of elementwise products, not np.corrcoef's BLAS product, and
# the third and fourth moments products, not np.power: every acf digest
# (y_empirical, y_mc_se, xi_empirical and xi_mc_se moved in their last
# digits) and those of seed 0's consistency and clt (one skewness each).
# The three acf digests were recorded again when each block's co-moments
# were merged in block order (Chan, Golub and LeVeque's update), not
# summed over the whole window in two passes: the order of additions
# changed, and y_empirical, xi_empirical and their MC SEs moved in their
# last digits.
GOLDEN_RUNS = {
    "consistency": ("experiment", "consistency", "-T", "100", "-R", "1203"),
    "acf": ("experiment", "acf", "-T", "210", "-R", "1203", "--t-obs", "200"),
    "clt": ("experiment", "clt", "-T", "5000", "-R", "1000"),
}
GOLDEN_SHA256 = {
    (0, "consistency"): "30bf7a5cdf5b009d63efd8ffa39e8eb72d1a2d48ec1b72aa1e4dd599fbb7cb5e",
    (0, "acf"): "91effd849861cdef1ba5c066ea00096329a881d6b5f4d34bd34019272f547313",
    (0, "clt"): "e305b8347cff714a9715547efdabf65f36ca21c229200d91d966e63a0fcfca26",
    (12345, "consistency"): "c6fbe4ba66263bc00ad87c296f95a3c8b87bfac36b2aca44cc758de42585d213",
    (12345, "acf"): "bea57f185021f7e74af76b78fb9913452d6c096ebd982d6fa1e74f6346f0927d",
    (12345, "clt"): "5696dda54578803351b5a1a2bde1e667fb005d4daa7dbd46cd1a77fac53512cd",
    ((1 << 64) - 1, "consistency"): "178f8d8959966f4ec1697f2e215091eeb53c1dc4f53b39bd00e4d0015ffbf10f",
    ((1 << 64) - 1, "acf"): "afb369c4ec56c418ed4a00ef4d5a0cbdb06e0f7efa410e3e1f3f3adecf697152",
    ((1 << 64) - 1, "clt"): "12635e855f323080b37e11684de157f09bbb3b1371aa6ed4b5999ac33a6edc24",
}


# sha256 of the single-path and figure outputs.  "PATH" stands for a
# T=3000 path that `simulate` wrote at the default seed.  The five
# single-path digests were recorded again when each stream's PCG64 state
# came straight from SplitMix64 (see GOLDEN_SHA256); the figures use no
# random numbers.  The two figure digests were recorded again when
# vbar_limit began to form 1 - phi^2 as (1 - phi)(1 + phi) where
# rho*phi >= 0, which moved 12 rows of vbar and 8 of bias by one or two
# units in the last place.
GOLDEN_OUTPUTS = {
    ("estimate", "-T", "5000"):
        "2bb73be5b49d978bf13cd5540acb38125f0657f36a19647a3c98ab3b19378413",
    ("estimate", "-T", "5000", "--format", "json"):
        "34d4a8657863a11c4ebcdfa712cc2f01a751f605899ac75567c6b10a8cc02ea5",
    ("estimate", "--in", "PATH"):
        "94a106aa77430dea3bac83e2a70f8b69361bae4c0177563efa743faae56c5dc7",
    ("estimate", "--in", "PATH", "--format", "json"):
        "921e1870f2746b546d25e9e20d6ac51b2d2a33e0cea31c701d89bf8cda128154",
    ("simulate", "-T", "20", "--format", "json"):
        "cdc789f839be64b93af536b74141f4d692fff8f1da7d2aa88e1704a58917e73f",
    ("figure", "vbar"): "1d202b3b02f425d733920e043c5baf2fff2e84203750fb7a065b7cf455e45da8",
    ("figure", "bias"): "975c59b775cbb2db3f4a1745b1953d96738923ef9339522d7589a9ab40091553",
}


def golden_digest(capsys, seed, kind):
    code, out, _ = run_cli(capsys, *GOLDEN_RUNS[kind], "--seed", str(seed))
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _golden_runs(env=None):
    # [exit status, stdout, stderr] of each of GOLDEN_RUNS at seed 12345,
    # run in one fresh process with env added to its environment.
    argvs = [[*GOLDEN_RUNS[kind], "--seed", "12345"] for kind in sorted(GOLDEN_RUNS)]
    return [run for run, _, _ in json.loads(fresh_python("-c", _CLI_RUNS, json.dumps(argvs), env=env))[1:]]


@pytest.fixture(scope="module")
def golden_default():
    return _golden_runs()


class TestGoldenBytes:
    @pytest.mark.parametrize("seed, kind", sorted(GOLDEN_SHA256))
    def test_experiment_bytes_unchanged(self, capsys, seed, kind):
        assert golden_digest(capsys, seed, kind) == GOLDEN_SHA256[seed, kind]

    @pytest.mark.parametrize("kind", ["acf", "clt"])
    def test_fresh_cli_process_bytes_unchanged(self, kind):
        # The runs above follow numpy's import by the test session; here
        # digar.cli loads numpy itself, with one OpenBLAS thread.
        out = fresh_python("-m", "digar.cli", *GOLDEN_RUNS[kind], "--seed", "12345")
        assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[12345, kind]

    @pytest.mark.parametrize("variant", ["openblas_coretype", "numpy_targets_off"])
    def test_bytes_do_not_depend_on_cpu_kernels(self, golden_default, variant):
        # OpenBLAS picks its kernels, and numpy its SIMD loops, by CPU at run
        # time; each picks another under an environment variable that acts
        # on the process it is given to.  Prescott's kernels run on every
        # x86-64 CPU.  numpy's found targets are those its build dispatches
        # to on this CPU, and turning them all off turns off the highest.
        if variant == "openblas_coretype":
            if platform.machine().lower() not in ("x86_64", "amd64"):
                pytest.skip("OpenBLAS core types are named here for x86-64")
            env = {"OPENBLAS_CORETYPE": "Prescott"}
        else:
            runtime = fresh_python("-c", "import numpy; numpy.show_runtime()").decode()
            found = re.search(r"'found': \[([^\]]*)\]", runtime)
            targets = re.findall(r"'(\w+)'", found.group(1)) if found else []
            if not targets:
                pytest.skip("numpy found no dispatch target on this CPU")
            env = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
        assert _golden_runs(env) == golden_default

    @pytest.mark.parametrize("argv", sorted(GOLDEN_OUTPUTS))
    def test_output_bytes_unchanged(self, capsys, tmp_path, argv):
        path = tmp_path / "path.csv"
        assert main(["simulate", "-T", "3000", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, *(str(path) if a == "PATH" else a for a in argv))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_OUTPUTS[argv]


# Runs digar.cli's main on sys.argv[2:], pinned to one CPU when sys.argv[1]
# is "pinned", and prints after its output the number of workers it forked.
_COUNTED_RUN = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from digar.cli import main
fork, forks = os.fork, []
def counted():
    pid = fork()
    forks.append(pid)
    return pid
os.fork = counted
status = main(sys.argv[2:])
print(len(forks))
sys.exit(status)
"""

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or _CPUS < 2, reason="needs two CPUs to pin to one")
class TestWorkerCountBytes:
    """A CLI process runs one thread, so it forks a worker per CPU it may
    use, up to one per block or chunk; the bytes must not depend on how
    many."""

    @pytest.fixture(scope="class")
    def path_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("path") / "path.csv"
        assert main(["simulate", "-T", "20000", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize(
        "argv, blocks",
        [
            (("experiment", "consistency", "-T", "300", "-R", "1203"), 3),
            (("experiment", "clt", "-T", "5000", "-R", "1000"), 2),
            (("experiment", "acf", "-T", "204", "-R", "1203"), 3),
            # One chunk of the walk, so no worker; then five.
            (("simulate", "-T", "1000"), 1),
            (("simulate", "-T", "20000"), 5),
            # That path's file, in pieces of pathcsv._READ_CHARS characters.
            (("estimate", "--in", "PATH"), "pieces"),
        ],
    )
    def test_pinned_and_unpinned_bytes_equal(self, path_file, argv, blocks):
        if blocks == "pieces":
            blocks = -(-path_file.stat().st_size // pathcsv._READ_CHARS)
        argv = [str(path_file) if a == "PATH" else a for a in argv]
        pinned, forks_pinned = fresh_python("-c", _COUNTED_RUN, "pinned", *argv)[:-1].rsplit(b"\n", 1)
        free, forks_free = fresh_python("-c", _COUNTED_RUN, "free", *argv)[:-1].rsplit(b"\n", 1)
        assert (int(forks_pinned), int(forks_free)) == (0, min(_CPUS, blocks) - 1)
        assert pinned == free


def _edited_rows(path, edits):
    # Rewrites path with each row t in edits replaced by edits[t](row); a
    # lone surrogate "\udcXX" in a row is written as the byte 0xXX.
    rows = path.read_text().splitlines(keepends=True)
    for t, edit in edits.items():
        rows[t + 1] = edit(rows[t + 1])
    path.write_text("".join(rows), encoding="utf-8", errors="surrogateescape")


def _not_utf8(row):
    # Row "t,y,xi" with the byte 0xff, which no UTF-8 text holds, at its end.
    return row[:-1] + "\udcff\n"


def _exponent_form(row):
    # Row "t,y,xi" with a space before y and y written as digits and an
    # E- exponent, a form only the row loop reads; the value is unchanged.
    t, y, xi = row.split(",")
    sign, digits = ("-", y[1:]) if y.startswith("-") else ("", y)
    whole, _, frac = digits.partition(".")
    return f"{t}, {sign}{whole}{frac}E-{len(frac)},{xi}"


# The test process runs BLAS threads, so its commands stay in-process
# unless a test sets the worker count; forking it then is safe, since the
# workers call no BLAS, but Python 3.12 warns about it.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestSinglePathWorkers:
    """simulate, variance-path and estimate --in spread their chunks over W
    processes: output, stderr and exit status must not depend on W, and
    every worker is reaped before the command returns."""

    T = "20000"  # five chunks of the walk

    @staticmethod
    def _runs(capsys, monkeypatch, *argv):
        # (exit status, stdout, stderr) of argv at W = 1, 2 and 3, each
        # checked to leave no child.
        capsys.readouterr()
        runs = []
        for w in (1, 2, 3):
            monkeypatch.setattr(simulation, "_worker_count", lambda n, w=w: min(w, n))
            runs.append(run_cli(capsys, *argv))
            no_child_left()
        return runs

    @pytest.fixture
    def path_file(self, tmp_path, monkeypatch):
        # simulate's file of a 20,000-step path, read in some 200 pieces.
        path = tmp_path / "path.csv"
        assert main(["simulate", "-T", self.T, "--out", str(path)]) == 0
        monkeypatch.setattr(pathcsv, "_READ_CHARS", 4096)
        assert len(list(pathcsv._texts(str(path)))) > 200
        return path

    def test_simulate_bytes(self, capsys, tmp_path, monkeypatch):
        files = []
        for w, run in enumerate(self._runs(capsys, monkeypatch, "simulate", "-T", self.T), 1):
            assert run[0] == 0 and run[1].count("t,y,xi") == 1
            out = tmp_path / f"w{w}.csv"
            monkeypatch.setattr(simulation, "_worker_count", lambda n, w=w: min(w, n))
            assert run_cli(capsys, "simulate", "-T", self.T, "--out", str(out)) == (0, "", run[2])
            no_child_left()
            files.append(out.read_text())
            assert files[-1] == run[1]
        assert len(set(files)) == 1

    def test_variance_path_bytes(self, capsys, monkeypatch):
        runs = self._runs(capsys, monkeypatch, "variance-path", "-T", self.T)
        assert runs[0][0] == 0 and runs[0][1].count("\n") == 20001
        assert runs[0] == runs[1] == runs[2]

    def test_estimate_in_bytes(self, capsys, monkeypatch, path_file):
        runs = self._runs(capsys, monkeypatch, "estimate", "--in", str(path_file))
        assert runs[0][0] == 0
        assert runs[0] == runs[1] == runs[2]

    def test_estimate_in_bytes_through_the_row_loop(self, capsys, monkeypatch, path_file):
        # A row in a middle piece that only the row loop reads: the
        # workers stop there and this process reads on alone.
        _, plain, _ = run_cli(capsys, "estimate", "--in", str(path_file))
        _edited_rows(path_file, {9000: _exponent_form})
        assert self._runs(capsys, monkeypatch, "estimate", "--in", str(path_file)) == [(0, plain, "")] * 3

    @pytest.mark.parametrize("edits", [{}, {9000: _exponent_form}], ids=["plain", "row_loop_from_t_9000"])
    def test_piped_file_is_read_here_alone(self, path_file, edits):
        # A worker cannot open a pipe again, so a fresh process that may
        # use every CPU forks none and reads the pipe itself; the edited
        # row moves it to the row loop on a stream it cannot reopen.
        run = (_COUNTED_RUN, "free", "estimate", "--in")
        want = fresh_python("-c", *run, str(path_file))[:-1].rsplit(b"\n", 1)[0]
        _edited_rows(path_file, edits)
        got = fresh_python("-c", *run, "/dev/stdin", stdin=path_file.read_bytes())
        assert got[:-1].rsplit(b"\n", 1) == [want, b"0"]

    @pytest.mark.parametrize(
        "edit, err",
        [
            (lambda row: "x" + row[row.index(","):], "{}:152: expected t = 150, got 'x'"),
            (lambda row: row.replace(",", ",abc", 1), "{}:152: could not convert string to float: 'abc"),
        ],
        ids=["bad_t", "unparsable_y"],
    )
    def test_refusal_in_a_worker_piece(self, capsys, monkeypatch, path_file, edit, err):
        # Row 150 lies in the second piece, a worker's at W = 2 and 3.
        _edited_rows(path_file, {150: edit})
        runs = self._runs(capsys, monkeypatch, "estimate", "--in", str(path_file))
        assert runs[0][:2] == (3, "") and runs[0][2].startswith("error: " + err.format(path_file))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_killed_worker_leaves_the_same_bytes(self, capsys, monkeypatch, path_file, command):
        # Each worker kills itself at its second chunk; this process does
        # the chunks the worker did not send.
        parent, name = os.getpid(), "_ascii_rows" if command == "simulate" else "_plain_piece"
        work, calls = getattr(pathcsv, name), []

        def dying(piece):
            calls.append(piece)
            if os.getpid() != parent and len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return work(piece)

        argv = ("simulate", "-T", self.T) if command == "simulate" else ("estimate", "--in", str(path_file))
        capsys.readouterr()
        want = run_cli(capsys, *argv)
        monkeypatch.setattr(pathcsv, name, dying)
        assert self._runs(capsys, monkeypatch, *argv) == [want] * 3

    def test_file_grown_after_the_parent_read_it(self, capsys, monkeypatch, path_file):
        # Workers that read pieces past the parent's last one, as of a file
        # appended to meanwhile, fill their pipes with results nobody asks
        # for; the command still ends, with the parent's reading.
        capsys.readouterr()
        want = run_cli(capsys, "estimate", "--in", str(path_file))
        extra = "".join(f"{t},0.5,0.5\n" for t in range(10**9, 10**9 + 10_000))  # 160 kB of results
        parent, texts = os.getpid(), pathcsv._texts

        def grown(infile):
            # Advanced first after the fork, so only in a worker does the file grow.
            yield from texts(infile)
            if os.getpid() != parent:
                yield from [(extra, 10**9, 10_000, 10**9 + 2)] * 6

        monkeypatch.setattr(pathcsv, "_texts", grown)
        assert self._runs(capsys, monkeypatch, "estimate", "--in", str(path_file)) == [want] * 3

    @pytest.mark.parametrize(
        "edits",
        [
            {1: _not_utf8},
            {150: _not_utf8},
            {9000: _not_utf8},
            {9000: _exponent_form, 15000: _not_utf8},
        ],
        ids=["row_1", "row_150", "row_9000", "row_loop_then_row_15000"],
    )
    def test_file_not_utf8(self, capsys, monkeypatch, path_file, edits):
        # A byte that is not UTF-8 is refused in one line at every W, be it
        # decoded with the header (row 1 and 150 lie in the first block the
        # decoder reads), in a later piece, or while the row loop reads.
        # The decoder counts its position within a block, so no line is named.
        _edited_rows(path_file, edits)
        runs = self._runs(capsys, monkeypatch, "estimate", "--in", str(path_file))
        assert runs == [(3, "", f"error: {path_file} is not UTF-8 text (invalid start byte)\n")] * 3

    @pytest.mark.parametrize(
        "infile, code, err",
        [
            ("bad_header", 3, "error: expected header t,y,xi in {}, got ['t', 'y', 'x']\n"),
            ("empty", 3, "error: empty path file: {}\n"),
            ("missing", 4, "io error: [Errno 2] No such file or directory: '{}'\n"),
            ("directory", 4, "io error: [Errno 21] Is a directory: '{}'\n"),
        ],
    )
    def test_file_refused_after_the_fork(self, capsys, monkeypatch, tmp_path, path_file, infile, code, err):
        # Every process opens the file and checks its header only after the
        # fork (a missing path fails os.stat before it); whatever W, one
        # process words the refusal, once.
        if infile == "bad_header":
            path_file.write_text(path_file.read_text().replace("t,y,xi\n", "t,y,x\n", 1))
            path = path_file
        else:
            path = tmp_path / infile
            if infile == "empty":
                path.write_text("")
            elif infile == "directory":
                path.mkdir()
        runs = self._runs(capsys, monkeypatch, "estimate", "--in", str(path))
        assert runs == [(code, "", err.format(path))] * 3

    @pytest.mark.parametrize(
        "argv",
        [("simulate", "-T", T), ("variance-path", "-T", T), ("limits",)],
        ids=["simulate", "variance-path", "limits"],
    )
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_4(self, capsys, monkeypatch, argv):
        # main writes every command's output, a stream or a list, in one place.
        for code, out, err in self._runs(capsys, monkeypatch, *argv, "--out", "/dev/full"):
            assert (code, out) == (4, "") and err.endswith("io error: [Errno 28] No space left on device\n")

    def test_closed_stdout_exits_4(self):
        # simulate | head -c 100, at W = 1, 2 and 3, each in a process of its own.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for w in ("1", "2", "3"):
            proc = subprocess.Popen(
                [sys.executable, "-c", _CLOSED_STDOUT_RUN, w], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
            )
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == 4, err
            assert err == "seed = 12345\nio error: [Errno 32] Broken pipe\n"


# Runs `digar simulate -T 300000` to stdout with sys.argv[1] processes,
# says on stderr if a child is left, and exits with its status without
# flushing stdout again.
_CLOSED_STDOUT_RUN = """
import os, sys
from digar import cli
cli._load_arrays()
from digar import simulation
simulation._worker_count = lambda n: min(int(sys.argv[1]), n)
status = cli.main(["simulate", "-T", "300000"])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", file=sys.stderr)
except ChildProcessError:
    pass
sys.stderr.flush()
os._exit(status)
"""


def _threads_after(statement, **env):
    # The thread count and environment of a fresh interpreter after statement.
    threads = "int(open('/proc/self/status').read().split('Threads:')[1].split()[0])"
    code = f"import json, os; {statement}; print(json.dumps([{threads}, dict(os.environ)]))"
    return json.loads(fresh_python("-c", code, env=env))


# A command that loads numpy: digar.cli loads it when such a command starts.
_ARRAY_COMMAND = "import digar.cli; digar.cli.main(['variance-path', '-T', '3', '--out', os.devnull])"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="thread count is read from /proc")
class TestBlasThreads:
    @pytest.fixture(autouse=True, scope="class")
    def _numpy_starts_threads(self):
        if _threads_after("import numpy")[0] == 1:
            pytest.skip("numpy already runs one thread here")

    @pytest.mark.parametrize("statement", ["from digar.cli import main", "from digar import cli"])
    def test_cli_loads_numpy_with_one_thread(self, statement):
        threads, environ = _threads_after(f"{statement}; {_ARRAY_COMMAND}")
        assert threads == 1
        assert "OPENBLAS_NUM_THREADS" not in environ

    def test_caller_thread_variable_wins(self):
        plain, _ = _threads_after("import numpy", OMP_NUM_THREADS="2")
        threads, environ = _threads_after(_ARRAY_COMMAND, OMP_NUM_THREADS="2")
        assert threads == plain
        assert environ["OMP_NUM_THREADS"] == "2"
        assert "OPENBLAS_NUM_THREADS" not in environ


# limits at the benchmark's three points near (1, 1): argv, exit status,
# stdout, stderr.  The last point is refused.
LIMITS_EDGE = [
    (
        ["limits", "--phi", "0.9999", "--rho", "0.999"],
        0,
        "vbar    = 9990.001\nS       = 70.71245\ntau_bar = 1\nbias    = 9.999999e-05\n"
        "eta_bar = 4.475493e-06\neta_hat = 1\n",
        "",
    ),
    (
        ["limits", "--phi", "0.99999", "--rho", "0.9999"],
        0,
        "vbar    = 99990\nS       = 223.6074\ntau_bar = 1\nbias    = 1e-05\n"
        "eta_bar = 1.41432e-07\neta_hat = 1\n",
        "",
    ),
    (
        ["limits", "--phi", "0.999999", "--rho", "0.999999"],
        3,
        "",
        "error: |tau_bar| < 1 required, got 1.0: tau_bar rounds to +-1 in double precision, "
        "since the exact 1 - |tau_bar| is about 1e-18\n",
    ),
]

# Imports digar.cli and runs main on each argv of the JSON list in
# sys.argv[1], in that order.  Prints, as JSON, one entry after the import
# and one per argv: [exit status, stdout, stderr] (None for the import),
# whether numpy is loaded, and whether os.environ is as it was.
_CLI_RUNS = """
import contextlib, io, json, os, sys
before = dict(os.environ)
import digar.cli
report = [[None, "numpy" in sys.modules, dict(os.environ) == before]]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = digar.cli.main(argv)
    run = [status, out.getvalue(), err.getvalue()]
    report.append([run, "numpy" in sys.modules, dict(os.environ) == before])
print(json.dumps(report))
"""


class TestStartWithoutNumpy:
    """`import digar.cli`, limits and figure compute with floats alone, so
    they load no numpy and leave the environment as it was."""

    def test_import_limits_and_figure_load_no_numpy(self):
        argvs = [argv for argv, *_ in LIMITS_EDGE] + [["figure", "vbar"]]
        report = json.loads(fresh_python("-c", _CLI_RUNS, json.dumps(argvs)))
        assert [numpy for _, numpy, _ in report] == [False] * 5
        assert [same for _, _, same in report] == [True] * 5
        assert [run for run, _, _ in report[1:4]] == [list(case[1:]) for case in LIMITS_EDGE]
        status, out, err = report[4][0]
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_OUTPUTS["figure", "vbar"]

    def test_limits_and_figure_load_neither_json_nor_csv(self):
        # Only the commands that write JSON or read a path CSV load them,
        # and only those that write or read a path CSV load its code, which
        # digar.cli itself does not hold.
        code = (
            "import contextlib, io, sys\n"
            "from digar import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['limits']), cli.main(['figure', 'vbar']), cli.main(['figure', 'bias'])\n"
            "print(sorted(m for m in ('csv', 'json', 'numpy', 'digar.pathcsv') if m in sys.modules))\n"
            "print(sorted(n for n in ('_plain_piece', '_texts', '_csv') if n in vars(cli)))"
        )
        assert fresh_python("-c", code) == b"[]\n[]\n"


class TestFigure:
    def test_vbar_values_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "vbar")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,rho,value"
        assert len(lines) == 43
        grid = [(phi, rho) for phi in DEFAULT_PHI_GRID for rho in DEFAULT_RHO_GRID]
        for line, (phi, rho) in zip(lines[1:], grid):
            phi_s, rho_s, val_s = line.split(",")
            assert (float(phi_s), float(rho_s), float(val_s)) == (phi, rho, vbar_limit(ModelParams(phi, rho, 1.0)))

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

    def test_bias_at_the_largest_scales(self, capsys):
        # The bias is scale-free, so it is computed at sigma_xi's binary
        # mantissa, where rho*sigma_xi/vbar does not overflow.
        argv = ("figure", "bias", "--phi-list", "0.9,0.5", "--rho-grid", "0.9")
        code, out, _ = run_cli(capsys, *argv, "--sigma", "1e308")
        assert code == 0
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        unit = [ols_bias(ModelParams(phi, 0.9, 1.0)) for phi in (0.9, 0.5)]
        assert values == pytest.approx(unit, rel=4 * sys.float_info.epsilon)
        assert values == pytest.approx([0.0989, 0.473], rel=1e-3)

    def test_overflowing_vbar_refused_by_name(self, capsys):
        code, out, err = run_cli(capsys, "figure", "vbar", "--sigma", "1e308")
        assert (code, out) == (3, "")
        assert err == "error: vbar overflows a double at sigma_xi=1e+308\n"

    def test_subnormal_vbar_refused_by_name(self, capsys):
        # At (0.9, -0.9), vbar is sigma_xi/1.73.
        code, out, err = run_cli(capsys, "figure", "vbar", "--sigma", "3e-308")
        assert (code, out) == (3, "")
        assert err == (
            "error: vbar is below the smallest normal double at sigma_xi=3e-308, so its digits would be lost\n"
        )

    def test_bad_float_list(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "vbar", "--phi-list", "0.5,oops")
        assert code == 2

    def test_out_of_range_grid(self, capsys):
        code, _, err = run_cli(capsys, "figure", "vbar", "--phi-list", "1.0")
        assert code == 3
        assert err.startswith("error:")
