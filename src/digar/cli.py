"""Command-line front-end.

Subcommands: limits, variance-path, simulate, estimate,
experiment {consistency,clt,acf}, figure {vbar,bias}.  Exit status 0 on
success, 2 on usage errors, 3 on domain/range errors, 4 on I/O errors,
always with a one-line diagnostic on stderr.  Identical argv (seed
included) produces byte-identical output files; the seed of every
randomized run is echoed on stderr and embedded in JSON outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Iterable, Iterator

from .dependence import dependence_profile
from .errors import DigarError, OutOfRangeError
from .estimation import infeasible_estimate
from .experiments import (
    DEFAULT_PHI_GRID,
    DEFAULT_RHO_GRID,
    bias_curve,
    empirical_acf_experiment,
    run_clt_experiment,
    run_consistency_experiment,
    vbar_curve,
)
from .model import ModelParams, stationary_sd, variance_sequence, vbar_limit
from .simulation import BatchSpec, SamplePath, simulate_path

__all__ = ["DEFAULT_SEED", "build_parser", "parse_and_dispatch", "main"]

DEFAULT_SEED = 12345

# Rows of a path CSV formatted per write, so a long path is never held as
# one string.
_CSV_PIECE = 65_536


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(out_path: str | None, pieces: Iterable[str]) -> None:
    if out_path in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {raw!r}")


def _seed_banner(seed: int) -> None:
    print(f"seed = {seed}", file=sys.stderr)


def _cmd_limits(ns: argparse.Namespace, params: ModelParams) -> int:
    prof = dependence_profile(params)
    lines = [
        f"vbar    = {vbar_limit(params):.7g}",
        f"S       = {stationary_sd(params):.7g}",
        f"tau_bar = {prof.tau_bar:.7g}",
        f"bias    = {prof.ols_bias:.7g}",
        f"eta_bar = {prof.eta_bar:.7g}",
        f"eta_hat = {prof.eta_hat:.7g}",
    ]
    _write_text(ns.out, ["\n".join(lines) + "\n"])
    return 0


def _cmd_variance_path(ns: argparse.Namespace, params: ModelParams) -> int:
    vseq = variance_sequence(params, ns.T)
    rows = ["t,v"]
    rows.extend(f"{t + 1},{_g17(v)}" for t, v in enumerate(vseq.values))
    _write_text(ns.out, ["\n".join(rows) + "\n"])
    return 0


def _path_csv(path: SamplePath) -> Iterator[str]:
    yield f"t,y,xi\n0,{_g17(path.y[0])},\n"
    end = path.horizon + 1
    for lo in range(1, end, _CSV_PIECE):
        hi = min(lo + _CSV_PIECE, end)
        rows = zip(range(lo, hi), path.y[lo:hi].tolist(), path.xi[lo - 1 : hi - 1].tolist())
        yield "".join(f"{t},{y:.17g},{x:.17g}\n" for t, y, x in rows)


def _cmd_simulate(ns: argparse.Namespace, params: ModelParams) -> int:
    _seed_banner(ns.seed)
    path = simulate_path(params, ns.T, ns.seed)
    if ns.format == "json":
        tree = {
            "phi": path.params.phi,
            "rho": path.params.rho,
            "sigma_xi": path.params.sigma_xi,
            "seed": path.seed,
            "y": path.y.tolist(),
            "xi": path.xi.tolist(),
        }
        _write_text(ns.out, [json.dumps(tree, indent=2) + "\n"])
    else:
        _write_text(ns.out, _path_csv(path))
    return 0


def _read_path_csv(infile: str, params: ModelParams) -> SamplePath:
    y: list[float] = []
    xi: list[float] = []
    with open(infile, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise OutOfRangeError(f"empty path file: {infile}")
        if [h.strip() for h in header] != ["t", "y", "xi"]:
            raise OutOfRangeError(f"expected header t,y,xi in {infile}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise OutOfRangeError(f"{infile}:{lineno}: expected 3 fields, got {len(row)}")
            if row[0] != str(len(y)):
                raise OutOfRangeError(f"{infile}:{lineno}: expected t = {len(y)}, got {row[0]!r}")
            try:
                y.append(float(row[1]))
                if row[2].strip() != "":
                    xi.append(float(row[2]))
                elif len(y) != 1:
                    raise ValueError("xi may be empty only at t=0")
            except ValueError as exc:
                raise OutOfRangeError(f"{infile}:{lineno}: {exc}")
    return SamplePath(params, y, xi, None)


def _cmd_estimate(ns: argparse.Namespace, params: ModelParams) -> int:
    if ns.infile is not None:
        path = _read_path_csv(ns.infile, params)
    else:
        _seed_banner(ns.seed)
        path = simulate_path(params, ns.T, ns.seed)
    vseq = variance_sequence(params, path.horizon)
    res = infeasible_estimate(path, vseq)
    if ns.format == "json":
        tree = {
            "phi_hat": res.phi_hat,
            "phi_tilde": res.phi_tilde,
            "correction": res.correction,
            "sample_size": res.sample_size,
            "seed": path.seed,
        }
        _write_text(ns.out, [json.dumps(tree, indent=2) + "\n"])
    else:
        text = (
            "phi_hat,phi_tilde,correction,sample_size\n"
            f"{_g17(res.phi_hat)},{_g17(res.phi_tilde)},{_g17(res.correction)},{res.sample_size}\n"
        )
        _write_text(ns.out, [text])
    return 0


def _cmd_experiment(ns: argparse.Namespace, params: ModelParams) -> int:
    spec = BatchSpec(params, ns.T, ns.R, ns.seed)
    _seed_banner(spec.master_seed)
    if ns.kind == "consistency":
        hat, tilde = run_consistency_experiment(spec)
        tree = {"experiment": "consistency", "ols": hat.as_tree(), "corrected": tilde.as_tree()}
    elif ns.kind == "clt":
        summary = run_clt_experiment(spec)
        tree = {"experiment": "clt", "true_phi": spec.params.phi, "summary": summary.as_tree()}
    else:
        table = empirical_acf_experiment(spec, ns.t_obs, ns.k_max)
        tree = {"experiment": "acf", "k_max": ns.k_max, **table.as_tree()}
    _write_text(ns.out, [json.dumps(tree, indent=2) + "\n"])
    return 0


def _cmd_figure(ns: argparse.Namespace, params: None) -> int:
    build = vbar_curve if ns.kind == "vbar" else bias_curve
    table = build(ns.phi_list, ns.rho_grid, ns.sigma)
    rows = ["phi,rho,value"]
    rows.extend(f"{phi!r},{rho!r},{value!r}" for phi, rho, value in table.rows)
    _write_text(ns.out, ["\n".join(rows) + "\n"])
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=0.5, help="autoregressive coefficient, |phi| < 1")
    p.add_argument("--rho", type=float, default=0.3, help="copula parameter, |rho| < 1")
    p.add_argument("--sigma", type=float, default=1.0, help="innovation standard deviation")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="digar",
        description="Simulation and estimation toolkit for the Gaussian AR(1) "
        "process with copula-dependent innovations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p = sub.add_parser("limits", formatter_class=fmt, help="print vbar, S, tau_bar, bias, eta_bar, eta_hat")
    _add_param_flags(p)
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("variance-path", formatter_class=fmt, help="CSV of V_1..V_T")
    _add_param_flags(p)
    p.add_argument("-T", type=int, default=100, help="horizon")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_variance_path)

    p = sub.add_parser("simulate", formatter_class=fmt, help="simulate one path to CSV")
    _add_param_flags(p)
    p.add_argument("-T", type=int, default=1000, help="path length")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PCG64 seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "estimate",
        formatter_class=fmt,
        help="plain and corrected slope estimates from a path file or a fresh simulation",
    )
    _add_param_flags(p)
    p.add_argument("--in", dest="infile", default=None, help="path CSV to estimate from")
    p.add_argument("-T", type=int, default=5000, help="path length when simulating")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PCG64 seed when simulating")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("experiment", help="Monte Carlo experiments (JSON output)")
    kinds = p.add_subparsers(dest="kind", required=True, metavar="kind")

    k = kinds.add_parser("consistency", formatter_class=fmt, help="estimator means vs their limits")
    _add_param_flags(k)
    k.add_argument("-T", type=int, default=5000, help="path length")
    k.add_argument("-R", type=int, default=500, help="replications")
    k.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    _add_out_flag(k)
    k.set_defaults(handler=_cmd_experiment)

    k = kinds.add_parser("clt", formatter_class=fmt, help="studentized-statistic distribution")
    _add_param_flags(k)
    k.add_argument("-T", type=int, default=10000, help="path length")
    k.add_argument("-R", type=int, default=2000, help="replications")
    k.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    _add_out_flag(k)
    k.set_defaults(handler=_cmd_experiment)

    k = kinds.add_parser("acf", formatter_class=fmt, help="cross-sectional autocorrelations")
    _add_param_flags(k)
    k.add_argument("-T", type=int, default=250, help="path length")
    k.add_argument("-R", type=int, default=5000, help="replications")
    k.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    k.add_argument("--t-obs", dest="t_obs", type=int, default=200, help="observation time")
    k.add_argument("--k-max", dest="k_max", type=int, default=4, help="largest lag")
    _add_out_flag(k)
    k.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("figure", help="curve CSVs over a (phi, rho) grid")
    kinds = p.add_subparsers(dest="kind", required=True, metavar="kind")
    for kind, desc in (("vbar", "variance limit"), ("bias", "asymptotic slope bias")):
        k = kinds.add_parser(kind, formatter_class=fmt, help=f"{desc} curve data")
        k.add_argument(
            "--phi-list",
            dest="phi_list",
            type=_float_list,
            default=DEFAULT_PHI_GRID,
            help="comma-separated phi values",
        )
        k.add_argument(
            "--rho-grid",
            dest="rho_grid",
            type=_float_list,
            default=DEFAULT_RHO_GRID,
            help="comma-separated rho values",
        )
        k.add_argument("--sigma", type=float, default=1.0, help="innovation standard deviation")
        _add_out_flag(k)
        k.set_defaults(handler=_cmd_figure)

    return parser


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv, run the selected subcommand, return the exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        params = ModelParams(ns.phi, ns.rho, ns.sigma) if hasattr(ns, "phi") else None
        return ns.handler(ns, params)
    except DigarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
