"""Command-line front-end.

Subcommands: limits, variance-path, simulate, estimate, experiment
{consistency,clt,acf}, figure {vbar,bias}.  Each returns its output, and
main alone writes it to --out or stdout and closes it.  Exit status 0 on
success, 2 on usage errors, 3 on domain/range errors, 4 on I/O errors,
always with a one-line diagnostic on stderr.  Identical argv (seed
included) produces byte-identical output files; the seed of every
randomized run is echoed on stderr and embedded in JSON outputs.

`import digar.cli`, limits and figure load no numpy, json or csv: their
work is float arithmetic on slotted values (model._Frozen, the type of
every value the package returns), and only the commands that write JSON
or read a path CSV load json or csv.
variance-path, simulate, estimate and experiment compute with arrays, and
each starts by loading numpy and the array modules (estimation,
experiments, simulation) through _load_arrays.  numpy loads there with
one OpenBLAS thread, unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set or numpy is already loaded: the commands make no
BLAS call, and a process is forked (simulation._chunk_map) only while it
runs one thread.  A caller's variable is kept: above 1, OpenBLAS starts
its threads, and the command then runs in one process.  The variable set
here is removed again, so child processes inherit nothing.  The CSV of a
single path or V_t is written and read by pathcsv, which only simulate,
variance-path and estimate --in import.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator

from .dependence import dependence_profile, ols_bias
from .errors import DigarError
from .model import _PATH_CHUNK, ModelParams, _check_variances, stationary_sd, vbar_limit

__all__ = ["DEFAULT_SEED", "DEFAULT_PHI_GRID", "DEFAULT_RHO_GRID", "build_parser", "main"]

DEFAULT_SEED = 12345
DEFAULT_PHI_GRID = (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)  # figure's grid: six phi values by seven rho values
DEFAULT_RHO_GRID = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _load_arrays() -> None:
    # Loads numpy, with the thread rule of the module docstring, and the
    # array modules, and binds here the names the array commands call from
    # them.  A name already bound is kept, so a profiler may wrap one.
    pin = "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_VARS)
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when OpenBLAS loads
    try:
        import numpy as np
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    from .estimation import _walk_estimate
    from .experiments import empirical_acf_experiment, run_clt_experiment, run_consistency_experiment
    from .simulation import BatchSpec, _walk, simulate_path

    del pin  # the other locals are the names to bind
    for name, value in locals().items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    # The names _load_arrays binds also resolve on first lookup (PEP 562);
    # probes of dunder names, as `from digar.cli import main` makes, load
    # nothing.
    if not name.startswith("__"):
        _load_arrays()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {raw!r}")


def _seed_banner(seed: int) -> None:
    print(f"seed = {seed}", file=sys.stderr)


def _cmd_limits(ns: argparse.Namespace, params: ModelParams) -> list[str]:
    prof = dependence_profile(params)
    lines = [
        f"vbar    = {vbar_limit(params):.7g}",
        f"S       = {stationary_sd(params):.7g}",
        f"tau_bar = {prof.tau_bar:.7g}",
        f"bias    = {prof.ols_bias:.7g}",
        f"eta_bar = {prof.eta_bar:.7g}",
        f"eta_hat = {prof.eta_hat:.7g}",
    ]
    return ["\n".join(lines) + "\n"]


def _cmd_variance_path(ns: argparse.Namespace, params: ModelParams) -> Iterator[str]:
    _load_arrays()
    next_v = _check_variances(params, ns.T)  # refuses before the first byte
    chunks = ((next_v(min(_PATH_CHUNK, ns.T + 1 - t)).tolist(),) for t in range(1, ns.T + 1, _PATH_CHUNK))
    from .pathcsv import _csv
    return _csv("t,v\n", chunks, ns.T)


def _cmd_simulate(ns: argparse.Namespace, params: ModelParams) -> Iterable[str]:
    _load_arrays()
    _seed_banner(ns.seed)
    if ns.format == "json":
        import json
        path = simulate_path(params, ns.T, ns.seed)
        y, xi = path.y.tolist(), path.xi.tolist()
        tree = {**path.params._asdict(), "seed": path.seed, "y": y, "xi": xi}
        return [json.dumps(tree, indent=2) + "\n"]
    from .pathcsv import _path_csv
    return _path_csv(_walk(params, ns.T, ns.seed), ns.T)


def _cmd_estimate(ns: argparse.Namespace, params: ModelParams) -> list[str]:
    _load_arrays()
    if "infile" in ns:  # --in was given
        from .pathcsv import _estimate_csv
        res, seed = _estimate_csv(ns.infile, params), None
    else:
        _seed_banner(ns.seed)
        res, seed = _walk_estimate(params, _walk(params, ns.T, ns.seed)), ns.seed
    tree = res._asdict()
    if ns.format == "json":
        import json
        return [json.dumps({**tree, "seed": seed}, indent=2) + "\n"]
    return [",".join(tree) + "\n" + ",".join(map(_g17, tree.values())) + "\n"]


def _cmd_experiment(ns: argparse.Namespace, params: ModelParams) -> list[str]:
    import json
    _load_arrays()
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
    return [json.dumps(tree, indent=2) + "\n"]


def _cmd_figure(ns: argparse.Namespace, params: None) -> list[str]:
    # Rows phi-major, all built before any is written; ModelParams refuses a point outside the domain.
    value = vbar_limit if ns.kind == "vbar" else ols_bias
    points = (ModelParams(phi, rho, ns.sigma) for phi in ns.phi_list for rho in ns.rho_grid)
    return ["phi,rho,value\n" + "".join(f"{p.phi!r},{p.rho!r},{value(p)!r}\n" for p in points)]


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", type=float, default=0.5, help="autoregressive coefficient, |phi| < 1")
    p.add_argument("--rho", type=float, default=0.3, help="copula parameter, |rho| < 1")
    p.add_argument("--sigma", type=float, default=1.0, help="innovation standard deviation")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output file, - for stdout")


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
    p.add_argument("--in", dest="infile", default=argparse.SUPPRESS, help="path CSV to estimate from")
    p.add_argument("-T", type=int, default=5000, help="path length when simulating")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PCG64 seed when simulating")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("experiment", help="Monte Carlo experiments (JSON output)")
    kinds = p.add_subparsers(dest="kind", required=True, metavar="kind")

    for kind, T, R, desc in (
        ("consistency", 5000, 500, "estimator means vs their limits"),
        ("clt", 10000, 2000, "studentized-statistic distribution"),
        ("acf", 250, 5000, "cross-sectional autocorrelations"),
    ):
        k = kinds.add_parser(kind, formatter_class=fmt, help=desc)
        _add_param_flags(k)
        k.add_argument("-T", type=int, default=T, help="path length")
        k.add_argument("-R", type=int, default=R, help="replications")
        k.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
        if kind == "acf":
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


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand argv (default sys.argv[1:]) names, write its
    output to --out or stdout, and return the exit status."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        params = ModelParams(ns.phi, ns.rho, ns.sigma) if hasattr(ns, "phi") else None
        pieces = ns.handler(ns, params)  # a refusal comes before --out opens
        try:
            if ns.out == "-":
                sys.stdout.writelines(pieces)
            else:
                with open(ns.out, "w", encoding="utf-8") as fh:
                    fh.writelines(pieces)
        finally:
            getattr(pieces, "close", lambda: None)()  # reaps a stream's workers
        return 0
    except DigarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
