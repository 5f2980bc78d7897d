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
OMP_NUM_THREADS is set or numpy is already loaded: the commands' only BLAS
call is a 2 x R np.corrcoef, and idle OpenBLAS workers spin about 0.1 s of
CPU per process.  The variable is removed again, so child processes
inherit nothing.

simulate (csv), variance-path and estimate --in stream their rows chunk
by chunk, and a process with one thread spreads the chunks over W
processes, as a batch spreads its blocks (simulation._chunk_map): each
process walks the path or V_t, or opens the file and reads it after its
header, by itself; it formats, or parses in simulate's plain form, only
its own chunks; and this process writes every chunk in order.  A pipe
cannot be opened again, so only a regular file is shared out.  Numpy
parses a file up to its first piece that is not plain; the workers are
then killed, and the csv row loop reads this process's remaining pieces,
so it alone words every refusal of a row.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import stat
import sys
import warnings
from contextlib import closing
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from .dependence import DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, bias_curve, dependence_profile, vbar_curve
from .errors import DigarError, OutOfRangeError
from .model import _PATH_CHUNK, ModelParams, _check_variances, stationary_sd, vbar_limit

if TYPE_CHECKING:
    import numpy as np
    from .estimation import EstimateResult

__all__ = ["DEFAULT_SEED", "build_parser", "main"]

DEFAULT_SEED = 12345

# Characters of a path CSV read per chunk (rounded up to a line end), so
# estimate --in holds a few copies of one chunk and nothing T-long.  Chunks
# of 64 KiB to 256 KiB read at the same speed; at 256 KiB the C heap grew
# with T (peak RSS 31.7 MiB at T = 1e6, 38.7 MiB at 5e6), at 64 KiB it
# does not (30.0 and 30.8 MiB).
_READ_CHARS = 1 << 16

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
    from .estimation import _estimate, _walk_estimate
    from .experiments import empirical_acf_experiment, run_clt_experiment, run_consistency_experiment
    from .simulation import BatchSpec, _chunk_map, _walk, simulate_path

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
    return _csv("t,v\n", chunks, ns.T)


def _ascii_rows(piece: tuple[int, list[float], ...]) -> bytes:
    # The CSV rows t, t+1, ... of a piece (t, column, ...), as ASCII bytes:
    # the other cells are the columns' values, each written as %.17g, all
    # formatted with one % template.
    t, *columns = piece
    n, k = len(columns[0]), 1 + len(columns)
    cells = [None] * (k * n)  # the cells of each row in turn
    cells[0::k] = range(t, t + n)
    for i, column in enumerate(columns, 1):
        cells[i::k] = column
    return ((("%d" + ",%.17g" * len(columns) + "\n") * n) % tuple(cells)).encode("ascii")


def _csv(head: str, chunks: Iterable[tuple[list[float], ...]], T: int) -> Iterator[str]:
    # head, then the CSV rows t = 1..T of chunks, tuples of equally long
    # columns, one piece per chunk, t counted from the chunks' lengths.
    # Every process of _chunk_map makes the chunks, from a fresh walk, and
    # formats its own (_ascii_rows), so no T-long column is held.
    def pieces() -> Iterator[tuple[int, list[float], ...]]:
        t = 1
        for columns in chunks:
            yield (t, *columns)
            t += len(columns[0])

    yield head
    for _, raw in _chunk_map(pieces(), _ascii_rows, -(-T // _PATH_CHUNK)):
        yield raw.decode("ascii")


def _path_csv(chunks: Iterable[tuple[list[float], list[float], np.ndarray]], T: int) -> Iterator[str]:
    # The CSV of the T-step path whose Y_t and xi_t chunks come from simulation._walk.
    return _csv("t,y,xi\n0,0,\n", ((ys, xs) for ys, xs, _ in chunks), T)


def _cmd_simulate(ns: argparse.Namespace, params: ModelParams) -> Iterable[str]:
    _load_arrays()
    _seed_banner(ns.seed)
    if ns.format == "json":
        import json
        path = simulate_path(params, ns.T, ns.seed)
        y, xi = path.y.tolist(), path.xi.tolist()
        tree = {**path.params._asdict(), "seed": path.seed, "y": y, "xi": xi}
        return [json.dumps(tree, indent=2) + "\n"]
    return _path_csv(_walk(params, ns.T, ns.seed), ns.T)


def _csv_rows(infile: str, texts: Iterable[str], t: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The row loop: it alone decides which rows a path file may hold and
    # words every FILE:LINE refusal.  Reads the CSV records of texts, pieces
    # that each end with a line, to the end, the first numbered t + 2 and
    # expected to be row t, and yields their y and xi values every
    # _PATH_CHUNK rows.
    import csv
    lines = (line for text in texts for line in io.StringIO(text, newline="").readlines())
    y: list[float] = []
    xi: list[float] = []
    for lineno, row in enumerate(csv.reader(lines), t + 2):
        if row:
            if len(row) != 3:
                raise OutOfRangeError(f"{infile}:{lineno}: expected 3 fields, got {len(row)}")
            if row[0] != str(t):
                raise OutOfRangeError(f"{infile}:{lineno}: expected t = {t}, got {row[0]!r}")
            try:
                y.append(float(row[1]))
                if row[2].strip() != "":
                    xi.append(float(row[2]))
                elif t != 0:
                    raise ValueError("xi may be empty only at t=0")
            except ValueError as exc:
                raise OutOfRangeError(f"{infile}:{lineno}: {exc}")
            t += 1
            if len(y) == _PATH_CHUNK:
                yield np.array(y), np.array(xi)
                y, xi = [], []
    yield np.array(y), np.array(xi)


def _plain_piece(piece: tuple[str, int, int]) -> bytes:
    # The y values, then the xi values, of a piece (text, t, n) of _texts, as
    # float64 bytes, if its rows are plain; else b"".  A piece at t = 0
    # first holds the t = 0 row as simulate writes it.  Its other n rows,
    # lines that each end in "\n", are plain if every line is "t,y,xi" as
    # simulate writes it: t written as the decimal digits of the row's
    # number (t, t+1, ...), with no leading zero, so never 0, and y and xi
    # numbers numpy parses from the characters 0-9 + - . e.  csv.reader and
    # float() then read the same values, so the row loop would take the
    # rows as they are.  Whitespace is refused because numpy reads a field
    # of only whitespace as -1.
    text, t, n = piece
    y0: list[float] = []
    if t == 0 and text.startswith("0,0,\n"):
        y0, text, t, n = [0.0], text[5:], 1, n - 1
    raw = text.encode("ascii") if text.isascii() else b""
    if not re.fullmatch(rb"(?:[1-9][0-9]*,[-+.0-9e]+,[-+.0-9e]+\n)+", raw):
        return b""
    with warnings.catch_warnings():
        # numpy before 2.0 warns and returns what it read on unparsable text.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            cells = np.fromstring(raw[:-1].replace(b"\n", b","), sep=",")
        except (ValueError, DeprecationWarning):
            return b""
    if cells.size != 3 * n or not np.array_equal(cells[0::3], np.arange(t, t + n)):
        return b""
    return np.concatenate((y0, cells[1::3], cells[2::3])).tobytes()


def _texts(infile: str) -> Iterator[tuple[str, int, int]]:
    # The rest of the path file infile after its header, in pieces of
    # _READ_CHARS characters and the rest of their last line, each with the
    # t its first line has if every line before it, after the header, is a
    # row, and its number of lines.  The file opens, and its header is
    # checked, once the generator is first advanced: in every process of
    # _chunk_map, each with a file description of its own.
    import csv
    try:
        with open(infile, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise OutOfRangeError(f"empty path file: {infile}")
            if [h.strip() for h in header] != ["t", "y", "xi"]:
                raise OutOfRangeError(f"expected header t,y,xi in {infile}, got {header}")
            t = 0
            while text := fh.read(_READ_CHARS):
                if not text.endswith("\n"):
                    text += fh.readline()  # end the piece with its last line
                yield text, t, (n := text.count("\n"))
                t += n
    except UnicodeDecodeError as exc:  # no line number: the decoder counts within a block
        raise OutOfRangeError(f"{infile} is not UTF-8 text ({exc.reason})")


def _estimate_csv(infile: str, params: ModelParams) -> EstimateResult:
    # The estimate of the path in a CSV file, read and summed chunk by
    # chunk; the file's path is never held whole.
    _load_arrays()
    with closing(_csv_pieces(infile)) as pieces:
        return _estimate(params, pieces)


def _csv_pieces(infile: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The y and xi values of the rows of infile, in two phases.  While the
    # pieces of _texts are in simulate's plain form, numpy parses each in
    # one call (_plain_piece), spread over the processes of _chunk_map; each
    # opens the file itself, so only a regular file is shared out.  From
    # the first other piece to the end of the file this process reads the
    # rest of its own pieces alone through _csv_rows, so only the row loop
    # refuses a row.
    st = os.stat(infile)
    n = -(-st.st_size // _READ_CHARS) if stat.S_ISREG(st.st_mode) else 1
    with closing(texts := _texts(infile)):
        with closing(_chunk_map(texts, _plain_piece, n)) as plain:
            for (text, t, _), raw in plain:
                if not raw:
                    break
                values = np.frombuffer(raw)
                ny = values.size - values.size // 2  # y values: one more than xi's at t = 0
                yield values[:ny], values[ny:]
            else:
                return
        # Every line before the piece was one row, so its first line is row t.
        yield from _csv_rows(infile, chain([text], (later for later, _, _ in texts)), t)


def _cmd_estimate(ns: argparse.Namespace, params: ModelParams) -> list[str]:
    _load_arrays()
    if "infile" in ns:  # --in was given
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
    build = vbar_curve if ns.kind == "vbar" else bias_curve
    rows = build(ns.phi_list, ns.rho_grid, ns.sigma)
    lines = ["phi,rho,value", *(f"{phi!r},{rho!r},{value!r}" for phi, rho, value in rows)]
    return ["\n".join(lines) + "\n"]


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
