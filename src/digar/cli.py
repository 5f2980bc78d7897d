"""Command-line front-end.

Subcommands: limits, variance-path, simulate, estimate,
experiment {consistency,clt,acf}, figure {vbar,bias}.  Exit status 0 on
success, 2 on usage errors, 3 on domain/range errors, 4 on I/O errors,
always with a one-line diagnostic on stderr.  Identical argv (seed
included) produces byte-identical output files; the seed of every
randomized run is echoed on stderr and embedded in JSON outputs.

`import digar.cli`, limits and figure load no numpy, json or csv: their
work is float arithmetic, and only the commands that write JSON or read
a path CSV load json or csv.  variance-path, simulate, estimate and experiment compute
with arrays, and each starts by loading numpy and the array modules
(estimation, experiments, simulation) through _load_arrays.  numpy loads
there with one OpenBLAS thread, unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set or numpy is already loaded:
the commands' only BLAS call is a 2 x R np.corrcoef, and idle OpenBLAS
workers spin about 0.1 s of CPU per process.  The variable is removed
again, so child processes inherit nothing.

simulate (csv), variance-path and estimate --in stream their rows chunk
by chunk, and a process with one thread spreads the chunks over W
processes, as a batch spreads its blocks (simulation._chunk_map): each
process walks the path or V_t, or reads the file after its header, by
itself; it formats, or parses in simulate's plain form, only its own
chunks; and this process writes every chunk in order.  A worker opens the
file again, so only a regular file is shared out.  At the first piece
of a file that is not plain the workers are killed, and the rest is read
here alone, so the csv row loop words every refusal as before.
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
from dataclasses import asdict
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .dependence import DEFAULT_PHI_GRID, DEFAULT_RHO_GRID, bias_curve, dependence_profile, vbar_curve
from .errors import DigarError, OutOfRangeError
from .model import _PATH_CHUNK, ModelParams, _check_variances, stationary_sd, vbar_limit

if TYPE_CHECKING:
    import numpy as np
    from .estimation import EstimateResult

__all__ = ["DEFAULT_SEED", "build_parser", "parse_and_dispatch", "main"]

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
    _load_arrays()
    next_v = _check_variances(params, ns.T)  # refuses before the first byte
    with closing(_variance_csv(next_v, ns.T)) as pieces:
        _write_text(ns.out, pieces)
    return 0


def _rows(t: int, columns: tuple[list[float], ...]) -> str:
    # CSV rows t, t+1, ... whose other cells are the columns' values, each
    # written as %.17g, formatted with one % template.
    n, k = len(columns[0]), 1 + len(columns)
    cells = [None] * (k * n)  # the cells of each row in turn
    cells[0::k] = range(t, t + n)
    for i, column in enumerate(columns, 1):
        cells[i::k] = column
    return (("%d" + ",%.17g" * len(columns) + "\n") * n) % tuple(cells)


def _ascii_rows(piece: tuple[int, list[float], ...]) -> bytes:
    # _rows of a piece (t, column, ...), as ASCII bytes.
    return _rows(piece[0], piece[1:]).encode("ascii")


def _variance_csv(next_v: Callable[[int], np.ndarray], T: int) -> Iterator[str]:
    # The CSV of V_1..V_T, one piece per _PATH_CHUNK entries of a fresh
    # variance walk, so V_t is never held whole; every process of
    # _chunk_map walks V_t and formats its own pieces.
    yield "t,v\n"
    pieces = ((t, next_v(min(_PATH_CHUNK, T + 1 - t)).tolist()) for t in range(1, T + 1, _PATH_CHUNK))
    for _, raw in _chunk_map(pieces, _ascii_rows, -(-T // _PATH_CHUNK)):
        yield raw.decode("ascii")


def _path_csv(chunks: Iterable[tuple[list[float], list[float], np.ndarray]], T: int) -> Iterator[str]:
    # The CSV of the T-step path whose Y_t and xi_t chunks come from
    # simulation._walk, one piece per chunk, so a long path is never held;
    # every process of _chunk_map walks the path and formats its own chunks.
    yield "t,y,xi\n0,0,\n"

    def pieces() -> Iterator[tuple[int, list[float], list[float]]]:
        t = 1
        for ys, xs, _ in chunks:
            yield t, ys, xs
            t += len(ys)

    for _, raw in _chunk_map(pieces(), _ascii_rows, -(-T // _PATH_CHUNK)):
        yield raw.decode("ascii")


def _cmd_simulate(ns: argparse.Namespace, params: ModelParams) -> int:
    _load_arrays()
    _seed_banner(ns.seed)
    if ns.format == "json":
        import json
        path = simulate_path(params, ns.T, ns.seed)
        y, xi = path.y.tolist(), path.xi.tolist()
        tree = {**asdict(path.params), "seed": path.seed, "y": y, "xi": xi}
        _write_text(ns.out, [json.dumps(tree, indent=2) + "\n"])
    else:
        with closing(_path_csv(_walk(params, ns.T, ns.seed), ns.T)) as pieces:
            _write_text(ns.out, pieces)
    return 0


def _csv_rows(
    infile: str, rows: Iterator[list[str]], lineno: int, t: int, last_line: int
) -> tuple[list[float], list[float], int]:
    # The row loop: it alone decides which rows a path file may hold and
    # words every FILE:LINE refusal.  Reads records from rows, a
    # csv.reader, the first numbered lineno and expected to read t, and
    # stops after the record that takes the reader to its line last_line
    # (rows.line_num), or at the end.  Returns their y and xi values and
    # the next record number.
    y: list[float] = []
    xi: list[float] = []
    for row in rows:
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
        lineno += 1
        if rows.line_num >= last_line:
            break
    return y, xi, lineno


def _plain_rows(text: str, t: int) -> np.ndarray | None:
    # The rows of text, lines that each end in "\n", as an (n, 3) array,
    # if every line is "t,y,xi" as simulate writes it: t written as the
    # decimal digits of the row's number (t, t+1, ...), with no leading
    # zero, and y and xi numbers numpy parses from the characters
    # 0-9 + - . e.  csv.reader and float() then read the same values, so
    # the row loop would take the rows as they are.  None otherwise.
    # Whitespace is refused because numpy reads a field of only whitespace
    # as -1.
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if not re.fullmatch(rb"(?:[1-9][0-9]*,[-+.0-9e]+,[-+.0-9e]+\n)+", raw):
        return None
    n = raw.count(b"\n")
    with warnings.catch_warnings():
        # numpy before 2.0 warns and returns what it read on unparsable text.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            cells = np.fromstring(raw[:-1].replace(b"\n", b","), sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if cells.size != 3 * n:
        return None
    cells = cells.reshape(n, 3)
    return cells if np.array_equal(cells[:, 0], np.arange(t, t + n)) else None


def _plain_piece(piece: tuple[str, int]) -> bytes:
    # The y values, then the xi values, of a piece (text, t) of _texts, as
    # float64 bytes, if its rows are plain (_plain_rows), a piece at t = 0
    # first holding the t = 0 row as simulate writes it; else b"".
    text, t = piece
    y0: list[float] = []
    if t == 0 and text.startswith("0,0,\n"):
        y0, text, t = [0.0], text[5:], 1
    cells = _plain_rows(text, t) if t > 0 and text else None
    return b"" if cells is None else np.concatenate((y0, cells[:, 1], cells[:, 2])).tobytes()


def _plain_values(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    # The y and xi values of a piece from _plain_piece's bytes.
    values = np.frombuffer(raw)
    n = values.size - values.size // 2  # y values: one more than xi's at t = 0
    return values[:n], values[n:]


def _texts(fh: io.TextIOBase) -> Iterator[tuple[str, int]]:
    # The rest of fh in pieces of _READ_CHARS characters and the rest of
    # their last line, each with the t its first line has if every line
    # before it, after the header, is a row.
    t = 0
    while text := fh.read(_READ_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()  # end the piece with its last line
        yield text, t
        t += text.count("\n")


def _reread(infile: str) -> Iterator[tuple[str, int]]:
    # _texts of infile opened afresh, after its header.
    import csv
    with open(infile, newline="", encoding="utf-8") as fh:
        next(csv.reader(fh), None)
        yield from _texts(fh)


def _estimate_csv(infile: str, params: ModelParams) -> EstimateResult:
    # The estimate of the path in a CSV file, read and summed chunk by
    # chunk; the file's path is never held whole.
    import csv
    _load_arrays()
    with open(infile, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise OutOfRangeError(f"empty path file: {infile}")
        if [h.strip() for h in header] != ["t", "y", "xi"]:
            raise OutOfRangeError(f"expected header t,y,xi in {infile}, got {header}")
        with closing(_csv_pieces(infile, fh)) as pieces:
            return _estimate(params, pieces)


def _csv_pieces(infile: str, fh: io.TextIOBase) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The y and xi values of the rows after the header, a piece of _texts
    # at a time.  While the pieces are in simulate's plain form, numpy
    # parses each in one call (_plain_piece), spread over the processes of
    # _chunk_map; workers open the file afresh, so only a regular file is
    # shared out.  From the first other piece on, this process reads on
    # alone, and any piece that is not plain goes through _csv_rows, so
    # only the row loop refuses a file.
    import csv
    texts = _texts(fh)
    st = os.fstat(fh.fileno())
    n = -(-st.st_size // _READ_CHARS) if stat.S_ISREG(st.st_mode) else 1
    with closing(_chunk_map(texts, _plain_piece, n, lambda: _reread(infile))) as plain:
        for (text, t), raw in plain:
            if not raw:
                break
            yield _plain_values(raw)
        else:
            return
    lineno = t + 2  # the record number of row t, as every line before it was one row
    for text, _ in chain([(text, t)], texts):
        if raw := _plain_piece((text, t)):
            y, xi = _plain_values(raw)
            yield y, xi
            t += y.size
            lineno += y.size
            continue
        if t == 0 and text.startswith("0,0,\n"):  # the t = 0 row as simulate writes it
            yield np.zeros(1), np.empty(0)
            text, t, lineno = text[5:], 1, lineno + 1
        if text:
            lines = io.StringIO(text, newline="").readlines()
            # A quoted field may carry a record past the piece; the
            # reader then takes the lines it needs from the file.
            rows = csv.reader(chain(lines, fh))
            y, xi, lineno = _csv_rows(infile, rows, lineno, t, len(lines))
            yield np.array(y, dtype=float), np.array(xi, dtype=float)
            t += len(y)


def _cmd_estimate(ns: argparse.Namespace, params: ModelParams) -> int:
    _load_arrays()
    if ns.infile is not None:
        res, seed = _estimate_csv(ns.infile, params), None
    else:
        _seed_banner(ns.seed)
        res, seed = _walk_estimate(params, _walk(params, ns.T, ns.seed)), ns.seed
    tree = asdict(res)
    if ns.format == "json":
        import json
        text = json.dumps({**tree, "seed": seed}, indent=2) + "\n"
    else:
        text = ",".join(tree) + "\n" + ",".join(map(_g17, tree.values())) + "\n"
    _write_text(ns.out, [text])
    return 0


def _cmd_experiment(ns: argparse.Namespace, params: ModelParams) -> int:
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
    _write_text(ns.out, [json.dumps(tree, indent=2) + "\n"])
    return 0


def _cmd_figure(ns: argparse.Namespace, params: None) -> int:
    build = vbar_curve if ns.kind == "vbar" else bias_curve
    rows = build(ns.phi_list, ns.rho_grid, ns.sigma)
    lines = ["phi,rho,value", *(f"{phi!r},{rho!r},{value!r}" for phi, rho, value in rows)]
    _write_text(ns.out, ["\n".join(lines) + "\n"])
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
