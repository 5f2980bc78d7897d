"""The CSV of a single path or V_t: the writer of simulate and
variance-path, and the reader of estimate --in.  Only those commands
import it, once numpy is loaded, so `import digar.cli`, limits, figure
and experiment compile none of it.

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

import io
import os
import re
import stat
import warnings
from contextlib import closing
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import OutOfRangeError
from .estimation import EstimateResult, _walk_estimate
from .model import _PATH_CHUNK, ModelParams, _check_variances, _variance_walk
from .simulation import _checked_steps, _chunk_map

# Characters of a path CSV read per chunk (rounded up to a line end), so
# estimate --in holds a few copies of one chunk and nothing T-long.  Chunks
# of 64 KiB to 256 KiB read at the same speed; at 256 KiB the C heap grew
# with T (peak RSS 31.7 MiB at T = 1e6, 38.7 MiB at 5e6), at 64 KiB it
# does not (30.0 and 30.8 MiB).
_READ_CHARS = 1 << 16


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


def _csv_rows(
    infile: str, texts: Iterable[str], t: int, line: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The row loop: it alone decides which rows a path file may hold and
    # words every FILE:LINE refusal, at the line its record opens on.  Reads
    # the CSV records of texts, pieces that each end with a line, to the
    # end, the first on the file's line `line` and expected to be row t,
    # and yields their y and xi values every _PATH_CHUNK rows.
    import csv
    lines = (text_line for text in texts for text_line in io.StringIO(text, newline="").readlines())
    records = csv.reader(lines)
    y: list[float] = []
    xi: list[float] = []
    opened = line  # the line the record being read opens on
    try:
        for row in records:
            if row:
                if len(row) != 3:
                    raise OutOfRangeError(f"{infile}:{opened}: expected 3 fields, got {len(row)}")
                if row[0] != str(t):
                    raise OutOfRangeError(f"{infile}:{opened}: expected t = {t}, got {row[0]!r}")
                try:
                    y.append(float(row[1]))
                    if row[2].strip() != "":
                        xi.append(float(row[2]))
                    elif t != 0:
                        raise ValueError("xi may be empty only at t=0")
                except ValueError as exc:
                    raise OutOfRangeError(f"{infile}:{opened}: {exc}")
                t += 1
                if len(y) == _PATH_CHUNK:
                    yield np.array(y), np.array(xi)
                    y, xi = [], []
            opened = line + records.line_num
    except csv.Error as exc:  # as a quote left open for more than csv's field size limit
        raise OutOfRangeError(f"{infile}:{opened}: {exc}")
    yield np.array(y), np.array(xi)


def _plain_piece(piece: tuple[str, int, int, int]) -> bytes:
    # The y values, then the xi values, of a piece (text, t, n, line) of _texts, as
    # float64 bytes, if its rows are plain; else b"".  A piece at t = 0
    # first holds the t = 0 row as simulate writes it.  Its other n rows,
    # lines that each end in "\n", are plain if every line is "t,y,xi" as
    # simulate writes it: t written as the decimal digits of the row's
    # number (t, t+1, ...), with no leading zero, so never 0, and y and xi
    # numbers numpy parses from the characters 0-9 + - . e.  csv.reader and
    # float() then read the same values, so the row loop would take the
    # rows as they are.  Whitespace is refused because numpy reads a field
    # of only whitespace as -1.
    text, t, n, _ = piece
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


def _texts(infile: str) -> Iterator[tuple[str, int, int, int]]:
    # The rest of the path file infile after its header, in pieces of
    # _READ_CHARS characters and the rest of their last line, each with its
    # first line's t if every line before it, after the header, is a row,
    # its number of lines and its first line's number in the file.  The
    # file opens, and its header is checked, once first advanced: in every
    # process of _chunk_map, each with a file description of its own.
    import csv
    try:
        with open(infile, newline="", encoding="utf-8") as fh:
            try:
                header = next(reader := csv.reader(fh))
            except StopIteration:
                raise OutOfRangeError(f"empty path file: {infile}")
            except csv.Error as exc:
                raise OutOfRangeError(f"{infile}:1: {exc}")
            if [h.strip() for h in header] != ["t", "y", "xi"]:
                raise OutOfRangeError(f"expected header t,y,xi in {infile}, got {header}")
            t = 0
            while text := fh.read(_READ_CHARS):
                if not text.endswith("\n"):
                    text += fh.readline()  # end the piece with its last line
                yield text, t, (n := text.count("\n")), reader.line_num + 1 + t
                t += n
    except UnicodeDecodeError as exc:  # no line number: the decoder counts within a block
        raise OutOfRangeError(f"{infile} is not UTF-8 text ({exc.reason})")


def _estimate_csv(infile: str, params: ModelParams) -> EstimateResult:
    # The estimate of the path in a CSV file, read, checked and summed chunk
    # by chunk, so the file's path is never held whole.  SamplePath's
    # refusals come first, then V_1..V_T's, once the file's T is known.
    next_v = _variance_walk(params)

    def chunks(pieces: Iterable) -> Iterator[tuple[np.ndarray, None, np.ndarray]]:
        T = 0
        for ys in _checked_steps(params, pieces):
            yield ys, None, next_v(ys.size - (T == 0))  # V_{t-1} of the steps t >= 2
            T += ys.size
        _check_variances(params, T)

    with closing(_csv_pieces(infile)) as pieces:
        return _walk_estimate(params, chunks(pieces))


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
            for (text, t, _, line), raw in plain:
                if not raw:
                    break
                values = np.frombuffer(raw)
                ny = values.size - values.size // 2  # y values: one more than xi's at t = 0
                yield values[:ny], values[ny:]
            else:
                return
        # Every line before the piece was one row, so its first line is row t.
        yield from _csv_rows(infile, chain([text], (later for later, *_ in texts)), t, line)
