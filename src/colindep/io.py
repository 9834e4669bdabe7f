"""Tabular input and output: CSV/TSV matrices, rows = features, columns = samples.

A large matrix file is parsed in forked pieces, one per CPU (see ``ingest``).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import mmap
import operator
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._cpus import _affinity_cpus, _forked, _reap
from .errors import InvalidInput, ParseError
from .matrix import DataMatrix

_MISSING_TOKENS = {"", "na", "nan", "null", "n/a"}
_CHOICES = ("auto", "yes", "no")
_BOM = b"\xef\xbb\xbf"
#: a body is cut into pieces of at least this many bytes, one per CPU at most
_PIECE_BYTES = 1 << 20


@dataclass(frozen=True)
class ParseOptions:
    """How to read a matrix file.

    ``header`` and ``row_ids`` accept "auto" (detect from content),
    "yes" or "no".  ``delimiter`` of None picks tab for .tsv and .tab
    files and comma otherwise.  Group labels for the columns come either
    from ``group_sizes`` (e.g. (44, 19): first 44 columns are group one)
    or from ``groups_file``, a text file with one label per column line.
    Making the options raises InvalidInput for a ``header`` or ``row_ids``
    outside those three, a group size that is not an integer of at
    least 1, or both group sources;
    ``ingest`` raises it unless ``delimiter`` is None or one character
    other than a double quote or a line end.
    """

    delimiter: str | None = None
    header: str = "auto"
    row_ids: str = "auto"
    group_sizes: tuple[int, ...] | None = None
    groups_file: str | None = None

    def __post_init__(self):
        for name in ("header", "row_ids"):
            if getattr(self, name) not in _CHOICES:
                raise InvalidInput(f"{name} must be 'auto', 'yes' or 'no'")
        if self.group_sizes is not None:
            try:
                sizes = tuple(operator.index(size) for size in self.group_sizes)
            except TypeError:
                raise InvalidInput(f"group sizes must be integers, got {self.group_sizes!r}") from None
            if any(size < 1 for size in sizes):
                raise InvalidInput("group sizes must be positive")
            object.__setattr__(self, "group_sizes", sizes)
            if self.groups_file is not None:
                raise InvalidInput("give group sizes or a groups file, not both")


def _delimiter(path: Path, delimiter: str | None) -> str:
    # the delimiter rule of ingest and write_matrix: tab for .tsv and .tab by default,
    # else comma; a given one must be one character other than '"' and a line end
    if delimiter is None:
        return "\t" if path.suffix.lower() in (".tsv", ".tab") else ","
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n':
        raise InvalidInput(f"delimiter must be one character, not a quote or a line end, got {delimiter!r}")
    return delimiter


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _is_label(token: str) -> bool:
    # a cell that is neither a number nor a missing value
    try:
        float(token)
    except ValueError:
        return not _is_missing(token)
    return False


def _parse_cell(token: str, row: int, col: int) -> float:
    stripped = token.strip()
    if _is_missing(stripped):
        raise ParseError("missing value", row=row, column=col)
    try:
        return float(stripped)
    except ValueError:
        raise ParseError(f"non-numeric cell {token!r}", row=row, column=col) from None


def _read_group_labels(path: str, n: int) -> list[str]:
    text = Path(path).read_text(encoding="utf-8-sig")
    labels = [line.strip() for line in text.splitlines() if line.strip()]
    if len(labels) != n:
        raise ParseError(f"groups file has {len(labels)} labels for {n} columns")
    return labels


def _labels_from_sizes(sizes: tuple[int, ...], n: int) -> list[str]:
    if sum(sizes) != n:
        raise InvalidInput(f"group sizes {sizes} do not sum to the {n} columns")
    return [f"group{g}" for g, size in enumerate(sizes, start=1) for _ in range(size)]


def ingest(path: str, options: ParseOptions | None = None) -> tuple[DataMatrix, list[str] | None]:
    """Read a dense matrix from a delimited text file.

    Auto-detects an optional header row and an optional leading row-ID
    column, both overridable through ``options``.  A label, a cell that
    is neither a number nor a missing value, marks them: anywhere in
    the first row for a header, anywhere in the first column below it
    for row IDs.  A missing corner cell above a row-ID column marks a
    header too.  Missing or non-numeric cells raise ParseError
    with their 1-based location; no imputation is attempted.  A body of
    a regular file of at least twice ``_PIECE_BYTES`` is parsed in one
    forked piece per CPU, into one shared buffer that becomes the
    matrix; the values, and any error, are those of the one-piece parse.
    Returns the matrix (state "raw") and per-column group labels when
    the options provide them, else None.
    """
    opts = options or ParseOptions()
    p = Path(path)
    delim = _delimiter(p, opts.delimiter)
    if not p.exists():
        raise ParseError(f"no such file: {path}")
    values = _load_body(p, delim, opts)
    if values is None:
        values = _parse_rows(p, delim, opts)

    # the parsed array is this call's own, so it is adopted without a copy
    matrix = DataMatrix._adopt_checked(values, "raw")
    labels: list[str] | None = None
    if opts.groups_file is not None:
        labels = _read_group_labels(opts.groups_file, matrix.n)
    elif opts.group_sizes is not None:
        labels = _labels_from_sizes(opts.group_sizes, matrix.n)
    return matrix, labels


def _layout(first: list[str], ids_below: bool, opts: ParseOptions) -> tuple[bool, bool]:
    """Whether the file has a header row and a row-ID column.

    ``first`` is the first row; ``ids_below`` says a label sits in the
    first column below it.
    """
    if opts.header == "auto":
        # a missing corner cell above row IDs marks a header too
        corner = _is_missing(first[0]) and (ids_below or opts.row_ids == "yes")
        has_header = corner or any(map(_is_label, first))
    else:
        has_header = opts.header == "yes"
    if opts.row_ids == "auto":
        has_ids = ids_below or (not has_header and _is_label(first[0]))
    else:
        has_ids = opts.row_ids == "yes"
    return has_header, has_ids


def _skip_id(token: str) -> float:
    return 0.0


def _load_body(p: Path, delim: str, opts: ParseOptions) -> np.ndarray | None:
    """The data cells through numpy's C parser, or None when ``_parse_rows`` must decide.

    The header and the row-ID column are settled from the first two rows
    with ``csv``: a label in the second row's first cell means row IDs;
    otherwise the first column is parsed as numbers, which fails on any
    label below.  numpy's float parser accepts a subset of what Python's
    ``float`` does (not ``"1_000"``, not non-ASCII digits) and gives the
    same bits where both accept, so any error, non-finite value or
    ragged row hands the file to ``_parse_rows`` unchanged.  The row-ID
    column goes through a converter rather than ``usecols``, because
    ``usecols`` turns off numpy's check that every row has one width.
    A large body is parsed in forked pieces (see ``_load_pieces``); when
    it goes as one piece, or any piece fails, one ``np.loadtxt`` call in
    this process parses it whole.
    """
    with open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delim)
        rows = filter(None, reader)
        first = next(rows, None)
        header_lines = reader.line_num
        second = next(rows, None)
    if second is None:
        return None
    has_header, has_ids = _layout(first, opts.row_ids == "auto" and _is_label(second[0]), opts)
    skip = header_lines if has_header else 0
    kwargs = dict(
        delimiter=delim, comments=None, quotechar='"', ndmin=2,
        converters={0: _skip_id} if has_ids else None,
    )
    values = _load_pieces(p, skip, len(first), kwargs)
    if values is None:
        with open(p, newline="", encoding="utf-8-sig") as fh:
            for _ in range(skip):
                next(fh)
            try:
                values = np.loadtxt(fh, **kwargs)
            except ValueError:
                return None
        if values.shape[1] != len(first) or not np.isfinite(values).all():
            return None
    return values[:, 1:] if has_ids else values


def _load_pieces(p: Path, skip: int, width: int, kwargs: dict) -> np.ndarray | None:
    r"""The body after ``skip`` lines parsed in k forked children, or None to parse it in one piece.

    k is the number of CPUs in the affinity mask, but at most one piece
    per ``_PIECE_BYTES`` of body; with k = 1, without ``os.fork`` or for
    a path that is not a regular file, nothing forks.  The body is cut
    at the first ``\n`` after each k-th of its bytes, and each piece's
    rows are counted in this process (see ``_count_rows``); a body with
    a ``"`` or a lone ``\r``, also in the lines skipped before it, goes
    as one piece.  The rows then land in one shared anonymous map of
    rows x ``width`` doubles, which becomes the matrix: each child
    parses its piece with the same ``np.loadtxt`` call and writes it at
    its row offset only when its shape is the counted one and every
    value is finite.  A child that fails for any reason (a parse error,
    a width, a warning) exits non-zero, and then the whole body goes as
    one piece, as it does when the map or a fork cannot be made.  No
    child outlives this call: on any exit the rest are killed and
    reaped.  The children's own memory, their piece's text and parsed
    rows, is freed with them.
    """
    cpus = _affinity_cpus()
    if cpus < 2 or not hasattr(os, "fork"):
        return None
    with open(p, "rb") as fb:
        info = os.fstat(fb.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None
        size = info.st_size
        start = len(_BOM) if fb.read(len(_BOM)) == _BOM else 0
        fb.seek(start)
        # csv counted the skipped lines as text does, at \r, \n and \r\n alike
        head = b"".join(fb.readline() for _ in range(skip))
        if head.count(b"\r") != head.count(b"\r\n"):
            return None
        start += len(head)
        k = min(cpus, (size - start) // _PIECE_BYTES)
        if k < 2:
            return None
        cuts = [start]
        for i in range(1, k):
            fb.seek(start + (size - start) * i // k - 1)
            fb.readline()
            cuts.append(fb.tell())
        cuts.append(size)
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            return None
        rows = [_count_rows(fb, a, b) for a, b in zip(cuts, cuts[1:])]
        if None in rows:
            return None
        fb.seek(size - 1)
        rows[-1] += fb.read(1) != b"\n"
        if not all(rows):
            return None

    offsets = [0, *itertools.accumulate(rows)]
    try:
        shared = mmap.mmap(-1, offsets[-1] * width * 8, flags=mmap.MAP_SHARED)
    except OSError:
        return None
    values = np.frombuffer(shared, dtype=np.float64).reshape(-1, width)
    work = (
        functools.partial(_parse_piece, p, cuts[i], cuts[i + 1], values[offsets[i] : offsets[i + 1]], kwargs)
        for i in range(k)
    )
    with _forked(work) as children:
        if children is None:
            return None
        while children:
            if _reap(children) != 0:
                return None
    return values


def _count_rows(fb, a: int, b: int) -> int | None:
    r"""The rows ``np.loadtxt`` reads from bytes a to b of ``fb``, or None when they may not be cut.

    a is a line start and b a line end or the end of the file.  The rows
    are the ``\n`` less the blank lines, which ``np.loadtxt`` skips.  A
    ``"``, which can quote a line end, gives None, and so does a block
    with more or fewer ``\r`` than ``\n`` when it has any: a lone
    ``\r`` ends a line that ``\n`` does not count.
    """
    fb.seek(a)
    rows = 0
    while a < b:
        block = fb.read(min(b - a, _PIECE_BYTES))
        if a + len(block) < b:
            # each block ends at a line end, so each one starts a line
            block += fb.readline()
        if not block or b'"' in block:
            return None
        text = np.frombuffer(block, dtype=np.uint8)
        lf = text == ord("\n")
        lines = int(np.count_nonzero(lf))
        ends = lf
        if b"\r" in block:
            # every line ends in \r\n, so \n then \r starts a blank line
            ends = text == ord("\r")
            if np.count_nonzero(ends) != lines:
                return None
        # a blank line starts the block or starts right after a line end
        rows += lines - int(np.count_nonzero(ends[1:] & lf[:-1])) - bool(ends[0])
        a += len(block)
    return rows


def _parse_piece(p: Path, a: int, b: int, out: np.ndarray, kwargs: dict) -> int:
    """In a forked child: parse bytes a to b of ``p`` into ``out``; 0 on success, else 1.

    Every warning fails the piece; the one-piece path then meets it.
    """
    warnings.simplefilter("error")
    with open(p, "rb") as fb:
        data = os.pread(fb.fileno(), b - a, a)
    piece = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""), **kwargs)
    if piece.shape != out.shape or not np.isfinite(piece).all():
        return 1
    out[...] = piece
    return 0


def _parse_rows(p: Path, delim: str, opts: ParseOptions) -> np.ndarray:
    """The data cells parsed row by row, with the ParseError of the first bad cell."""
    with open(p, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delim) if row]
    if not rows:
        raise ParseError("empty file")

    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"ragged table: {len(row)} cells, expected {width}", row=k + 1)

    ids_below = opts.row_ids == "auto" and any(_is_label(row[0]) for row in rows[1:])
    has_header, has_ids = _layout(rows[0], ids_below, opts)
    body = rows[1:] if has_header else rows
    first_data_row = 2 if has_header else 1
    if not body:
        raise ParseError("no data rows")
    first_data_col = 2 if has_ids else 1

    # numpy parses each token as Python's float does; a row that fails or
    # holds a non-finite value goes cell by cell, which reports missing
    # and non-numeric cells and passes inf on to DataMatrix
    values = np.empty((len(body), width - (1 if has_ids else 0)))
    for i, row in enumerate(body):
        cells = row[first_data_col - 1 :]
        try:
            values[i] = np.array(cells, dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values[i]).all():
                continue
        for j, token in enumerate(cells):
            values[i, j] = _parse_cell(token, first_data_row + i, first_data_col + j)
    return values


def write_matrix(
    path: str,
    x: DataMatrix,
    header: list[str] | None = None,
    row_ids: list[str] | None = None,
    delimiter: str | None = None,
) -> None:
    """Write a matrix as delimited text; inverse of ingest (repr round-trip).

    Raises InvalidInput, before the file is opened, for a ``header``
    that does not name the n columns or ``row_ids`` that do not name the
    m rows.
    """
    p = Path(path)
    delim = _delimiter(p, delimiter)
    if header is not None and len(header) != x.n:
        raise InvalidInput(f"header has {len(header)} names for {x.n} columns")
    if row_ids is not None and len(row_ids) != x.m:
        raise InvalidInput(f"row_ids has {len(row_ids)} names for {x.m} rows")
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delim)
        if header is not None:
            writer.writerow(([""] if row_ids is not None else []) + list(header))
        for i in range(x.m):
            lead = [row_ids[i]] if row_ids is not None else []
            writer.writerow(lead + [repr(float(v)) for v in x.values[i]])
