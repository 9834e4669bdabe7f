"""Canonical JSON for every report: sorted keys, two-space indent.

A report is rendered by ``json.dumps(sort_keys=True, indent=2)``, except
for the column-pair list of an FDR scan, which holds n(n-1)/2 records
(499,500 at n = 1000).  A payload carries the ``OutlierReport`` itself
where that list belongs.  ``write_json`` renders the list straight from
the report's ``r`` and ``p_values`` and its column count, ``_PAIR_CHUNK``
pairs per write, and gives the same bytes as ``json.dumps`` of
``to_dict(include_pairs=True)``.  A chunk is one list of prebuilt
pieces joined once: the record's fixed separators, the columns' names,
``float.__repr__`` of each value (what ``json`` uses) and
``"true"``/``"false"``.  A list of at least twice ``_PIECE_PAIRS``
pairs written to a file is rendered in one forked piece per CPU, whose
chunks are the ones the serial path renders (see ``_write_pieces``).
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
from typing import Callable, TextIO

import numpy as np

from ._cpus import _affinity_cpus, _forked, _reap
from .fdr import OutlierReport, _unrank_pairs

#: pair records rendered and written at a time: about 1 MB of text, whose
#: strings and Python numbers are freed before the next chunk is made
_PAIR_CHUNK = 8_192
#: a pair list is cut into pieces of at least this many pairs, one per CPU at most
_PIECE_PAIRS = 4 * _PAIR_CHUNK
#: bytes of a child's piece copied into the output at a time
_COPY_BYTES = 1 << 20


def write_json(payload, fh: TextIO) -> None:
    """Write ``payload`` to ``fh``; each ``OutlierReport`` in it becomes its pair list."""
    reports: list[OutlierReport] = []

    def mark(obj):
        if isinstance(obj, OutlierReport):
            reports.append(obj)
            return marker
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    try:
        # the marker must not occur in any other string of the payload
        for k in itertools.count():
            marker = f"\x00pairs{k}"
            reports.clear()
            parts = json.dumps(payload, sort_keys=True, indent=2, default=mark).split(json.dumps(marker))
            if len(parts) == len(reports) + 1:
                break
        fh.write(parts[0])
        for report, before, after in zip(reports, parts, parts[1:]):
            line = before[before.rfind("\n") + 1 :]
            _write_pairs(report, len(line) - len(line.lstrip(" ")), fh)
            fh.write(after)
    finally:
        # json's indenting encoder leaves a reference cycle that holds
        # ``mark`` until the garbage collector next runs; emptied, it no
        # longer keeps the reports' arrays alive past this call
        reports.clear()


def dumps(payload) -> str:
    """``write_json`` into a string."""
    buf = io.StringIO()
    write_json(payload, buf)
    return buf.getvalue()


def _write_pairs(report: OutlierReport, depth: int, fh: TextIO) -> None:
    # the list opens on a line indented by ``depth``; its records sit two deeper
    if report.n_pairs == 0:
        fh.write("[]")
        return
    outer, inner = " " * (depth + 2), " " * (depth + 4)
    first = f'{outer}{{\n{inner}"j": '
    # a record is ten pieces, each value after the text before it; the text
    # before "j" closes the previous record, except in the list's first record
    record = [
        f"\n{outer}}},\n{first}", None,
        f',\n{inner}"jp": ', None,
        f',\n{inner}"p": ', None,
        f',\n{inner}"r": ', None,
        f',\n{inner}"significant": ', "false",
    ]
    names = [str(j) for j in range(report.n)]

    def write_range(a: int, b: int, out: TextIO) -> None:
        # pairs a to b, a chunk at a time; a is a multiple of _PAIR_CHUNK
        for start in range(a, b, _PAIR_CHUNK):
            stop = min(start + _PAIR_CHUNK, b)
            j, jp = _unrank_pairs(report.n, np.arange(start, stop))
            pieces = record * (stop - start)
            if start == 0:
                pieces[0] = first
            pieces[1::10] = map(names.__getitem__, j.tolist())
            pieces[3::10] = map(names.__getitem__, jp.tolist())
            pieces[5::10] = map(float.__repr__, report.p_values[start:stop].tolist())
            pieces[7::10] = map(float.__repr__, report.r[start:stop].tolist())
            lo, hi = np.searchsorted(report.discoveries, (start, stop))
            for k in report.discoveries[lo:hi].tolist():
                pieces[10 * (k - start) + 9] = "true"
            out.write("".join(pieces))

    fh.write("[\n")
    _write_pieces(report.n_pairs, write_range, fh)
    fh.write(f"\n{outer}}}\n{' ' * depth}]")


def _write_pieces(n_pairs: int, write_range: Callable[[int, int, TextIO], None], fh: TextIO) -> None:
    """``write_range(0, n_pairs, fh)`` in k pieces: one rendered here, k - 1 in forked children.

    k is the number of CPUs in the affinity mask, but at most one piece
    per ``_PIECE_PAIRS`` pairs, and the cuts fall on multiples of
    ``_PAIR_CHUNK``, so every chunk is the one the serial path renders.
    This process renders piece 0 into ``fh`` while child i renders
    piece i into its own anonymous file (``os.memfd_create``); then it
    waits for each child in turn and copies its file into ``fh.buffer``,
    ``_COPY_BYTES`` at a time, or renders the piece itself when the
    child failed.  The children inherit ``fh`` and write nothing to it.
    Their files are text files with ``fh``'s encoding and error handler
    and the default ``newline``, so a piece holds the bytes ``fh`` would
    write when it too was opened with the default ``newline``, as the
    CLI's ``--out`` and stdout are.  With k < 2, without
    ``os.memfd_create``, for a target without a ``buffer`` (a
    ``StringIO``) or when a file or a fork cannot be made,
    ``write_range`` runs once, here.  No child outlives this call, also
    when a write to ``fh`` raises.
    """
    k = min(_affinity_cpus(), n_pairs // _PIECE_PAIRS)
    if k < 2 or not hasattr(os, "memfd_create") or not hasattr(fh, "buffer"):
        write_range(0, n_pairs, fh)
        return
    chunks = -(-n_pairs // _PAIR_CHUNK)
    cuts = [_PAIR_CHUNK * (chunks * i // k) for i in range(k)] + [n_pairs]
    files: list[int] = []
    try:
        try:
            for _ in range(1, k):
                files.append(os.memfd_create("pairs"))
        except OSError:
            write_range(0, n_pairs, fh)
            return
        work = (
            functools.partial(_render_piece, write_range, a, b, fd, fh.encoding, fh.errors)
            for a, b, fd in zip(cuts[1:], cuts[2:], files)
        )
        with _forked(work) as children:
            if children is None:
                write_range(0, n_pairs, fh)
                return
            write_range(0, cuts[1], fh)
            for a, b, fd in zip(cuts[1:], cuts[2:], files):
                if _reap(children) == 0:
                    _copy(fd, fh)
                else:
                    write_range(a, b, fh)
    finally:
        for fd in files:
            os.close(fd)


def _render_piece(write_range, a: int, b: int, fd: int, encoding: str, errors: str) -> int:
    """In a forked child: render pairs a to b into the file ``fd``; 0 on success."""
    with open(fd, "w", encoding=encoding, errors=errors, closefd=False) as out:
        write_range(a, b, out)
    return 0


def _copy(fd: int, fh: TextIO) -> None:
    # after what fh holds, the file's bytes through one reused block: the
    # file is never mapped nor read whole, so it adds no more than the
    # block to this process's memory
    fh.flush()
    block = bytearray(_COPY_BYTES)
    view, offset = memoryview(block), 0
    while size := os.preadv(fd, [block], offset):
        fh.buffer.write(view[:size])
        offset += size

