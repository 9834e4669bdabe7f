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
``"true"``/``"false"``.
"""

from __future__ import annotations

import io
import itertools
import json
from typing import TextIO

import numpy as np

from .fdr import OutlierReport, _unrank_pairs

#: pair records rendered and written at a time: about 1 MB of text, whose
#: strings and Python numbers are freed before the next chunk is made
_PAIR_CHUNK = 8_192


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
    fh.write("[\n")
    for start in range(0, report.n_pairs, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, report.n_pairs)
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
        fh.write("".join(pieces))
    fh.write(f"\n{outer}}}\n{' ' * depth}]")
