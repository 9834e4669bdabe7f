import csv
import importlib
import json
import mmap
import os
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colindep import (
    AuditConfig, ColindepError, DataMatrix, InvalidInput, ParseError, ParseOptions, SimulationSpec, cli,
    audit, block_basis, block_statistic, double_standardize, eigenratio_null, first_eigvec, ingest,
    sample_matrix_normal, spectral, write_matrix,
)
from colindep.audit import prepare
from colindep import _cpus as ccpus
from colindep import jsonout
from colindep.cli import build_parser, main
from colindep.normal import _bartlett_factor

cio = importlib.import_module("colindep.io")

README = Path(__file__).resolve().parents[1] / "README.md"
#: the environment of a fresh interpreter that imports colindep from this tree
_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


class TestIngest:
    def test_small_csv_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s1,s2\n1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        x, labels = ingest(str(path))
        assert x.shape == (3, 2)
        assert labels is None
        assert np.allclose(x.values, [[1, 2], [3, 4], [5.5, 6.5]])

    def test_missing_value_names_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,3\n4,NA,6\n7,8,9\n")
        with pytest.raises(ParseError) as err:
            ingest(str(path))
        assert err.value.row == 3 and err.value.column == 2

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            ingest(str(path))
        assert err.value.row == 2 and err.value.column == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError) as err:
            ingest(str(path))
        assert err.value.row == 2

    @pytest.mark.parametrize("body", ["g1,1,2\ng2,3,4,5\ng3,6,7\n", "g1,1,2\ng2,3\ng3,6,7\n"])
    def test_ragged_row_behind_row_ids(self, tmp_path, body):
        path = tmp_path / "m.csv"
        path.write_text("id,a,b\n" + body)
        with pytest.raises(ParseError, match="ragged table") as err:
            ingest(str(path))
        assert err.value.row == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            ingest(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            ingest("/nonexistent/really/not/here.csv")

    def test_row_id_autodetection(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,s1,s2\ngene1,1,2\ngene2,3,4\n")
        x, _ = ingest(str(path))
        assert x.shape == (2, 2)
        assert np.allclose(x.values, [[1, 2], [3, 4]])

    def test_headerless_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        x, _ = ingest(str(path))
        assert x.shape == (3, 2)

    @pytest.mark.parametrize("text, second_row", [
        ("\ufeff1,2\n3,4\n5,6\n", [3, 4]),
        ("\ufeff1,2\n3,1_000\n5,6\n", [3, 1000]),  # numpy rejects 1_000: the row-by-row parse
    ], ids=["numpy", "row-by-row"])
    def test_headerless_numeric_after_byte_order_mark(self, tmp_path, text, second_row):
        # a UTF-8 byte-order mark is no part of the first cell, so no data row is taken for a header
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        x, _ = ingest(str(path))
        assert x.values.tolist() == [[1, 2], second_row, [5, 6]]

    def test_header_override(self, tmp_path):
        # numeric-looking first row forced to be a header
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        x, _ = ingest(str(path), ParseOptions(header="yes"))
        assert x.shape == (2, 2)

    def test_tsv_delimiter(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1\t2\n3\t4\n")
        x, _ = ingest(str(path))
        assert np.allclose(x.values, [[1, 2], [3, 4]])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(120)
        x = DataMatrix(rng.standard_normal((7, 5)))
        path = tmp_path / "m.csv"
        write_matrix(str(path), x, header=[f"s{j}" for j in range(5)])
        back, _ = ingest(str(path))
        assert np.array_equal(back.values, x.values)

    def test_round_trip_with_row_ids(self, tmp_path):
        rng = np.random.default_rng(121)
        x = DataMatrix(rng.standard_normal((4, 3)))
        path = tmp_path / "m.tsv"
        write_matrix(
            str(path), x,
            header=["a", "b", "c"], row_ids=[f"g{i}" for i in range(4)],
        )
        back, _ = ingest(str(path))
        assert np.array_equal(back.values, x.values)

    def test_group_sizes(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        x, labels = ingest(str(path), ParseOptions(group_sizes=(3, 1)))
        assert labels == ["group1", "group1", "group1", "group2"]

    def test_groups_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,6\n")
        gpath = tmp_path / "groups.txt"
        gpath.write_text("healthy\nhealthy\nsick\n")
        _, labels = ingest(str(path), ParseOptions(groups_file=str(gpath)))
        assert labels == ["healthy", "healthy", "sick"]
        gpath.write_text("healthy\nsick\n")
        with pytest.raises(ParseError):
            ingest(str(path), ParseOptions(groups_file=str(gpath)))

    def test_groups_file_after_byte_order_mark(self, tmp_path):
        # a UTF-8 byte-order mark is no part of the first label
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        gpath = tmp_path / "groups.txt"
        gpath.write_text("\ufeffa\na\nb\nb\n", encoding="utf-8")
        _, labels = ingest(str(path), ParseOptions(groups_file=str(gpath)))
        assert labels == ["a", "a", "b", "b"]

    @pytest.mark.parametrize("text, message", [
        ("1,inf\n3,4\n", "matrix entries must be finite"),
        ("1,2,3\n", "matrix must be at least 2x2, got (1, 3)"),
        ("1\n2\n3\n", "matrix must be at least 2x2, got (3, 1)"),
    ])
    def test_adopted_matrix_keeps_the_checks(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput) as err:
            ingest(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("text, row, column", [
        ("1.5,NA,3.0\n4,5,6\n7,8,9\n", 1, 2),
        ("1,2,3\nNA,5,6\n7,8,9\n", 2, 1),
    ])
    def test_missing_value_is_not_a_label(self, tmp_path, text, row, column):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="missing value") as err:
            ingest(str(path))
        assert (err.value.row, err.value.column) == (row, column)

    @pytest.mark.parametrize("corner_row", [",s1,s2,s3", ",2001,2002,2003"])
    def test_blank_corner_over_row_ids_is_a_header(self, tmp_path, corner_row):
        path = tmp_path / "m.csv"
        path.write_text(corner_row + "\nr1,1,2,3\nr2,4,5,6\nr3,7,8,9\n")
        x, _ = ingest(str(path))
        assert np.array_equal(x.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


# tokens whose parse numpy and Python's float must agree on, plus
# missing, non-numeric and non-finite cells
_TOKENS = [" 1.5 ", "1_000", "+3", "\t2", "NaN", "-Infinity", "", "1,5", "0x10", "inf", "NA", "x"]


def _cellwise(grid):
    # the per-cell parse, as ingest did it before its per-row fast path
    values = np.empty((len(grid), len(grid[0])))
    for i, row in enumerate(grid):
        for j, token in enumerate(row):
            stripped = token.strip()
            if stripped.lower() in {"", "na", "nan", "null", "n/a"}:
                raise ParseError("missing value", row=i + 2, column=j + 1)
            try:
                values[i, j] = float(stripped)
            except ValueError:
                raise ParseError(f"non-numeric cell {token!r}", row=i + 2, column=j + 1) from None
    return DataMatrix(values)


def _outcome(read):
    try:
        return ("ok", read().values.tolist())
    except ColindepError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None))


class TestIngestMatchesCellwiseParse:
    OPTS = ParseOptions(delimiter=";", header="yes", row_ids="no")

    def _check(self, tmp_path, cells):
        grid = [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]
        for (i, j), token in cells.items():
            grid[i][j] = token
        path = tmp_path / "m.txt"
        path.write_text("a;b;c\n" + "".join(";".join(row) + "\n" for row in grid))
        got = _outcome(lambda: ingest(str(path), self.OPTS)[0])
        assert got == _outcome(lambda: _cellwise(grid))
        return got

    @pytest.mark.parametrize("token", _TOKENS)
    def test_single_token(self, tmp_path, token):
        got = self._check(tmp_path, {(1, 1): token})
        if token == "NaN":
            assert got == ("ParseError", "missing value (row 3, column 2)", 3, 2)

    @pytest.mark.parametrize("first", _TOKENS)
    def test_first_bad_cell_is_reported(self, tmp_path, first):
        for second in _TOKENS:
            self._check(tmp_path, {(0, 2): first, (1, 0): second})
            self._check(tmp_path, {(1, 2): first, (1, 0): second})

    @pytest.mark.parametrize("text", [
        'a;b;c\n"1";2;"3.5"\n4;"5";6\n',  # quoted cells
        'a;b;c\n"1;5";2;3\n4;5;"6\n"\n',  # delimiter and line end inside quotes
        'a;b;c\r\n1;2;3\r\n4;5;6\r\n',  # CRLF
        'a;b;c\r1;2;3\r4;5;6',  # CR, no final line end
        'a;b;c;\n1;2;3;\n4;5;6;\n',  # trailing delimiter: an empty last column
        '\na;b;c\n\n1;2;3\n\n\n4;5;6\n\n',  # blank lines
        '\ufeffa;b;c\n1;2;3\n4;5;6\n',  # UTF-8 byte-order mark
        'a;b;c\n1;2#;3\n#4;5;6\n',  # '#' inside a cell is no comment
        'a;b;c\n1;1_000;3\n4;5;6\n',  # Python's float takes it, numpy does not
        'a;b;c\n1;2;3\n4;5;6\n7;8\n',  # ragged
        'a;b;c\n1;2;3\n4;5;6;7\n',
        'a;b;c\n1;2;3;4\n5;6;7;8\n',  # a header narrower or wider than the body
        'a;b;c;d\n1;2;3\n4;5;6\n',
        'a;b;c\n1;nan;3\n4;5;6\n',
        'a;b;c\n1;2;3\n4;inf;6\n',
        'a;b;c\n1;2;-Infinity\n4;5;NA\n',
    ])
    def test_file_format(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text, newline="")
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh, delimiter=";") if row]
        ragged = next((k for k, row in enumerate(rows) if len(row) != len(rows[0])), None)
        if ragged is None:
            expected = _outcome(lambda: _cellwise(rows[1:]))
        else:
            expected = ("ParseError", f"ragged table: {len(rows[ragged])} cells, expected "
                        f"{len(rows[0])} (row {ragged + 1})", ragged + 1, None)
        assert _outcome(lambda: ingest(str(path), self.OPTS)[0]) == expected


_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64))


class TestIngestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cells=st.integers(2, 5).flatmap(
            lambda n: st.lists(st.lists(_BITS.filter(np.isfinite), min_size=n, max_size=n),
                               min_size=2, max_size=5)
        ),
        header=st.booleans(),
        row_ids=st.booleans(),
    )
    def test_repr_round_trip_is_bit_exact(self, tmp_path, cells, header, row_ids):
        x = DataMatrix(np.array(cells))
        path = tmp_path / "m.csv"
        write_matrix(
            str(path), x,
            header=[f"s{j}" for j in range(x.n)] if header else None,
            row_ids=[f"g{i}" for i in range(x.m)] if row_ids else None,
        )
        yes_no = {True: "yes", False: "no"}
        back, _ = ingest(str(path), ParseOptions(header=yes_no[header], row_ids=yes_no[row_ids]))
        assert back.values.tobytes() == x.values.tobytes()

    def test_peak_memory_near_the_matrix(self, tmp_path):
        x = np.random.default_rng(123).standard_normal((20000, 63))
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in x.tolist())
        tracemalloc.start()
        try:
            got, _ = ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.values, x)
        # the matrix is 9.6 MiB; parsing it row by row as Python strings peaks near 115 MiB
        assert peak < 3 * x.nbytes

    @pytest.mark.parametrize("row_ids", [False, True])
    def test_parsed_array_adopted_without_a_copy(self, tmp_path, row_ids):
        # a copy into DataMatrix would peak near twice the matrix
        x = np.random.default_rng(124).standard_normal((20000, 63))
        path = tmp_path / "big.csv"
        lead = (lambda i: f"g{i},") if row_ids else (lambda i: "")
        with open(path, "w") as fh:
            fh.write(lead("") + ",".join(f"s{j}" for j in range(63)) + "\n")
            fh.writelines(lead(i) + ",".join(map(repr, row)) + "\n" for i, row in enumerate(x.tolist()))
        tracemalloc.start()
        try:
            got, _ = ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.values, x)
        assert not got.values.flags.writeable
        assert peak < 1.5 * x.nbytes


class TestIngestHeldOnce:
    """On either path, in one piece or in forked pieces, the parent holds the matrix once."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matrix_not_copied_nor_concatenated(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(cio, "_affinity_cpus", lambda: cpus)
        x = np.random.default_rng(125).standard_normal((20000, 63))
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("," + ",".join(f"s{j}" for j in range(63)) + "\n")
            fh.writelines(f"g{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(x.tolist()))
        tracemalloc.start()
        try:
            got, _ = ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.values, x) and _mapped(got.values) == (cpus > 1)
        # in one piece the parsed array is adopted; in pieces the matrix is the shared
        # map, which tracemalloc does not see, and a concatenation would show
        assert peak < (1.5 if cpus == 1 else 1.0) * x.nbytes


def _mapped(a):
    # whether the array's memory is a shared map, as the forked pieces leave it
    while isinstance(a.base, np.ndarray):
        a = a.base
    return isinstance(a.base, memoryview) and isinstance(a.base.obj, mmap.mmap)


#: an 8 x 3 body with a header, row IDs, a byte-order mark and CRLF line ends
_FRAMED = "\ufeff,a,b,c\r\n" + "".join(f"g{i},{i}.5,{i + 1}e-3,-{i}\r\n" for i in range(8))


class TestIngestPieces:
    """Bodies above the piece floor, parsed in forked pieces, read as one in-process parse does."""

    CPUS = 3

    @pytest.fixture(autouse=True)
    def pieces(self, monkeypatch):
        # a 16-byte floor puts these files' bodies, of 50 to 200 bytes, in 2 or 3 pieces
        monkeypatch.setattr(cio, "_PIECE_BYTES", 16)
        monkeypatch.setattr(cio, "_affinity_cpus", lambda: self.CPUS)
        forks, fork = [], ccpus._fork
        monkeypatch.setattr(ccpus, "_fork", lambda: forks.append(1) or fork())
        yield forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _compare(self, monkeypatch, path):
        # (outcome with k = 1, outcome with the pieces, the matrix the pieces gave or None)
        monkeypatch.setattr(cio, "_affinity_cpus", lambda: 1)
        one = _outcome(lambda: ingest(str(path))[0])
        monkeypatch.setattr(cio, "_affinity_cpus", lambda: self.CPUS)
        read = []
        got = _outcome(lambda: read.append(ingest(str(path))[0]) or read[0])
        return one, got, read[0].values if read else None

    @pytest.mark.parametrize("text", [
        _FRAMED,
        _FRAMED.rstrip(),  # no final line end
        "".join(f"{i},{2 * i},{3 * i}\n" for i in range(10)),  # no header, no row IDs
        "\ufeff" + "".join(f"{i},{2 * i},{3 * i}\n" for i in range(10)),
        "\n\na,b\n\n" + "".join(f"{i},{i}\n\n" for i in range(10)) + "\n",  # blank lines
        "\r\na,b\r\n" + "".join(f"{i},{i}\r\n\r\n" for i in range(10)),  # blank CRLF lines
    ])
    def test_same_values_as_one_piece(self, tmp_path, monkeypatch, pieces, text):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="", encoding="utf-8")
        one, got, values = self._compare(monkeypatch, path)
        assert one[0] == "ok" and got == one
        assert 2 <= len(pieces) <= self.CPUS and _mapped(values)

    @pytest.mark.parametrize("pad", range(12))
    def test_cut_on_every_byte_of_a_line(self, tmp_path, monkeypatch, pieces, pad):
        # 12-byte rows after a first row of 11 + pad bytes: the two-piece cut falls on
        # each byte of a line in turn, among them the line end and a byte either side
        monkeypatch.setattr(self, "CPUS", 2)
        path = tmp_path / "m.csv"
        path.write_text("0" * pad + "1.5,2.5,3.5\n" + "".join(f"{i}.5,{i}.5,{i}.5\n" for i in range(7)))
        one, got, values = self._compare(monkeypatch, path)
        assert one[0] == "ok" and got == one and _mapped(values)

    @pytest.mark.parametrize("last_row, error", [
        ("g7,7.5,x,1", ("ParseError", "non-numeric cell 'x' (row 9, column 3)", 9, 3)),
        ("g7,7.5,nan,1", ("ParseError", "missing value (row 9, column 3)", 9, 3)),
        ("g7,7.5,0.5", ("ParseError", "ragged table: 3 cells, expected 4 (row 9)", 9, None)),
        ("g7,7.5,inf,1", ("InvalidInput", "matrix entries must be finite", None, None)),
    ])
    def test_bad_last_piece_as_one_piece(self, tmp_path, monkeypatch, pieces, last_row, error):
        path = tmp_path / "m.csv"
        path.write_text(_FRAMED[: _FRAMED.rindex("g7")] + last_row + "\r\n", newline="", encoding="utf-8")
        one, got, _ = self._compare(monkeypatch, path)
        assert got == one
        assert got[0] == error[0] and got[2:] == error[2:] and got[1].startswith(error[1])
        assert pieces

    @pytest.mark.parametrize("failure", ["a child exits 3", "the second fork fails"])
    def test_failed_piece_falls_back(self, tmp_path, monkeypatch, pieces, failure):
        path = tmp_path / "m.csv"
        path.write_text(_FRAMED, newline="", encoding="utf-8")
        if failure == "a child exits 3":
            monkeypatch.setattr(cio, "_parse_piece", lambda *args: os._exit(3))
        else:
            fork = ccpus._fork

            def fork_once():
                if pieces:
                    raise BlockingIOError("fork: resource temporarily unavailable")
                return fork()

            monkeypatch.setattr(ccpus, "_fork", fork_once)
        one, got, values = self._compare(monkeypatch, path)
        assert one[0] == "ok" and got == one and not _mapped(values) and pieces

    def test_interrupt_kills_and_reaps_the_children(self, tmp_path, monkeypatch, pieces):
        path = tmp_path / "m.csv"
        path.write_text(_FRAMED, newline="", encoding="utf-8")
        monkeypatch.setattr(cio, "_parse_piece", lambda *args: (time.sleep(60), os._exit(0)))
        waitpid, waits = os.waitpid, []

        def interrupted(pid, options):
            # the first wait for a child is interrupted, as by Ctrl-C
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", interrupted)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            ingest(str(path))
        assert len(pieces) == self.CPUS and time.perf_counter() - t0 < 30

    def test_interrupt_between_forks_orphans_no_child(self, tmp_path, monkeypatch, pieces):
        path = tmp_path / "m.csv"
        path.write_text(_FRAMED, newline="", encoding="utf-8")
        monkeypatch.setattr(cio, "_parse_piece", lambda *args: (time.sleep(60), os._exit(0)))
        fork = ccpus._fork

        def interrupted_fork():
            # Ctrl-C right after a fork returns, before its pid is recorded
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(ccpus, "_fork", interrupted_fork)
        with pytest.raises(KeyboardInterrupt):
            ingest(str(path))
        assert len(pieces) == self.CPUS

    def test_fork_warning_is_no_error(self, tmp_path, monkeypatch, pieces):
        # Python 3.12 and later warn in the parent, after the fork, when other
        # threads run; as an error it would lose the child's pid
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        path = tmp_path / "m.csv"
        path.write_text(_FRAMED, newline="", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = ingest(str(path))
        assert len(pieces) == self.CPUS and _mapped(got.values)

    @pytest.mark.parametrize("case", [
        "one cpu", "no fork", "below the floor", "quote", "lone CR header", "no LF", "lone CR body", "mixed line ends",
    ])
    def test_one_piece_without_a_fork(self, tmp_path, monkeypatch, pieces, case):
        text = _FRAMED
        if case == "one cpu":
            monkeypatch.setattr(cio, "_affinity_cpus", lambda: 1)
        elif case == "no fork":
            monkeypatch.delattr(os, "fork")
        elif case == "below the floor":
            monkeypatch.setattr(cio, "_PIECE_BYTES", 1 << 20)
        elif case == "quote":
            text = text.replace("g3", '"g3"')
        elif case == "lone CR header":
            text = text.replace("\r\n", "\r", 1)
        elif case == "no LF":
            text = text.replace("\r\n", "\r")
        elif case == "lone CR body":
            text = text.replace("-3\r\n", "-3\r")
        else:
            text = text.replace("-3\r\n", "-3\n")
        path = tmp_path / "m.csv"
        path.write_text(text, newline="", encoding="utf-8")
        got, _ = ingest(str(path))
        assert got.values.tolist() == [[i + 0.5, (i + 1) * 1e-3, -i] for i in range(8)]
        assert not pieces and not _mapped(got.values)


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(122)
    x = DataMatrix(rng.standard_normal((80, 10)))
    path = tmp_path / "data.csv"
    write_matrix(str(path), x, header=[f"s{j}" for j in range(10)])
    return str(path)


class TestCli:
    def test_standardize_json(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "std.json"
        code = main(["standardize", matrix_file, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 80 and payload["n"] == 10
        assert payload["max_deviation"] < 1e-8

    def test_standardize_matrix_out(self, matrix_file, tmp_path):
        out = tmp_path / "std.csv"
        assert main(["standardize", matrix_file, "--matrix-out", str(out)]) == 0
        z, _ = ingest(str(out))
        assert z.shape == (80, 10)
        assert abs(z.values.mean(axis=0)).max() < 1e-7

    def test_permtest_with_null_dump(self, matrix_file, tmp_path):
        nulls = tmp_path / "nulls.csv"
        out = tmp_path / "res.json"
        code = main([
            "permtest", matrix_file, "--stat", "block", "--L", "200",
            "--seed", "3", "--null-out", str(nulls), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # the fixed 200 permutations, one at a time: the null stops at the
        # ceil(200/20) = 10th that reaches the statistic, or takes all 200
        v1 = first_eigvec(spectral(prepare(ingest(matrix_file)[0], AuditConfig(seed=3)).z))
        basis = block_basis(10, 2, 10)
        fixed = np.array([block_statistic(v1[_substream(payload["seed"], r).permutation(10)], basis)
                          for r in range(200)])
        s_obs = payload["statistic"]
        hits = np.flatnonzero(fixed >= s_obs - 1e-12 * max(1.0, abs(s_obs)))
        ell = hits[9] + 1 if hits.size >= 10 else 200
        assert payload["L"] == ell
        assert payload["exceed_count"] == min(hits.size, 10)
        assert payload["p_value"] == payload["exceed_count"] / ell
        if hits.size < 10:
            assert payload["p_value"] == hits.size / 200
        with open(nulls) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["null_sample"]
        assert len(rows) == ell + 1
        dumped = np.array([float(row[0]) for row in rows[1:]])
        assert np.abs(dumped - fixed[:ell]).max() <= 1e-12 * np.abs(fixed).max()

    def test_eigenratio_test(self, matrix_file, tmp_path):
        out = tmp_path / "res.json"
        code = main([
            "eigenratio-test", matrix_file, "--null", "wishart",
            "--reps", "40", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "eigenratio_wishart"
        # L counts the draws taken: the 40 fixed draws up to the ceil(40/20) = 2nd
        # that reaches the statistic, or all 40 when fewer do
        fixed = eigenratio_null("wishart", 40, 10, payload["seed"], df=payload["df"])
        s_obs = payload["statistic"]
        hits = np.flatnonzero(fixed >= s_obs - 1e-12 * max(1.0, abs(s_obs)))
        assert payload["L"] == (hits[1] + 1 if hits.size >= 2 else 40)
        assert payload["p_value"] == payload["exceed_count"] / payload["L"]

    def test_bilinear_requires_groups(self, matrix_file):
        assert main(["bilinear", matrix_file]) == 1

    def test_bilinear_with_groups(self, matrix_file, tmp_path):
        out = tmp_path / "res.json"
        code = main(["bilinear", matrix_file, "--groups", "5,5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n1"] == 5 and payload["n2"] == 5
        assert payload["w_norm"] == pytest.approx(1.0)

    def test_fdr_scan_with_histogram(self, matrix_file, tmp_path):
        hist = tmp_path / "bins.csv"
        out = tmp_path / "res.json"
        code = main([
            "fdr-scan", matrix_file, "--q", "0.1", "--hist-out", str(hist),
            "--bins", "20", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_pairs"] == 45
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert len(rows) == 21
        assert sum(int(r[2]) for r in rows[1:]) == 45

    def test_simulate_wishart(self, tmp_path):
        out = tmp_path / "draws.csv"
        code = main([
            "simulate", "--model", "wishart", "--df", "20", "--n", "6",
            "--reps", "15", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eigenratio", "c2", "trace"]
        assert len(rows) == 16

    def test_simulate_blocks(self, tmp_path):
        out = tmp_path / "draws.csv"
        code = main([
            "simulate", "--model", "blocks", "--m", "120", "--n", "8",
            "--gamma", "1.0", "--reps", "5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 6

    def test_simulate_spiked(self, tmp_path):
        out = tmp_path / "draws.csv"
        code = main([
            "simulate", "--model", "spiked", "--m", "100", "--n", "6",
            "--lambda", "3.0", "--reps", "4", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5
        # a strong spike concentrates spectral mass in the top eigenvalue
        assert all(float(r[0]) > 1.0 / 6 for r in rows[1:])

    def test_simulate_help_names_the_draw_file(self, capsys):
        assert main(["simulate", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--out OUT write the draws here as CSV (required)" in help_text
        assert "instead of stdout" not in help_text

    def test_simulate_requires_out(self):
        assert main(["simulate", "--model", "wishart", "--df", "10", "--n", "4"]) == 1

    def test_simulate_rejects_standardization_options(self, tmp_path):
        out = str(tmp_path / "draws.csv")
        base = ["simulate", "--model", "blocks", "--m", "40", "--n", "5", "--reps", "2", "--out", out]
        assert main(base + ["--max-iter", "1"]) == 1
        assert main(base + ["--tol", "5"]) == 1
        assert main(base + ["--format", "text"]) == 1

    @pytest.mark.parametrize(
        "model, option",
        [("wishart", ["--m", "50"]), ("wishart", ["--gamma", "1"]), ("wishart", ["--blocks", "3"]),
         ("wishart", ["--lambda", "2"]), ("blocks", ["--df", "8"]), ("blocks", ["--lambda", "2"]),
         ("spiked", ["--df", "8"]), ("spiked", ["--gamma", "1"]), ("spiked", ["--blocks", "3"])],
    )
    def test_simulate_rejects_options_of_other_models(self, tmp_path, capsys, model, option):
        out = tmp_path / "draws.csv"
        argv = ["simulate", "--model", model, "--n", "5", "--reps", "2", "--out", str(out)]
        if model == "wishart" and option[0] != "--df":
            argv += ["--df", "8"]
        assert main(argv + option) == 1
        assert capsys.readouterr().err == f"error: --model {model} does not read {option[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-2", "2.5"])
    def test_fdr_scan_bins_must_be_a_positive_integer(self, matrix_file, tmp_path, capsys, bins):
        hist = tmp_path / "bins.csv"
        assert main(["fdr-scan", matrix_file, "--hist-out", str(hist), f"--bins={bins}"]) == 1
        err = capsys.readouterr().err
        assert "error: argument --bins: expected an integer of at least 1" in err
        assert "Traceback" not in err and not hist.exists()

    @pytest.mark.parametrize(
        "option, message",
        [(["--L", "0"], "L must be positive"), (["--reps", "0"], "eigen_reps must be positive"),
         (["--q", "0"], "q must lie in (0, 1)"), (["--q", "1.5"], "q must lie in (0, 1)"),
         (["--min-block", "1"], "min_block must be at least 2"),
         (["--max-block", "1"], "min_block must not exceed max_block"),
         (["--tol", "0"], "tol must be positive"), (["--tol", "-1"], "tol must be positive"),
         (["--max-iter", "0"], "max_iter must be at least 1")],
    )
    def test_audit_settings_checked_before_any_stage(self, matrix_file, tmp_path, capsys, option, message):
        out = tmp_path / "res.json"
        assert main(["audit", matrix_file, *option, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["permtest", "--stat", "block", "--L", "0"],
                                      ["eigenratio-test", "--reps", "0"],
                                      ["eigenratio-test", "--null", "blocks", "--blocks", "0"],
                                      ["fdr-scan", "--q", "1"], ["standardize", "--tol", "0"]])
    def test_subcommand_settings_checked_before_any_stage(self, matrix_file, capsys, argv):
        assert main([argv[0], matrix_file, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["audit", "IN"], ["simulate", "--model", "wishart", "--df", "8"]])
    def test_seed_must_be_nonnegative(self, matrix_file, tmp_path, capsys, argv):
        argv = [matrix_file if a == "IN" else a for a in argv]
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "error: argument --seed: expected an integer of at least 0" in capsys.readouterr().err

    def test_fdr_scan_bad_mtilde_exit_code(self, matrix_file, capsys):
        assert main(["fdr-scan", matrix_file, "--mtilde", "abc"]) == 1
        assert "'auto' or a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "3", "-1"])
    def test_fdr_scan_mtilde_must_be_finite_above_three(self, matrix_file, capsys, value):
        # NaN passed the old "m_tilde <= 3" check, and inf wrote "m_tilde": Infinity
        assert main(["fdr-scan", matrix_file, f"--mtilde={value}"]) == 1
        err = capsys.readouterr().err
        assert "finite and above 3" in err and repr(value) in err
        assert main(["fdr-scan", matrix_file, "--mtilde", "3.0001"]) == 0
        assert json.loads(capsys.readouterr().out)["m_tilde"] == 3.0001

    def test_usage_error_exit_code(self):
        assert main(["permtest"]) == 1  # missing required arguments
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("target, reason", [("missing/o", "No such file or directory"), (".", "Is a directory")])
    @pytest.mark.parametrize("argv", [
        ["permtest", "INPUT", "--stat", "block", "--L", "30", "--out", "OUT"],
        ["standardize", "INPUT", "--matrix-out", "OUT"],
        ["fdr-scan", "INPUT", "--hist-out", "OUT"],
        ["simulate", "--model", "wishart", "--df", "8", "--n", "4", "--reps", "3", "--out", "OUT"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_exits_1(self, matrix_file, tmp_path, capsys, argv, target, reason):
        out = str(tmp_path / target)
        argv = [matrix_file if arg == "INPUT" else out if arg == "OUT" else arg for arg in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose every write fails")
    def test_failed_write_reaps_the_pair_writers(self, tmp_path, monkeypatch, capsys):
        # the 1,225 pairs of 50 columns go in two pieces of 100-pair chunks
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", 100)
        monkeypatch.setattr(jsonout, "_PIECE_PAIRS", 400)
        monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: 2)
        forks, fork = [], ccpus._fork
        monkeypatch.setattr(ccpus, "_fork", lambda: forks.append(1) or fork())
        path = tmp_path / "fifty.csv"
        write_matrix(str(path), DataMatrix(np.random.default_rng(126).standard_normal((60, 50))))
        assert main(["fdr-scan", str(path), "--out", "/dev/full"]) == 1
        assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="the pair writers need os.memfd_create")
    def test_closed_stdout_pipe_exits_1_and_reaps_the_pair_writers(self, tmp_path):
        # the 11,175 pairs of 150 columns, about 1 MB, go in two pieces of
        # 100-pair chunks; the reader leaves at the first pair, written
        # after the fork, with most of the list still to come
        write_matrix(str(tmp_path / "wide.csv"), DataMatrix(np.random.default_rng(127).standard_normal((60, 150))))
        script = "\n".join([
            "import os, sys",
            "from colindep import _cpus, jsonout",
            "from colindep.cli import main",
            "jsonout._PAIR_CHUNK, jsonout._PIECE_PAIRS = 100, 400",
            "jsonout._affinity_cpus = lambda: 2",
            "forks, fork = [], _cpus._fork",
            "_cpus._fork = lambda: forks.append(1) or fork()",
            "code = main(['fdr-scan', 'wide.csv'])",
            "try:",
            "    os.waitpid(-1, os.WNOHANG)",
            "    left = 'a child is left'",
            "except ChildProcessError:",
            "    left = 'no child is left'",
            "sys.stderr.write(f'{code} {len(forks)} {left}\\n')",
            "sys.exit(code)",
        ])
        run = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path, env=_SRC_ENV, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = iter(run.stdout.readline, "")
        assert next(lines) == "{\n"
        assert any('"j": 0,' in line for line in lines)
        run.stdout.close()
        err = run.stderr.read()
        assert run.wait() == 1
        assert "Traceback" not in err
        assert err == "1 1 no child is left\n"

    def test_parser_built_once_per_process(self, matrix_file, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        assert main(["permtest"]) == 1
        assert main(["standardize", matrix_file]) == 0
        assert main(["no-such-command"]) == 1
        assert len(builds) == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("h1,h2\n1,NA\n2,3\n")
        assert main(["standardize", str(path)]) == 1
        assert "missing value" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, matrix_file, capsys):
        # one sweep cannot standardize a raw random matrix
        assert main(["standardize", matrix_file, "--max-iter", "1"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        # numpy.random too: the substreams import it on first use
        code = ("import sys, colindep.cli; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules); "
                "assert not any(m.split('.')[:2] == ['numpy', 'random'] for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], env=_SRC_ENV, check=True)

    def test_only_the_fdr_scan_loads_scipy(self, matrix_file, tmp_path):
        # one fresh interpreter: the other subcommands run without scipy,
        # then fdr-scan imports it for its p-values
        code = f"""
import sys
from colindep.cli import main
def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
f, out = {matrix_file!r}, {str(tmp_path / "out")!r}
for argv in (["permtest", f, "--stat", "block", "--L", "50"], ["standardize", f],
             ["eigenratio-test", f, "--reps", "10"], ["bilinear", f, "--groups", "5,5"],
             ["simulate", "--model", "wishart", "--df", "8", "--n", "6", "--reps", "5"]):
    assert main([*argv, "--out", out]) == 0, argv
    assert not scipy_loaded(), argv
assert main(["fdr-scan", f, "--out", out]) == 0
assert scipy_loaded()
"""
        subprocess.run([sys.executable, "-c", code], env=_SRC_ENV, check=True, capture_output=True)

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "colindep" in capsys.readouterr().out

    def test_audit_text_format(self, matrix_file, capsys):
        code = main([
            "audit", matrix_file, "--L", "100", "--reps", "20",
            "--seed", "5", "--format", "text", "--groups", "5,5",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "perm_block" in text
        assert "eigenratio_wishart" in text
        assert "bilinear" in text
        assert "fdr scan" in text

    @pytest.mark.parametrize(
        "model",
        [["blocks", "--m", "120", "--gamma", "1.2"], ["spiked", "--m", "120", "--lambda", "3"],
         ["wishart", "--df", "5.5"]],
    )
    def test_simulate_independent_of_workers(self, tmp_path, monkeypatch, model):
        drawn = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            out = tmp_path / f"draws{cpus}.csv"
            argv = ["simulate", "--model", *model, "--n", "8", "--reps", "9", "--seed", "2"]
            assert main([*argv, "--out", str(out)]) == 0
            drawn.append(out.read_bytes())
        assert drawn[0] == drawn[1] == drawn[2]
        assert drawn[0].count(b"\n") == 10

    def test_audit_of_row_id_file_matches_library(self, tmp_path):
        # the CLI demeans and standardizes ingest's view past the row-ID
        # column in place; the library works in a contiguous copy
        a = np.random.default_rng(125).standard_normal((60, 8)) + 3.0
        path = tmp_path / "ids.csv"
        write_matrix(str(path), DataMatrix(a), header=[f"s{j}" for j in range(8)],
                     row_ids=[f"g{i}" for i in range(60)])
        report = _run_json(["audit", str(path), "--L", "100", "--reps", "10", "--seed", "2", "--groups", "4,4"],
                           tmp_path / "audit.json")
        report.pop("timings")
        groups = ["group1"] * 4 + ["group2"] * 4
        want = audit(DataMatrix(a), AuditConfig(seed=2, L=100, eigen_reps=10), groups=groups)
        assert report == json.loads(want.to_json(exclude_timings=True))
        assert report["errors"] == {}

    def test_input_file_not_mutated(self, matrix_file):
        before = Path(matrix_file).read_bytes()
        main(["permtest", matrix_file, "--stat", "trend", "--L", "50", "--seed", "1"])
        assert Path(matrix_file).read_bytes() == before


_COMMON_SETTINGS = [(["--seed", "3"], "seed", 3), (["--tol", "1e-6"], "tol", 1e-6),
                    (["--max-iter", "60"], "max_iter", 60)]
_BLOCK_SETTINGS = [(["--min-block", "3"], "min_block", 3), (["--max-block", "4"], "max_block", 4)]
#: subcommand that reads input: its required options, its own defaults, and its other settings
_CONFIGS = {
    "standardize": ([], {}, []),
    "permtest": (["--stat", "block"], {"L": 5000}, [(["--L", "70"], "L", 70), *_BLOCK_SETTINGS]),
    "eigenratio-test": ([], {"eigen_reps": 100},
                        [(["--reps", "7"], "eigen_reps", 7), (["--blocks", "3"], "sim_blocks", 3),
                         (["--sim-m", "90"], "sim_m", 90)]),
    "bilinear": ([], {}, []),
    "fdr-scan": ([], {}, [(["--q", "0.05"], "q", 0.05)]),
    "audit": ([], {}, [(["--L", "70"], "L", 70), (["--reps", "7"], "eigen_reps", 7), (["--q", "0.05"], "q", 0.05),
                       *_BLOCK_SETTINGS,
                       (["--bilinear"], "bilinear", True)]),
}


class TestCliConfig:
    """Every setting's default lives in AuditConfig; options set exactly the fields given."""

    @staticmethod
    def _config(argv):
        return cli._load(cli._parser().parse_args(argv))[2]

    @pytest.mark.parametrize("sub", sorted(_CONFIGS))
    def test_defaults_are_the_configs(self, matrix_file, sub):
        required, own, _ = _CONFIGS[sub]
        assert self._config([sub, matrix_file, *required]) == AuditConfig(**own)

    @pytest.mark.parametrize("sub", sorted(_CONFIGS))
    def test_each_option_lands_in_its_field(self, matrix_file, sub):
        required, own, options = _CONFIGS[sub]
        for option, field, value in _COMMON_SETTINGS + options:
            assert self._config([sub, matrix_file, *required, *option]) == AuditConfig(**{**own, field: value})
        given = dict(own)
        argv = [sub, matrix_file, *required]
        for option, field, value in _COMMON_SETTINGS + options:
            argv += option
            given[field] = value
        assert self._config(argv) == AuditConfig(**given)

    @pytest.mark.parametrize("sub", [*sorted(_CONFIGS), "simulate"])
    def test_help(self, capsys, sub):
        assert main([sub, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert text.startswith(f"usage: colindep {sub} ")
        required, own, options = _CONFIGS.get(sub, ([], {}, []))
        for option, field, _ in _COMMON_SETTINGS[:1 if sub == "simulate" else None] + options:
            if field != "bilinear":
                shown = text.split(f" {option[0]} ", 1)[1].split("(default: ", 1)[1].split(")", 1)[0]
                assert shown == str(own.get(field, getattr(AuditConfig, field)))
        if sub == "simulate":
            assert f"(blocks, spiked; default {AuditConfig.sim_m})" in text
            assert f"(blocks; default {AuditConfig.sim_blocks})" in text

    def test_fdr_scan_has_one_null(self, matrix_file, capsys):
        assert main(["fdr-scan", matrix_file, "--null", "corr"]) == 1
        assert "unrecognized arguments: --null corr" in capsys.readouterr().err


def _substream(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _read_draws(path) -> np.ndarray:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eigenratio", "c2", "trace"]
    return np.array([[float(v) for v in row] for row in rows[1:]])


class TestSimulateIsTheLibraryNull:
    """``simulate`` writes the replicates of ``eigenratio_null`` with their c2 and trace."""

    @pytest.mark.parametrize("model, spec", [
        ("blocks", SimulationSpec(m=2000, n=5, sigma_model="block", num_blocks=5, gamma=0.0)),
        ("spiked", SimulationSpec(m=2000, n=5, delta_model="spiked", spike_lambda=0.0,
                                  spike_beta=np.full(5, 1 / np.sqrt(5)))),
    ])
    def test_model_option_defaults(self, tmp_path, model, spec):
        out = tmp_path / "draws.csv"
        assert main(["simulate", "--model", model, "--n", "5", "--reps", "3", "--out", str(out)]) == 0
        assert np.array_equal(_read_draws(out)[:, 0], eigenratio_null("correlated_rows", 3, 5, 0, spec=spec))

    @pytest.mark.parametrize("df", [5.5, 20.0])  # below and above n - 1 = 7
    def test_wishart(self, tmp_path, df):
        out = tmp_path / "draws.csv"
        argv = ["simulate", "--model", "wishart", "--df", repr(df), "--n", "8", "--reps", "12", "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        draws = _read_draws(out)
        assert np.array_equal(draws[:, 0], eigenratio_null("wishart", 12, 8, 3, df=df))
        for rep, (_, c2, trace) in enumerate(draws):
            t = _bartlett_factor(df, 8, _substream(3, rep))
            vals = np.linalg.eigvalsh(t @ t.T / df)
            assert c2 == pytest.approx(np.sum(vals**2) / 64, rel=1e-12)
            assert trace == pytest.approx(vals.sum(), rel=1e-12)

    def test_blocks(self, tmp_path):
        out = tmp_path / "draws.csv"
        argv = ["simulate", "--model", "blocks", "--m", "150", "--n", "8", "--gamma", "1.1",
                "--blocks", "3", "--reps", "10", "--seed", "5"]
        assert main([*argv, "--out", str(out)]) == 0
        draws = _read_draws(out)
        spec = SimulationSpec(m=150, n=8, sigma_model="block", num_blocks=3, gamma=1.1)
        assert np.array_equal(draws[:, 0], eigenratio_null("correlated_rows", 10, 8, 5, spec=spec))
        for rep, (_, c2, trace) in enumerate(draws):
            z, _ = double_standardize(sample_matrix_normal(spec, _substream(5, rep)), max_iter=200)
            vals = np.linalg.eigvalsh(z.values.T @ z.values / z.m)
            assert c2 == pytest.approx(np.sum(vals**2) / 64, rel=1e-12)
            assert trace == pytest.approx(vals.sum(), rel=1e-12)
            assert trace == pytest.approx(8.0, rel=1e-12)


def _readme_commands() -> list[str]:
    """The lines of the ``sh`` block under the README's "## Command line"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_examples_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 8 and any(c.startswith("colindep simulate") for c in commands)
    monkeypatch.chdir(tmp_path)
    write_matrix("data.csv", sample_matrix_normal(SimulationSpec(m=300, n=63, seed=8)))
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "colindep"
        assert main(argv[1:]) == 0, command


def _run_json(argv, out) -> dict:
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestSubcommandsMatchAudit:
    """Each subcommand runs the audit's stage with its stage seed."""

    def test_payloads_equal_audit_entries(self, matrix_file, tmp_path):
        out = tmp_path / "res.json"
        common = [matrix_file, "--seed", "7"]
        report = _run_json(["audit", *common, "--L", "120", "--reps", "15", "--groups", "5,5"], out)
        assert report["errors"] == {}
        entries = {t["method"]: t for t in report["tests"]}
        for stat in ("block", "trend", "trace"):
            payload = _run_json(["permtest", *common, "--stat", stat, "--L", "120"], out)
            assert payload == entries[f"perm_{stat}"]
        payload = _run_json(["eigenratio-test", *common, "--null", "wishart", "--reps", "15"], out)
        assert payload == entries["eigenratio_wishart"]
        gamma = repr(entries["eigenratio_blocks"]["gamma"])
        payload = _run_json(
            ["eigenratio-test", *common, "--null", "blocks", "--reps", "15", "--gamma", gamma], out
        )
        assert payload == entries["eigenratio_blocks"]
        assert _run_json(["bilinear", *common, "--groups", "5,5"], out) == entries["bilinear"]
        assert _run_json(["fdr-scan", *common], out) == report["outliers"]

    def test_blocks_null_calibrates_without_gamma(self, tmp_path):
        # block-correlated rows, so the calibrated gamma is not the old default 0
        data = str(tmp_path / "blocks.csv")
        write_matrix(data, sample_matrix_normal(
            SimulationSpec(m=120, n=12, sigma_model="block", num_blocks=5, gamma=0.8, seed=4)))
        out = tmp_path / "res.json"
        common = [data, "--seed", "5", "--reps", "15"]
        report = _run_json(["audit", *common, "--L", "50"], out)
        entry = next(t for t in report["tests"] if t["method"] == "eigenratio_blocks")
        assert report["errors"] == {} and entry["gamma"] > 0.0
        assert _run_json(["eigenratio-test", *common, "--null", "blocks"], out) == entry

    def test_interleaved_groups_match_permuted_contiguous(self, matrix_file, tmp_path):
        groups = tmp_path / "groups.txt"
        groups.write_text("a\nb\n" * 5)
        report = _run_json(
            ["audit", matrix_file, "--L", "50", "--reps", "10", "--groups-file", str(groups)],
            tmp_path / "audit.json",
        )
        assert report["errors"] == {}
        entry = next(t for t in report["tests"] if t["method"] == "bilinear")
        assert _run_json(["bilinear", matrix_file, "--groups-file", str(groups)], tmp_path / "b.json") == entry
        # the same columns, group a's first: contiguous labels
        x, _ = ingest(matrix_file)
        permuted = tmp_path / "permuted.csv"
        write_matrix(str(permuted), DataMatrix(np.hstack([x.values[:, 0::2], x.values[:, 1::2]])))
        contiguous = _run_json(["bilinear", str(permuted), "--groups", "5,5"], tmp_path / "c.json")
        assert (entry["n1"], entry["n2"]) == (contiguous["n1"], contiguous["n2"]) == (5, 5)
        assert abs(entry["tau_hat"] - contiguous["tau_hat"]) < 1e-12


@pytest.fixture
def spectral_calls(monkeypatch):
    """Count spectra of the standardized input, wherever the pipeline asks for one."""
    from colindep.matrix import spectral

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return spectral(*args, **kwargs)

    # the attribute colindep.audit is the function, so look the modules up by name
    for name in ("audit", "correlation", "permutation"):
        monkeypatch.setattr(importlib.import_module(f"colindep.{name}"), "spectral", counted)
    return calls


@pytest.mark.parametrize(
    "argv, svds",
    [
        (["audit", "--L", "40", "--reps", "8", "--groups", "5,5"], 1),
        (["eigenratio-test", "--null", "wishart", "--reps", "8"], 1),
        (["permtest", "--stat", "block", "--L", "40"], 1),
        (["permtest", "--stat", "trace", "--L", "40"], 0),
        (["bilinear", "--groups", "5,5"], 1),
        (["fdr-scan"], 1),
    ],
)
def test_one_svd_per_call(matrix_file, tmp_path, spectral_calls, argv, svds):
    assert main([argv[0], matrix_file, *argv[1:], "--out", str(tmp_path / "res.json")]) == 0
    assert spectral_calls == [(80, 10)] * svds


class TestInputRules:
    """Each input rule has one owner: the options check themselves when made, ``ingest`` and
    ``write_matrix`` share one delimiter rule, and the CLI reports either as a usage error."""

    @pytest.mark.parametrize("options, message", [
        ({"header": "maybe"}, "header must be 'auto', 'yes' or 'no'"),
        ({"row_ids": "true"}, "row_ids must be 'auto', 'yes' or 'no'"),
        ({"group_sizes": (4, 0)}, "group sizes must be positive"),
        ({"group_sizes": (-2, 10)}, "group sizes must be positive"),
        ({"group_sizes": (4, 4), "groups_file": "g.txt"}, "give group sizes or a groups file, not both"),
        ({"group_sizes": (2.5, 1.5)}, "group sizes must be integers, got (2.5, 1.5)"),
        ({"group_sizes": (2, "2")}, "group sizes must be integers, got (2, '2')"),
    ])
    def test_invalid_options_raise_when_made(self, options, message):
        with pytest.raises(InvalidInput) as err:
            ParseOptions(**options)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["", "1,2,3\n4,5\n", "a,b\n"])
    @pytest.mark.parametrize("option", ["header", "row_ids"])
    def test_bad_option_before_any_parse(self, tmp_path, text, option):
        # the file alone raises ParseError: empty, ragged, no data rows
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            ingest(str(path), ParseOptions(header="yes"))
        with pytest.raises(InvalidInput, match=f"{option} must be"):
            ingest(str(path), ParseOptions(**{option: "maybe"}))

    @pytest.mark.parametrize("delimiter", ['"', "ab", "\\t", "\n", "\r", ""])
    def test_ingest_rejects_a_bad_delimiter(self, tmp_path, delimiter):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(InvalidInput) as err:
            ingest(str(path), ParseOptions(delimiter=delimiter))
        assert str(err.value) == f"delimiter must be one character, not a quote or a line end, got {delimiter!r}"

    def test_write_matrix_rejects_a_bad_delimiter(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(InvalidInput, match="delimiter must be one character"):
            write_matrix(str(path), DataMatrix(np.eye(2)), delimiter="ab")
        assert not path.exists()

    def test_integer_group_sizes_of_any_type(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        options = ParseOptions(group_sizes=[np.int64(3), 1])
        assert options.group_sizes == (3, 1)
        _, labels = ingest(str(path), options)
        assert labels == ["group1", "group1", "group1", "group2"]

    @pytest.mark.parametrize("names, message", [
        ({"row_ids": ["a"]}, "row_ids has 1 names for 2 rows"),
        ({"row_ids": ["a", "b", "c"]}, "row_ids has 3 names for 2 rows"),
        ({"header": ["s0", "s1"]}, "header has 2 names for 3 columns"),
        ({"header": ["s0", "s1", "s2", "s3"], "row_ids": ["a", "b"]}, "header has 4 names for 3 columns"),
    ])
    def test_write_matrix_checks_names_before_opening(self, tmp_path, names, message):
        path = tmp_path / "m.csv"
        with pytest.raises(InvalidInput) as err:
            write_matrix(str(path), DataMatrix(np.arange(6.0).reshape(2, 3)), **names)
        assert str(err.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("suffix, delimiter", [(".tsv", "\t"), (".TAB", "\t"), (".txt", ","), (".csv", ",")])
    def test_default_delimiter_by_extension(self, tmp_path, suffix, delimiter):
        x = DataMatrix(np.arange(6.0).reshape(3, 2) + 0.5)
        path = tmp_path / f"m{suffix}"
        write_matrix(str(path), x)
        assert path.read_text().splitlines()[0] == delimiter.join(["0.5", "1.5"])
        got, _ = ingest(str(path))
        assert np.array_equal(got.values, x.values)

    def test_one_character_delimiter_round_trip(self, tmp_path):
        x = DataMatrix(np.arange(6.0).reshape(3, 2) - 2.25)
        path = tmp_path / "m.csv"
        write_matrix(str(path), x, delimiter="|")
        got, _ = ingest(str(path), ParseOptions(delimiter="|"))
        assert np.array_equal(got.values, x.values)

    @pytest.mark.parametrize("argv, message", [
        (["--delimiter", "\\t"], "error: delimiter must be one character"),
        (["--delimiter", "ab"], "error: delimiter must be one character"),
        (["--delimiter", '"'], "error: delimiter must be one character"),
        (["--groups", "5,5", "--groups-file", "GROUPS"], "error: give group sizes or a groups file, not both"),
        (["--groups", "0,10"], "error: group sizes must be positive"),
        (["--groups=-2,12"], "error: group sizes must be positive"),
        (["--groups", "5;5"], "error: argument --groups: expected comma-separated integers, got '5;5'"),
    ])
    @pytest.mark.parametrize("sub", ["bilinear", "audit"])
    def test_usage_errors_exit_1(self, matrix_file, tmp_path, capsys, sub, argv, message):
        groups = tmp_path / "groups.txt"
        groups.write_text("a\nb\n" * 5)
        argv = [str(groups) if arg == "GROUPS" else arg for arg in argv]
        out = tmp_path / "res.json"
        assert main([sub, matrix_file, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["audit", "usage.csv", "--delimiter", "\\t"],
        ["bilinear", "usage.csv", "--groups", "4,4", "--groups-file", "g.txt"],
        ["permtest", "usage.csv", "--stat", "block", "--L", "30", "--out", "missing/o.json"],
    ])
    def test_usage_errors_in_a_fresh_process(self, tmp_path, argv):
        np.savetxt(tmp_path / "usage.csv", np.random.default_rng(0).standard_normal((40, 8)), delimiter=",")
        (tmp_path / "g.txt").write_text("a\n" * 4 + "b\n" * 4)
        run = subprocess.run([sys.executable, "-m", "colindep.cli", *argv], cwd=tmp_path, env=_SRC_ENV,
                             capture_output=True, text=True)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr


class TestSimulateReadsTheSmallerGram:
    """At m < n each replicate's eigenvalues come from ZZ'/m, the nonzero ones of Z'Z/m."""

    @pytest.mark.parametrize("m, n, reps, seed", [(40, 150, 6, 5), (150, 600, 2, 9)])
    def test_blocks_csv_is_the_n_by_n_formula(self, tmp_path, m, n, reps, seed):
        from colindep.normal import _psd_eigenvalues

        out = tmp_path / "draws.csv"
        argv = ["simulate", "--model", "blocks", "--m", str(m), "--n", str(n), "--gamma", "0.9",
                "--reps", str(reps), "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == 0
        draws = _read_draws(out)
        assert draws.shape == (reps, 3)
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=0.9)
        for rep, row in enumerate(draws):
            z, _ = double_standardize(sample_matrix_normal(spec, _substream(seed, rep)), max_iter=200)
            vals = _psd_eigenvalues(z.values.T @ z.values / m)
            want = [vals[-1] / vals.sum(), np.sum(vals * vals) / (n * n), vals.sum()]
            assert row == pytest.approx(want, rel=1e-12, abs=0)
