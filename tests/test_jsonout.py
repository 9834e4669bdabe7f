"""The streamed JSON writer gives the bytes ``json.dumps`` gives for the full pair list."""

import errno
import gc
import io
import json
import os
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from colindep import (
    AuditConfig,
    DataMatrix,
    OutlierReport,
    audit,
    demean,
    double_standardize,
    emit,
    scan_column_pairs,
    write_matrix,
)
from colindep import _cpus, cli, jsonout
from colindep.cli import main
from colindep.jsonout import dumps, write_json


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def scan(m: int, n: int, seed: int, planted: bool = False, **kwargs) -> OutlierReport:
    x = np.random.default_rng(seed).standard_normal((m, n))
    if planted:
        x[:, 1] = x[:, 0] + 0.05 * x[:, 1]
    z, _ = double_standardize(demean(DataMatrix(x)), max_iter=200)
    return scan_column_pairs(z, kwargs.pop("m_tilde", float(m)), 0.1, **kwargs)


def two_column_scan() -> OutlierReport:
    # two doubly standardized columns are each other's negative: one pair, r = -1
    z = DataMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]] * 20), "double_std")
    return scan_column_pairs(z, 40.0, 0.1)


def as_json(report: OutlierReport) -> str:
    payload = report.to_dict(include_pairs=False)
    payload["pairs"] = report
    return dumps(payload)


class TestWriterMatchesJsonDumps:
    def test_one_pair(self):
        report = two_column_scan()
        assert report.n_pairs == 1
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("planted", [False, True])
    def test_small_scans(self, n, planted):
        report = scan(40, n, seed=n, planted=planted)
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    def test_with_and_without_discoveries(self):
        clean, found = scan(60, 7, seed=1), scan(60, 7, seed=1, planted=True)
        assert clean.discoveries.size == 0 and found.discoveries.size > 0
        for report in (clean, found):
            assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    @pytest.mark.parametrize(
        "kwargs",
        [{"two_sided": True}],
    )
    def test_null_models_and_sides(self, kwargs):
        report = scan(50, 7, seed=2, planted=True, **kwargs)
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    @pytest.mark.parametrize("chunk", [1, 2, 5, 20, 21, 22])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # 21 pairs: several chunks, a partial last chunk, exactly one chunk, one partial chunk
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", chunk)
        report = scan(30, 7, seed=3, planted=True)
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    @pytest.mark.parametrize("n", [7, 30])
    @pytest.mark.parametrize("chunk", ["1", "7", "n-1"])
    def test_chunks_start_mid_row(self, monkeypatch, n, chunk):
        # discoveries at the first pair, inside rows and at the last pair
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", n - 1 if chunk == "n-1" else int(chunk))
        x = np.random.default_rng(n).standard_normal((40, n))
        for j, jp in ((0, 1), (2, n - 3), (n - 2, n - 1)):
            x[:, jp] = x[:, j] + 0.05 * x[:, jp]
        z, _ = double_standardize(demean(DataMatrix(x)), max_iter=200)
        report = scan_column_pairs(z, 40.0, 0.1)
        assert {0, report.n_pairs - 1} <= set(report.discoveries.tolist())
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_default_chunk_boundary(self, chunks):
        # the most columns whose pairs fit one chunk, and one column more
        n = int((1 + np.sqrt(1 + 8 * jsonout._PAIR_CHUNK)) // 2) + chunks - 1
        report = scan(30, n, seed=4, m_tilde=12.0)
        assert -(-report.n_pairs // jsonout._PAIR_CHUNK) == chunks
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    def test_nested_and_repeated_reports(self):
        a, b = scan(30, 4, seed=5), scan(30, 3, seed=6)
        payload = {"x": {"deep": [a, 1]}, "y": b, "z": "\x00pairs0"}
        want = {"x": {"deep": [a.to_dict()["pairs"], 1]}, "y": b.to_dict()["pairs"], "z": "\x00pairs0"}
        assert dumps(payload) == oracle(want)

    def test_no_pairs(self):
        empty = np.array([], dtype=np.int64)
        report = OutlierReport(1, np.array([]), np.array([]), 0.1, empty, None, 5.0)
        assert as_json(report) == oracle(report.to_dict(include_pairs=True))

    def test_unknown_objects_still_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"a": object()})

    def test_report_freed_without_garbage_collector(self):
        # json's indenting encoder leaves a cycle holding ``default``; the
        # report must not stay reachable from it until the collector runs
        report = two_column_scan()
        alive = weakref.ref(report)
        gc.disable()
        try:
            dumps({"pairs": report})
            del report
            assert alive() is None
        finally:
            gc.enable()

    def test_memory_bounded_on_screen_report(self, tmp_path):
        # the parent's to_dict + json.dumps peaked near 620 MB on this report
        report = scan(400, 1000, seed=7, m_tilde=14.0)
        payload = report.to_dict(include_pairs=False)
        payload["pairs"] = report
        with open(tmp_path / "screen.json", "w") as fh:
            tracemalloc.start()
            try:
                write_json(payload, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (tmp_path / "screen.json").stat().st_size > 60e6

    def test_scan_and_writer_memory_on_screen_shape(self, tmp_path):
        # at n = 1000 the scan peaked at 42 MiB while it held the covariance
        # and its copies, and the writer at 24 MiB with 50,000-pair chunks
        z, _ = double_standardize(demean(DataMatrix(np.random.default_rng(8).standard_normal((400, 1000)))))
        with open(tmp_path / "screen.json", "w") as fh:
            tracemalloc.start()
            try:
                report = scan_column_pairs(z, 14.0, 0.1)
                scanned = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                write_json({"pairs": report}, fh)
                written = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert scanned < 32 * 2**20
        assert written < 12 * 2**20


def planted(n: int, discoveries: list[int], seed: int = 0) -> OutlierReport:
    """A report on ``n`` columns with random r and p and the given discoveries."""
    rng = np.random.default_rng(seed)
    r, p = rng.uniform(-1, 1, n * (n - 1) // 2), rng.uniform(0, 1, n * (n - 1) // 2)
    found = np.array(discoveries, dtype=np.int64)
    return OutlierReport(n, r, p, 0.1, found, float(r[found].min()), 12.0)


def pair_list(report: OutlierReport) -> str:
    return oracle({"pairs": report.to_dict()["pairs"]})


def written(payload, path) -> str:
    # a file with a ``buffer``, which the piece path copies the children's pieces into
    with open(path, "w") as fh:
        write_json(payload, fh)
    return path.read_text()


class TestWriterPieces:
    """A pair list cut into forked pieces is written with the bytes of ``json.dumps``."""

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        # 3-pair chunks and a 6-pair floor cut n = 7's 21 pairs into one piece per CPU,
        # up to 3: at pair 9 (mid-row 1) for two, at 6 and 12 (mid-row 2) for three
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", 3)
        monkeypatch.setattr(jsonout, "_PIECE_PAIRS", 6)
        monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: 3)
        forks, fork = [], _cpus._fork
        monkeypatch.setattr(_cpus, "_fork", lambda: forks.append(1) or fork())
        yield forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pieces_match_json_dumps(self, tmp_path, monkeypatch, forks, cpus):
        monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: cpus)
        report = planted(7, [0, 20])
        payload = {**report.to_dict(include_pairs=False), "pairs": report}
        assert written(payload, tmp_path / "o.json") == oracle(report.to_dict(include_pairs=True))
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_discoveries_either_side_of_a_cut(self, tmp_path, monkeypatch, forks, cpus):
        monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: cpus)
        report = planted(7, [5, 6, 8, 9, 11, 12])
        assert written({"pairs": report}, tmp_path / "o.json") == pair_list(report)
        assert len(forks) == cpus - 1

    def test_nested_reports(self, tmp_path, forks):
        a, b = planted(7, [3, 10], seed=1), planted(8, [27], seed=2)
        payload = {"x": {"deep": [a, 1]}, "y": b}
        want = {"x": {"deep": [a.to_dict()["pairs"], 1]}, "y": b.to_dict()["pairs"]}
        assert written(payload, tmp_path / "o.json") == oracle(want)
        assert len(forks) == 4

    @pytest.mark.parametrize("failure", ["a child exits 3", "the second fork fails"])
    def test_failed_piece_rendered_here(self, tmp_path, monkeypatch, forks, failure):
        if failure == "a child exits 3":
            monkeypatch.setattr(jsonout, "_render_piece", lambda *args: os._exit(3))
        else:
            fork = _cpus._fork

            def fork_once():
                if forks:
                    raise BlockingIOError("fork: resource temporarily unavailable")
                return fork()

            monkeypatch.setattr(_cpus, "_fork", fork_once)
        report = planted(7, [2, 9, 12])
        assert written({"pairs": report}, tmp_path / "o.json") == pair_list(report)
        assert len(forks) == (2 if failure == "a child exits 3" else 1)

    @pytest.mark.parametrize("case", ["one cpu", "below the floor", "no memfd_create", "a string target"])
    def test_one_piece_without_a_fork(self, tmp_path, monkeypatch, forks, case):
        if case == "one cpu":
            monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: 1)
        elif case == "below the floor":
            monkeypatch.setattr(jsonout, "_PIECE_PAIRS", 22)
        elif case == "no memfd_create":
            monkeypatch.delattr(os, "memfd_create")
        report = planted(7, [4])
        payload = {"pairs": report}
        text = dumps(payload) if case == "a string target" else written(payload, tmp_path / "o.json")
        assert text == pair_list(report) and not forks

    def test_failed_write_kills_the_children(self, monkeypatch, forks):
        # the children would render for a minute; the parent's third write fails
        monkeypatch.setattr(jsonout, "_render_piece", lambda *args: time.sleep(60) or 0)

        class Full(io.TextIOWrapper):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        t0 = time.perf_counter()
        with pytest.raises(OSError, match="No space"):
            write_json({"pairs": planted(7, [1])}, Full(io.BytesIO(), encoding="utf-8"))
        assert len(forks) == 2 and time.perf_counter() - t0 < 30


def test_pieces_hold_no_more_than_one_piece(tmp_path, monkeypatch):
    # writing 499,500 pairs in one piece peaks near 4.0 MiB, at its largest chunk;
    # in two pieces this process renders the first piece's chunks as it would alone
    # and copies the second 1 MiB at a time.  Its few KiB of cut points, pids and
    # files may sit on top of a chunk; a piece held whole would be 34 MB
    report = scan(400, 1000, seed=7, m_tilde=14.0)
    peaks, texts = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(jsonout, "_affinity_cpus", lambda: cpus)
        with open(tmp_path / f"{cpus}.json", "w") as fh:
            tracemalloc.start()
            try:
                write_json({"pairs": report}, fh)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        texts[cpus] = (tmp_path / f"{cpus}.json").read_bytes()
    assert texts[1] == texts[2]
    assert peaks[2] <= peaks[1] + 2**16 and peaks[1] < 8 * 2**20, peaks


class TestAuditJson:
    @pytest.fixture(scope="class")
    def report(self):
        x = np.random.default_rng(8).standard_normal((60, 9))
        x[:, 1] = x[:, 0] + 0.1 * x[:, 1]
        return audit(DataMatrix(x), AuditConfig(seed=3, L=50, eigen_reps=10), groups=["a"] * 5 + ["b"] * 4)

    @pytest.mark.parametrize("exclude_timings", [False, True])
    @pytest.mark.parametrize("include_pairs", [False, True])
    def test_to_json(self, report, exclude_timings, include_pairs):
        assert report.outliers is not None and report.outliers.discoveries.size > 0
        want = oracle(report.to_dict(exclude_timings, include_pairs))
        assert report.to_json(exclude_timings, include_pairs) == want

    def test_emit(self, report):
        assert emit(report) == oracle(report.to_dict())
        assert emit(report, include_pairs=False) == oracle(report.to_dict(include_pairs=False))


@pytest.fixture
def seven_columns(tmp_path):
    x = np.random.default_rng(9).standard_normal((50, 7))
    x[:, 1] = x[:, 0] + 0.05 * x[:, 1]
    path = tmp_path / "seven.csv"
    write_matrix(str(path), DataMatrix(x))
    return str(path)


@pytest.fixture
def scanned(monkeypatch):
    """Each OutlierReport the CLI's fdr-scan computes."""
    reports, fdr_stage = [], cli.fdr_stage

    def recording(*args, **kwargs):
        reports.append(fdr_stage(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "fdr_stage", recording)
    return reports


class TestCliJson:
    @pytest.mark.parametrize("extra", [[], ["--two-sided"], ["--mtilde", "9.5"]])
    def test_fdr_scan_out_and_stdout(self, seven_columns, scanned, tmp_path, capsys, extra):
        out = tmp_path / "scan.json"
        assert main(["fdr-scan", seven_columns, "--seed", "2", "--out", str(out), *extra]) == 0
        assert main(["fdr-scan", seven_columns, "--seed", "2", *extra]) == 0
        first, second = scanned
        assert first.discoveries.size > 0
        want = oracle(first.to_dict(include_pairs=True)) + "\n"
        assert out.read_text() == want
        assert capsys.readouterr().out == want == oracle(second.to_dict(include_pairs=True)) + "\n"

    @pytest.mark.parametrize("chunk", [1, 20, 21, 22])
    def test_fdr_scan_chunk_boundaries(self, seven_columns, scanned, monkeypatch, capsys, chunk):
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", chunk)
        assert main(["fdr-scan", seven_columns]) == 0
        assert capsys.readouterr().out == oracle(scanned[0].to_dict(include_pairs=True)) + "\n"

    def test_no_cli_path_builds_pair_dicts(self, seven_columns, monkeypatch, tmp_path, capsys):
        to_dict = OutlierReport.to_dict

        def pairs_refused(self, include_pairs=True):
            assert not include_pairs, "the CLI rendered the pair list through to_dict"
            return to_dict(self, include_pairs)

        monkeypatch.setattr(OutlierReport, "to_dict", pairs_refused)
        out = str(tmp_path / "res.json")
        assert main(["fdr-scan", seven_columns, "--out", out]) == 0
        assert main(["fdr-scan", seven_columns]) == 0
        assert main(["audit", seven_columns, "--L", "20", "--reps", "5", "--out", out]) == 0
        capsys.readouterr()
        assert main(["audit", seven_columns, "--L", "20", "--reps", "5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["outliers"]["pairs"]) == 21


#: the timings block of an audit report, the one part that differs run to run
_TIMINGS = re.compile(r'\n  "timings": \{.*?\n  \},', re.S)


class TestOneWriter:
    """Every subcommand's report reaches stdout and --out as the same bytes."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["standardize"],
            ["permtest", "--stat", "block", "--L", "30"],
            ["eigenratio-test", "--null", "blocks", "--reps", "6", "--sim-m", "60"],
            ["bilinear", "--groups", "4,3"],
            ["fdr-scan", "--two-sided"],
            ["audit", "--L", "20", "--reps", "5", "--groups", "4,3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_equals_out(self, seven_columns, tmp_path, capsys, argv, fmt):
        command = [argv[0], seven_columns, *argv[1:], "--seed", "4", "--format", fmt]
        out = tmp_path / "report"
        assert main([*command, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(command) == 0
        written, printed = out.read_text(), capsys.readouterr().out
        if argv[0] == "audit" and fmt == "json":
            (written, one), (printed, two) = _TIMINGS.subn("", written), _TIMINGS.subn("", printed)
            assert one == two == 1
        assert written == printed and written.endswith("\n")

    def test_simulate_summary_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        assert main(["simulate", "--model", "wishart", "--df", "9", "--n", "4", "--reps", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 3 replicates to {out}\n"

    def test_audit_report_streamed(self, tmp_path, monkeypatch):
        # rendered into one string, a report of 179,700 pairs peaked at three times its size
        path, out = tmp_path / "wide.csv", tmp_path / "audit.json"
        write_matrix(str(path), DataMatrix(np.random.default_rng(10).standard_normal((100, 600))))
        monkeypatch.setattr(jsonout, "_PAIR_CHUNK", 1000)
        tracemalloc.start()
        try:
            assert main(["audit", str(path), "--L", "20", "--reps", "4", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size
