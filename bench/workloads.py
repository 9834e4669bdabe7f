"""Workload inputs and output checks for the colindep benchmark.

Every input matrix is generated here with plain numpy from the workload
seed and written with the stdlib ``csv`` module.  Nothing in this file
calls the library, so a change to colindep's simulation code or random
streams leaves the benchmarked inputs unchanged.  The output checks use
only the generated matrix and closed forms; none depends on the
library's random streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: band around a workload's design m_tilde that the reported m_tilde must fall in
M_TILDE_BAND = 1.5
#: relative tolerance between a reported statistic and the benchmark's oracle
ORACLE_RTOL = 1e-6
#: block lengths the CLI uses by default for the block and trace statistics
MIN_BLOCK, MAX_BLOCK = 2, 10


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the fixed sequence of CLI calls run on it.

    The input is an m-by-n block-row matrix: standard normal noise plus a
    shared normal effect per (row block, column) cell, with the rows split
    into ``blocks`` contiguous groups and the effects scaled to mean
    square gamma^2.  ``design_m_tilde`` is the
    median effective sample size of the generator's matrices over a few
    dozen seeds, measured with the oracle below; a reported m_tilde must
    lie within a factor ``M_TILDE_BAND`` of it.  Each command is an argv
    template for ``colindep.cli.main`` with ``{input}``, ``{out}`` and
    ``{seed}`` placeholders.
    """

    name: str
    m: int
    n: int
    gamma: float
    design_m_tilde: float
    commands: tuple[tuple[str, ...], ...]
    blocks: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cardio",
            m=20426,
            n=63,
            gamma=1.28,
            design_m_tilde=16.8,
            commands=(
                ("audit", "{input}", "--groups", "44,19", "--seed", "{seed}", "--out", "{out}"),
            ),
        ),
        Workload(
            name="wide",
            m=2000,
            n=200,
            gamma=1.3,
            design_m_tilde=15.2,
            commands=(
                ("audit", "{input}", "--reps", "100", "--seed", "{seed}", "--out", "{out}"),
            ),
        ),
        Workload(
            name="screen",
            m=400,
            n=1000,
            gamma=1.3,
            design_m_tilde=14.4,
            commands=(
                ("permtest", "{input}", "--stat", "block", "--seed", "{seed}", "--out", "{out}"),
                ("permtest", "{input}", "--stat", "trace", "--L", "500", "--seed", "{seed}",
                 "--out", "{out}"),
                ("fdr-scan", "{input}", "--seed", "{seed}", "--out", "{out}"),
            ),
        ),
    )
}


def generate(w: Workload, seed: int) -> np.ndarray:
    """The workload's input matrix, fixed by ``seed``.

    The block effects are rescaled so that their mean square is exactly
    ``gamma**2``.  The realized effect size, and with it m_tilde and the
    work the audit's calibration does, then varies little from seed to
    seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([zlib.crc32(w.name.encode()), seed]))
    x = rng.standard_normal((w.m, w.n))
    labels = np.minimum(np.arange(w.m) * w.blocks // w.m, w.blocks - 1)
    effects = rng.standard_normal((w.blocks, w.n))
    x += w.gamma / np.sqrt(np.mean(effects * effects)) * effects[labels]
    return x


def cli_seed(w: Workload, seed: int, k: int) -> int:
    """The CLI ``--seed`` of pass ``k`` of a run with ``seed``."""
    ss = np.random.SeedSequence([zlib.crc32(w.name.encode()), seed, k])
    return int(ss.generate_state(1)[0] >> 1)


def write_csv(path, x: np.ndarray) -> str:
    """Write ``x`` with repr-exact cells (headerless) and return its sha256."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in x:
            writer.writerow([repr(float(v)) for v in row])
    return file_sha256(path)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def without_timings(obj):
    """Copy of a parsed report with every ``timings`` entry removed."""
    if isinstance(obj, dict):
        return {k: without_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [without_timings(v) for v in obj]
    return obj


def canonical_digest(path) -> str:
    """sha256 of a report with timings removed; other bytes must repeat exactly."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b'"timings"' not in raw:
        return hashlib.sha256(raw).hexdigest()
    text = json.dumps(without_timings(json.loads(raw)), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


class Oracle:
    """Reference quantities computed from the generated matrix alone."""

    def __init__(self, x: np.ndarray):
        self.m, self.n = x.shape
        self.z = _double_standardize(x)
        self.delta = self.z.T @ self.z / self.m
        self.c2 = float(np.mean(self.delta * self.delta))
        n = self.n
        alpha_sq = min(1.0, max(0.0, n / (n - 1) * (self.c2 - 1.0 / (n - 1))))
        self.m_tilde = self.m / (1.0 + (self.m - 1) * alpha_sq)

    @cached_property
    def block_statistic(self) -> float:
        """v'Bv as a sum of squared block sums, from prefix sums of v1."""
        v1 = np.linalg.svd(self.z, full_matrices=False)[2][0]
        cs = np.concatenate([[0.0], np.cumsum(v1)])
        return float(
            sum(np.sum((cs[k:] - cs[:-k]) ** 2) for k in range(MIN_BLOCK, min(MAX_BLOCK, self.n) + 1))
        )

    @cached_property
    def trace_statistic(self) -> float:
        """tr(delta B) as a sum of block-submatrix sums, from 2-D prefix sums."""
        p = np.zeros((self.n + 1, self.n + 1))
        p[1:, 1:] = self.delta.cumsum(0).cumsum(1)
        total = 0.0
        for k in range(MIN_BLOCK, min(MAX_BLOCK, self.n) + 1):
            s = np.arange(self.n - k + 1)
            total += float(np.sum(p[s + k, s + k] - p[s, s + k] - p[s + k, s] + p[s, s]))
        return total


def _double_standardize(x: np.ndarray) -> np.ndarray:
    a = x - x.mean(1, keepdims=True) - x.mean(0, keepdims=True) + x.mean()
    for _ in range(500):
        a = (a - a.mean(0)) / a.std(0)
        a = (a - a.mean(1, keepdims=True)) / a.std(1, keepdims=True)
        if max(np.abs(a.mean(0)).max(), np.abs(a.var(0) - 1.0).max()) < 1e-12:
            return a
    raise RuntimeError("oracle double standardization did not converge")


def _close(a, b, rtol=ORACLE_RTOL) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def check_report(w: Workload, oracle: Oracle, command: tuple[str, ...], report: dict) -> list[str]:
    """Problems found in one parsed CLI report; an empty list means it passed."""
    problems: list[str] = []
    sub = command[0]

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{sub}: {what}")

    def check_m_tilde(value) -> None:
        need(_close(value, oracle.m_tilde), f"m_tilde {value} != oracle {oracle.m_tilde}")
        lo, hi = w.design_m_tilde / M_TILDE_BAND, w.design_m_tilde * M_TILDE_BAND
        need(isinstance(value, float) and lo <= value <= hi, f"m_tilde {value} outside [{lo:.1f}, {hi:.1f}]")

    def check_outliers(o: dict) -> None:
        n_pairs = oracle.n * (oracle.n - 1) // 2
        need(o.get("n_pairs") == n_pairs, f"n_pairs {o.get('n_pairs')} != {n_pairs}")
        pairs = o.get("pairs")
        if pairs is not None:
            need(len(pairs) == n_pairs, f"{len(pairs)} pair records for {n_pairs} pairs")
            need(all(0.0 <= p["p"] <= 1.0 for p in pairs), "pair p-value outside [0, 1]")
            flagged = sum(1 for p in pairs if p["significant"])
            need(flagged == o.get("n_discoveries"), "n_discoveries disagrees with the pair flags")
        check_m_tilde(o.get("m_tilde"))

    def check_test(t: dict) -> None:
        method = t.get("method", "?")
        if "p_value" in t:
            p, count, L = t["p_value"], t.get("exceed_count"), t.get("L")
            need(0.0 <= p <= 1.0, f"{method} p-value {p} outside [0, 1]")
            need(isinstance(L, int) and L > 0 and _close(p, count / L, 1e-12),
                 f"{method} p-value {p} != exceed_count/L = {count}/{L}")
        if method == "perm_block":
            want = oracle.block_statistic
            need(_close(t.get("statistic"), want), f"block statistic {t.get('statistic')} != oracle {want}")
        if method == "perm_trace":
            want = oracle.trace_statistic
            need(_close(t.get("statistic"), want), f"trace statistic {t.get('statistic')} != oracle {want}")

    if sub == "audit":
        need(not report.get("errors"), f"stage errors {report.get('errors')}")
        corr = report.get("correlation", {})
        need(_close(corr.get("c2"), oracle.c2), f"c2 {corr.get('c2')} != mean square of Z'Z/m {oracle.c2}")
        mu = -1.0 / (oracle.n - 1)
        need(_close(corr.get("mu_hat"), mu, 1e-12), f"mu_hat {corr.get('mu_hat')} != -1/(n-1)")
        check_m_tilde(corr.get("m_tilde"))
        methods = [t.get("method") for t in report.get("tests", [])]
        required = ["perm_block", "perm_trend", "perm_trace", "eigenratio_wishart", "eigenratio_blocks"]
        if "--groups" in command:
            required.append("bilinear")
        for method in required:
            need(method in methods, f"no {method} result")
        for t in report.get("tests", []):
            check_test(t)
        need(report.get("outliers") is not None, "no fdr result")
        if report.get("outliers") is not None:
            check_outliers(report["outliers"])
    elif sub == "permtest":
        need(report.get("method") == f"perm_{command[command.index('--stat') + 1]}",
             f"unexpected method {report.get('method')}")
        check_test(report)
    elif sub == "fdr-scan":
        check_outliers(report)
    return problems
