"""Per-layer spans for a traced benchmark pass, built from the benchmark alone.

The program has no tracing of its own, so the tracer replaces public
functions in the module namespace where the pipeline looks each one up
(``colindep.normal.double_standardize`` is the name the simulated nulls
call, ``colindep.audit.double_standardize`` the one the data goes
through) with wrappers that record a span per call.  Spans nest through
a stack, so a layer's self time is its duration minus that of its
direct children.  A name the program no longer has is reported as
absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


def _sweeps(result) -> int:
    return int(result[1].iterations)


def _nbytes(result) -> int:
    return sum(int(v.nbytes) for v in vars(result).values() if hasattr(v, "nbytes"))


@dataclass(frozen=True)
class Target:
    """Where to wrap: module attributes, the span name and what to count from the result.

    ``split`` names an argument whose value is appended to the span name
    (``perm_pvalue``'s statistic, ``eigenratio_null``'s model).
    ``measure`` maps a return value to a count added under
    ``<span>.<measure_name>``.  A target with ``span=False`` only counts
    calls and records no span, for functions called thousands of times
    per pass.
    """

    name: str
    where: tuple[str, ...]
    attr: str
    split: str | None = None
    measure: tuple[str, Callable] | None = None
    span: bool = True


_DATA = ("colindep.cli", "colindep.audit")

TARGETS = (
    Target("io.ingest", ("colindep.cli",), "ingest"),
    Target("matrix.demean", _DATA, "demean"),
    Target("matrix.double_standardize.data", _DATA, "double_standardize", measure=("sweeps", _sweeps)),
    Target("matrix.double_standardize.null", ("colindep.normal",), "double_standardize",
           measure=("sweeps", _sweeps)),
    Target("matrix.spectral", _DATA + ("colindep.correlation", "colindep.permutation"), "spectral"),
    Target("correlation.correlation_report", _DATA, "correlation_report"),
    Target("correlation.row_corr_sample", ("colindep.correlation",), "row_corr_sample"),
    Target("permutation.perm_pvalue", _DATA, "perm_pvalue", split="statistic"),
    Target("permutation.block_basis", ("colindep.permutation",), "block_basis", measure=("bytes", _nbytes)),
    Target("permutation.statistic", ("colindep.permutation",), "block_statistic", span=False),
    Target("permutation.statistic", ("colindep.permutation",), "trend_statistic", span=False),
    Target("permutation.statistic", ("colindep.permutation",), "trace_statistic", span=False),
    Target("normal.eigenratio_null", _DATA, "eigenratio_null", split="model"),
    Target("normal.sample_matrix_normal", ("colindep.normal",), "sample_matrix_normal"),
    Target("normal.calibrate_gamma", ("colindep.audit",), "calibrate_gamma"),
    Target("normal.calibrate_gamma.evals", ("colindep.normal",), "_measured_alpha_sq", span=False),
    Target("normal.bilinear_test", _DATA, "bilinear_test"),
    Target("fdr.scan_column_pairs", _DATA, "scan_column_pairs", measure=("pairs", lambda r: r.n_pairs)),
    Target("audit.audit", ("colindep.cli",), "audit"),
    Target("audit.emit", ("colindep.cli",), "emit", measure=("bytes", len)),
)

#: per-layer metric -> (source span or count, kind); kinds: s, self_s, calls, or a measure name
LAYER_METRICS = {
    "normal.eigenratio_null.correlated_rows.s": ("normal.eigenratio_null.correlated_rows", "s"),
    "matrix.double_standardize.null.s": ("matrix.double_standardize.null", "s"),
    "matrix.double_standardize.null.calls": ("matrix.double_standardize.null", "calls"),
    "matrix.double_standardize.null.sweeps": ("matrix.double_standardize.null", "sweeps"),
    "normal.sample_matrix_normal.s": ("normal.sample_matrix_normal", "s"),
    "normal.sample_matrix_normal.calls": ("normal.sample_matrix_normal", "calls"),
    "normal.calibrate_gamma.s": ("normal.calibrate_gamma", "s"),
    "normal.calibrate_gamma.self_s": ("normal.calibrate_gamma", "self_s"),
    "normal.calibrate_gamma.evals": ("normal.calibrate_gamma.evals", "calls"),
    "normal.eigenratio_null.wishart.s": ("normal.eigenratio_null.wishart", "s"),
    "normal.bilinear_test.s": ("normal.bilinear_test", "s"),
    "io.ingest.s": ("io.ingest", "s"),
    "io.ingest.calls": ("io.ingest", "calls"),
    "matrix.demean.s": ("matrix.demean", "s"),
    "matrix.double_standardize.data.s": ("matrix.double_standardize.data", "s"),
    "matrix.double_standardize.data.sweeps": ("matrix.double_standardize.data", "sweeps"),
    "matrix.spectral.s": ("matrix.spectral", "s"),
    "matrix.spectral.calls": ("matrix.spectral", "calls"),
    "correlation.correlation_report.s": ("correlation.correlation_report", "s"),
    "correlation.row_corr_sample.s": ("correlation.row_corr_sample", "s"),
    "permutation.perm_pvalue.block.s": ("permutation.perm_pvalue.block", "s"),
    "permutation.perm_pvalue.trend.s": ("permutation.perm_pvalue.trend", "s"),
    "permutation.perm_pvalue.trace.s": ("permutation.perm_pvalue.trace", "s"),
    "permutation.statistic.calls": ("permutation.statistic", "calls"),
    "permutation.block_basis.s": ("permutation.block_basis", "s"),
    "permutation.block_basis.calls": ("permutation.block_basis", "calls"),
    "permutation.block_basis.bytes": ("permutation.block_basis", "bytes"),
    "fdr.scan_column_pairs.s": ("fdr.scan_column_pairs", "s"),
    "fdr.pairs": ("fdr.scan_column_pairs", "pairs"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "audit.emit.s": ("audit.emit", "s"),
    "audit.emit.bytes": ("audit.emit", "bytes"),
    "audit.audit.self_s": ("audit.audit", "self_s"),
}

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "sweeps": "count", "bytes": "bytes", "pairs": "count"}


def metric_unit(metric: str) -> str:
    return _UNITS[LAYER_METRICS[metric][1]]


@dataclass
class Tracer:
    """Spans and counts recorded while the wrappers are installed."""

    spans: list[list] = field(default_factory=list)  # [name, start, end, parent index]
    counts: Counter = field(default_factory=Counter)
    installed: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self) -> None:
        for target in TARGETS:
            for module_name in target.where:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                original = getattr(module, target.attr, None)
                if not callable(original):
                    continue
                self._restore.append((module, target.attr, original))
                setattr(module, target.attr, self._wrap(target, original))
                self.installed.add(target.name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, target: Target, original):
        if not target.span:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                self.counts[target.name + ".calls"] += 1
                return original(*args, **kwargs)

            return counted

        signature = inspect.signature(original)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            name = target.name
            if target.split is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{name}.{bound.arguments.get(target.split, 'unknown')}"
            result = self.call(name, original, *args, **kwargs)
            if target.measure is not None:
                # a result of another shape leaves the count at 0 and the pass running
                try:
                    self.counts[f"{name}.{target.measure[0]}"] += target.measure[1](result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return spanned

    def layer_metrics(self, passes: int) -> tuple[dict[str, float], list[str]]:
        """Per-pass value of every per-layer metric, and the metrics found absent."""
        total = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name + ".s"] += end - start
            total[name + ".self_s"] += end - start - child_time[index]
            total[name + ".calls"] += 1
        total.update(self.counts)
        # cli.main is the benchmark's own span; a split span belongs to its target
        present = self.installed | {"cli.main"}
        split = {t.name for t in TARGETS if t.split is not None}
        values, absent = {}, []
        for metric, (source, kind) in LAYER_METRICS.items():
            family = source.rsplit(".", 1)[0]
            if source not in present and not (family in split and family in present):
                absent.append(metric)
            values[metric] = total[f"{source}.{kind}"] / passes
        return values, absent
