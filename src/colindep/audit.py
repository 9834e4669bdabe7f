"""Full battery orchestration: standardize, summarize, test, report.

``audit`` runs the whole pipeline on one matrix: demeaning and double
standardization, the correlation summary (total correlation, effective
sample size), the three order-sensitive permutation tests, the
eigenratio statistic against both simulated nulls, an optional
two-group bilinear test and the FDR outlier scan.  ``prepare``
standardizes the input once, and each test is a stage function of that
``Prepared`` input; the CLI subcommands call the same stages.  A single
seed fans out to per-stage substreams (the stage name is CRC-hashed
into the stream id) so each stage reproduces independently of which
other stages run, and a subcommand matches the audit entry it shares.
"""

from __future__ import annotations

import operator
import time
import warnings
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from ._version import __version__
from .correlation import CorrelationReport, correlation_report
from .errors import ColindepError, InvalidInput
from .fdr import OutlierReport, scan_column_pairs
from .jsonout import dumps
from .matrix import (
    MAX_ITER,
    TOL_STD,
    DataMatrix,
    SpectralSummary,
    StandardizeInfo,
    demean,
    double_standardize,
    spectral,
)
from .normal import (
    SimulationSpec,
    _null_draws,
    bilinear_test,
    calibrate_gamma,
    eigenratio,
    two_sample_w,
)
from .permutation import _STATISTICS, TestResult, _seed_words, mc_pvalue, perm_pvalue, sequential_stop


def stage_seed(seed: int, stage: str) -> int:
    """Derive the integer seed for a named stage from the master seed."""
    _seed_words(seed)  # InvalidInput for a seed SeedSequence would refuse
    ss = np.random.SeedSequence((seed, zlib.crc32(stage.encode("utf-8"))))
    return int(ss.generate_state(1, np.uint64)[0])


#: the AuditConfig fields read through operator.index
_INTEGER_SETTINGS = ("seed", "L", "eigen_reps", "min_block", "max_block", "max_iter", "sim_m", "sim_blocks", "calib_reps")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for the audit battery; defaults are desk-scale, and bad values raise InvalidInput."""

    seed: int = 0
    L: int = 2000
    eigen_reps: int = 200
    q: float = 0.1
    min_block: int = 2
    max_block: int = 10
    tol: float = TOL_STD
    max_iter: int = MAX_ITER
    bilinear: bool | None = None
    sim_m: int = 2000
    sim_blocks: int = 5
    calib_reps: int = 4

    def __post_init__(self):
        # bounds of the settings alone; failures that depend on the data stay stage errors
        for name in _INTEGER_SETTINGS:
            value = getattr(self, name)
            # operator.index takes Python and numpy integers, not 2.5, but True too, as 1
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise InvalidInput(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        _seed_words(self.seed)
        for ok, message in (
            (self.L >= 1, "L must be positive"),
            (self.eigen_reps >= 1, "eigen_reps must be positive"),
            (0.0 < self.q < 1.0, "q must lie in (0, 1)"),
            (self.min_block >= 2, "min_block must be at least 2"),
            (self.min_block <= self.max_block, "min_block must not exceed max_block"),
            (self.tol > 0.0, "tol must be positive"),
            (self.max_iter >= 1, "max_iter must be at least 1"),
            (self.sim_m >= 2, "sim_m must be at least 2"),
            (1 <= self.sim_blocks <= self.sim_m, "sim_blocks must lie in [1, sim_m]"),
            (self.calib_reps >= 1, "calib_reps must be positive"),
        ):
            if not ok:
                raise InvalidInput(message)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AuditReport:
    """Everything the battery produced, reproducible from (input, seed, config)."""

    m: int
    n: int
    groups: list[str] | None
    standardization: StandardizeInfo
    correlation: CorrelationReport
    tests: list[dict]
    outliers: OutlierReport | None
    config: AuditConfig
    warnings: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    version: str = __version__

    def to_dict(self, exclude_timings: bool = False, include_pairs: bool = True) -> dict:
        # a Counter keeps its keys in first-seen order
        group_summary = None if self.groups is None else dict(Counter(self.groups))
        out = {
            "version": self.version,
            "input": {"m": self.m, "n": self.n, "groups": group_summary},
            "config": self.config.to_dict(),
            "standardization": self.standardization.to_dict(),
            "correlation": self.correlation.to_dict(),
            "tests": self.tests,
            "outliers": self.outliers.to_dict(include_pairs) if self.outliers else None,
            "warnings": self.warnings,
            "errors": self.errors,
        }
        if not exclude_timings:
            out["timings"] = self.timings
        return out

    def _json_payload(self, exclude_timings: bool = False, include_pairs: bool = True) -> dict:
        # to_dict with the OutlierReport itself where write_json renders its pair list
        payload = self.to_dict(exclude_timings, include_pairs=False)
        if include_pairs and self.outliers is not None:
            payload["outliers"]["pairs"] = self.outliers
        return payload

    def to_json(self, exclude_timings: bool = False, include_pairs: bool = True) -> str:
        """``to_dict`` as canonical JSON, with the pair list rendered from its columns."""
        return dumps(self._json_payload(exclude_timings, include_pairs))


@dataclass
class Prepared:
    """One standardized input and the summaries its stages share.

    ``z`` and ``info`` come from demeaning and double standardization,
    done once in ``prepare`` in one m-by-n working copy of the input, or
    in the input's own values when it was handed over as scratch.
    ``spectrum`` (one eigendecomposition of the smaller Gram matrix of
    ``z``) and ``corr`` (which reuses it) are computed on first use, so a
    stage that needs neither, such as the trace permutation test, costs
    no spectrum.
    """

    z: DataMatrix
    info: StandardizeInfo
    config: AuditConfig

    @cached_property
    def spectrum(self) -> SpectralSummary:
        return spectral(self.z)

    @cached_property
    def corr(self) -> CorrelationReport:
        return correlation_report(self.z, spectrum=self.spectrum)


def prepare(x: DataMatrix, config: AuditConfig) -> Prepared:
    """Demean and doubly standardize ``x`` for the stages below.

    The sweeps run in place in demeaning's output, so ``x`` and that one
    copy are the only m-by-n arrays.  A matrix marked with ``_scratch``,
    as the CLI's ``_load`` returns it, is consumed instead: demeaning
    and the sweeps overwrite its values, which become ``z``, and no
    m-by-n copy is made.
    """
    z, info = double_standardize(demean(x)._scratch(), max_iter=config.max_iter, tol=config.tol)
    return Prepared(z, info, config)


def perm_stage(ctx: Prepared, stat: str, conservative: bool = False) -> tuple[dict, np.ndarray]:
    """Permutation test ``perm_<stat>``: its report entry and null sample."""
    cfg = ctx.config
    res = perm_pvalue(
        ctx.z,
        stat,
        L=cfg.L,
        seed=stage_seed(cfg.seed, f"perm_{stat}"),
        min_len=cfg.min_block,
        max_len=cfg.max_block,
        conservative=conservative,
        spectrum=None if stat == "trace" else ctx.spectrum,
    )
    return res.to_dict(), res.null_samples


def eigenratio_stage(
    ctx: Prepared, null: str, gamma: float | None = None
) -> tuple[dict, np.ndarray]:
    """Eigenratio test against the ``"wishart"`` or ``"blocks"`` null.

    The blocks null simulates the block model with effect size
    ``gamma``; when it is None, gamma is calibrated so the simulated
    alpha matches the data's alpha_hat.  Null draws stop at the h-th
    that reaches the observed eigenratio, h = ceil(L/20) with
    L = ``eigen_reps`` (Besag & Clifford, 1991).  The ell draws taken
    are the first ell of ``eigenratio_null`` at the stage seed, and
    ``mc_pvalue`` over them gives the entry: p = h/ell with L = ell when
    the stop fires, else the fixed-L result.  Either way p < 0.05
    exactly when fewer than h of the L fixed draws reach the observed
    value, and then nothing stops, so p below 0.05 is the fixed-L one.
    """
    cfg, z = ctx.config, ctx.z
    stage = f"eigenratio_{null}"
    seed = stage_seed(cfg.seed, stage)
    s_obs = eigenratio(ctx.spectrum)
    cut = sequential_stop(s_obs, cfg.eigen_reps)
    stop = lambda draw: cut(draw[0]) is not None

    if null == "wishart":
        extra = {"df": ctx.corr.m_tilde}
        draws = _null_draws("wishart", cfg.eigen_reps, z.n, seed, df=ctx.corr.m_tilde, stop=stop)
    elif null == "blocks":
        sim_m = min(z.m, cfg.sim_m)
        if gamma is None:
            gamma = calibrate_gamma(float(np.sqrt(ctx.corr.alpha_hat_sq)), m=sim_m, n=z.n,
                                    num_blocks=cfg.sim_blocks, reps=cfg.calib_reps,
                                    seed=stage_seed(cfg.seed, "calibrate"))
        extra = {"gamma": gamma, "sim_m": sim_m}
        spec = SimulationSpec(
            m=sim_m, n=z.n, sigma_model="block", num_blocks=cfg.sim_blocks, gamma=gamma
        )
        draws = _null_draws("correlated_rows", cfg.eigen_reps, z.n, seed, spec=spec, stop=stop)
    else:
        raise InvalidInput("eigenratio null must be 'wishart' or 'blocks'")
    nulls = draws[:, 0].copy()
    p, exceed = mc_pvalue(nulls, s_obs)
    res = TestResult(statistic=s_obs, null_samples=nulls, p_value=p, method=stage, seed=seed,
                     exceed_count=exceed)
    return {**res.to_dict(), **extra}, nulls


def two_group_contrast(groups: list[str] | None) -> tuple[np.ndarray, int, int]:
    """Unit-norm contrast ``w`` and group sizes for two groups, in any column order.

    The labels must name exactly two groups; group one is the first label
    seen.  ``w`` is the indicator contrast of ``two_sample_w``: -c/n1 on
    group one's columns and +c/n2 on group two's, so contiguous labels
    give ``two_sample_w(n1, n2)`` bit for bit.
    """
    if groups is None:
        raise InvalidInput("bilinear test needs group labels")
    sizes = Counter(groups)
    if len(sizes) != 2:
        raise InvalidInput(f"bilinear test needs exactly 2 groups, got {len(sizes)}")
    (one, n1), (_, n2) = sizes.items()
    minus, plus = two_sample_w(n1, n2)[[0, -1]]
    return np.where(np.array(groups) == one, minus, plus), n1, n2


def bilinear_stage(ctx: Prepared, groups: list[str] | None) -> dict:
    """Two-group bilinear test: its report entry."""
    w, n1, n2 = two_group_contrast(groups)
    entry = bilinear_test(ctx.z, w, ctx.corr.m_tilde).to_dict()
    entry["n1"], entry["n2"] = n1, n2
    return entry


def fdr_stage(ctx: Prepared, m_tilde: float | None = None, two_sided: bool = False) -> OutlierReport:
    """FDR scan of the column pairs at level ``config.q``.

    ``m_tilde`` defaults to the effective sample size of the input.
    """
    if m_tilde is None:
        m_tilde = ctx.corr.m_tilde
    return scan_column_pairs(ctx.z, m_tilde, ctx.config.q, two_sided=two_sided)


def audit(x: DataMatrix, config: AuditConfig | None = None, groups: list[str] | None = None) -> AuditReport:
    """Run the full column-independence battery on one matrix.

    Recoverable stage failures (a degenerate eigengap, a failed
    calibration) are recorded in the report and the battery continues;
    errors in the standardization or correlation stages, which everything
    downstream depends on, are raised.
    """
    cfg = config or AuditConfig()
    if cfg.bilinear is True and groups is None:
        raise InvalidInput("bilinear test requested but no group labels were provided")
    report_warnings: list[str] = []
    errors: dict[str, str] = {}
    timings: dict[str, float] = {}
    tests: list[dict] = []
    outliers: OutlierReport | None = None

    @contextmanager
    def stage(name: str, recoverable: bool = True):
        t0 = time.perf_counter()
        try:
            yield
        except ColindepError as exc:
            if not recoverable:
                raise
            errors[name] = str(exc)
        finally:
            timings[name] = time.perf_counter() - t0

    with stage("standardize", recoverable=False):
        ctx = prepare(x, cfg)
    with stage("correlation", recoverable=False):
        corr = ctx.corr

    for stat in _STATISTICS:
        name = f"perm_{stat}"
        with stage(name), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tests.append(perm_stage(ctx, stat)[0])
            report_warnings.extend(f"{name}: {w.message}" for w in caught)
    for null in ("wishart", "blocks"):
        with stage(f"eigenratio_{null}"):
            tests.append(eigenratio_stage(ctx, null)[0])
    if cfg.bilinear if cfg.bilinear is not None else groups is not None:
        with stage("bilinear"):
            tests.append(bilinear_stage(ctx, groups))
    with stage("fdr"):
        outliers = fdr_stage(ctx)

    return AuditReport(
        m=x.m,
        n=x.n,
        groups=groups,
        standardization=ctx.info,
        correlation=corr,
        tests=tests,
        outliers=outliers,
        config=cfg,
        warnings=report_warnings,
        errors=errors,
        timings=timings,
    )


def emit(report: AuditReport, format: str = "json", include_pairs: bool = True) -> str:
    """Render an audit report as canonical JSON or a readable text table."""
    if format == "json":
        return report.to_json(include_pairs=include_pairs)
    if format != "text":
        raise InvalidInput("format must be 'json' or 'text'")
    corr = report.correlation
    group_note = ""
    if report.groups:
        group_note = ", groups " + "+".join(map(str, Counter(report.groups).values()))
    std = report.standardization
    sweep_note = ""
    if std.deviations:
        sweep_note = f" ({len(std.deviations)} per-sweep deviations, last {std.deviations[-1]:.2e})"
    lines = [
        f"colindep audit v{report.version}",
        f"input: {report.m} x {report.n}" + group_note,
        f"standardization: {std.iterations} sweeps, "
        f"max deviation {std.max_deviation:.2e}" + sweep_note,
        f"c2 = {corr.c2:.6f}  alpha_hat = {np.sqrt(corr.alpha_hat_sq):.4f}  "
        f"m_tilde = {corr.m_tilde:.2f}",
        "",
        f"{'test':<24}{'statistic':>14}{'p':>10}",
    ]
    for t in report.tests:
        stat = t.get("statistic", t.get("tau_hat"))
        p = t.get("p_value")
        p_str = f"{p:.4g}" if p is not None else "-"
        lines.append(f"{t['method']:<24}{stat:>14.6g}{p_str:>10}")
    if report.outliers is not None:
        o = report.outliers
        thr = "none" if o.threshold_r is None else f"{o.threshold_r:.3f}"
        lines.append("")
        lines.append(
            f"fdr scan (q={o.q}): "
            f"{int(o.discoveries.size)} of {o.n_pairs} pairs flagged, threshold r = {thr}"
        )
    for stage, msg in report.errors.items():
        lines.append(f"error [{stage}]: {msg}")
    for msg in report.warnings:
        lines.append(f"warning: {msg}")
    return "\n".join(lines) + "\n"
