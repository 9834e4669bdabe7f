"""Column-independence auditing for row-correlated data matrices.

Given an m-by-n matrix whose rows may be heavily correlated, this
package tests whether the columns are independent: double
standardization, the exact row/column correlation identity, total
correlation and effective sample size, order-sensitive permutation
tests, eigenratio and bilinear statistics against simulated nulls, and
an FDR scan for outlying column correlations.
"""

from ._version import __version__
from .audit import AuditConfig, AuditReport, audit, emit, stage_seed
from .correlation import (
    CorrelationReport,
    alpha_corrected,
    c2_from_spectrum,
    column_cov,
    correlation_report,
    effective_sample_size,
    offdiag_moments,
)
from .errors import (
    CalibrationFailure,
    ColindepError,
    DegenerateAxis,
    DegenerateEigengapWarning,
    InvalidInput,
    NonConvergence,
    NumericalError,
    ParseError,
)
from .fdr import OutlierReport, bh_fdr, corr_null_pvalue, scan_column_pairs
from .io import ParseOptions, ingest, write_matrix
from .matrix import (
    DataMatrix,
    SpectralSummary,
    StandardizeInfo,
    demean,
    double_standardize,
    spectral,
    standardization_deviation,
    standardize_columns,
    standardize_rows,
)
from .normal import (
    BilinearResult,
    SimulationSpec,
    bilinear_test,
    block_labels,
    block_total_correlation,
    calibrate_gamma,
    eigenratio,
    eigenratio_null,
    sample_matrix_normal,
    sample_wishart,
    two_sample_w,
    within_block_correlation,
)
from .permutation import (
    BlockBasis,
    TestResult,
    block_basis,
    block_statistic,
    first_eigvec,
    mc_pvalue,
    perm_pvalue,
    trace_statistic,
    trend_statistic,
)

__all__ = [
    "__version__",
    "AuditConfig",
    "AuditReport",
    "BilinearResult",
    "BlockBasis",
    "CalibrationFailure",
    "ColindepError",
    "CorrelationReport",
    "DataMatrix",
    "DegenerateAxis",
    "DegenerateEigengapWarning",
    "InvalidInput",
    "NonConvergence",
    "NumericalError",
    "OutlierReport",
    "ParseError",
    "ParseOptions",
    "SimulationSpec",
    "SpectralSummary",
    "StandardizeInfo",
    "TestResult",
    "alpha_corrected",
    "audit",
    "bh_fdr",
    "bilinear_test",
    "block_basis",
    "block_labels",
    "block_statistic",
    "block_total_correlation",
    "c2_from_spectrum",
    "calibrate_gamma",
    "column_cov",
    "corr_null_pvalue",
    "correlation_report",
    "demean",
    "double_standardize",
    "effective_sample_size",
    "eigenratio",
    "eigenratio_null",
    "emit",
    "first_eigvec",
    "ingest",
    "mc_pvalue",
    "offdiag_moments",
    "perm_pvalue",
    "sample_matrix_normal",
    "sample_wishart",
    "scan_column_pairs",
    "spectral",
    "stage_seed",
    "standardization_deviation",
    "standardize_columns",
    "standardize_rows",
    "trace_statistic",
    "trend_statistic",
    "two_sample_w",
    "within_block_correlation",
    "write_matrix",
]
