"""Row/column covariance summaries, total correlation and effective sample size.

For a demeaned matrix the n*n entries of X'X/m have mean exactly 0 and
variance c2 = sum_k e_k^2 / (mn)^2, where e_k are the eigenvalues of
X'X; the m*m entries of XX'/n share the same mean and variance.  This
identity is the backbone of the estimators in this module: the spread
of observed column correlations can be produced entirely by correlation
among the rows, and c2 is computable from the spectrum without ever
materializing the m*m row covariance matrix.  On a doubly standardized
matrix the off-diagonal entries of X'X/m are the column correlations,
with mean -1/(n-1) and variance (n/(n-1)) * (c2 - 1/(n-1)); those of
XX'/n are the row correlations, with mean -1/(m-1) and variance
(m/(m-1)) * (c2 - 1/(m-1)).  Both follow from c2 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .matrix import DataMatrix, SpectralSummary, spectral


def column_cov(x: DataMatrix) -> np.ndarray:
    """Sample covariance matrix of the columns, X'X/m.

    Requires zero column means (a demeaned, column-standardized or
    doubly standardized matrix); on a doubly standardized input this is
    the column correlation matrix (unit diagonal).
    """
    if x.state not in ("demeaned", "col_std", "double_std"):
        raise InvalidInput(
            "column_cov expects a demeaned, column-standardized or doubly "
            "standardized matrix"
        )
    a = x.values
    cov = a.T @ a
    cov /= x.m
    return cov


def c2_from_spectrum(s: SpectralSummary, m: int, n: int) -> float:
    """Mean squared entry of X'X/m, computed from the eigenvalues alone."""
    e = s.eigenvalues
    return float(np.sum(e * e) / (m * n) ** 2)


def offdiag_moments(c2: float, n: int) -> tuple[float, float]:
    """Mean and variance of the off-diagonal column correlations.

    For a doubly standardized matrix the off-diagonal mean is forced to
    -1/(n-1) by the zero row sums, and removing the n diagonal ones from
    the c2 identity leaves variance (n/(n-1)) * (c2 - 1/(n-1)), clamped
    at zero.
    """
    if n < 3:
        raise InvalidInput("n must be at least 3")
    mu_hat = -1.0 / (n - 1)
    alpha_hat_sq = max(0.0, n / (n - 1) * (c2 - 1.0 / (n - 1)))
    return mu_hat, alpha_hat_sq


def alpha_corrected(alpha_bar_sq: float, n: int) -> tuple[float, float]:
    """Noise-corrected estimates of the squared total correlation.

    ``alpha_bar_sq`` is the raw spread (variance, or mean square when
    the correlations are centered near zero) of row correlations
    estimated from n columns.  Each estimated correlation carries
    sampling noise of order 1/(n-3), which inflates the raw spread; the
    corrected estimate

        A^2 = ((n-3) * alpha_bar_sq - 1) / (n-5)
        alpha_hat_sq = A^2 - 3 A^4 / (n-5)

    removes that inflation (clamped at zero when negative).  Also
    returned is the simpler deflation (n/(n-1)) * (alpha_bar_sq -
    1/(n-1)), an excellent approximation for raw spreads up to ~0.5.
    """
    if n <= 5:
        raise InvalidInput("the corrected estimator requires n >= 6")
    a2 = ((n - 3) * alpha_bar_sq - 1.0) / (n - 5)
    corrected = max(0.0, a2 - 3.0 / (n - 5) * a2 * a2)
    simple = max(0.0, n / (n - 1) * (alpha_bar_sq - 1.0 / (n - 1)))
    return corrected, simple


def effective_sample_size(m: int, alpha_sq: float) -> float:
    """Effective number of independent rows: m / [1 + (m-1) * alpha^2].

    Row correlation of root-mean-square size alpha makes the column
    covariance estimate behave as if built from this many independent
    rows instead of m.
    """
    if not 0.0 <= alpha_sq <= 1.0:
        raise InvalidInput(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
    return m / (1.0 + (m - 1) * alpha_sq)


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation summary of a doubly standardized matrix.

    ``alpha_hat_sq`` is the variance of the off-diagonal column
    correlations, (n/(n-1)) * (c2 - 1/(n-1)), and ``mu_hat`` their mean,
    -1/(n-1).  ``alpha_bar_sq`` is the variance of the off-diagonal row
    correlations, (m/(m-1)) * (c2 - 1/(m-1)), whose mean is -1/(m-1);
    ``alpha_corrected_sq`` / ``alpha_simple_sq`` are its noise-corrected
    versions (None when n <= 5).  All of them come from c2.  ``m_tilde``
    is the effective sample size computed from ``alpha_hat_sq``.
    """

    m: int
    n: int
    rank: int
    c2: float
    mu_hat: float
    alpha_hat_sq: float
    alpha_bar_sq: float
    alpha_corrected_sq: float | None
    alpha_simple_sq: float | None
    m_tilde: float

    def to_dict(self) -> dict:
        def _sqrt(v):
            return None if v is None else float(np.sqrt(v))

        return {
            "c2": self.c2,
            "mu_hat": self.mu_hat,
            "alpha_hat": _sqrt(self.alpha_hat_sq),
            "alpha_tilde": _sqrt(self.alpha_simple_sq),
            "alpha_corrected": _sqrt(self.alpha_corrected_sq),
            "alpha_bar": _sqrt(self.alpha_bar_sq),
            "m_tilde": self.m_tilde,
            "n": self.n,
            "m": self.m,
            "K": self.rank,
        }


def correlation_report(x: DataMatrix, spectrum: SpectralSummary | None = None) -> CorrelationReport:
    """Assemble the full correlation summary for a doubly standardized matrix.

    Every field comes from c2 of the one spectrum, ``spectrum`` when
    given: the column correlations' moments through ``offdiag_moments``,
    the effective sample size from their variance ``alpha_hat_sq``, and
    the row correlations' variance ``alpha_bar_sq`` = (m/(m-1)) * (c2 -
    1/(m-1)), clamped at zero, beside it.  The rows of XX'/n have unit
    diagonal and zero sums, so that is the exact variance of all
    m(m-1)/2 row correlations, about their exact mean -1/(m-1).
    """
    if x.state != "double_std":
        raise InvalidInput("correlation_report expects a doubly standardized matrix")
    m, n = x.m, x.n
    s = spectrum if spectrum is not None else spectral(x)
    c2 = c2_from_spectrum(s, m, n)
    mu_hat, alpha_hat_sq = offdiag_moments(c2, n)
    # offdiag_moments read along the rows; written out, since m = 2 is allowed here
    alpha_bar_sq = max(0.0, m / (m - 1) * (c2 - 1.0 / (m - 1)))
    try:
        alpha_corrected_sq, alpha_simple_sq = alpha_corrected(alpha_bar_sq, n)
    except InvalidInput:
        alpha_corrected_sq, alpha_simple_sq = None, None
    m_tilde = effective_sample_size(m, min(1.0, alpha_hat_sq))
    return CorrelationReport(
        m=m,
        n=n,
        rank=s.rank,
        c2=c2,
        mu_hat=mu_hat,
        alpha_hat_sq=alpha_hat_sq,
        alpha_bar_sq=alpha_bar_sq,
        alpha_corrected_sq=alpha_corrected_sq,
        alpha_simple_sq=alpha_simple_sq,
        m_tilde=m_tilde,
    )
