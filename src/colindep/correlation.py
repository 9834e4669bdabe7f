"""Row/column covariance summaries, total correlation and effective sample size.

For a demeaned matrix the n*n entries of X'X/m have mean exactly 0 and
variance c2 = sum_k e_k^2 / (mn)^2, where e_k are the eigenvalues of
X'X; the m*m entries of XX'/n share the same mean and variance.  This
identity is the backbone of the estimators in this module: the spread
of observed column correlations can be produced entirely by correlation
among the rows, and c2 is computable from the spectrum without ever
materializing the m*m row covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, InvalidInput
from .matrix import DataMatrix, SpectralSummary, spectral

#: cells each side of the row-pair correlations gathers at a time: 512 KiB
#: stays in cache
_PAIR_CELLS = 1 << 16


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


def _pair_indices(m: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # distinct ranks in row-major triu order
    return _unrank_pairs(m, rng.choice(m * (m - 1) // 2, size=count, replace=False))


def _unrank_pairs(m: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i < j) of ``m`` items at ranks ``k`` of the row-major ``triu`` order.

    Exact integer arithmetic: row i holds ranks starts[i] .. starts[i] + m - i - 2.
    """
    r = np.arange(m - 1)
    starts = r * (2 * m - r - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _pearson_rows(values: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # each side gathers about _PAIR_CELLS cells at a time; each pair's
    # arithmetic is the same as in one batch, so the values are too
    step = max(1, _PAIR_CELLS // values.shape[1])
    na, nb, ab = np.empty(i.size), np.empty(i.size), np.empty(i.size)
    for start in range(0, i.size, step):
        part = slice(start, start + step)
        a = values[i[part]]
        b = values[j[part]]
        a -= a.mean(axis=1, keepdims=True)
        b -= b.mean(axis=1, keepdims=True)
        na[part] = np.einsum("ij,ij->i", a, a)
        nb[part] = np.einsum("ij,ij->i", b, b)
        ab[part] = np.einsum("ij,ij->i", a, b)
    bad = np.nonzero(na <= 0)[0]
    if bad.size:
        raise DegenerateAxis("row", int(i[bad[0]]))
    bad = np.nonzero(nb <= 0)[0]
    if bad.size:
        raise DegenerateAxis("row", int(j[bad[0]]))
    return ab / np.sqrt(na * nb)


def row_corr_sample(x: DataMatrix, count: int, seed: int) -> np.ndarray:
    """Pearson correlations for ``count`` distinct row pairs drawn uniformly.

    Pairs (i, j) with i < j are sampled without replacement, for every
    m, by drawing ``count`` distinct ranks in [0, m(m-1)/2) and
    unranking each into its pair in row-major order, in O(count + m)
    memory.  The result is reproducible from ``seed``.  Asking for more
    pairs than m(m-1)/2 raises InvalidInput.
    """
    m = x.m
    total = m * (m - 1) // 2
    if count < 1:
        raise InvalidInput("count must be positive")
    if count > total:
        raise InvalidInput(f"count={count} exceeds the {total} available row pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    i, j = _pair_indices(m, count, rng)
    return _pearson_rows(x.values, i, j)


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

    ``alpha_bar_sq`` is the raw spread (mean square, or variance when the
    sampled mean is near zero) of row correlations estimated from n
    columns.  Each estimated correlation carries sampling noise of order
    1/(n-3), which inflates the raw spread; the corrected estimate

        A^2 = ((n-3) * alpha_bar_sq - 1) / (n-5)
        alpha_hat_sq = A^2 - 3 A^4 / (n-5)

    removes that inflation (clamped at zero when negative).  Also
    returned is the simpler deflation (n/(n-1)) * (alpha_bar_sq -
    1/(n-1)), an excellent approximation for raw spreads up to ~0.5.
    The correction assumes the sampled correlations are centered near
    zero.
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

    ``alpha_hat_sq`` comes from the spectral c2 route, ``alpha_bar_sq``
    is the raw variance of sampled row correlations, and
    ``alpha_corrected_sq`` / ``alpha_simple_sq`` are its noise-corrected
    versions.  ``m_tilde`` is the effective sample size computed from
    ``alpha_hat_sq``, the estimator that ``estimator`` names, ``"eigen"``.
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
    estimator: str
    mean_row_corr: float
    mean_shift_flag: bool

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
            "estimator": self.estimator,
            "mean_shift_flag": self.mean_shift_flag,
        }


def correlation_report(
    x: DataMatrix,
    pair_count: int = 10_000,
    seed: int = 0,
    spectrum: SpectralSummary | None = None,
) -> CorrelationReport:
    """Assemble the full correlation summary for a doubly standardized matrix.

    The effective sample size comes from the spectral c2 route's
    ``alpha_hat_sq``; the alphas of sampled row correlations are reported
    beside it.
    """
    if x.state != "double_std":
        raise InvalidInput("correlation_report expects a doubly standardized matrix")
    m, n = x.m, x.n
    s = spectrum if spectrum is not None else spectral(x)
    c2 = c2_from_spectrum(s, m, n)
    mu_hat, alpha_hat_sq = offdiag_moments(c2, n)

    total_pairs = m * (m - 1) // 2
    count = min(pair_count, total_pairs)
    corrs = row_corr_sample(x, count, seed)
    mean_row_corr = float(corrs.mean())
    alpha_bar_sq = float(corrs.var())
    # the noise correction assumes the sampled correlations center near
    # the value forced by row demeaning, -1/(m-1)
    mean_shift_flag = abs(mean_row_corr + 1.0 / (m - 1)) > 0.05
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
        estimator="eigen",
        mean_row_corr=mean_row_corr,
        mean_shift_flag=mean_shift_flag,
    )
