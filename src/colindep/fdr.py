"""Outlier scan over pairwise column correlations with FDR control.

The spread of column correlations says nothing about column dependence
(row correlation alone can produce any amount of it), but individual
outliers among them can.  Each pairwise correlation gets a p-value
under the null density of a correlation built from m_tilde independent
pairs, m_tilde the effective sample size, and the Benjamini-Hochberg
step-up rule flags the discoveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlation import column_cov
from .errors import InvalidInput
from .matrix import DataMatrix


def corr_null_pvalue(r, m_tilde: float, shift: float = 0.0):
    """Upper-tail p-value for a null correlation of m_tilde bivariate pairs.

    The null density of a correlation coefficient built from nu =
    ``m_tilde`` uncorrelated normal pairs is proportional to
    (1 - r^2)^{(nu-4)/2} on [-1, 1]; fractional nu is accepted as-is
    through the regularized incomplete beta function.  The p-value is
    P(R >= r - shift), so a negative ``shift`` recenters the null to the
    left (as demeaning does to observed correlations).  Scalar or array
    ``r``; ``m_tilde`` must be a finite number above 3.  An array is
    worked in one new array of its size, which becomes the result.
    """
    # scipy.special is imported here, not with the module: it is most of
    # the package's import time, and only the FDR p-values use it
    from scipy.special import betainc

    if not 3.0 < m_tilde < math.inf:
        raise InvalidInput(f"m_tilde must be a finite number above 3, got {m_tilde}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < -1.0) or np.any(rr > 1.0):
        raise InvalidInput("correlations must lie in [-1, 1]")
    p = np.atleast_1d(rr - shift)
    above, below = p >= 1.0, p <= -1.0
    np.clip(p, -1.0, 1.0, out=p)
    lower = p < 0
    # 0.5 * I_{1-x^2}(a, 1/2) is P(R >= |x|); below zero p is its complement
    np.multiply(p, p, out=p)
    np.subtract(1.0, p, out=p)
    betainc((m_tilde - 2.0) / 2.0, 0.5, p, out=p)
    p *= 0.5
    np.subtract(1.0, p, out=p, where=lower)
    np.copyto(p, 0.0, where=above)
    np.copyto(p, 1.0, where=below)
    if np.isscalar(r) or rr.ndim == 0:
        return float(p[0])
    return p


def bh_fdr(pvalues, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rule; returns the rejected indices.

    Finds the largest k with p_(k) <= k*q/N and rejects the k smallest
    p-values.  Only p-values at or below the largest threshold, N*q/N
    (q up to rounding), can pass, so only those candidates are sorted;
    the thresholds are the same expression over the first c ranks.
    Tied p-values at the cutoff are always rejected together.  Returns a
    sorted array of indices into the input, empty when nothing is
    rejected.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1:
        raise InvalidInput("pvalues must be one-dimensional")
    if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise InvalidInput("p-values must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise InvalidInput("q must lie in (0, 1)")
    n = p.size
    # the largest threshold, q*n/n, can lie one ulp above q
    candidates = np.sort(p[p <= q * n / n]) if n else p
    c = candidates.size
    passing = np.flatnonzero(candidates <= q * np.arange(1, c + 1) / n)
    if passing.size == 0:
        return np.array([], dtype=np.int64)
    # nothing tied with the k-th smallest lies beyond it: k + 1 would pass too
    return np.flatnonzero(p <= candidates[passing[-1]])


def _unrank_pairs(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i < j) of ``n`` items at ranks ``k`` of the row-major ``triu`` order.

    Exact integer arithmetic: row i holds ranks starts[i] .. starts[i] + n - i - 2.
    """
    r = np.arange(n - 1)
    starts = r * (2 * n - r - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


@dataclass(frozen=True)
class OutlierReport:
    """All pairwise column correlations with p-values and BH discoveries.

    The pairs (j < j') of the ``n`` columns are taken in row-major
    order, (0, 1), (0, 2), ..., (n-2, n-1), and are not stored: ``r``
    holds their correlations and ``p_values`` their null p-values, and
    ``pair_j``/``pair_jp`` enumerate the columns from ``n`` on request.
    ``discoveries`` indexes the pairs flagged at FDR level ``q`` and
    ``threshold_r`` is the smallest correlation among them (None when
    there are no discoveries).
    """

    n: int
    r: np.ndarray = field(repr=False)
    p_values: np.ndarray = field(repr=False)
    q: float
    discoveries: np.ndarray = field(repr=False)
    threshold_r: float | None
    m_tilde: float

    def __post_init__(self):
        if self.r.size != self.n * (self.n - 1) // 2:
            raise InvalidInput(f"{self.n} columns have n(n-1)/2 pairs, got {self.r.size} correlations")

    @property
    def n_pairs(self) -> int:
        return int(self.r.size)

    @property
    def pair_j(self) -> np.ndarray:
        """The first column of each pair, a new array on every read."""
        return np.triu_indices(self.n, 1)[0]

    @property
    def pair_jp(self) -> np.ndarray:
        """The second column of each pair, a new array on every read."""
        return np.triu_indices(self.n, 1)[1]

    @property
    def significant(self) -> np.ndarray:
        """Boolean mask over the pairs, True at the discoveries."""
        sig = np.zeros(self.n_pairs, dtype=bool)
        sig[self.discoveries] = True
        return sig

    def to_dict(self, include_pairs: bool = True) -> dict:
        out = {
            "q": self.q,
            "m_tilde": self.m_tilde,
            "n_pairs": self.n_pairs,
            "n_discoveries": int(self.discoveries.size),
            "threshold_r": self.threshold_r,
        }
        if include_pairs:
            sig = self.significant
            pair_j, pair_jp = np.triu_indices(self.n, 1)
            out["pairs"] = [
                {
                    "j": int(pair_j[k]),
                    "jp": int(pair_jp[k]),
                    "r": float(self.r[k]),
                    "p": float(self.p_values[k]),
                    "significant": bool(sig[k]),
                }
                for k in range(self.n_pairs)
            ]
        return out


def scan_column_pairs(x: DataMatrix, m_tilde: float, q: float, two_sided: bool = False) -> OutlierReport:
    """FDR scan of all n(n-1)/2 column correlations of a standardized matrix.

    Each correlation gets its p-value under the correlation-coefficient
    null with nu = ``m_tilde`` pairs (``corr_null_pvalue``), recentered
    by the -1/(n-1) shift that demeaning forces on the observed
    correlations.  One-sided upper p-values by default; ``two_sided``
    doubles the smaller tail.  The correlations are gathered from the
    covariance row by row, in the report's row-major pair order; no pair
    index arrays are built.
    """
    if x.state != "double_std":
        raise InvalidInput("scan_column_pairs expects a doubly standardized matrix")
    n = x.n
    # the n-by-n covariance is freed once its upper triangle is gathered
    # row by row, before the p-values are computed in place in one array
    cov = column_cov(x)
    r = np.concatenate([cov[j, j + 1 :] for j in range(n)])
    del cov
    np.clip(r, -1.0, 1.0, out=r)
    p = corr_null_pvalue(r, m_tilde, shift=-1.0 / (n - 1))
    if two_sided:
        np.minimum(p, 1.0 - p, out=p)
        p *= 2.0
    discoveries = bh_fdr(p, q)
    threshold_r = float(r[discoveries].min()) if discoveries.size else None
    return OutlierReport(
        n=n,
        r=r,
        p_values=p,
        q=q,
        discoveries=discoveries,
        threshold_r=threshold_r,
        m_tilde=m_tilde,
    )
