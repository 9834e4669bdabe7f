"""Why column correlations alone cannot prove column dependence.

For any demeaned matrix, the n^2 column covariances and the m^2 row
covariances share the same mean (0) and the same variance c2, a number
computable from the eigenvalue spectrum.  So heavy row correlation
masquerades as column correlation.  This demo builds a matrix with
strongly correlated rows and *independent* columns and shows the column
correlations spreading out exactly as the identity predicts, then
summarizes everything in the effective sample size.
"""

import numpy as np

from colindep import (
    SimulationSpec,
    c2_from_spectrum,
    column_cov,
    correlation_report,
    double_standardize,
    effective_sample_size,
    sample_matrix_normal,
    spectral,
)

m, n = 4000, 44
spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=1.3, seed=21)
x = sample_matrix_normal(spec)
z, _ = double_standardize(x)

s = spectral(z)
c2 = c2_from_spectrum(s, m, n)
cov = column_cov(z)
entries = cov.ravel()

print(f"simulated {m} x {n}: independent columns, block-correlated rows")
print(f"\nspectral c2            = {c2:.6f}  (sd {np.sqrt(c2):.4f})")
print(f"mean of n^2 entries    = {entries.mean():+.2e}   (identity: 0)")
print(f"variance of entries    = {entries.var():.6f}   (identity: c2)")

# every row correlation is an off-diagonal entry of ZZ'/n; sum them 500
# rows at a time, so no m x m array is built
pairs, total, total_sq = m * (m - 1) // 2, 0.0, 0.0
for start in range(0, m, 500):
    block = z.values[start:start + 500] @ z.values[start + 1:].T / n
    upper = np.triu(block)  # row start + a against row start + 1 + b, kept for b >= a
    total += upper.sum()
    total_sq += (upper * upper).sum()
row_mean = total / pairs
row_sd = np.sqrt(total_sq / pairs - row_mean**2)

report = correlation_report(z)
print(f"\nall {pairs:,} row correlations: mean = {row_mean:+.6f}, sd = {row_sd:.6f}")
print(f"closed form from c2:      mean = {-1 / (m - 1):+.6f}, sd = {np.sqrt(report.alpha_bar_sq):.6f}")
print("column and row correlation spreads match even though the columns")
print("are independent by construction; the spread is pure row leakage.")

alpha = np.sqrt(report.alpha_hat_sq)
print(f"\nestimated total correlation alpha = {alpha:.4f}")
print(f"effective sample size m_tilde     = {report.m_tilde:.1f}  (from m = {m})")
print(f"check: m/[1+(m-1)alpha^2]         = "
      f"{effective_sample_size(m, report.alpha_hat_sq):.1f}")
print("\nthe column covariance matrix is as noisy as if it were built from")
print(f"about {report.m_tilde:.0f} independent rows, not {m}.")
