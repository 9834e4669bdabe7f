"""Hunting outliers among the pairwise column correlations.

The overall spread of column correlations is uninformative (row
correlation can produce any amount of it), but individual outliers are
testable.  Each of the n(n-1)/2 pairwise correlations gets a one-sided
p-value from the null correlation distribution with the effective
sample size as its degrees of freedom, recentred by the -1/(n-1) shift
that demeaning forces; Benjamini-Hochberg then controls the false
discovery rate.  One genuinely correlated column pair is planted here.
The two-sided p-values double the smaller tail, so a strongly negative
pair would be flagged too.
"""

import numpy as np

from colindep import (
    DataMatrix,
    SimulationSpec,
    correlation_report,
    double_standardize,
    sample_matrix_normal,
    scan_column_pairs,
)

rng = np.random.default_rng(19)
m, n = 3000, 44

spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=1.2, seed=29)
raw = sample_matrix_normal(spec).values.copy()
# with m_tilde near 17 only correlations around 0.7 and up can clear FDR
raw[:, 32] = 0.85 * raw[:, 31] + rng.standard_normal(m)

z, _ = double_standardize(DataMatrix(raw))
report = correlation_report(z)
print(f"matrix {m} x {n}; estimated alpha = {np.sqrt(report.alpha_hat_sq):.3f}, "
      f"m_tilde = {report.m_tilde:.1f}")
print(f"planted: columns 32 and 33 correlated beyond the row-induced spread\n")

for sides, two_sided in (("one-sided", False), ("two-sided", True)):
    out = scan_column_pairs(z, report.m_tilde, q=0.10, two_sided=two_sided)
    thr = "none" if out.threshold_r is None else f"{out.threshold_r:.3f}"
    print(f"{sides} p-values: discoveries = {out.discoveries.size:2d}   "
          f"threshold r = {thr}")
    for k in out.discoveries:
        print(f"    columns {out.pair_j[k] + 1:2d} and {out.pair_jp[k] + 1:2d}: "
              f"r = {out.r[k]:.3f}   p = {out.p_values[k]:.2e}")

print("\nwithout the effective-sample-size correction the same scan would use")
print(f"df = {m} and flag dozens of row-leakage correlations as discoveries:")
naive = scan_column_pairs(z, float(m), q=0.10)
print(f"null with df = m: discoveries = {naive.discoveries.size}")
