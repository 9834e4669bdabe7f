"""The eigenratio test and the null-distribution trap.

The eigenratio e1/sum(e) is invariant under column permutations, so it
complements the order-sensitive tests.  But its null distribution
depends on the row correlation that is a nuisance here: a scaled
Wishart null with the effective sample size as degrees of freedom is
noticeably narrower than a null that actually carries correlated rows.
This demo simulates both nulls and prints text histograms.
"""

import numpy as np

from colindep import (
    DataMatrix,
    SimulationSpec,
    calibrate_gamma,
    correlation_report,
    double_standardize,
    eigenratio,
    eigenratio_null,
    sample_matrix_normal,
    spectral,
)

rng = np.random.default_rng(3)
m, n, reps = 2000, 44, 100

# data with correlated rows, independent columns, plus one spiked column pair
spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=1.29, seed=9)
raw = sample_matrix_normal(spec).values.copy()
raw[:, 31] = 0.60 * raw[:, 30] + 0.80 * rng.standard_normal(m)
z, _ = double_standardize(DataMatrix(raw))

s_obs = eigenratio(spectral(z))
report = correlation_report(z)
alpha = float(np.sqrt(report.alpha_hat_sq))
print(f"observed eigenratio S = {s_obs:.3f}")
print(f"estimated alpha = {alpha:.3f}, effective sample size = {report.m_tilde:.1f}")

wishart = eigenratio_null("wishart", reps, n, seed=41, df=report.m_tilde)
gamma = calibrate_gamma(alpha, m=m, n=n, num_blocks=5, reps=4, seed=42)
null_spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=gamma)
blocks = eigenratio_null("correlated_rows", reps, n, seed=43, spec=null_spec)


def text_hist(values: np.ndarray, lo: float, hi: float, width: int = 50) -> list[str]:
    counts, edges = np.histogram(values, bins=12, range=(lo, hi))
    peak = counts.max()
    return [
        f"  {edges[k]:.3f}-{edges[k + 1]:.3f} {'#' * int(width * counts[k] / peak):<{width}} {counts[k]}"
        for k in range(counts.size)
    ]


lo = min(wishart.min(), blocks.min(), s_obs) - 0.01
hi = max(wishart.max(), blocks.max(), s_obs) + 0.01
print(f"\nscaled-Wishart null (df = {report.m_tilde:.1f}), {reps} draws:")
print("\n".join(text_hist(wishart, lo, hi)))
print(f"\ncorrelated-rows null (calibrated gamma = {gamma:.2f}), {reps} draws:")
print("\n".join(text_hist(blocks, lo, hi)))

p_w = float(np.mean(wishart >= s_obs))
p_b = float(np.mean(blocks >= s_obs))
print(f"\np-value against the Wishart null:        {p_w:.3f}")
print(f"p-value against the correlated-rows null: {p_b:.3f}")
print("\nthe correlated-rows null sits to the right of the Wishart null, so")
print("the Wishart approximation overstates the evidence; the honest null")
print("depends on the row-correlation nuisance.")
