import tracemalloc

import numpy as np
import pytest

from colindep import (
    DataMatrix,
    InvalidInput,
    alpha_corrected,
    block_labels,
    c2_from_spectrum,
    column_cov,
    correlation_report,
    demean,
    double_standardize,
    effective_sample_size,
    offdiag_moments,
    sample_matrix_normal,
    spectral,
    SimulationSpec,
)
from colindep.fdr import _unrank_pairs


def equal_eigenvalue_matrix(blocks: int) -> DataMatrix:
    """Doubly standardized 2B x 2B matrix whose B nonzero eigenvalues are equal."""
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    values = np.kron(np.eye(blocks), sign) * np.sqrt(blocks)
    return DataMatrix(values, "double_std")


class TestColumnCov:
    def test_orthogonal_columns_give_identity(self):
        # two orthogonal +-1 columns with mean 0 and variance 1
        a = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        x = DataMatrix(a, "col_std")
        x.validate()
        assert np.allclose(column_cov(x), np.eye(2))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(40)
        x = demean(DataMatrix(rng.standard_normal((6, 3))))
        cov = column_cov(x)
        a = x.values
        oracle = np.empty((3, 3))
        for j in range(3):
            for k in range(3):
                oracle[j, k] = sum(a[i, j] * a[i, k] for i in range(6)) / 6
        assert np.allclose(cov, oracle, atol=1e-12)
        assert np.allclose(cov, cov.T)

    def test_double_std_unit_diagonal(self):
        rng = np.random.default_rng(41)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((40, 9))), max_iter=200)
        assert np.abs(np.diag(column_cov(z)) - 1.0).max() < 1e-8

    def test_requires_centered_columns(self):
        with pytest.raises(InvalidInput):
            column_cov(DataMatrix(np.random.default_rng(42).uniform(size=(5, 4))))


class TestCovarianceIdentity:
    """The exact identity: entries of X'X/m have mean 0 and variance c2."""

    @pytest.mark.parametrize("shape", [(5, 4), (12, 6), (20, 11), (9, 8)])
    def test_identity_both_directions(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        x = demean(DataMatrix(rng.standard_normal(shape)))
        m, n = shape
        c2 = c2_from_spectrum(spectral(x), m, n)
        cols = x.values.T @ x.values / m
        rows = x.values @ x.values.T / n
        assert abs(cols.mean()) < 1e-12
        assert abs(rows.mean()) < 1e-12
        assert abs(cols.var() - c2) < 1e-10 * max(1.0, c2)
        assert abs(rows.var() - c2) < 1e-10 * max(1.0, c2)


class TestPairIndices:
    """Ranks unranked into row-major triu pairs by ``colindep.fdr._unrank_pairs``, for every m."""

    @pytest.mark.parametrize("m", list(range(2, 61)) + [2000])
    def test_all_ranks_give_every_pair(self, m):
        total = m * (m - 1) // 2
        i, j = _unrank_pairs(m, np.random.default_rng(m).permutation(total))
        order = np.lexsort((j, i))
        iu, ju = np.triu_indices(m, 1)
        assert np.array_equal(i[order], iu)
        assert np.array_equal(j[order], ju)

    @pytest.mark.parametrize("m", [20426, 10**6])
    def test_large_m_pairs_valid_and_distinct(self, m):
        k = np.random.default_rng(48).choice(m * (m - 1) // 2, size=10_000, replace=False)
        i, j = _unrank_pairs(m, k)
        assert np.all((0 <= i) & (i < j) & (j < m))
        # rank of (i, j) in row-major triu order, in closed form
        assert np.array_equal(i * (2 * m - i - 1) // 2 + (j - i - 1), k)

    def test_memory_linear_in_count(self):
        # enumerating all 1,999,000 pairs of m=2000 would take tens of MiB
        k = np.random.default_rng(49).choice(2000 * 1999 // 2, size=20_000, replace=False)
        tracemalloc.start()
        try:
            _unrank_pairs(2000, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestC2:
    def test_equal_eigenvalues_give_inverse_rank(self):
        for blocks in (2, 3, 5):
            x = equal_eigenvalue_matrix(blocks)
            x.validate()
            s = spectral(x)
            assert s.rank == blocks
            c2 = c2_from_spectrum(s, x.m, x.n)
            assert abs(c2 * blocks - 1.0) < 1e-12

    def test_matches_covariance_double_sum(self):
        rng = np.random.default_rng(47)
        x = demean(DataMatrix(rng.standard_normal((8, 5))))
        c2 = c2_from_spectrum(spectral(x), 8, 5)
        cov = column_cov(x)
        oracle = float(np.sum(cov**2) / 25)
        assert abs(c2 - oracle) < 1e-12

    def test_lower_bound_on_double_std(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            m = int(rng.integers(12, 40))
            n = int(rng.integers(6, 12))
            z, _ = double_standardize(DataMatrix(rng.standard_normal((m, n))), max_iter=500)
            s = spectral(z)
            c2 = c2_from_spectrum(s, m, n)
            assert c2 * s.rank >= 1.0 - 1e-9
            # eigenvalues of a random matrix are spread, so the bound is strict
            assert c2 * s.rank > 1.0 + 1e-6


class TestOffdiagMoments:
    def test_reference_regression(self):
        mu, a2 = offdiag_moments(0.283**2, 44)
        assert abs(mu - (-0.023)) < 5e-4
        assert abs(np.sqrt(a2) - 0.241) < 5e-4

    def test_exact_cancellation(self):
        n = 17
        _, a2 = offdiag_moments(1.0 / (n - 1), n)
        assert a2 == 0.0

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(49)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((30, 8))), max_iter=300)
        cov = column_cov(z)
        off = cov[np.triu_indices(8, 1)]
        off = np.concatenate([off, off])  # symmetric: both triangles
        c2 = c2_from_spectrum(spectral(z), 30, 8)
        mu, a2 = offdiag_moments(c2, 8)
        assert abs(mu - off.mean()) < 1e-8
        assert abs(a2 - off.var()) < 1e-8

    def test_clamped_at_zero(self):
        _, a2 = offdiag_moments(0.0, 10)
        assert a2 == 0.0


class TestAlphaCorrected:
    def test_reference_regression(self):
        corrected, simple = alpha_corrected(0.283**2, 44)
        assert abs(np.sqrt(corrected) - 0.2415) < 1e-4
        assert abs(np.sqrt(simple) - 0.2412) < 1e-4

    def test_vanishing_numerator(self):
        n = 20
        corrected, _ = alpha_corrected(1.0 / (n - 3), n)
        assert corrected == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInput):
            alpha_corrected(0.1, 5)

    def test_recovers_known_alpha_on_block_model(self):
        # raw block model with known total correlation; the mean square of
        # all 44,850 row correlations feeds the corrected estimator
        m, n, gamma, blocks = 300, 44, 1.0, 5
        labels = block_labels(m, blocks)
        rho = gamma**2 / (1 + gamma**2)
        within = sum(int(c * (c - 1) / 2) for c in np.bincount(labels))
        alpha_sq_true = within / (m * (m - 1) / 2) * rho**2
        rng = np.random.default_rng(50)
        estimates = []
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=blocks, gamma=gamma)
        upper = np.triu_indices(m, 1)
        for _ in range(200):
            x = sample_matrix_normal(spec, rng)
            corrs = np.corrcoef(x.values)[upper]
            corrected, _ = alpha_corrected(float(np.mean(corrs**2)), n)
            estimates.append(corrected)
        assert abs(np.mean(estimates) - alpha_sq_true) < 0.1 * alpha_sq_true


class TestEffectiveSampleSize:
    def test_zero_alpha_keeps_m(self):
        assert effective_sample_size(500, 0.0) == 500

    def test_reference_value(self):
        assert abs(effective_sample_size(20426, 0.241**2) - 17.2) < 0.05

    def test_large_m_limit(self):
        alpha_sq = 0.3**2
        assert abs(effective_sample_size(10**9, alpha_sq) - 1 / alpha_sq) < 1e-3

    def test_monotone_and_bounded(self):
        m = 100
        grid = np.linspace(0.01, 0.99, 25)
        vals = [effective_sample_size(m, a) for a in grid]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        for a, v in zip(grid, vals):
            assert 1.0 <= v <= min(m, 1.0 / a + 1.0)

    def test_range_validation(self):
        with pytest.raises(InvalidInput):
            effective_sample_size(10, -0.1)
        with pytest.raises(InvalidInput):
            effective_sample_size(10, 1.5)


class TestCorrelationReport:
    def test_assembly_and_keys(self):
        rng = np.random.default_rng(53)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((60, 12))), max_iter=200)
        rep = correlation_report(z)
        d = rep.to_dict()
        for key in (
            "c2", "mu_hat", "alpha_hat", "alpha_tilde", "alpha_corrected",
            "m_tilde", "n", "m", "K", "estimator",
        ):
            assert key in d
        assert "mean_shift_flag" not in d
        assert d["m"] == 60 and d["n"] == 12
        assert 1.0 <= rep.m_tilde <= 60
        assert rep.alpha_hat_sq >= 0

    def test_requires_double_std(self):
        rng = np.random.default_rng(54)
        with pytest.raises(InvalidInput):
            correlation_report(demean(DataMatrix(rng.standard_normal((20, 6)))))

    def test_m_tilde_from_spectral_alpha(self):
        # the spectral c2 route is the one estimator; the report still names it
        rng = np.random.default_rng(55)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((80, 14))), max_iter=200)
        rep = correlation_report(z)
        assert rep.m_tilde == effective_sample_size(80, min(1.0, rep.alpha_hat_sq))
        assert rep.estimator == rep.to_dict()["estimator"] == "eigen"
        # no estimator to select, and no row pairs to sample
        for removed in ({"estimator": "corrected"}, {"seed": 1}, {"pair_count": 500}):
            with pytest.raises(TypeError):
                correlation_report(z, **removed)

    def test_row_spread_is_exact(self):
        # the variance of all m(m-1)/2 row correlations, about their mean -1/(m-1),
        # on edge shapes (m = 3, n = 3, m < n) and random ones
        rng = np.random.default_rng(57)
        shapes = [(3, 3), (3, 8), (25, 3), (6, 20), (11, 39), (44, 44)]
        shapes += [(int(rng.integers(3, 60)), int(rng.integers(3, 40))) for _ in range(40)]
        for m, n in shapes:
            z, _ = double_standardize(DataMatrix(rng.standard_normal((m, n))), max_iter=2000)
            rep = correlation_report(z)
            corrs = np.corrcoef(z.values)[np.triu_indices(m, 1)]
            assert abs(corrs.mean() + 1.0 / (m - 1)) < 1e-12, (m, n)
            assert abs(rep.alpha_bar_sq - corrs.var()) < 1e-12, (m, n)
            if n > 5:
                assert (rep.alpha_corrected_sq, rep.alpha_simple_sq) == alpha_corrected(rep.alpha_bar_sq, n)
            else:
                assert rep.alpha_corrected_sq is rep.alpha_simple_sq is None
