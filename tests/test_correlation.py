import tracemalloc

import numpy as np
import pytest

from colindep import (
    DataMatrix,
    DegenerateAxis,
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
    row_corr_sample,
    sample_matrix_normal,
    spectral,
    SimulationSpec,
)
from colindep import correlation
from colindep.correlation import _pair_indices, _pearson_rows


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


class TestRowCorrSample:
    def test_duplicate_rows_give_unit_correlation(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((4, 8))
        a[3] = a[0]
        x = DataMatrix(a)
        corrs = row_corr_sample(x, 6, seed=5)  # all pairs of m=4
        assert np.isclose(corrs.max(), 1.0)

    def test_all_pairs_equal_exhaustive_enumeration(self):
        rng = np.random.default_rng(44)
        x = DataMatrix(rng.standard_normal((4, 10)))
        corrs = np.sort(row_corr_sample(x, 6, seed=7))
        full = np.corrcoef(x.values)
        oracle = np.sort(full[np.triu_indices(4, 1)])
        assert np.allclose(corrs, oracle, atol=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(45)
        x = DataMatrix(rng.standard_normal((30, 12)))
        a = row_corr_sample(x, 50, seed=9)
        b = row_corr_sample(x, 50, seed=9)
        assert np.array_equal(a, b)
        c = row_corr_sample(x, 50, seed=10)
        assert not np.array_equal(a, c)

    def test_count_bounds(self):
        x = DataMatrix(np.random.default_rng(46).standard_normal((5, 6)))
        with pytest.raises(InvalidInput):
            row_corr_sample(x, 11, seed=0)  # only 10 pairs exist
        with pytest.raises(InvalidInput):
            row_corr_sample(x, 0, seed=0)

    def test_large_m_rejection_sampling_path(self):
        # m large enough that the pair index space is not enumerated
        rng = np.random.default_rng(47)
        x = DataMatrix(rng.standard_normal((2500, 5)))
        a = row_corr_sample(x, 200, seed=8)
        b = row_corr_sample(x, 200, seed=8)
        assert a.size == 200
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) <= 1.0)
        assert np.unique(a).size > 150  # distinct pairs


class TestPairIndices:
    """Distinct ranks unranked into row-major triu pairs, for every m."""

    @pytest.mark.parametrize("m", list(range(2, 61)) + [2000])
    def test_all_ranks_give_every_pair(self, m):
        total = m * (m - 1) // 2
        i, j = _pair_indices(m, total, np.random.default_rng(m))
        order = np.lexsort((j, i))
        iu, ju = np.triu_indices(m, 1)
        assert np.array_equal(i[order], iu)
        assert np.array_equal(j[order], ju)

    @pytest.mark.parametrize("m", [20426, 10**6])
    def test_large_m_pairs_valid_and_distinct(self, m):
        count = 10_000
        i, j = _pair_indices(m, count, np.random.default_rng(48))
        assert i.size == j.size == count
        assert np.all((0 <= i) & (i < j) & (j < m))
        # rank of (i, j) in row-major triu order, in closed form
        rank = i * (2 * m - i - 1) // 2 + (j - i - 1)
        assert np.unique(rank).size == count
        assert rank.min() >= 0 and rank.max() < m * (m - 1) // 2

    def test_every_pair_equally_likely(self):
        m, count, seeds = 6, 3, 5000
        hits = np.zeros((m, m))
        for seed in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            i, j = _pair_indices(m, count, rng)
            hits[i, j] += 1
        freq = hits[np.triu_indices(m, 1)] / seeds
        p = count / (m * (m - 1) // 2)
        se = np.sqrt(p * (1 - p) / seeds)
        assert np.all(np.abs(freq - p) < 5 * se)

    def test_memory_linear_in_count(self):
        # enumerating all 1,999,000 pairs of m=2000 would take tens of MiB
        rng = np.random.default_rng(49)
        tracemalloc.start()
        try:
            _pair_indices(2000, 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def pearson_rows_one_batch(values, i, j):
    """The row-pair correlations with every pair gathered at once."""
    a = values[i]
    b = values[j]
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    bad = np.nonzero(na <= 0)[0]
    if bad.size:
        raise DegenerateAxis("row", int(i[bad[0]]))
    bad = np.nonzero(nb <= 0)[0]
    if bad.size:
        raise DegenerateAxis("row", int(j[bad[0]]))
    return np.einsum("ij,ij->i", a, b) / np.sqrt(na * nb)


class TestPearsonRowsChunked:
    """Chunked row-pair correlations equal the one-batch form bit for bit."""

    @pytest.mark.parametrize("m, n, step", [(9, 2, 1), (12, 5, 3), (30, 13, 4), (40, 63, 7), (25, 150, 10)])
    def test_counts_around_chunk_boundaries(self, monkeypatch, m, n, step):
        monkeypatch.setattr(correlation, "_PAIR_CELLS", step * n)
        rng = np.random.default_rng(m * n)
        values = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, (m, 1)) + rng.uniform(-5, 5, (m, 1))
        total = m * (m - 1) // 2
        counts = {1, step - 1, step, step + 1, 2 * step, 2 * step + 1, total}
        for count in sorted(c for c in counts if 1 <= c <= total):
            i, j = _pair_indices(m, count, rng)
            assert np.array_equal(_pearson_rows(values, i, j), pearson_rows_one_batch(values, i, j))

    @pytest.mark.parametrize("m, n, count", [(400, 1000, 10_000), (2000, 63, 40_000), (300, 1000, 2 * 1048 + 1)])
    def test_default_chunk_on_bench_shapes(self, m, n, count):
        rng = np.random.default_rng(n)
        x = demean(DataMatrix(rng.standard_normal((m, n))))
        i, j = _pair_indices(m, count, rng)
        assert np.array_equal(_pearson_rows(x.values, i, j), pearson_rows_one_batch(x.values, i, j))

    def test_same_degenerate_row_reported(self, monkeypatch):
        # a constant second row in the first chunk, a constant first row in the last:
        # the first rows are checked before the second rows, over all pairs
        monkeypatch.setattr(correlation, "_PAIR_CELLS", 2 * 6)
        values = np.random.default_rng(48).standard_normal((8, 6))
        values[5] = 1.5
        values[7] = -2.0
        i = np.array([0, 1, 2, 3, 1, 7, 2])
        j = np.array([5, 2, 3, 4, 6, 3, 6])
        for fn in (pearson_rows_one_batch, _pearson_rows):
            with pytest.raises(DegenerateAxis) as err:
                fn(values, i, j)
            assert (err.value.axis, err.value.index) == ("row", 7)
        with pytest.raises(DegenerateAxis) as err:
            _pearson_rows(values, i[:5], j[:5])
        assert err.value.index == 5

    def test_memory_bounded_on_screen_shape(self):
        # one batch gathers and centres 2 x 10,000 x 1000 floats (a 229 MB peak)
        rng = np.random.default_rng(49)
        values = rng.standard_normal((400, 1000))
        i, j = _pair_indices(400, 10_000, rng)
        tracemalloc.start()
        try:
            _pearson_rows(values, i, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


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
        # sampled row correlations feeds the corrected estimator
        m, n, gamma, blocks = 300, 44, 1.0, 5
        labels = block_labels(m, blocks)
        rho = gamma**2 / (1 + gamma**2)
        within = sum(int(c * (c - 1) / 2) for c in np.bincount(labels))
        alpha_sq_true = within / (m * (m - 1) / 2) * rho**2
        rng = np.random.default_rng(50)
        estimates = []
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=blocks, gamma=gamma)
        for rep in range(200):
            x = sample_matrix_normal(spec, rng)
            corrs = row_corr_sample(x, 2000, seed=rep)
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
        rep = correlation_report(z, pair_count=500, seed=3)
        d = rep.to_dict()
        for key in (
            "c2", "mu_hat", "alpha_hat", "alpha_tilde", "alpha_corrected",
            "m_tilde", "n", "m", "K", "estimator",
        ):
            assert key in d
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
        rep = correlation_report(z, seed=1)
        assert rep.m_tilde == effective_sample_size(80, min(1.0, rep.alpha_hat_sq))
        assert rep.estimator == rep.to_dict()["estimator"] == "eigen"
        with pytest.raises(TypeError):
            correlation_report(z, seed=1, estimator="corrected")
