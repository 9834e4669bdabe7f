import itertools
import tracemalloc

import numpy as np
import pytest

import colindep.permutation as permutation
from colindep import (
    DataMatrix,
    DegenerateEigengapWarning,
    InvalidInput,
    block_basis,
    block_statistic,
    demean,
    double_standardize,
    first_eigvec,
    mc_pvalue,
    perm_pvalue,
    spectral,
    trace_statistic,
    trend_statistic,
)


def catalog(basis):
    """Dense 0/1 block vectors, one row per run: the oracle for the run-sum forms."""
    rows = []
    for length in range(basis.min_len, basis.max_len + 1):
        for start in range(basis.n - length + 1):
            v = np.zeros(basis.n)
            v[start : start + length] = 1.0
            rows.append(v)
    return np.array(rows)


class TestBlockBasis:
    def test_catalog_size_n44(self):
        basis = block_basis(44, 2, 10)
        oracle = sum(44 - length + 1 for length in range(2, 11))
        assert basis.size == oracle == 351

    def test_exhaustive_small_case(self):
        basis = block_basis(3, 2, 2)
        assert basis.size == 2
        assert sorted(map(tuple, catalog(basis).tolist())) == [
            (0.0, 1.0, 1.0),
            (1.0, 1.0, 0.0),
        ]

    def test_max_len_truncates_to_n(self):
        basis = block_basis(5, 2, 10)
        assert basis.max_len == 5
        assert basis.size == 4 + 3 + 2 + 1  # lengths 2..5

    def test_b_matrix_properties(self):
        basis = block_basis(9, 2, 6)
        b = np.empty((9, 9))
        for j in range(9):
            for k in range(9):
                e = np.zeros((9, 9))
                e[j, k] += 1.0
                e[k, j] += 1.0
                b[j, k] = trace_statistic(e, basis) / 2  # B_jk
        assert np.array_equal(b, b.T)
        assert np.allclose(b, np.round(b))  # integer entries
        assert np.all(np.linalg.eigvalsh(b) > -1e-10)
        vectors = catalog(basis)
        assert np.allclose(b, vectors.T @ vectors)

    def test_bounds_validation(self):
        with pytest.raises(InvalidInput):
            block_basis(10, 1, 5)
        with pytest.raises(InvalidInput):
            block_basis(10, 6, 4)
        with pytest.raises(InvalidInput):
            block_basis(4, 5, 8)


class TestBlockStatistic:
    def test_zero_vector(self):
        assert block_statistic(np.zeros(6), block_basis(6)) == 0.0

    def test_hand_computed_value(self):
        basis = block_basis(3, 2, 2)
        # vectors (1,1,0) and (0,1,1): (1+1)^2 + (1+0)^2 = 5
        assert block_statistic(np.array([1.0, 1.0, 0.0]), basis) == pytest.approx(5.0)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(60)
        basis = block_basis(11, 2, 7)
        v = rng.standard_normal(11)
        assert block_statistic(v, basis) == pytest.approx(block_statistic(v[::-1], basis))

    def test_equals_projection_sum(self):
        rng = np.random.default_rng(61)
        basis = block_basis(8, 2, 5)
        v = rng.standard_normal(8)
        oracle = float(np.sum((catalog(basis) @ v) ** 2))
        assert block_statistic(v, basis) == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            block_statistic(np.ones(4), block_basis(6))


class TestTrendStatistic:
    def test_linear_vector_is_maximal(self):
        rng = np.random.default_rng(62)
        n = 12
        linear = np.arange(1.0, n + 1)
        linear = (linear - linear.mean()) / np.linalg.norm(linear - linear.mean())
        s_linear = trend_statistic(linear)
        for _ in range(50):
            v = rng.standard_normal(n)
            v = (v - v.mean()) / np.linalg.norm(v - v.mean())
            assert trend_statistic(v) <= s_linear + 1e-12

    def test_constant_vector(self):
        assert trend_statistic(np.full(7, 3.3)) == 0.0

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(63)
        v = rng.standard_normal(10)
        slope = np.polyfit(np.arange(1, 11), v, 1)[0]
        assert trend_statistic(v) == pytest.approx(slope**2, rel=1e-10)

    def test_sign_invariance(self):
        rng = np.random.default_rng(64)
        v = rng.standard_normal(9)
        assert trend_statistic(v) == pytest.approx(trend_statistic(-v))

    def test_needs_three_points(self):
        with pytest.raises(InvalidInput):
            trend_statistic(np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("statistic", ["block", "trend"])
def test_nonfinite_vector_rejected(statistic, bad):
    v = np.linspace(-1.0, 1.0, 8)
    v[3] = bad
    with pytest.raises(InvalidInput, match="v must be finite"):
        if statistic == "block":
            block_statistic(v, block_basis(8))
        else:
            trend_statistic(v)


class TestFirstEigvec:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(65)
        u = rng.standard_normal(9)
        beta = np.array([0.2, -0.5, 1.0, 0.3])
        x = DataMatrix(np.outer(u, beta))
        v1 = first_eigvec(spectral(x))
        beta_unit = beta / np.linalg.norm(beta)
        assert np.allclose(np.abs(v1), np.abs(beta_unit), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(66)
        x = DataMatrix(rng.standard_normal((15, 6)))
        v1 = first_eigvec(spectral(x))
        assert v1[np.argmax(np.abs(v1))] > 0

    def test_spike_concentrates(self):
        rng = np.random.default_rng(67)
        a = rng.standard_normal((40, 6))
        a[:, 2] += 4.0 * rng.standard_normal(40)  # one heavy column
        x = demean(DataMatrix(a))
        v1 = first_eigvec(spectral(x))
        assert np.argmax(np.abs(v1)) == 2

    def test_degenerate_gap_warns(self):
        values = np.diag([2.0, 2.0, 1.0])
        with pytest.warns(DegenerateEigengapWarning):
            first_eigvec(spectral(DataMatrix(values)))

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(159)
        x = DataMatrix(rng.standard_normal((12, 5)))
        v1 = first_eigvec(spectral(x))
        vals, vecs = np.linalg.eigh(x.values.T @ x.values)
        oracle = vecs[:, np.argmax(vals)]
        if oracle[np.argmax(np.abs(oracle))] < 0:
            oracle = -oracle
        assert np.allclose(v1, oracle, atol=1e-10)


class TestTraceStatistic:
    def test_identity_gives_trace_of_b(self):
        basis = block_basis(7, 2, 4)
        vectors = catalog(basis)
        oracle = float(sum(np.sum(v) for v in vectors))  # each |beta|^2 = length
        assert trace_statistic(np.eye(7), basis) == pytest.approx(oracle)
        assert oracle == np.trace(vectors.T @ vectors)

    def test_single_block_reduces_to_quadratic_form(self):
        basis = block_basis(4, 3, 3)
        rng = np.random.default_rng(68)
        a = rng.standard_normal((4, 4))
        delta = a @ a.T
        oracle = sum(float(b @ delta @ b) for b in catalog(basis))
        assert trace_statistic(delta, basis) == pytest.approx(oracle, rel=1e-12)

    def test_matches_double_sum(self):
        rng = np.random.default_rng(69)
        a = rng.standard_normal((6, 6))
        delta = (a + a.T) / 2
        basis = block_basis(6, 2, 4)
        vectors = catalog(basis)
        b = vectors.T @ vectors
        oracle = sum(
            delta[i, j] * b[j, i] for i in range(6) for j in range(6)
        )
        assert trace_statistic(delta, basis) == pytest.approx(oracle, rel=1e-12)

    def test_eigen_expansion_identity(self):
        rng = np.random.default_rng(70)
        x = demean(DataMatrix(rng.standard_normal((20, 8))))
        basis = block_basis(8, 2, 5)
        s = spectral(x)
        delta_hat = x.values.T @ x.values / x.m
        vectors = catalog(basis)
        b = vectors.T @ vectors
        expansion = sum(
            (s.eigenvalues[k] / x.m) * float(s.right_vectors[:, k] @ b @ s.right_vectors[:, k])
            for k in range(s.rank)
        )
        assert trace_statistic(delta_hat, basis) == pytest.approx(expansion, rel=1e-10)


class TestStatisticsMatchCatalog:
    def test_random_shapes_and_permutations(self):
        rng = np.random.default_rng(81)
        for case in range(60):
            n = int(rng.integers(2, 41))
            min_len = n if case % 5 == 0 else int(rng.integers(2, n + 1))
            max_len = int(rng.integers(min_len, n + 4))  # beyond n in some cases
            basis = block_basis(n, min_len, max_len)
            vectors = catalog(basis)
            assert basis.size == vectors.shape[0]
            x = DataMatrix(rng.standard_normal((int(rng.integers(3, 30)), n)))
            v = rng.standard_normal(n)
            delta = x.values.T @ x.values / x.m
            for perm in (np.arange(n), rng.permutation(n)):
                oracle = float(np.sum((vectors @ v[perm]) ** 2))
                assert block_statistic(v[perm], basis) == pytest.approx(oracle, rel=1e-12)
                dp = delta[np.ix_(perm, perm)]
                oracle = float(np.einsum("hi,ij,hj->", vectors, dp, vectors))
                assert trace_statistic(dp, basis) == pytest.approx(oracle, rel=1e-12)

            seed, L = int(rng.integers(1000)), 7
            perms = [
                np.random.default_rng(np.random.SeedSequence((seed, rep))).permutation(n)
                for rep in range(L)
            ]
            v1 = first_eigvec(spectral(x))
            res = perm_pvalue(x, "block", L=L, seed=seed, min_len=min_len, max_len=max_len)
            oracle = [float(np.sum((vectors @ v1[p]) ** 2)) for p in perms]
            assert np.allclose(res.null_samples, oracle, rtol=1e-12, atol=0.0)
            res = perm_pvalue(x, "trace", L=L, seed=seed, min_len=min_len, max_len=max_len)
            oracle = [
                float(np.einsum("hi,ij,hj->", vectors, delta[np.ix_(p, p)], vectors)) for p in perms
            ]
            assert np.allclose(res.null_samples, oracle, rtol=1e-12, atol=0.0)

    def test_asymmetric_delta_rejected(self):
        delta = np.eye(5)
        delta[0, 3] = 1.0
        with pytest.raises(InvalidInput):
            trace_statistic(delta, block_basis(5))


class TestPermPvalueMemory:
    """No catalog, no B and no permuted copy of delta_hat: memory stays linear in n."""

    @staticmethod
    def _peak_bytes(x, statistic, L):
        tracemalloc.start()
        try:
            perm_pvalue(x, statistic, L=L, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_and_trace_peaks(self):
        n = 2000
        x = DataMatrix(np.random.default_rng(82).standard_normal((50, n)))
        assert self._peak_bytes(x, "block", L=20) < 8 * 2**20
        # delta_hat itself is n*n*8 bytes; a per-permutation copy would double it
        assert self._peak_bytes(x, "trace", L=5) < 1.5 * n * n * 8


class TestPermPvalue:
    def test_constant_eigenvector_gives_p_one(self):
        rng = np.random.default_rng(71)
        u = np.abs(rng.standard_normal(10)) + 0.5
        x = DataMatrix(np.outer(u, np.ones(5)))
        res = perm_pvalue(x, "block", L=50, seed=1)
        assert res.p_value == 1.0
        assert res.exceed_count == 50

    def test_exhaustive_matches_manual_enumeration(self):
        rng = np.random.default_rng(72)
        x = demean(DataMatrix(rng.standard_normal((12, 4))))
        res = perm_pvalue(x, "block", L=1, seed=0, exhaustive=True)
        v1 = first_eigvec(spectral(x))
        basis = block_basis(4, 2, 4)
        stats = [
            block_statistic(v1[np.array(p)], basis)
            for p in itertools.permutations(range(4))
        ]
        oracle = np.mean(np.array(stats) >= block_statistic(v1, basis))
        assert res.L == 24
        assert res.p_value == pytest.approx(oracle)

    def test_sampled_converges_to_exhaustive(self):
        rng = np.random.default_rng(73)
        x = demean(DataMatrix(rng.standard_normal((15, 4))))
        exact = perm_pvalue(x, "trend", L=1, seed=0, exhaustive=True).p_value
        sampled = perm_pvalue(x, "trend", L=4000, seed=3).p_value
        assert abs(sampled - exact) < 2 / np.sqrt(4000)

    def test_seed_determinism(self):
        rng = np.random.default_rng(74)
        x = demean(DataMatrix(rng.standard_normal((20, 8))))
        a = perm_pvalue(x, "trace", L=100, seed=5)
        b = perm_pvalue(x, "trace", L=100, seed=5)
        assert np.array_equal(a.null_samples, b.null_samples)
        assert a.p_value == b.p_value
        c = perm_pvalue(x, "trace", L=100, seed=6)
        assert not np.array_equal(a.null_samples, c.null_samples)

    def test_pvalue_is_exceed_fraction(self):
        rng = np.random.default_rng(75)
        x = demean(DataMatrix(rng.standard_normal((18, 6))))
        res = perm_pvalue(x, "block", L=137, seed=2)
        assert res.p_value == res.exceed_count / 137
        cons = perm_pvalue(x, "block", L=137, seed=2, conservative=True)
        assert cons.p_value == (res.exceed_count + 1) / 138
        assert cons.p_value > res.p_value

    def test_mc_se_of_sampled_and_exhaustive_p(self):
        rng = np.random.default_rng(77)
        x = demean(DataMatrix(rng.standard_normal((18, 6))))
        entry = perm_pvalue(x, "trend", L=90, seed=4).to_dict()
        p = entry["exceed_count"] / 90
        assert 0.0 < p < 1.0
        assert entry["mc_se"] == np.sqrt(p * (1.0 - p) / 90)
        # the exhaustive p-value is exact
        assert perm_pvalue(x, "trend", L=1, seed=0, exhaustive=True).to_dict()["mc_se"] == 0.0

    def test_detects_planted_block_structure(self):
        # first eigenvector with a contiguous run of large components
        rng = np.random.default_rng(76)
        m, n = 300, 20
        shared = rng.standard_normal(m)
        a = rng.standard_normal((m, n))
        a[:, 12:18] += 1.5 * shared[:, None]  # adjacent correlated columns
        z, _ = double_standardize(DataMatrix(a), max_iter=200)
        res = perm_pvalue(z, "block", L=500, seed=11)
        assert res.p_value < 0.01

    def test_exhaustive_size_guard(self):
        rng = np.random.default_rng(77)
        x = DataMatrix(rng.standard_normal((12, 9)))
        with pytest.raises(InvalidInput):
            perm_pvalue(x, "block", L=1, seed=0, exhaustive=True)

    def test_unknown_statistic(self):
        x = DataMatrix(np.random.default_rng(78).standard_normal((6, 4)))
        with pytest.raises(InvalidInput):
            perm_pvalue(x, "ratio", L=10, seed=0)

    def test_trace_statistic_null_recomputes(self):
        rng = np.random.default_rng(79)
        x = demean(DataMatrix(rng.standard_normal((25, 7))))
        res = perm_pvalue(x, "trace", L=60, seed=4)
        delta_hat = x.values.T @ x.values / x.m
        basis = block_basis(7, 2, 7)
        assert res.statistic == pytest.approx(trace_statistic(delta_hat, basis))
        # null samples differ from the observed statistic in general
        assert np.std(res.null_samples) > 0

    def test_precomputed_spectrum_gives_same_result(self):
        rng = np.random.default_rng(80)
        x = demean(DataMatrix(rng.standard_normal((30, 9))))
        for stat in ("block", "trend"):
            fresh = perm_pvalue(x, stat, L=80, seed=6)
            reused = perm_pvalue(x, stat, L=80, seed=6, spectrum=spectral(x))
            assert reused.to_dict() == fresh.to_dict()
            assert np.array_equal(reused.null_samples, fresh.null_samples)


def _substream(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


class TestChunkedNullsMatchPerPermutationLoop:
    """perm_pvalue scores permutations in chunks; the oracle scores them one by one."""

    @staticmethod
    def _oracle(x, statistic, perms, min_len=2, max_len=10):
        # the public statistics, one call per permutation
        basis = block_basis(x.n, min_len, max_len)
        if statistic == "trace":
            delta_hat = x.values.T @ x.values / x.m
            stat = lambda p: trace_statistic(delta_hat[np.ix_(p, p)], basis)
        else:
            v1 = first_eigvec(spectral(x))
            if statistic == "block":
                stat = lambda p: block_statistic(v1[p], basis)
            else:
                stat = lambda p: trend_statistic(v1[p])
        s_obs = stat(np.arange(x.n))
        nulls = np.array([stat(np.asarray(p)) for p in perms])
        return s_obs, nulls, mc_pvalue(nulls, s_obs)[1]

    def _check(self, res, s_obs, nulls, exceed):
        # relative to the statistic's scale: a trend slope near 0 is all cancellation
        scale = max(abs(s_obs), np.abs(nulls).max())
        assert abs(res.statistic - s_obs) <= 1e-12 * scale
        assert res.null_samples.shape == nulls.shape
        assert np.abs(res.null_samples - nulls).max() <= 1e-12 * scale
        assert res.exceed_count == exceed

    @pytest.mark.parametrize("statistic", ["block", "trend", "trace"])
    @pytest.mark.parametrize("m, n, L, cells", [
        (300, 63, 2500, None),  # block and trend: 1040 permutations a chunk, L not a multiple
        (80, 20, 1001, None),
        (40, 12, 97, 50),  # a few permutations a chunk, the last one short
    ])
    def test_sampled(self, monkeypatch, statistic, m, n, L, cells):
        if cells is not None:
            monkeypatch.setattr(permutation, "_PERM_CELLS", cells)
        x = demean(DataMatrix(np.random.default_rng(m + n).standard_normal((m, n))))
        res = perm_pvalue(x, statistic, L=L, seed=17)
        perms = [_substream(17, rep).permutation(n) for rep in range(L)]
        self._check(res, *self._oracle(x, statistic, perms))

    @pytest.mark.parametrize("statistic", ["block", "trend", "trace"])
    @pytest.mark.parametrize("n, cells", [(4, None), (7, None), (7, 300)])
    def test_exhaustive(self, monkeypatch, statistic, n, cells):
        if cells is not None:
            monkeypatch.setattr(permutation, "_PERM_CELLS", cells)
        x = demean(DataMatrix(np.random.default_rng(90 + n).standard_normal((30, n))))
        res = perm_pvalue(x, statistic, L=1, seed=0, exhaustive=True, max_len=n)
        perms = list(itertools.permutations(range(n)))
        self._check(res, *self._oracle(x, statistic, perms, max_len=n))


# the seed's last value of one, two, three and four 32-bit words and the
# first of the next: the pool of four words fills, then overflows into
# SeedSequence's extra-entropy loop
BOUNDARY_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 + 3]


class TestSubstreamsMatchSeedSequence:
    """``_substream_states`` and ``_substreams`` against SeedSequence and ``_null_rng``, their oracles."""

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    @pytest.mark.parametrize("reps", [1, 2, 2000])
    def test_state_words(self, seed, reps):
        got = permutation._substream_states(seed, reps)
        expected = [np.random.SeedSequence((seed, r)).generate_state(4, np.uint64) for r in range(reps)]
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.array(expected))

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    def test_generator_state(self, seed):
        for r, rng in enumerate(permutation._substreams(seed, 5)):
            oracle = permutation._null_rng(seed, r)
            assert rng.bit_generator.state == oracle.bit_generator.state
            # 64-bit, 32-bit and bounded draws continue the same stream
            assert rng.standard_normal(3).tolist() == oracle.standard_normal(3).tolist()
            assert rng.integers(0, 7, 5, dtype=np.uint32).tolist() == oracle.integers(0, 7, 5, dtype=np.uint32).tolist()
            assert rng.chisquare(2.5) == oracle.chisquare(2.5)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
    def test_generators_are_independent(self, seed):
        # every generator held at once and drawn from in turn, as a caller
        # that keeps them may: each continues its own substream
        held = list(permutation._substreams(seed, 6))
        oracles = [permutation._null_rng(seed, r) for r in range(6)]
        for _ in range(3):
            for rng, oracle in zip(held[::-1], oracles[::-1]):
                assert rng.random() == oracle.random()
                assert rng.permutation(9).tolist() == oracle.permutation(9).tolist()

    @pytest.mark.parametrize("n", [2, 8, 63, 1000])
    @pytest.mark.parametrize("reps", [1, 2, 2000])
    def test_permutations(self, n, reps):
        seed = 2**32
        got = np.array([rng.permutation(n) for rng in permutation._substreams(seed, reps)])
        expected = np.array([permutation._null_rng(seed, r).permutation(n) for r in range(reps)])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (2.0, "seed must be an integer, got 2.0"),
        ("3", "seed must be an integer, got '3'"),
        (None, "seed must be an integer, got None"),
    ])
    def test_perm_pvalue_rejects_a_bad_seed(self, seed, message):
        x = DataMatrix(np.random.default_rng(81).standard_normal((20, 6)))
        for statistic, exhaustive in (("block", False), ("trace", False), ("trend", True)):
            with pytest.raises(InvalidInput) as err:
                perm_pvalue(x, statistic, L=10, seed=seed, exhaustive=exhaustive)
            assert str(err.value) == message

    def test_integer_seeds_of_any_type(self):
        x = DataMatrix(np.random.default_rng(82).standard_normal((20, 6)))
        expected = perm_pvalue(x, "trend", L=50, seed=9).null_samples
        for seed in (np.int64(9), np.uint8(9)):
            assert np.array_equal(perm_pvalue(x, "trend", L=50, seed=seed).null_samples, expected)


class TestMcPvalue:
    def test_last_ulp_tie_counts_as_exceedance(self):
        s_obs = 0.7
        nulls = np.array([np.nextafter(s_obs, 0.0), 0.1, 0.9])
        _, exceed = mc_pvalue(nulls, s_obs)
        assert exceed == 2

    def test_p_is_exceed_fraction(self):
        nulls = np.arange(20.0)
        p, exceed = mc_pvalue(nulls, 14.5)
        assert exceed == 5
        assert p == exceed / 20

    def test_conservative_adds_one(self):
        nulls = np.arange(20.0)
        p, exceed = mc_pvalue(nulls, 14.5, conservative=True)
        assert exceed == 5
        assert p == (exceed + 1) / 21
