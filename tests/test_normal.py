import os
import sys
import threading
import time

import numpy as np
import pytest

import colindep.normal as normal
from colindep import (
    CalibrationFailure,
    DataMatrix,
    InvalidInput,
    SimulationSpec,
    bilinear_test,
    block_labels,
    block_total_correlation,
    calibrate_gamma,
    column_cov,
    demean,
    eigenratio,
    eigenratio_null,
    sample_matrix_normal,
    sample_wishart,
    spectral,
    stage_seed,
    two_sample_w,
    within_block_correlation,
)
from colindep.matrix import double_standardize, standardize_columns, standardize_rows
from colindep.normal import _bartlett_factor, _measured_alpha_sq, _psd_eigenvalues, map_replicates


class TestSimulationSpec:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            SimulationSpec(m=1, n=5)
        with pytest.raises(InvalidInput):
            SimulationSpec(m=10, n=5, sigma_model="banded")
        with pytest.raises(InvalidInput):
            SimulationSpec(m=10, n=5, sigma_model="block", gamma=-0.5)
        with pytest.raises(InvalidInput):
            SimulationSpec(m=10, n=5, sigma_model="block", num_blocks=11)
        with pytest.raises(InvalidInput):
            SimulationSpec(m=10, n=5, delta_model="spiked")  # beta missing
        with pytest.raises(InvalidInput):
            SimulationSpec(
                m=10, n=5, delta_model="spiked",
                spike_lambda=-2.0, spike_beta=np.ones(5) / np.sqrt(5.0),
            )

    def test_block_labels_remainder_to_last(self):
        labels = block_labels(13, 5)
        assert labels.size == 13
        counts = np.bincount(labels)
        assert list(counts) == [2, 2, 2, 2, 5]


class TestSampleMatrixNormal:
    @pytest.mark.parametrize("m, blocks", [(2000, 5), (23, 4), (7, 7), (9, 1)])
    def test_block_draw_bit_identical_to_gathered_effects(self, m, blocks):
        # the effects are added block by block in place; the oracle gathers them per row
        spec = SimulationSpec(m=m, n=6, sigma_model="block", num_blocks=blocks, gamma=1.3, seed=m)
        rng = np.random.default_rng(np.random.SeedSequence(m))
        y = rng.standard_normal((m, 6))
        want = y + 1.3 * rng.standard_normal((blocks, 6))[block_labels(m, blocks)]
        assert sample_matrix_normal(spec).values.tobytes() == want.tobytes()

    def test_nonfinite_effects_rejected(self):
        spec = SimulationSpec(m=10, n=3, sigma_model="block", num_blocks=2, gamma=float("inf"))
        with pytest.raises(InvalidInput, match="must be finite"):
            sample_matrix_normal(spec)

    def test_iid_moments(self):
        spec = SimulationSpec(m=1000, n=1000, seed=80)
        x = sample_matrix_normal(spec)
        # 1e6 entries: mean se 1e-3, variance se ~ sqrt(2)*1e-3
        assert abs(x.values.mean()) < 4e-3
        assert abs(x.values.var() - 1.0) < 4 * np.sqrt(2) * 1e-3

    def test_block_covariance(self):
        gamma, reps = 1.2, 40_000
        spec = SimulationSpec(m=6, n=2, sigma_model="block", num_blocks=3, gamma=gamma)
        prods_within = np.empty(reps)
        prods_between = np.empty(reps)
        rng = np.random.default_rng(81)
        for rep in range(reps):
            x = sample_matrix_normal(spec, rng).values
            prods_within[rep] = x[0, 0] * x[1, 0]  # rows 0,1 share block 0
            prods_between[rep] = x[0, 0] * x[2, 0]  # row 2 is block 1
        se = np.sqrt(prods_within.var() / reps)
        assert abs(prods_within.mean() - gamma**2) < 4 * se
        se = np.sqrt(prods_between.var() / reps)
        assert abs(prods_between.mean()) < 4 * se

    def test_kronecker_covariance_grid(self):
        # cov(X_ij, X_i'j') = Sigma_ii' * Delta_jj' on a grid of index pairs
        beta = np.array([1.0, 0.5, 0.0, -0.5])
        lam = 0.8
        spec = SimulationSpec(
            m=6, n=4, sigma_model="block", num_blocks=2, gamma=0.9,
            delta_model="spiked", spike_lambda=lam, spike_beta=beta,
        )
        sigma = np.eye(6) + 0.9**2 * np.kron(np.eye(2), np.ones((3, 3)))
        delta = np.eye(4) + lam * np.outer(beta, beta)
        reps = 100_000
        rng = np.random.default_rng(82)
        draws = np.empty((reps, 6, 4))
        for rep in range(reps):
            draws[rep] = sample_matrix_normal(spec, rng).values
        for (i, j, ip, jp) in [(0, 0, 1, 1), (0, 2, 3, 2), (2, 1, 2, 3),
                               (0, 0, 0, 0), (1, 3, 4, 0), (5, 2, 5, 2)]:
            prods = draws[:, i, j] * draws[:, ip, jp]
            expected = sigma[i, ip] * delta[j, jp]
            se = np.sqrt(prods.var() / reps)
            assert abs(prods.mean() - expected) < 4 * se + 1e-12

    def test_spike_lambda_zero_matches_identity(self):
        beta = np.ones(5) / np.sqrt(5.0)
        spec0 = SimulationSpec(m=400, n=5, delta_model="spiked",
                               spike_lambda=0.0, spike_beta=beta, seed=83)
        spec1 = SimulationSpec(m=400, n=5, seed=83)
        a = sample_matrix_normal(spec0)
        b = sample_matrix_normal(spec1)
        assert np.allclose(a.values, b.values)

    def test_seed_determinism(self):
        spec = SimulationSpec(m=20, n=6, sigma_model="block", gamma=0.7, seed=85)
        assert np.array_equal(
            sample_matrix_normal(spec).values, sample_matrix_normal(spec).values
        )


class TestSampleWishart:
    def test_mean_matches_scale(self):
        a = np.random.default_rng(86).standard_normal((4, 4))
        delta = a @ a.T + 2.0 * np.eye(4)
        draws = sample_wishart(25.0, delta, seed=87, size=10_000)
        emp = draws.mean(axis=0)
        flat = draws.reshape(10_000, -1)
        se = flat.std(axis=0).reshape(4, 4) / np.sqrt(10_000)
        assert np.all(np.abs(emp - delta) < 4 * se)

    def test_scalar_case_is_scaled_chi_square(self):
        df = 7.5
        draws = sample_wishart(df, np.eye(1), seed=88, size=50_000).ravel()
        assert abs(draws.mean() - 1.0) < 4 * draws.std() / np.sqrt(50_000)
        var = draws.var()
        # var of chi2_df/df is 2/df; its sample variance has se ~ var*sqrt(k-1/N)
        assert abs(var - 2 / df) < 4 * var * np.sqrt(3.0 / 50_000)

    def test_covariance_structure_general_scale(self):
        # cov(W_jk, W_lh) = (d_jl d_kh + d_jh d_kl)/df for scale d
        rng = np.random.default_rng(889)
        a = rng.standard_normal((3, 3))
        delta = a @ a.T + 1.5 * np.eye(3)
        df, reps = 18.0, 40_000
        draws = sample_wishart(df, delta, seed=890, size=reps)
        for (j, k, l, h) in [(0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 2), (2, 2, 2, 2)]:
            prods = draws[:, j, k] * draws[:, l, h]
            emp = prods.mean() - draws[:, j, k].mean() * draws[:, l, h].mean()
            expected = (delta[j, l] * delta[k, h] + delta[j, h] * delta[k, l]) / df
            se = prods.std() / np.sqrt(reps)
            assert abs(emp - expected) < 4 * se

    def test_diagonal_marginal_is_chi_square(self):
        # W_jj * df ~ chi2_df at identity scale: full distribution, not
        # just moments
        from scipy.stats import chi2, kstest

        df = 9.0
        draws = sample_wishart(df, np.eye(4), seed=891, size=8000)
        stat = kstest(draws[:, 2, 2] * df, chi2(df).cdf).statistic
        assert stat < 0.02

    def test_fractional_df_positive_definite(self):
        draws = sample_wishart(6.3, np.eye(5), seed=89, size=200)
        for w in draws:
            assert np.linalg.eigvalsh(w).min() > 0

    def test_df_bound(self):
        with pytest.raises(InvalidInput):
            sample_wishart(3.0, np.eye(5), seed=0)

    def test_non_psd_scale_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(InvalidInput):
            sample_wishart(10.0, bad, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (-3, "seed must be nonnegative, got -3"),
        (0.5, "seed must be an integer, got 0.5"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(InvalidInput) as err:
            sample_wishart(12.0, np.eye(3), seed=seed)
        assert str(err.value) == message

    def test_determinism(self):
        a = sample_wishart(12.0, np.eye(3), seed=90)
        b = sample_wishart(12.0, np.eye(3), seed=90)
        assert np.array_equal(a, b)


class TestEigenratio:
    def test_equal_eigenvalues(self):
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
        x = DataMatrix(np.kron(np.eye(3), sign) * np.sqrt(3.0), "double_std")
        s = spectral(x)
        assert eigenratio(s) == pytest.approx(1.0 / s.rank)

    def test_rank_one(self):
        rng = np.random.default_rng(91)
        x = DataMatrix(np.outer(rng.standard_normal(8), rng.standard_normal(5)))
        assert eigenratio(spectral(x)) == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            s = spectral(DataMatrix(rng.standard_normal((12, 7))))
            val = eigenratio(s)
            assert 1.0 / s.rank <= val <= 1.0


class TestEigenratioNull:
    def test_large_df_two_columns(self):
        vals = eigenratio_null("wishart", reps=40, n=2, seed=93, df=10_000.0)
        assert np.abs(vals - 0.5).max() < 0.05

    def test_wishart_determinism_and_range(self):
        a = eigenratio_null("wishart", reps=30, n=10, seed=94, df=17.2)
        b = eigenratio_null("wishart", reps=30, n=10, seed=94, df=17.2)
        assert np.array_equal(a, b)
        assert np.all((a > 0.1) & (a < 1.0))

    def test_fractional_df_null_concentrates_low(self):
        # with ~17 effective rows and 44 columns, 100 null eigenratio draws
        # all stay well under 0.2; an observed value that size is extreme
        vals = eigenratio_null("wishart", reps=100, n=44, seed=95, df=17.2)
        assert vals.max() < 0.207

    def test_correlated_rows_model(self):
        spec = SimulationSpec(m=300, n=10, sigma_model="block", num_blocks=5, gamma=1.0)
        vals = eigenratio_null("correlated_rows", reps=20, n=10, seed=95, spec=spec)
        assert vals.shape == (20,)
        assert np.all((vals > 0.1) & (vals <= 1.0))

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        spec = SimulationSpec(m=40, n=4)
        for model, kwargs in (("wishart", {"df": 6.0}), ("correlated_rows", {"spec": spec})):
            with pytest.raises(InvalidInput) as err:
                eigenratio_null(model, reps=5, n=4, seed=seed, **kwargs)
            assert str(err.value) == message
        with pytest.raises(InvalidInput, match=message):
            calibrate_gamma(0.3, m=40, n=4, num_blocks=2, reps=2, seed=seed)
        for make in (lambda: SimulationSpec(m=40, n=4, seed=seed), lambda: stage_seed(seed, "x")):
            with pytest.raises(InvalidInput) as err:
                make()
            assert str(err.value) == message

    def test_validation(self):
        with pytest.raises(InvalidInput):
            eigenratio_null("wishart", reps=5, n=4, seed=0)
        with pytest.raises(InvalidInput):
            eigenratio_null("correlated_rows", reps=5, n=4, seed=0)
        with pytest.raises(InvalidInput):
            eigenratio_null("bootstrap", reps=5, n=4, seed=0, df=10.0)


def _substream(seed, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _on_cpus(monkeypatch, cpus):
    """Size the replicate pool as an affinity mask of ``cpus`` CPUs would."""
    monkeypatch.setattr(normal, "_affinity_cpus", lambda: cpus)


class TestMapReplicates:
    @pytest.mark.parametrize("workers, seed", [
        *(pytest.param(w, 5, id=str(w)) for w in (1, 2, 3, 8)),
        # seeds of two and of three 32-bit words
        *(pytest.param(w, s, id=f"{w}-{s}") for s in (2**32, 2**64 + 5) for w in (1, 2, 3, 8)),
    ])
    def test_substreams_land_at_their_index(self, monkeypatch, workers, seed):
        _on_cpus(monkeypatch, workers)
        got = map_replicates(lambda rng: rng.random(), 7, seed=seed)
        assert got == [_substream(seed, rep).random() for rep in range(7)]

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        def replicate(rng):
            return float(rng.standard_normal((30, 4)).sum()) + sum(rng.random(8).tolist())

        cores = normal._affinity_cpus()
        _on_cpus(monkeypatch, 1)
        expected = map_replicates(replicate, 150, seed=2)
        _on_cpus(monkeypatch, 4 * cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = map_replicates(replicate, 150, seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_one_worker_is_a_plain_loop(self, monkeypatch):
        _on_cpus(monkeypatch, 1)
        threads = map_replicates(lambda rng: threading.get_ident(), 4, seed=0)
        assert threads == [threading.get_ident()] * 4

    @pytest.mark.parametrize("cpus, reps, pool", [(3, 10, 3), (3, 2, 2), (1, 10, None)])
    def test_pool_is_the_affinity_mask(self, monkeypatch, cpus, reps, pool):
        sizes = []

        class Recording(normal.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(normal, "ThreadPoolExecutor", Recording)
        assert len(map_replicates(lambda rng: 0, reps, seed=0)) == reps
        assert sizes == ([] if pool is None else [pool])

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_stop_returns_the_prefix_and_cancels_the_rest(self, monkeypatch, workers):
        lock = threading.Lock()
        calls = 0

        def draw(rng):
            return float(rng.standard_normal((30, 4)).sum())

        values = [draw(_substream(7, r)) for r in range(200)]
        # the stop fires at the third value above 5, in index order
        ell = [r for r, v in enumerate(values) if v > 5.0][2] + 1
        assert ell < 20

        def replicate(rng):
            nonlocal calls
            with lock:
                calls += 1
            value = draw(rng)
            if values.index(value) >= ell:
                time.sleep(0.001)
            return value

        seen = []

        def stop(value):
            seen.append(value)
            return sum(v > 5.0 for v in seen) == 3

        _on_cpus(monkeypatch, workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = map_replicates(replicate, 200, seed=7, stop=stop)
        finally:
            sys.setswitchinterval(interval)
        assert got == seen == values[:ell]
        # a worker may run ahead of the stop, but the queued replicates are cancelled
        assert (calls == ell) if workers == 1 else (ell <= calls < 200)

    def test_first_failure_in_index_order_is_raised(self, monkeypatch):
        def replicate(rng):
            value = rng.random()
            if value > 0.5:
                raise ValueError(value)
            return value

        first = next(r for r in range(20) if _substream(1, r).random() > 0.5)
        for workers in (1, 3):
            _on_cpus(monkeypatch, workers)
            with pytest.raises(ValueError) as err:
                map_replicates(replicate, 20, seed=1)
            assert err.value.args[0] == _substream(1, first).random()


def _wishart_row(df, n, rng):
    # one replicate of the Wishart null, as a lone factor and SVD give it
    sv = np.linalg.svd(_bartlett_factor(df, n, rng), compute_uv=False)
    e = sv * sv
    total = e.sum()
    return [e[0] / total, np.sum(e * e) / (df * df * n * n), total / df]


class TestBatchedWishartNull:
    """The batched Wishart null against the per-replicate form, its oracle."""

    def test_bartlett_slots_are_the_lower_trapezoid(self):
        # the construction before the slots were cached: all of tril(n, -1), then the first k columns
        for df, n in [(3.5, 6), (6.0, 6), (40.0, 6), (1.0, 2)]:
            k = min(n, int(np.ceil(df)))
            rng = _substream(8, 0)
            t = np.zeros((n, k))
            t[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(df - np.arange(k)))
            rows, cols = np.tril_indices(n, -1)
            keep = cols < k
            t[rows[keep], cols[keep]] = rng.standard_normal(int(keep.sum()))
            assert np.array_equal(_bartlett_factor(df, n, _substream(8, 0)), t)

    @pytest.mark.parametrize("df, n, reps", [
        (16.01, 63, 40),  # df < n - 1, fractional: the cardio shape
        (5.5, 12, 37),
        (8.0, 30, 33),
        (40.5, 20, 35),  # df > n
        (70.0, 20, 17),
        (140.5, 150, 5),  # more than 128 singular values: pairwise sums split
    ])
    @pytest.mark.parametrize("batch", [None, 1, 4])
    def test_rows_match_per_replicate_form(self, monkeypatch, df, n, reps, batch):
        if batch is not None:
            monkeypatch.setattr(normal, "_WISHART_BATCH", batch)
        expected = np.array([_wishart_row(df, n, _substream(11, r)) for r in range(reps)])
        got = normal._null_draws("wishart", reps, n, seed=11, df=df)
        assert got.tobytes() == expected.tobytes()

    def test_cell_budget_sizes_the_batch(self, monkeypatch):
        sizes = []
        svd = np.linalg.svd

        def recording(a, **kwargs):
            sizes.append(a.shape[0])
            return svd(a, **kwargs)

        monkeypatch.setattr(normal, "_WISHART_CELLS", 3 * 30 * 9)
        monkeypatch.setattr(np.linalg, "svd", recording)
        got = normal._null_draws("wishart", 10, 30, seed=2, df=8.5)
        assert sizes == [3, 3, 3, 1]
        expected = np.array([_wishart_row(8.5, 30, _substream(2, r)) for r in range(10)])
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ell", [6, 8, 1, 20])  # inside a batch, on its end, the first, the last
    def test_stop_inside_a_batch_and_on_its_end(self, monkeypatch, ell):
        monkeypatch.setattr(normal, "_WISHART_BATCH", 4)
        factors = 0
        bartlett = normal._bartlett_factor

        def counting(df, n, rng):
            nonlocal factors
            factors += 1
            return bartlett(df, n, rng)

        seen = []

        def stop(draw):
            seen.append(draw)
            return len(seen) == ell

        monkeypatch.setattr(normal, "_bartlett_factor", counting)
        got = normal._null_draws("wishart", 20, 15, seed=5, df=9.3, stop=stop)
        expected = np.array([_wishart_row(9.3, 15, _substream(5, r)) for r in range(20)])
        assert got.tobytes() == expected[:ell].tobytes()
        assert np.array(seen).tobytes() == expected[:ell].tobytes()
        assert all(type(draw) is tuple and len(draw) == 3 for draw in seen)
        # a stop discards no more than the rest of its batch
        assert factors == -(-ell // 4) * 4


class TestResultsIndependentOfWorkers:
    """The nulls and gamma equal the one-thread loop over the same substreams."""

    def test_wishart_null(self, monkeypatch):
        def oracle(rep):
            sv = np.linalg.svd(_bartlett_factor(11.5, 9, _substream(4, rep)), compute_uv=False)
            return sv[0] ** 2 / np.sum(sv * sv)

        expected = np.array([oracle(rep) for rep in range(25)])
        for workers in (1, 2, 3):
            _on_cpus(monkeypatch, workers)
            got = eigenratio_null("wishart", 25, 9, seed=4, df=11.5)
            assert np.array_equal(got, expected)

    def test_correlated_rows_null(self, monkeypatch):
        spec = SimulationSpec(m=240, n=9, sigma_model="block", num_blocks=4, gamma=1.1)

        def oracle(rep):
            z, _ = double_standardize(sample_matrix_normal(spec, _substream(6, rep)))
            vals = _psd_eigenvalues(z.values.T @ z.values / z.m)
            return vals[-1] / vals.sum()

        expected = np.array([oracle(rep) for rep in range(25)])
        for workers in (1, 2, 3):
            _on_cpus(monkeypatch, workers)
            got = eigenratio_null("correlated_rows", 25, 9, seed=6, spec=spec)
            assert np.array_equal(got, expected)

    def test_measured_alpha_sums_in_index_order(self, monkeypatch):
        values = [_oracle_replicate_alpha_sq(0.7, 300, 16, 5, 12, rep) for rep in range(7)]
        expected = backwards = 0.0
        for value, reverse in zip(values, reversed(values)):
            expected += value
            backwards += reverse
        # at this seed the sum depends on its order
        assert backwards != expected
        for workers in (1, 2, 3):
            _on_cpus(monkeypatch, workers)
            assert _measured_alpha_sq(0.7, 300, 16, 5, 12, 7) == expected / 7

    def test_calibrated_gamma(self, monkeypatch):
        gammas = {}
        for workers in (1, 2, 3):
            _on_cpus(monkeypatch, workers)
            gammas[workers] = calibrate_gamma(0.2, m=300, n=16, num_blocks=5, reps=3, seed=8)
        assert gammas[1] == gammas[2] == gammas[3]
        assert 0.0 < gammas[1] < 5.0


def _oracle_replicate_alpha_sq(gamma, m, n, num_blocks, seed, rep):
    """alpha_hat^2 of one draw: the off-diagonal spread of X'X/m after one sweep, columns then rows."""
    spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=num_blocks, gamma=gamma)
    x = standardize_rows(standardize_columns(sample_matrix_normal(spec, _substream(seed, rep)))).values
    g = x.T @ x / m
    return max(0.0, n / (n - 1) * (float(np.mean(g * g)) - 1.0 / (n - 1)))


def _oracle_alpha_sq(gamma, m, n, num_blocks, seed, reps):
    est = 0.0
    for rep in range(reps):
        est += _oracle_replicate_alpha_sq(gamma, m, n, num_blocks, seed, rep)
    return est / reps


def _oracle_calibrate(target, m, n, num_blocks, reps, seed, tol=0.005):
    """Plain bisection on [0, 5] after the gamma = 0 rule; returns gamma and alpha^2 there."""
    measure = lambda g: _oracle_alpha_sq(g, m, n, num_blocks, seed, reps)
    f_zero = measure(0.0)
    if f_zero >= target * target:
        return 0.0, f_zero
    lo, hi = 0.0, 5.0
    assert measure(hi) >= target * target
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = measure(mid)
        if abs(np.sqrt(f_mid) - target) <= 0.5 * tol or hi - lo < 1e-4:
            return mid, f_mid
        lo, hi = (mid, hi) if f_mid < target * target else (lo, mid)
    raise AssertionError("oracle bisection did not stop")


class TestCalibrationMatchesOracle:
    """Each trial gamma is measured as the data's alpha_hat is, through the c2 identity."""

    @pytest.mark.parametrize("gamma, m, n, reps, seed", [
        (0.0, 200, 8, 3, 2), (1.3, 60, 6, 2, 25), (4.0, 2000, 63, 4, 5),
    ])
    def test_measurement_is_the_oracle_at_any_worker_count(self, monkeypatch, gamma, m, n, reps, seed):
        expected = _oracle_alpha_sq(gamma, m, n, 5, seed, reps)
        for workers in (1, normal._affinity_cpus()):
            _on_cpus(monkeypatch, workers)
            assert _measured_alpha_sq(gamma, m, n, 5, seed, reps) == expected

    @pytest.mark.parametrize("gamma, seed", [(0.0, 4), (0.9, 11)])
    def test_wide_draw_reads_the_smaller_gram(self, gamma, seed):
        # at m < n the m-by-m XX'/n has the mean square of the n-by-n X'X/m
        expected = _oracle_alpha_sq(gamma, 40, 150, 5, seed, 3)
        assert _measured_alpha_sq(gamma, 40, 150, 5, seed, 3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("target, m, n, reps, seed", [
        (0.241, 2000, 63, 4, 5),
        (0.2, 300, 16, 3, 8),
        (0.18, 400, 24, 2, 96),
        (0.3, 500, 30, 3, 31),
        (0.3, 150, 12, 2, 4),
        (0.35, 120, 12, 3, 9),
        (0.15, 60, 6, 2, 25),
        # below the floor of about 1/m that alpha_hat^2 keeps at gamma = 0
        (0.05, 200, 8, 3, 2),
        (0.1, 60, 3, 2, 7),
    ])
    def test_same_gamma_and_alpha(self, target, m, n, reps, seed):
        want_gamma, want_sq = _oracle_calibrate(target, m, n, 5, reps, seed)
        gamma = calibrate_gamma(target, m=m, n=n, num_blocks=5, reps=reps, seed=seed)
        assert gamma == want_gamma
        assert _measured_alpha_sq(gamma, m, n, 5, seed, reps) == want_sq


class TestCalibrateGamma:
    def test_zero_target(self):
        assert calibrate_gamma(0.0, m=100, n=10, num_blocks=5, reps=1, seed=0) == 0.0

    def test_needs_a_replicate(self):
        with pytest.raises(InvalidInput, match="reps must be positive"):
            calibrate_gamma(0.2, m=100, n=10, num_blocks=5, reps=0, seed=0)

    def test_needs_three_columns(self):
        with pytest.raises(InvalidInput, match="n must be at least 3"):
            calibrate_gamma(0.2, m=100, n=2, num_blocks=5, reps=1, seed=0)

    def test_within_block_closed_form(self):
        assert within_block_correlation(1.23) == pytest.approx(0.602, abs=5e-4)
        assert within_block_correlation(0.0) == 0.0

    def test_block_total_correlation_formula(self):
        m, blocks, gamma = 1000, 5, 1.0
        rho = within_block_correlation(gamma)
        oracle = np.sqrt(5 * (200 * 199 / 2) * rho**2 / (1000 * 999 / 2))
        assert block_total_correlation(m, blocks, gamma) == pytest.approx(oracle)

    def test_small_scale_calibration(self):
        gamma = calibrate_gamma(0.18, m=400, n=24, num_blocks=5, reps=2, seed=96)
        assert 0.4 < gamma < 2.5

    def test_unreachable_target(self):
        with pytest.raises(CalibrationFailure):
            calibrate_gamma(0.95, m=150, n=12, num_blocks=5, reps=1, seed=97)


class TestCalibrationAtSmallN:
    """At small n alpha_hat rises slowly in gamma, and some targets lie past GAMMA_FIRST."""

    def test_bracket_doubles_past_the_first(self):
        seed, target = 3, 0.37
        assert _measured_alpha_sq(normal.GAMMA_FIRST, 200, 6, 5, seed, 2) < target**2
        gamma = calibrate_gamma(target, m=200, n=6, num_blocks=5, reps=2, seed=seed)
        assert normal.GAMMA_FIRST < gamma <= normal.GAMMA_MAX
        got = np.sqrt(_measured_alpha_sq(gamma, 200, 6, 5, seed, 2))
        assert abs(got - target) <= normal.CALIB_TOL

    def test_unreachable_target_names_gamma_max(self):
        with pytest.raises(CalibrationFailure, match=rf"alpha\({normal.GAMMA_MAX}\) = "):
            calibrate_gamma(0.9, m=60, n=6, num_blocks=5, reps=1, seed=3)


class TestTwoSampleW:
    def test_small_case(self):
        assert np.allclose(two_sample_w(2, 2), [-0.5, -0.5, 0.5, 0.5])

    def test_unit_norm(self):
        for n1, n2 in [(44, 19), (3, 7), (1, 1), (22, 22)]:
            w = two_sample_w(n1, n2)
            assert w.size == n1 + n2
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)

    def test_components_sum_to_zero(self):
        assert abs(two_sample_w(5, 9).sum()) < 1e-12

    def test_positive_sizes(self):
        with pytest.raises(InvalidInput):
            two_sample_w(0, 5)


class TestBilinearTest:
    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(98)
        z = demean(DataMatrix(rng.standard_normal((30, 9))))
        w = rng.standard_normal(9)
        res = bilinear_test(z, w, m_tilde=10.0)
        oracle = float(w @ column_cov(z) @ w)
        assert res.tau_hat_sq == pytest.approx(oracle, rel=1e-12)
        assert res.tau_hat == pytest.approx(np.sqrt(oracle))
        assert np.allclose(res.z_scores, z.values @ w)

    def test_cv_and_distance(self):
        rng = np.random.default_rng(99)
        x = DataMatrix(rng.standard_normal((40, 6)))
        w = two_sample_w(3, 3)
        res = bilinear_test(x, w, m_tilde=17.2)
        assert res.cv == pytest.approx(1.0 / np.sqrt(2 * 17.2))
        assert res.std_distance == pytest.approx((res.tau_hat - 1.0) / res.cv)

    def test_null_moments_iid(self):
        # tau_hat^2 has mean tau^2=1 and variance ~ 2/m for i.i.d. entries
        m, reps = 200, 500
        w = two_sample_w(10, 10)
        rng = np.random.default_rng(100)
        taus = np.empty(reps)
        for rep in range(reps):
            x = DataMatrix(rng.standard_normal((m, 20)))
            taus[rep] = bilinear_test(x, w, m_tilde=m).tau_hat_sq
        assert abs(taus.mean() - 1.0) < 0.02
        assert abs(taus.var() - 2.0 / m) < 0.25 * (2.0 / m)

    def test_dimension_mismatch(self):
        x = DataMatrix(np.random.default_rng(101).standard_normal((10, 4)))
        with pytest.raises(InvalidInput):
            bilinear_test(x, np.ones(5), m_tilde=5.0)


class TestNullReadsTheSmallerGram:
    """The correlated-rows null takes its eigenvalues from the smaller Gram matrix.

    At n <= m that is Z'Z/m bit for bit (see ``TestResultsIndependentOfWorkers``); at m < n
    it is ZZ'/m, whose nonzero eigenvalues are those of Z'Z/m.
    """

    @pytest.mark.parametrize("m, n, reps, seed", [(40, 150, 6, 3), (150, 600, 2, 8)])
    def test_wide_draws_match_the_n_by_n_formula(self, m, n, reps, seed):
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=5, gamma=1.1)
        draws = normal._null_draws("correlated_rows", reps, n, seed, spec=spec)
        assert np.array_equal(eigenratio_null("correlated_rows", reps, n, seed, spec=spec), draws[:, 0])
        for rep, row in enumerate(draws):
            z, _ = double_standardize(sample_matrix_normal(spec, _substream(seed, rep)), max_iter=200)
            vals = _psd_eigenvalues(z.values.T @ z.values / z.m)
            want = [vals[-1] / vals.sum(), np.sum(vals * vals) / (n * n), vals.sum()]
            assert row == pytest.approx(want, rel=1e-12, abs=0)

    def test_square_draw_reads_z_prime_z(self):
        spec = SimulationSpec(m=30, n=30, sigma_model="block", num_blocks=3, gamma=0.8)
        got = normal._null_draws("correlated_rows", 3, 30, 2, spec=spec)
        for rep, row in enumerate(got):
            z, _ = double_standardize(sample_matrix_normal(spec, _substream(2, rep)), max_iter=200)
            vals = _psd_eigenvalues(z.values.T @ z.values / z.m)
            assert row.tolist() == [vals[-1] / vals.sum(), np.sum(vals * vals) / 900, vals.sum()]

    @pytest.mark.parametrize("m, n, side", [(40, 150, 40), (150, 40, 40), (30, 30, 30)])
    def test_decomposes_the_smaller_side(self, monkeypatch, m, n, side):
        shapes = []
        monkeypatch.setattr(normal, "_psd_eigenvalues", lambda g: shapes.append(g.shape) or _psd_eigenvalues(g))
        normal._null_draws("correlated_rows", 2, n, 1, spec=SimulationSpec(m=m, n=n))
        assert shapes == [(side, side)] * 2
