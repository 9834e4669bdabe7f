import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import norm

from colindep import (
    DataMatrix,
    InvalidInput,
    OutlierReport,
    bh_fdr,
    column_cov,
    corr_null_pvalue,
    demean,
    double_standardize,
    scan_column_pairs,
)
from colindep.fdr import _unrank_pairs


def quadrature_pvalue(r: float, nu: float) -> float:
    """Independent oracle: normalize and integrate the null density directly."""
    dens = lambda u: (1 - u * u) ** ((nu - 4) / 2)
    total, _ = quad(dens, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    upper, _ = quad(dens, r, 1.0, epsabs=1e-13, epsrel=1e-13)
    return upper / total


def closed_form_pvalue(r, m_tilde: float, shift: float = 0.0) -> np.ndarray:
    """The p-value in one expression per step, each a new array."""
    x = np.asarray(r, dtype=float) - shift
    inside = np.clip(x, -1.0, 1.0)
    upper_half = 0.5 * betainc((m_tilde - 2.0) / 2.0, 0.5, 1.0 - inside * inside)
    p = np.where(inside >= 0, upper_half, 1.0 - upper_half)
    return np.where(x >= 1.0, 0.0, np.where(x <= -1.0, 1.0, p))


class TestCorrNullPvalue:
    @pytest.mark.parametrize("shift", [0.0, -1.0 / 43, 0.3])
    def test_bits_equal_closed_form(self, shift):
        rng = np.random.default_rng(20)
        r = np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, -0.3, 0.0, -0.0, 0.3, 1.0, shift]])
        p = corr_null_pvalue(r, 13.7, shift=shift)
        assert p.dtype == np.float64 and p.shape == r.shape
        assert np.array_equal(p, closed_form_pvalue(r, 13.7, shift))
        grid = r[:12].reshape(3, 4)
        assert np.array_equal(corr_null_pvalue(grid, 13.7, shift=shift), closed_form_pvalue(grid, 13.7, shift))
        for value in r[-7:]:
            scalar = corr_null_pvalue(float(value), 13.7, shift=shift)
            assert type(scalar) is float
            assert scalar == float(closed_form_pvalue(value, 13.7, shift))
        assert type(corr_null_pvalue(np.float64(0.2), 13.7)) is float

    def test_input_untouched(self):
        r = np.linspace(-1.0, 1.0, 9)
        before = r.copy()
        corr_null_pvalue(r, 9.0, shift=-0.1)
        assert np.array_equal(r, before)

    def test_center_is_half(self):
        assert corr_null_pvalue(0.0, 17.2) == pytest.approx(0.5)
        shift = -1.0 / 43
        assert corr_null_pvalue(shift, 17.2, shift=shift) == pytest.approx(0.5)

    def test_support_endpoints(self):
        assert corr_null_pvalue(1.0, 17.2) == 0.0
        assert corr_null_pvalue(-1.0, 17.2) == 1.0
        shift = -1.0 / 43
        assert corr_null_pvalue(1.0, 17.2, shift=shift) == 0.0
        assert corr_null_pvalue(-1.0, 17.2, shift=shift) == pytest.approx(1.0, abs=1e-9)

    def test_matches_quadrature(self):
        nu = 17.2
        for r in np.linspace(-0.95, 0.95, 21):
            assert abs(corr_null_pvalue(float(r), nu) - quadrature_pvalue(float(r), nu)) < 1e-8

    def test_strictly_decreasing(self):
        grid = np.linspace(-0.999, 0.999, 200)
        p = corr_null_pvalue(grid, 12.5)
        assert np.all(np.diff(p) < 0)

    def test_symmetry_about_shift(self):
        shift = -0.023
        rng = np.random.default_rng(110)
        for r in rng.uniform(-0.9, 0.9, 20):
            left = corr_null_pvalue(float(r), 17.2, shift=shift)
            right = corr_null_pvalue(float(-r + 2 * shift), 17.2, shift=shift)
            assert left + right == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            corr_null_pvalue(0.5, 3.0)
        for m_tilde in (float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="finite number above 3"):
                corr_null_pvalue(0.5, m_tilde)
        with pytest.raises(InvalidInput):
            corr_null_pvalue(1.5, 10.0)


class TestBhFdr:
    def test_all_ones_rejects_nothing(self):
        assert bh_fdr(np.ones(8), 0.1).size == 0

    def test_hand_worked_case(self):
        rejected = bh_fdr([0.001, 0.015, 0.2, 0.6, 0.9], 0.1)
        assert list(rejected) == [0, 1]  # 0.015 <= 2*0.1/5

    def test_single_small_p(self):
        assert list(bh_fdr([0.04], 0.1)) == [0]
        assert bh_fdr([0.2], 0.1).size == 0

    def test_matches_brute_force(self):
        def brute(p, q):
            p = np.asarray(p)
            order = np.argsort(p, kind="stable")
            best = 0
            for k in range(1, p.size + 1):
                if p[order[k - 1]] <= k * q / p.size:
                    best = k
            return set(order[:best].tolist())

        rng = np.random.default_rng(111)
        for trial in range(300):
            size = int(rng.integers(1, 13))
            p = np.round(rng.uniform(size=size), 2)  # rounding forces ties
            q = float(rng.uniform(0.02, 0.4))
            assert set(bh_fdr(p, q).tolist()) == brute(p, q)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(112)
        p = rng.uniform(size=25)
        previous: set = set()
        for q in (0.01, 0.05, 0.1, 0.2, 0.4):
            current = set(bh_fdr(p, q).tolist())
            assert previous <= current
            previous = current

    def test_ties_rejected_together(self):
        rejected = bh_fdr([0.03, 0.03, 0.9], 0.1)
        assert list(rejected) == [0, 1]

    def test_validation(self):
        with pytest.raises(InvalidInput):
            bh_fdr([0.5, 1.2], 0.1)
        with pytest.raises(InvalidInput):
            bh_fdr([0.5], 1.0)


def brute_force_bh(p, q):
    """The k smallest p-values for the largest k with p_(k) <= kq/N, by enumeration."""
    order = sorted(range(len(p)), key=p.__getitem__)
    best = 0
    for k in range(1, len(p) + 1):
        if p[order[k - 1]] <= k * q / len(p):
            best = k
    return sorted(order[:best])


def argsort_bh(p, q):
    """The rule as it was: sort every p-value and compare it with its threshold."""
    n = p.size
    order = np.argsort(p, kind="stable")
    thresholds = q * np.arange(1, n + 1) / n
    passing = np.nonzero(p[order] <= thresholds)[0]
    if passing.size == 0:
        return np.array([], dtype=np.int64)
    return np.sort(order[: int(passing[-1]) + 1])


@st.composite
def _pvalues_and_q(draw):
    # p-values drawn from the thresholds, q itself, its neighbours and the
    # ends of [0, 1] as well as at large, so ties and exact cutoffs are common
    q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    n = draw(st.integers(1, 40))
    thresholds = (q * np.arange(1, n + 1) / n).tolist()
    special = [0.0, 1.0, q, np.nextafter(q, 0.0), np.nextafter(q, 1.0), *thresholds]
    p = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(0.0, 1.0)), min_size=n, max_size=n))
    return np.array(p), q


class TestBhAgainstOracles:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=_pvalues_and_q())
    @example(case=(np.array([0.02, 0.02, 0.02, 0.9]), 0.1))  # a tie at the cutoff
    @example(case=(np.array([0.1]), 0.1))  # N = 1, p exactly q
    @example(case=(np.array([0.3, 0.2, np.nextafter(0.1, 1.0), 0.5]), 0.1))  # every p above q
    @example(case=(np.array([1e-300, 0.5]), 5e-324))  # q near 0
    @example(case=(np.array([0.999, 0.9999999999999999]), 0.9999999999999999))  # q near 1
    def test_matches_brute_force_and_argsort(self, case):
        p, q = case
        rejected = bh_fdr(p, q)
        assert rejected.tolist() == brute_force_bh(p.tolist(), q)
        want = argsort_bh(p, q)
        assert rejected.dtype == want.dtype and np.array_equal(rejected, want)

    def test_threshold_rounded_above_q(self):
        # q*3/3 rounds one ulp above q: p-values there pass at k = N
        q = 0.0015988299414970747
        top = q * 3 / 3
        assert top > q
        p = np.array([top, top, top])
        assert bh_fdr(p, q).tolist() == brute_force_bh(p.tolist(), q) == [0, 1, 2]

    def test_nothing_under_q(self):
        assert bh_fdr(np.full(5, 0.3), 0.2).size == 0
        assert bh_fdr(np.array([0.2000001]), 0.2).size == 0
        assert bh_fdr(np.array([]), 0.2).dtype == np.int64 and bh_fdr([], 0.2).size == 0


class TestPairEnumeration:
    def test_chunks_equal_triu_slices(self):
        rng = np.random.default_rng(120)
        for n in range(2, 61):
            ju, jpu = np.triu_indices(n, 1)
            for _ in range(5):
                start, stop = np.sort(rng.integers(0, ju.size + 1, 2))
                j, jp = _unrank_pairs(n, np.arange(start, stop))
                assert np.array_equal(j, ju[start:stop]) and np.array_equal(jp, jpu[start:stop])
            j, jp = _unrank_pairs(n, np.arange(ju.size))
            assert np.array_equal(j, ju) and np.array_equal(jp, jpu)

    @pytest.mark.parametrize("shape", [(40, 3), (60, 7), (30, 45)])
    def test_pairs_and_r_as_stored_before(self, shape):
        rng = np.random.default_rng(121)
        z, _ = double_standardize(demean(DataMatrix(rng.standard_normal(shape))), max_iter=300)
        out = scan_column_pairs(z, 20.0, 0.2)
        ju, jpu = np.triu_indices(shape[1], 1)
        assert out.n == shape[1]
        assert out.pair_j.dtype == ju.dtype and np.array_equal(out.pair_j, ju)
        assert out.pair_jp.dtype == jpu.dtype and np.array_equal(out.pair_jp, jpu)
        assert np.array_equal(out.r, np.clip(column_cov(z)[ju, jpu], -1.0, 1.0))
        with pytest.raises(AttributeError):
            out.pair_j = ju

    def test_to_dict_enumerates_pairs_once(self, monkeypatch):
        n, calls = 1000, []
        triu_indices = np.triu_indices

        def counted(*args, **kwargs):
            # a second call fails at once: once per record would take minutes
            assert not calls, "np.triu_indices called more than once"
            calls.append(args)
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counted)
        r = np.random.default_rng(122).uniform(-0.3, 0.3, n * (n - 1) // 2)
        report = OutlierReport(n, r, 1.0 - r, 0.1, np.array([5, 4321]), 0.2, "correlation", 20.0)
        pairs = report.to_dict(include_pairs=True)["pairs"]
        assert len(calls) == 1
        assert pairs[4321] == {"j": 4, "jp": 336, "r": r[4321], "p": 1.0 - r[4321], "significant": True}

    def test_pair_count_checked(self):
        with pytest.raises(InvalidInput, match="n\\(n-1\\)/2 pairs"):
            OutlierReport(5, np.zeros(9), np.zeros(9), 0.1, np.array([], dtype=np.int64), None, "correlation", 5.0)

    def test_scan_memory_on_screen_shape(self):
        # storing the pair indices and sorting every p-value peaked at
        # 27.2 MiB and kept 15.2 MiB; r and p alone are 7.6 MiB
        z, _ = double_standardize(demean(DataMatrix(np.random.default_rng(8).standard_normal((400, 1000)))))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = scan_column_pairs(z, 14.0, 0.1)
            kept, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert report.n_pairs == 499_500
        assert peak < 16 * 2**20
        assert kept < 9 * 2**20


class TestScanColumnPairs:
    def standardized(self, a):
        z, _ = double_standardize(DataMatrix(a), max_iter=300)
        return z

    def test_planted_pair_discovered(self):
        rng = np.random.default_rng(113)
        a = rng.standard_normal((200, 12))
        a[:, 5] = a[:, 4] + 0.35 * rng.standard_normal(200)  # near-duplicate columns
        z = self.standardized(a)
        out = scan_column_pairs(z, m_tilde=200.0, q=0.1)
        assert out.discoveries.size >= 1
        top = int(np.argmax(out.r))
        assert {out.pair_j[top], out.pair_jp[top]} == {4, 5}
        assert top in out.discoveries
        assert out.threshold_r is not None

    def test_null_data_usually_clean(self):
        rng = np.random.default_rng(114)
        z = self.standardized(rng.standard_normal((300, 10)))
        out = scan_column_pairs(z, m_tilde=300.0, q=0.1)
        assert out.discoveries.size == 0
        assert out.threshold_r is None

    def test_false_discovery_rate_held_on_null(self):
        # independent columns, m_tilde = m: discoveries are false by
        # construction and should average well under control
        rng = np.random.default_rng(119)
        false_counts = []
        for _ in range(60):
            z = self.standardized(rng.standard_normal((120, 8)))
            out = scan_column_pairs(z, m_tilde=120.0, q=0.1)
            false_counts.append(int(out.discoveries.size))
        assert np.mean(false_counts) <= 0.1
        assert np.median(false_counts) == 0

    def test_null_model_changes_p_not_r(self):
        rng = np.random.default_rng(115)
        z = self.standardized(rng.standard_normal((100, 8)))
        a = scan_column_pairs(z, m_tilde=50.0, q=0.1, null_model="correlation")
        b = scan_column_pairs(
            z, m_tilde=50.0, q=0.1, null_model="gaussian",
            gauss_mu=-1 / 7, gauss_sd=0.2,
        )
        assert np.array_equal(a.r, b.r)
        assert not np.allclose(a.p_values, b.p_values)

    def test_pair_enumeration(self):
        rng = np.random.default_rng(116)
        z = self.standardized(rng.standard_normal((60, 7)))
        out = scan_column_pairs(z, m_tilde=30.0, q=0.2)
        assert out.n_pairs == 21
        assert np.all(out.pair_j < out.pair_jp)
        d = out.to_dict()
        assert len(d["pairs"]) == 21
        assert d["n_discoveries"] == int(out.discoveries.size)

    def test_two_sided_flag(self):
        rng = np.random.default_rng(117)
        z = self.standardized(rng.standard_normal((80, 6)))
        one = scan_column_pairs(z, m_tilde=40.0, q=0.1)
        two = scan_column_pairs(z, m_tilde=40.0, q=0.1, two_sided=True)
        assert np.allclose(
            two.p_values, 2 * np.minimum(one.p_values, 1 - one.p_values)
        )

    def test_validation(self):
        rng = np.random.default_rng(118)
        raw = DataMatrix(rng.standard_normal((20, 5)))
        with pytest.raises(InvalidInput):
            scan_column_pairs(raw, m_tilde=10.0, q=0.1)
        z = self.standardized(rng.standard_normal((40, 6)))
        with pytest.raises(InvalidInput):
            scan_column_pairs(z, m_tilde=10.0, q=0.1, null_model="gaussian")
        with pytest.raises(InvalidInput):
            scan_column_pairs(z, m_tilde=10.0, q=0.1, null_model="cauchy")
        gauss = {"null_model": "gaussian", "gauss_mu": -0.2, "gauss_sd": 0.2}
        for m_tilde in (float("nan"), float("inf"), 0.0):
            for null in ({}, gauss):
                with pytest.raises(InvalidInput, match="m_tilde"):
                    scan_column_pairs(z, m_tilde, 0.1, **null)

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_gaussian_null_matches_norm_sf(self, two_sided):
        rng = np.random.default_rng(123)
        a = rng.standard_normal((50, 30))
        a[:, 1] = a[:, 0] + 0.05 * rng.standard_normal(50)  # a far-tail pair
        z = self.standardized(a)
        for mu, sd in ((-1 / 29, 0.15), (0.01, 0.02)):
            out = scan_column_pairs(
                z, 25.0, 0.1, "gaussian", gauss_mu=mu, gauss_sd=sd, two_sided=two_sided
            )
            p = norm.sf((out.r - mu) / sd)
            if two_sided:
                p = 2.0 * np.minimum(p, 1.0 - p)
            assert np.array_equal(out.p_values, p)
