import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colindep import (
    AuditConfig,
    DataMatrix,
    DegenerateAxis,
    InvalidInput,
    NonConvergence,
    NumericalError,
    SimulationSpec,
    block_labels,
    demean,
    double_standardize,
    eigenratio_null,
    spectral,
    standardization_deviation,
    standardize_columns,
    standardize_rows,
)
from colindep.audit import prepare


class TestDataMatrix:
    def test_shape_and_flags(self):
        x = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert x.m == 2 and x.n == 2 and x.state == "raw"
        assert not x.values.flags.writeable

    def test_rejects_small_or_nonfinite(self):
        with pytest.raises(InvalidInput):
            DataMatrix([[1.0, 2.0]])
        with pytest.raises(InvalidInput):
            DataMatrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            DataMatrix([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            DataMatrix(np.ones(4))

    def test_rejects_unknown_state(self):
        with pytest.raises(InvalidInput):
            DataMatrix(np.eye(3), state="centered")

    def test_validate_catches_wrong_state(self):
        lying = DataMatrix([[1.0, 2.0], [3.0, 4.0]], state="demeaned")
        with pytest.raises(InvalidInput):
            lying.validate()
        honest = demean(DataMatrix([[1.0, 2.0], [3.0, 5.0]]))
        honest.validate()


class TestDemean:
    def test_additive_matrix_goes_to_zero(self):
        # entries a_i + b_j vanish exactly under double centering
        x = demean(DataMatrix([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(x.values, np.zeros((2, 2)))
        assert x.state == "demeaned"

    def test_constant_matrix_goes_to_zero(self):
        x = demean(DataMatrix(np.full((4, 5), 7.25)))
        assert np.allclose(x.values, 0.0, atol=1e-14)

    def test_random_matrix_sums_vanish(self):
        rng = np.random.default_rng(11)
        x = demean(DataMatrix(rng.uniform(size=(10, 6))))
        # direct summation oracle on all 16 row/column sums
        assert np.abs(x.values.sum(axis=1)).max() < 1e-12
        assert np.abs(x.values.sum(axis=0)).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        once = demean(DataMatrix(rng.standard_normal((8, 5))))
        twice = demean(once)
        assert np.abs(twice.values - once.values).max() < 1e-12

    def test_state_preserved_for_double_std(self):
        rng = np.random.default_rng(13)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((30, 10))), max_iter=200)
        assert demean(z).state == "double_std"


class TestStandardize:
    def test_two_point_column(self):
        # population convention: column (1, 3) maps to (-1, 1)
        x = standardize_columns(DataMatrix([[1.0, 5.0], [3.0, 9.0]]))
        assert np.allclose(x.values[:, 0], [-1.0, 1.0])
        assert np.allclose(x.values[:, 1], [-1.0, 1.0])
        assert x.state == "col_std"

    def test_fixed_point(self):
        rng = np.random.default_rng(14)
        x = standardize_columns(DataMatrix(rng.standard_normal((12, 4))))
        again = standardize_columns(x)
        assert np.abs(again.values - x.values).max() < 1e-12

    def test_constant_column_raises_with_index(self):
        a = np.random.default_rng(15).standard_normal((6, 4))
        a[:, 2] = 3.0
        with pytest.raises(DegenerateAxis) as err:
            standardize_columns(DataMatrix(a))
        assert err.value.axis == "column" and err.value.index == 2

    def test_constant_row_raises_with_index(self):
        a = np.random.default_rng(16).standard_normal((5, 6))
        a[3] = -1.0
        with pytest.raises(DegenerateAxis) as err:
            standardize_rows(DataMatrix(a))
        assert err.value.axis == "row" and err.value.index == 3

    def test_rows_population_variance(self):
        rng = np.random.default_rng(17)
        x = standardize_rows(DataMatrix(rng.standard_normal((7, 9))))
        assert np.allclose((x.values**2).sum(axis=1), 9.0)
        assert np.allclose(x.values.mean(axis=1), 0.0, atol=1e-14)


class TestDoubleStandardize:
    def test_already_standardized_returns_unchanged(self):
        rng = np.random.default_rng(18)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((40, 12))), max_iter=200)
        again, info = double_standardize(z)
        assert info.iterations == 0
        assert np.array_equal(again.values, z.values)

    def test_sign_matrix_is_fixed_point(self):
        x = DataMatrix([[1.0, -1.0], [-1.0, 1.0]])
        z, info = double_standardize(x)
        assert info.iterations == 0
        assert np.array_equal(z.values, x.values)
        assert z.state == "double_std"

    def test_normal_matrix_converges_quickly(self):
        # empirical run: 200 x 20 standard normal needs 11 sweeps at 1e-8
        rng = np.random.default_rng(19)
        z, info = double_standardize(DataMatrix(rng.standard_normal((200, 20))))
        assert info.iterations <= 15
        assert standardization_deviation(z.values) < 1e-8
        z.validate()

    def test_satisfies_sum_constraints(self):
        rng = np.random.default_rng(20)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((50, 8))), max_iter=200)
        assert np.abs((z.values**2).sum(axis=1) - 8).max() < 1e-6
        assert np.abs((z.values**2).sum(axis=0) - 50).max() < 1e-5
        assert np.abs(z.values.sum(axis=1)).max() < 1e-6

    def test_nonconvergence_is_an_error(self):
        rng = np.random.default_rng(21)
        with pytest.raises(NonConvergence):
            double_standardize(DataMatrix(rng.standard_normal((20, 8))), max_iter=1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # an already standardized matrix too: no tolerance is ever met at tol <= 0
        x = DataMatrix([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InvalidInput, match="tol must be positive"):
            double_standardize(x, tol=tol)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((25, 9))
        perm = rng.permutation(9)
        z, _ = double_standardize(DataMatrix(x), max_iter=300)
        zp, _ = double_standardize(DataMatrix(x[:, perm]), max_iter=300)
        assert np.abs(zp.values - z.values[:, perm]).max() < 1e-6

    def test_degenerate_axis_propagates(self):
        a = np.random.default_rng(24).standard_normal((6, 5))
        a[:, 2] = 0.5
        with pytest.raises(DegenerateAxis) as err:
            double_standardize(DataMatrix(a))
        assert (err.value.axis, err.value.index) == ("column", 2)


def _oracle_axis(a, axis):
    # the axis step before fusion: a new array, numpy's mean and std
    mean = a.mean(axis=axis, keepdims=True)
    sd = a.std(axis=axis, keepdims=True)
    bad = np.nonzero(sd.ravel() <= 1e-12 * (np.abs(mean) + 1.0).ravel())[0]
    if bad.size:
        raise DegenerateAxis("column" if axis == 0 else "row", int(bad[0]))
    return (a - mean) / sd


def _oracle_double_standardize(a, max_iter=50, tol=1e-8):
    """The sweep before fusion: columns, then rows, then all four moments.

    Returns the last matrix and the deviation after each sweep; the
    caller reads convergence from the last deviation.
    """
    devs = []
    if standardization_deviation(a) < tol:
        return a, devs
    for _ in range(max_iter):
        a = _oracle_axis(_oracle_axis(a, 0), 1)
        devs.append(standardization_deviation(a))
        if devs[-1] < tol:
            break
    return a, devs


@st.composite
def _offset_scaled_matrices(draw):
    # standard normal noise times row and column scale factors, plus row
    # and column offsets, each spanning [1e-3, 1e3]; maybe one constant
    # row or column
    m = draw(st.integers(2, 300))
    n = draw(st.integers(2, 40))
    e = [draw(st.floats(-3.0, 3.0)) for _ in range(4)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (
        rng.standard_normal((m, n))
        * 10 ** (e[0] * rng.uniform(-1, 1, (m, 1)))
        * 10 ** (e[1] * rng.uniform(-1, 1, (1, n)))
        + 10 ** e[2] * rng.uniform(-1, 1, (m, 1))
        + 10 ** e[3] * rng.uniform(-1, 1, (1, n))
    )
    constant = draw(st.sampled_from([None, "row", "column"]))
    k = draw(st.integers(0, 10**6))
    if constant == "row":
        a[k % m] = 10 ** e[2]
    elif constant == "column":
        a[:, k % n] = 10 ** e[3]
    return a


class TestFusedSweepMatchesOracle:
    TOL = 1e-8

    def _near_tol(self, dev):
        return abs(dev - self.TOL) <= 1e-12 * self.TOL

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a=_offset_scaled_matrices())
    def test_random_shapes_offsets_and_scales(self, a):
        try:
            oz, odevs = _oracle_double_standardize(a, tol=self.TOL)
        except DegenerateAxis as exc:
            with pytest.raises(DegenerateAxis) as err:
                double_standardize(DataMatrix(a), tol=self.TOL)
            assert (err.value.axis, err.value.index) == (exc.axis, exc.index)
            return
        converged = not odevs or odevs[-1] < self.TOL
        try:
            z, info = double_standardize(DataMatrix(a), tol=self.TOL)
        except NonConvergence:
            assert not converged or self._near_tol(odevs[-1])
            return
        if not converged or info.iterations != len(odevs):
            # the two may stop at different sweeps only where the oracle's deviation sits on tol
            assert self._near_tol(odevs[min(info.iterations, len(odevs)) - 1])
            return
        assert len(info.deviations) == info.iterations
        if info.deviations:
            assert info.deviations[-1] == info.max_deviation
        assert np.abs(z.values - oz).max() <= 1e-10
        assert abs(info.max_deviation - standardization_deviation(z.values)) <= 1e-14

    def test_correlated_rows_null_matches_oracle_loop(self):
        m, n, blocks, gamma, seed, reps = 2000, 63, 5, 1.28, 2024, 20
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=blocks, gamma=gamma)
        got = eigenratio_null("correlated_rows", reps, n, seed, spec=spec)
        want = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
            y = rng.standard_normal((m, n))
            y = y + gamma * rng.standard_normal((blocks, n))[block_labels(m, blocks)]
            z, devs = _oracle_double_standardize(y)
            assert devs[-1] < 1e-8
            vals = np.clip(np.linalg.eigvalsh(z.T @ z / m), 0.0, None)
            want[rep] = vals[-1] / vals.sum()
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_deviation_per_sweep(self):
        rng = np.random.default_rng(40)
        z, info = double_standardize(DataMatrix(rng.standard_normal((200, 20))))
        assert len(info.deviations) == info.iterations >= 2
        assert info.deviations[-1] == info.max_deviation < 1e-8
        assert all(d >= 1e-8 for d in info.deviations[:-1])
        again, info0 = double_standardize(z)
        assert info0.iterations == 0 and info0.deviations == ()

    def test_second_axis_checked_on_the_last_sweep(self):
        # rows that are nearly constant before the row step keep a row-mean
        # error far above 1e-16 after it: columns are equal up to 1e-3
        x = np.random.default_rng(43).standard_normal(100) * 100
        a = np.empty((200, 2))
        a[0::2] = np.column_stack([x, x + 1e-3])
        a[1::2] = np.column_stack([x + 1e-3, x])
        z, info = double_standardize(DataMatrix(a))
        assert info.iterations == 1
        assert abs(info.max_deviation - standardization_deviation(z.values)) <= 1e-14
        assert info.max_deviation > 1e-12

    def test_peak_memory_linear_in_input(self):
        x = DataMatrix(np.random.default_rng(41).standard_normal((2000, 63)))
        tracemalloc.start()
        try:
            double_standardize(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.values.nbytes

    def test_scratch_matrix_standardized_in_place(self):
        a = np.random.default_rng(44).standard_normal((60, 9)) + 3.0
        want, want_info = double_standardize(DataMatrix(a))
        x = DataMatrix(a)
        z, info = double_standardize(x._scratch())
        assert np.shares_memory(z.values, x.values)
        assert not z.values.flags.writeable
        assert np.array_equal(z.values, want.values) and info == want_info

    def test_input_left_untouched(self):
        a = np.random.default_rng(42).standard_normal((30, 7)) + 5.0
        x = DataMatrix(a)
        before = x.values.copy()
        demean(x)
        double_standardize(x, max_iter=200)
        standardize_columns(x)
        standardize_rows(x)
        assert np.array_equal(x.values, before)


class TestSpectral:
    def test_eigenvalues_sorted_descending(self):
        x = DataMatrix(np.diag([2.0, 1.0, 0.5]))
        s = spectral(x)
        assert np.all(np.diff(s.eigenvalues) <= 0)
        assert np.allclose(s.eigenvalues, [4.0, 1.0, 0.25])

    def test_double_std_trace_is_mn(self):
        rng = np.random.default_rng(25)
        z, _ = double_standardize(DataMatrix(rng.standard_normal((30, 12))), max_iter=200)
        s = spectral(z)
        assert abs(s.eigenvalues.sum() - 30 * 12) < 1e-6

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(26)
        x = demean(DataMatrix(rng.standard_normal((8, 5))))
        s = spectral(x)
        assert s.rank <= 4
        oracle = np.sort(np.linalg.eigvalsh(x.values.T @ x.values))[::-1]
        assert np.allclose(s.eigenvalues, oracle[: s.rank], rtol=1e-8, atol=1e-10)

    def test_reconstruction(self):
        # Z'Z = V diag(e) V', from the n-by-n Gram (tall) and the m-by-m one (wide)
        rng = np.random.default_rng(27)
        for shape in ((12, 7), (7, 12)):
            x = demean(DataMatrix(rng.standard_normal(shape)))
            s = spectral(x)
            gram = x.values.T @ x.values
            approx = s.right_vectors @ np.diag(s.eigenvalues) @ s.right_vectors.T
            assert np.linalg.norm(gram - approx) / np.linalg.norm(gram) < 1e-8

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(28)
        for shape in ((10, 6), (6, 10)):
            s = spectral(DataMatrix(rng.standard_normal(shape)))
            assert s.right_vectors.shape == (shape[1], s.rank)
            assert np.abs(s.right_vectors.T @ s.right_vectors - np.eye(s.rank)).max() < 1e-8

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            spectral(DataMatrix(np.eye(3)))

    def test_gram_matrices_share_spectrum(self):
        rng = np.random.default_rng(29)
        x = demean(DataMatrix(rng.standard_normal((9, 6))))
        s = spectral(x)
        by_rows = np.sort(np.linalg.eigvalsh(x.values @ x.values.T))[::-1][: s.rank]
        by_cols = np.sort(np.linalg.eigvalsh(x.values.T @ x.values))[::-1][: s.rank]
        assert np.allclose(by_rows, by_cols, rtol=1e-8)
        assert np.allclose(s.eigenvalues, by_rows, rtol=1e-8)

    def test_trace_identity(self):
        rng = np.random.default_rng(30)
        x = DataMatrix(rng.standard_normal((14, 9)))
        s = spectral(x)
        assert np.isclose(s.eigenvalues.sum(), np.trace(x.values.T @ x.values), rtol=1e-10)


def _svd_oracle(a: np.ndarray, rank_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    # the thin SVD's squared singular values above the cutoff, and its right vectors
    _, d, vt = np.linalg.svd(a, full_matrices=False)
    e = d * d
    k = int(np.sum(e > rank_tol * e[0]))
    return e[:k], vt[:k].T


class TestSpectralMatchesSvd:
    """The Gram eigendecomposition against the thin SVD it replaces."""

    @pytest.mark.parametrize(
        "shape, demeaned",
        [((60, 9), False), ((9, 60), False), ((25, 25), False), ((50, 12), True), ((12, 50), True)],
        ids=["tall", "wide", "square", "demeaned_tall", "demeaned_wide"],
    )
    def test_oracle(self, shape, demeaned):
        rng = np.random.default_rng(sum(shape) + demeaned)
        for _ in range(5):
            x = DataMatrix(rng.standard_normal(shape) + rng.standard_normal(shape[1]))
            if demeaned:
                x = demean(x)
            s = spectral(x)
            e, v = _svd_oracle(x.values)
            assert s.rank == e.size == min(shape) - demeaned
            assert np.abs(s.eigenvalues - e).max() <= 1e-12 * e[0]
            v1 = s.right_vectors[:, 0]
            assert np.abs(v1 * np.sign(v1 @ v[:, 0]) - v[:, 0]).max() <= 1e-10
            assert np.abs(s.right_vectors.T @ s.right_vectors - np.eye(s.rank)).max() <= 1e-10

    def test_zero_matrix_has_rank_zero(self):
        s = spectral(DataMatrix(np.zeros((4, 3))))
        assert s.rank == 0 and s.right_vectors.shape == (3, 0)


class TestOneWorkingCopy:
    """Demeaning and standardization hold one m-by-n copy of the input."""

    @pytest.mark.parametrize("shape", [(300, 12), (12, 300), (40, 40)])
    def test_prepare_bits_equal_copying_path(self, shape):
        # the pipeline as it was: a demeaned copy, then a second copy standardized
        a = np.random.default_rng(shape[0]).standard_normal(shape) * 3.0 + 7.0
        formula = a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()
        want, want_info = double_standardize(DataMatrix(formula, "demeaned"))
        x = DataMatrix(a)
        d = demean(x)
        assert np.array_equal(d.values, formula)
        assert d.state == "demeaned" and not d.values.flags.writeable
        ctx = prepare(x, AuditConfig())
        assert np.array_equal(ctx.z.values, want.values) and ctx.info == want_info
        assert np.array_equal(x.values, a)

    def test_prepare_of_standardized_input(self):
        z, _ = double_standardize(DataMatrix(np.random.default_rng(45).standard_normal((50, 6))))
        ctx = prepare(z, AuditConfig())
        assert ctx.info.iterations == 0 and ctx.z.state == "double_std"
        assert not ctx.z.values.flags.writeable

    def test_demean_rejects_overflow(self):
        big = np.full((3, 3), 1e308)
        big[0, 0] = -1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInput, match="finite"):
            demean(DataMatrix(big))

    @pytest.mark.parametrize("row_ids", [False, True])
    def test_scratch_demeaned_in_place(self, row_ids):
        # ingest hands over the parsed array, or its view past the row-ID column
        parsed = np.random.default_rng(47).standard_normal((50, 10)) * 3.0 + 7.0
        a = parsed[:, 1:] if row_ids else parsed
        want = demean(DataMatrix(a))
        want_z, want_info = double_standardize(want)
        x = DataMatrix._adopt_checked(a, "raw")._scratch()
        d = demean(x)
        assert np.shares_memory(d.values, x.values)
        assert d.values.tobytes() == want.values.tobytes()
        assert d.state == "demeaned" and not d.values.flags.writeable
        z, info = double_standardize(d._scratch())
        assert np.shares_memory(z.values, x.values)
        assert z.values.tobytes() == want_z.values.tobytes() and info == want_info

    @pytest.mark.parametrize("row_ids", [False, True])
    def test_prepare_of_scratch_makes_no_copy(self, row_ids):
        parsed = np.random.default_rng(48).standard_normal((2000, 64)) + 2.0
        a = parsed[:, 1:] if row_ids else np.ascontiguousarray(parsed[:, 1:])
        x = DataMatrix._adopt_checked(a, "raw")._scratch()
        tracemalloc.start()
        try:
            ctx = prepare(x, AuditConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(ctx.z.values, x.values)
        assert peak < 0.5 * x.values.nbytes

    def test_prepare_and_spectral_memory(self):
        # 20000 x 63: prepare holds one copy of the input (a copying demean
        # and double_standardize reached 2.1 times it), and the spectrum
        # needs no m-by-n array (a thin SVD allocated twice the input)
        x = DataMatrix(np.random.default_rng(46).standard_normal((20000, 63)))
        tracemalloc.start()
        try:
            ctx = prepare(x, AuditConfig())
            prepared = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spectral(ctx.z)
            spectrum = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert prepared <= 1.3 * x.values.nbytes
        assert spectrum < 2**20
