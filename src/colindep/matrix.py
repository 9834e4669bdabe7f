"""Dense data-matrix container, demeaning, standardization and spectra.

Conventions used throughout the package:

* rows are features, columns are samples;
* "population" variance (divide by the axis length), so a standardized
  row of length n has sum of squares exactly n;
* a matrix is *demeaned* when every row sum and column sum is zero, and
  *doubly standardized* when additionally every row and column has
  variance one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateAxis, InvalidInput, NonConvergence, NumericalError

#: tolerance used when verifying the standardization state of a matrix
TOL_STD = 1e-8
#: relative eigenvalue cutoff below which spectral components are dropped
RANK_TOL = 1e-12
#: default iteration cap for double standardization
MAX_ITER = 50

_STATES = ("raw", "demeaned", "row_std", "col_std", "double_std")


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """An m-by-n real matrix together with its standardization state.

    The state flag records which normalization has been applied:
    ``raw``, ``demeaned`` (all row/column sums zero), ``row_std`` /
    ``col_std`` (one axis has mean 0 and variance 1), or ``double_std``
    (every row and column has mean 0 and variance 1).
    """

    values: np.ndarray
    state: str = "raw"

    def __post_init__(self):
        a = np.array(self.values, dtype=float)
        _check_values(a)
        if self.state not in _STATES:
            raise InvalidInput(f"unknown state {self.state!r}")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @classmethod
    def _adopt_checked(cls, a: np.ndarray, state: str) -> DataMatrix:
        # wrap a float array that nothing else holds, checked as by __init__ but not copied
        _check_values(a)
        a.setflags(write=False)
        x = cls.__new__(cls)
        object.__setattr__(x, "values", a)
        object.__setattr__(x, "state", state)
        return x

    def _scratch(self) -> DataMatrix:
        # mark a matrix that nothing else holds as scratch: its values turn
        # writeable, and demean and double_standardize overwrite them
        # instead of copying; numpy makes an array writeable only when it
        # owns its data or its base is writeable, as with ingest's view
        # past the row-ID column
        self.values.setflags(write=True)
        return self

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def validate(self) -> None:
        """Check that the values actually satisfy the declared state.

        Raises InvalidInput when a mean/variance deviates by more than
        ``TOL_STD`` from what the state flag promises.
        """
        a = self.values
        checks: list[tuple[str, float]] = []
        if self.state in ("demeaned", "double_std"):
            checks.append(("row means", float(np.abs(a.mean(axis=1)).max())))
            checks.append(("column means", float(np.abs(a.mean(axis=0)).max())))
        if self.state == "row_std":
            checks.append(("row means", float(np.abs(a.mean(axis=1)).max())))
            checks.append(("row variances", float(np.abs(a.var(axis=1) - 1.0).max())))
        if self.state == "col_std":
            checks.append(("column means", float(np.abs(a.mean(axis=0)).max())))
            checks.append(("column variances", float(np.abs(a.var(axis=0) - 1.0).max())))
        if self.state == "double_std":
            checks.append(("row variances", float(np.abs(a.var(axis=1) - 1.0).max())))
            checks.append(("column variances", float(np.abs(a.var(axis=0) - 1.0).max())))
        for name, dev in checks:
            if dev > TOL_STD:
                raise InvalidInput(
                    f"state {self.state!r} violated: {name} deviate by {dev:.3g} > {TOL_STD:.3g}"
                )


def _check_values(a: np.ndarray) -> None:
    if a.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got ndim={a.ndim}")
    if a.shape[0] < 2 or a.shape[1] < 2:
        raise InvalidInput(f"matrix must be at least 2x2, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues of X'X (squared singular values) and its eigenvectors.

    ``eigenvalues`` is sorted in decreasing order and contains only the
    K components above the rank cutoff; ``right_vectors`` is n-by-K and
    orthonormal, column k the eigenvector of X'X for eigenvalue k (the
    k-th right singular vector of X).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class StandardizeInfo:
    """Outcome of double standardization: iterations used and final deviation.

    ``deviations`` holds the deviation the stop test measured after each
    sweep: that of the columns, and of both axes on a sweep where the
    columns are within tolerance.  Its last entry is ``max_deviation``;
    it is empty when the input was already standardized.  Each sweep
    standardizes the columns, then the rows.
    """

    iterations: int
    max_deviation: float
    deviations: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "deviations": list(self.deviations)}


def standardization_deviation(a: np.ndarray) -> float:
    """Largest deviation of any row/column mean from 0 or variance from 1."""
    return float(
        max(
            np.abs(a.mean(axis=1)).max(),
            np.abs(a.mean(axis=0)).max(),
            np.abs(a.var(axis=1) - 1.0).max(),
            np.abs(a.var(axis=0) - 1.0).max(),
        )
    )


def demean(x: DataMatrix) -> DataMatrix:
    """Remove row, column and grand means: x_ij - xbar_i. - xbar_.j + xbar_.. .

    The result has every row sum and column sum equal to zero; the
    operation is idempotent.  The three means are taken from the input
    first; then the row means and the column means are subtracted and
    the grand mean added in place, in the formula's order, so the bits
    are the formula's.  They are worked in one new m-by-n array, or, for
    a matrix handed over with ``_scratch``, in the input's own values.
    """
    a = x.values
    row_mean = a.mean(axis=1, keepdims=True)
    col_mean = a.mean(axis=0, keepdims=True)
    grand_mean = a.mean()
    out = a if a.flags.writeable else a.copy()
    out -= row_mean
    out -= col_mean
    out += grand_mean
    state = x.state if x.state in ("demeaned", "double_std") else "demeaned"
    return DataMatrix._adopt_checked(out, state)


def _axis_mean(a: np.ndarray, axis: int) -> np.ndarray:
    # one BLAS matrix-vector product: column means (axis=0) or row means
    ones = np.ones(a.shape[axis])
    return (ones @ a if axis == 0 else a @ ones) / ones.size


def _axis_mean_square(a: np.ndarray, axis: int) -> np.ndarray:
    return np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", a, a) / a.shape[axis]


def _axis_moments(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    # mean and variance along axis in two reductions: variance = mean square - mean^2
    mean = _axis_mean(a, axis)
    return mean, _axis_mean_square(a, axis) - mean * mean


def _deviation(mean: np.ndarray, var: np.ndarray) -> float:
    # largest |mean| or |variance - 1|
    return float(max(np.abs(mean).max(), np.abs(var - 1.0).max()))


def _axis_deviation(a: np.ndarray, axis: int) -> float:
    return _deviation(*_axis_moments(a, axis))


def _standardize_axis(
    a: np.ndarray, axis: int, mean: np.ndarray | None = None, var: np.ndarray | None = None
) -> np.ndarray:
    """Standardize ``a`` in place along ``axis`` (0: columns, 1: rows) and return it.

    Population variance.  ``mean`` and ``var``, when given, are the
    axis moments measured already, so no reduction retakes them;
    without ``var`` the variance is the mean square after centring,
    which keeps its precision under large offsets.  An axis whose sd is
    at most 1e-12·(|mean|+1), or whose variance is negative, raises
    DegenerateAxis with its first index; ``a`` is then left partly
    centred.
    """
    if mean is None:
        mean = _axis_mean(a, axis)
    a -= np.expand_dims(mean, axis)
    if var is None:
        var = _axis_mean_square(a, axis)
    sd = np.sqrt(np.maximum(var, 0.0))
    bad = np.nonzero(sd <= 1e-12 * (np.abs(mean) + 1.0))[0]
    if bad.size:
        raise DegenerateAxis("column" if axis == 0 else "row", int(bad[0]))
    a *= np.expand_dims(1.0 / sd, axis)
    return a


def standardize_columns(x: DataMatrix) -> DataMatrix:
    """Give every column mean 0 and (population) variance 1."""
    return DataMatrix._adopt_checked(_standardize_axis(x.values.copy(), axis=0), "col_std")


def standardize_rows(x: DataMatrix) -> DataMatrix:
    """Give every row mean 0 and (population) variance 1."""
    return DataMatrix._adopt_checked(_standardize_axis(x.values.copy(), axis=1), "row_std")


def double_standardize(
    x: DataMatrix,
    max_iter: int = MAX_ITER,
    tol: float = TOL_STD,
) -> tuple[DataMatrix, StandardizeInfo]:
    """Alternate column and row standardization until both axes settle.

    Iterates until every row/column mean is within ``tol`` of 0 and every
    row/column variance within ``tol`` of 1.  A matrix that already
    satisfies those conditions is returned unchanged with 0 iterations.

    Each sweep standardizes the columns, then the rows, of one private
    copy in place; a matrix handed over with ``_scratch`` is
    standardized in place instead.  The row step leaves the rows exact
    to rounding, so the stop test reads the column means and variances,
    and the row ones only once the columns meet ``tol``: that rounding
    grows with how close to constant an axis was before its step.  The
    next sweep's column step reuses those moments (variance = mean
    square − mean²), so a sweep makes four reductions and four in-place
    updates.  The first sweep centres before it takes the sum of
    squares, so inputs with large offsets keep their precision.

    Parameters
    ----------
    x : DataMatrix
    max_iter : int
        Iteration cap; exceeding it raises NonConvergence.  Small
        matrices exist for which no doubly standardized form exists, so
        non-convergence is an error rather than a silent best effort.
    tol : float
        Convergence tolerance on means and variances; must be positive.
    """
    if max_iter < 1:
        raise InvalidInput("max_iter must be at least 1")
    if not tol > 0:
        raise InvalidInput("tol must be positive")
    a = x.values
    mean, var = _axis_moments(a, 0)
    dev = _deviation(mean, var)
    if dev < tol:
        dev = max(dev, _axis_deviation(a, 1))
        if dev < tol:
            return DataMatrix._adopt_checked(a, "double_std"), StandardizeInfo(0, dev)
    if not a.flags.writeable:
        a = a.copy()
    deviations = []
    for it in range(1, max_iter + 1):
        _standardize_axis(a, 0, mean, var if it > 1 else None)
        _standardize_axis(a, 1)
        mean, var = _axis_moments(a, 0)
        dev = _deviation(mean, var)
        if dev < tol:
            dev = max(dev, _axis_deviation(a, 1))
        deviations.append(dev)
        if dev < tol:
            info = StandardizeInfo(it, dev, deviations=tuple(deviations))
            return DataMatrix._adopt_checked(a, "double_std"), info
    raise NonConvergence(
        f"double standardization did not reach tol={tol:.3g} in {max_iter} sweeps "
        f"(deviation {dev:.3g})"
    )


def _smaller_gram(a: np.ndarray) -> np.ndarray:
    """A'A when n <= m, else AA': the smaller Gram matrix, with the nonzero eigenvalues of A'A."""
    return a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T


def spectral(x: DataMatrix) -> SpectralSummary:
    """Eigenvalues of X'X and its eigenvectors, from the smaller Gram matrix.

    For n <= m this is the eigendecomposition of the n-by-n X'X.  For
    m < n it is that of the m-by-m XX', which has the same nonzero
    eigenvalues e_k; the right vectors are then X'u_k / sqrt(e_k).
    Either way no m-by-n array is made.  Components whose eigenvalue
    falls at or below ``RANK_TOL`` times the largest are treated as
    numerical zeros and dropped, so a demeaned matrix reports rank at
    most min(m-1, n-1).  Each eigenvalue is accurate to about machine
    epsilon times the largest, where an SVD resolves small ones more
    finely; c2, the eigenratio and the first eigenvector, which the
    package reads, are set by the large ones.
    """
    a = x.values
    try:
        e, vecs = np.linalg.eigh(_smaller_gram(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of the Gram matrix failed: {exc}") from exc
    e, vecs = e[::-1], vecs[:, ::-1]
    k = int(np.sum(e > RANK_TOL * e[0])) if e[0] > 0.0 else 0
    e, vecs = e[:k].copy(), vecs[:, :k]
    if vecs.shape[0] == x.n:  # the vectors of X'X are the right vectors
        right = vecs.copy()
    else:
        right = a.T @ vecs
        right /= np.sqrt(e)
    return SpectralSummary(eigenvalues=e, right_vectors=right)
