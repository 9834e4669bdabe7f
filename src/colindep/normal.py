"""Matrix-normal and Wishart simulation, eigenratio and bilinear tests.

The generative model is X ~ N(0, Sigma (x) Delta): rows correlate
through the m-by-m Sigma, columns through the n-by-n Delta, and
cov(X_ij, X_i'j') = Sigma_ii' * Delta_jj'.  Two parameterized families
cover what the tests need: a block Sigma (shared row effects within
equal-sized groups) and a spiked Delta = I + lambda * beta beta'.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._cpus import _affinity_cpus
from .correlation import offdiag_moments
from .errors import CalibrationFailure, InvalidInput
from .matrix import DataMatrix, SpectralSummary, _smaller_gram, _standardize_axis, double_standardize
from .permutation import _from_words, _seed_words, _substream_states, _substreams

_SIGMA_MODELS = ("identity", "block")
_DELTA_MODELS = ("identity", "spiked")
#: calibrate_gamma's tolerance on alpha, the top of its first bracket, and
#: the largest gamma it tries when the bracket has to double
CALIB_TOL = 0.005
GAMMA_FIRST = 5.0
GAMMA_MAX = 80.0
#: Bartlett-factor cells per batch of the Wishart null, and the most
#: factors in a batch: memory stays linear, and a stop discards at most
#: one batch's draws
_WISHART_CELLS = 1 << 18
_WISHART_BATCH = 16


@dataclass(frozen=True)
class SimulationSpec:
    """Generative description of an m-by-n matrix-normal draw.

    ``sigma_model="block"`` adds a shared N(0, gamma^2) effect per
    (block, column) cell, giving within-block row correlation
    gamma^2/(1+gamma^2); rows are split into ``num_blocks`` equal groups
    with any remainder assigned to the last.  ``delta_model="spiked"``
    right-multiplies by the symmetric square root of I + lambda *
    beta beta'.  Draws are not standardized.
    """

    m: int
    n: int
    sigma_model: str = "identity"
    num_blocks: int = 5
    gamma: float = 0.0
    delta_model: str = "identity"
    spike_lambda: float = 0.0
    spike_beta: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise InvalidInput("m and n must be at least 2")
        _seed_words(self.seed)  # InvalidInput for a seed SeedSequence would refuse
        if self.sigma_model not in _SIGMA_MODELS:
            raise InvalidInput(f"sigma_model must be one of {_SIGMA_MODELS}")
        if self.delta_model not in _DELTA_MODELS:
            raise InvalidInput(f"delta_model must be one of {_DELTA_MODELS}")
        if self.gamma < 0:
            raise InvalidInput("gamma must be nonnegative")
        if self.sigma_model == "block" and not 1 <= self.num_blocks <= self.m:
            raise InvalidInput("num_blocks must lie in [1, m]")
        if self.delta_model == "spiked":
            if self.spike_beta is None:
                raise InvalidInput("spiked delta_model requires spike_beta")
            beta = np.array(self.spike_beta, dtype=float)
            if beta.shape != (self.n,):
                raise InvalidInput(f"spike_beta must have length n={self.n}")
            if not np.all(np.isfinite(beta)):
                raise InvalidInput("spike_beta must be finite")
            nb = float(beta @ beta)
            if nb > 0 and self.spike_lambda * nb <= -1.0:
                raise InvalidInput(
                    "spiked delta is not positive definite: need lambda > -1/|beta|^2"
                )
            beta.setflags(write=False)
            object.__setattr__(self, "spike_beta", beta)


def block_labels(m: int, num_blocks: int) -> np.ndarray:
    """Block index per row: equal fifths (etc.), remainder in the last block."""
    size = m // num_blocks
    labels = np.repeat(np.arange(num_blocks), size)
    if labels.size < m:
        labels = np.concatenate([labels, np.full(m - labels.size, num_blocks - 1)])
    return labels


def within_block_correlation(gamma: float) -> float:
    """Row correlation inside a block before any standardization."""
    return gamma * gamma / (1.0 + gamma * gamma)


def block_total_correlation(m: int, num_blocks: int, gamma: float) -> float:
    """Root-mean-square correlation over all row pairs of the block model."""
    labels = block_labels(m, num_blocks)
    sizes = np.bincount(labels, minlength=num_blocks)
    within = float(np.sum(sizes * (sizes - 1) // 2))
    total = m * (m - 1) / 2.0
    rho = within_block_correlation(gamma)
    return math.sqrt(within / total * rho * rho)


def _spiked_root(lam: float, beta: np.ndarray) -> np.ndarray:
    # symmetric square root of I + lam * beta beta' in closed form
    n = beta.size
    b2 = float(beta @ beta)
    if b2 == 0.0 or lam == 0.0:
        return np.eye(n)
    coef = (math.sqrt(1.0 + lam * b2) - 1.0) / b2
    return np.eye(n) + coef * np.outer(beta, beta)


def sample_matrix_normal(spec: SimulationSpec, rng: np.random.Generator | None = None) -> DataMatrix:
    """One draw from the matrix-normal model described by ``spec``.

    Deterministic given (spec, spec.seed); pass ``rng`` to draw from an
    externally managed stream instead.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    y = rng.standard_normal((spec.m, spec.n))
    if spec.sigma_model == "block":
        # explicit gamma scaling keeps draws continuous in gamma under
        # common random numbers, which the calibrator relies on
        effects = spec.gamma * rng.standard_normal((spec.num_blocks, spec.n))
        # each block's effect row is added in place to the rows that
        # block_labels gives it: equal slices, the remainder in the last
        size = spec.m // spec.num_blocks
        for b, row in enumerate(effects):
            stop = (b + 1) * size if b < spec.num_blocks - 1 else spec.m
            y[b * size : stop] += row
    if spec.delta_model == "spiked":
        y = y @ _spiked_root(spec.spike_lambda, spec.spike_beta)
    return DataMatrix._adopt_checked(y, "raw")


@functools.lru_cache(maxsize=4)
def _bartlett_slots(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an n-by-k array of its diagonal and, row by row, of its entries below it."""
    rows, cols = np.tril_indices(n, -1, k)
    below = rows * k + cols
    diag = np.arange(k) * (k + 1)
    diag.setflags(write=False)
    below.setflags(write=False)
    return diag, below


def _bartlett_factor(df: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-trapezoid T with T T' ~ Wishart(df, I_n).

    Classic Bartlett construction: the j-th diagonal entry is the square
    root of a chi-square with df - j degrees of freedom (j zero-based)
    and entries below the diagonal are standard normal.  For df <= n-1
    only the ceil(df) columns with positive chi-square degrees survive,
    which reproduces the singular Wishart at integer df and interpolates
    it at fractional df.
    """
    k = min(n, int(math.ceil(df)))
    diag, below = _bartlett_slots(n, k)
    t = np.zeros(n * k)
    t[diag] = np.sqrt(rng.chisquare(df - np.arange(k)))
    t[below] = rng.standard_normal(below.size)
    return t.reshape(n, k)


def sample_wishart(
    df: float,
    delta: np.ndarray,
    seed: int = 0,
    size: int | None = None,
) -> np.ndarray:
    """Draws of Wishart(df, delta)/df for finite real df > n-1.

    Fractional degrees of freedom are supported through chi-square
    marginals with fractional df in the Bartlett factor.  Returns an
    (n, n) matrix, or (size, n, n) when ``size`` is given.
    """
    d = np.asarray(delta, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidInput("delta must be square")
    n = d.shape[0]
    if not n - 1 < df < math.inf:
        raise InvalidInput(f"df must be finite and exceed n-1={n - 1}, got {df}")
    try:
        chol = np.linalg.cholesky(d)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput("delta must be positive definite") from exc
    _seed_words(seed)  # InvalidInput for a seed SeedSequence would refuse
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    reps = 1 if size is None else int(size)
    out = np.empty((reps, n, n))
    for r in range(reps):
        lt = chol @ _bartlett_factor(df, n, rng)
        out[r] = lt @ lt.T / df
    return out[0] if size is None else out


def eigenratio(s: SpectralSummary) -> float:
    """Share of spectral mass in the top eigenvalue, e1 / sum_k e_k."""
    if s.rank < 1:
        raise InvalidInput("spectrum has rank 0")
    e = s.eigenvalues
    return float(e[0] / e.sum())


def _psd_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric PSD matrix, rounding negatives to 0."""
    vals = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    if vals.sum() <= 0:
        raise InvalidInput("matrix has no positive eigenvalues")
    return vals


def map_replicates(
    fn: Callable[[np.random.Generator], object],
    reps: int,
    seed: int,
    stop: Callable[[object], bool] | None = None,
) -> list:
    """``[fn(rng_0), ..., fn(rng_{reps-1})]``, rng_r built by numpy from row r of ``_substream_states``.

    So replicate r draws from substream (seed, r), and its words cost 32
    bytes until the worker that runs it builds its generator.  ``stop``,
    when given, is called on each result in index order, on the calling
    thread; the list ends at the first result it accepts, and later
    replicates are not run or are discarded.  Replicates run on a pool
    of one thread per CPU in the affinity mask, never more than
    ``reps``: a worker may run ahead of a slow replicate whose result is
    still to be read, and a stop cancels only the replicates not yet
    started.  With one worker the calls run as a plain loop, and a stop
    discards nothing.  Threads overlap only as far as numpy and BLAS
    release the interpreter lock, so the pool pays for large array work:
    the correlated rows null and ``calibrate_gamma``'s measurements, its
    callers.  The Wishart null's small factorizations gain more from one
    stacked call on the calling thread (see ``_null_draws``).  Each
    running replicate holds its own arrays, so peak memory grows with
    the worker count.  ``fn`` must not mutate shared state; then each
    result, landing at its index, and the prefix ``stop`` selects do not
    depend on the worker count.
    """
    states, generator = _substream_states(seed, reps), _from_words()
    workers = min(reps, _affinity_cpus())
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        results = []
        for result in (pool.map if pool else map)(lambda words: fn(generator(words)), states):
            results.append(result)
            if stop is not None and stop(result):
                break
        return results
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _null_draws(
    model: str,
    reps: int,
    n: int,
    seed: int,
    df: float | None = None,
    spec: SimulationSpec | None = None,
    stop: Callable[[tuple[float, float, float]], bool] | None = None,
) -> np.ndarray:
    """(reps, 3): each replicate's eigenratio, c2 and trace of its n-by-n null covariance.

    The covariance is W/df from a Bartlett factor's singular values for
    ``"wishart"``, or Z'Z/m of a doubly standardized draw from ``spec``
    (up to 200 sweeps) for ``"correlated_rows"``, read from ZZ'/m, the
    smaller Gram matrix, when m < n; see ``eigenratio_null``.
    Replicate r draws from substream (seed, r).  The correlated rows
    replicates run through ``map_replicates``; the Wishart ones in
    batches on the calling thread, each batch's factors through one
    stacked SVD.  ``stop`` sees each replicate's (eigenratio, c2, trace)
    in index order: the array then ends at the first replicate it
    accepts, and its rows are the first rows of the fixed-``reps``
    array, bit for bit.
    """
    if reps < 1:
        raise InvalidInput("reps must be positive")
    if n < 2:
        raise InvalidInput(f"n must be at least 2, got {n}")
    if model == "wishart":
        if df is None or not 0 < df < math.inf:
            raise InvalidInput(f"wishart model requires a finite df > 0, got {df}")
        return _wishart_draws(df, n, reps, seed, stop)
    if model != "correlated_rows":
        raise InvalidInput("model must be 'wishart' or 'correlated_rows'")
    if spec is None:
        raise InvalidInput("correlated_rows model requires a SimulationSpec")
    if spec.n != n:
        raise InvalidInput(f"spec.n={spec.n} does not match n={n}")

    def replicate(rng: np.random.Generator) -> tuple[float, float, float]:
        # the draw is this replicate's own, so it is standardized in place
        z, _ = double_standardize(sample_matrix_normal(spec, rng)._scratch(), max_iter=200)
        vals = _psd_eigenvalues(_smaller_gram(z.values) / z.m)
        total = vals.sum()
        return vals[-1] / total, np.sum(vals * vals) / (n * n), total

    return np.array(map_replicates(replicate, reps, seed, stop), dtype=float)


def _wishart_draws(
    df: float, n: int, reps: int, seed: int, stop: Callable[[tuple[float, float, float]], bool] | None
) -> np.ndarray:
    """The Wishart rows of ``_null_draws``, in batches of Bartlett factors.

    A batch holds up to _WISHART_BATCH factors and about _WISHART_CELLS
    cells.  A stacked SVD factors each matrix as a lone call would, so
    every row is the per-replicate one bit for bit.
    """
    k = min(n, int(math.ceil(df)))
    batch = max(1, min(_WISHART_BATCH, _WISHART_CELLS // (n * k)))
    rngs = _substreams(seed, reps)
    out = np.empty((reps, 3))
    for start in range(0, reps, batch):
        factors = np.stack([_bartlett_factor(df, n, rng) for rng in itertools.islice(rngs, batch)])
        sv = np.linalg.svd(factors, compute_uv=False)
        e = sv * sv
        total = e.sum(axis=1)
        rows = out[start : start + len(factors)]
        rows[:, 0] = e[:, 0] / total
        rows[:, 1] = np.sum(e * e, axis=1) / (df * df * n * n)
        rows[:, 2] = total / df
        if stop is not None:
            for r, row in enumerate(rows, start):
                if stop(tuple(row)):
                    return out[: r + 1]
    return out


def eigenratio_null(
    model: str,
    reps: int,
    n: int,
    seed: int,
    df: float | None = None,
    spec: SimulationSpec | None = None,
) -> np.ndarray:
    """Simulated null distribution of the eigenratio statistic.

    ``model="wishart"`` draws scaled Wishart(df, I_n) column covariance
    matrices (df may be fractional, and may drop below n-1, where the
    singular Bartlett interpolation is used).  ``model="correlated_rows"``
    draws data matrices from ``spec``, doubly standardizes each (up to
    200 sweeps) and takes the eigenratio of its column covariance; this
    is the null that keeps the row-correlation structure.  Each
    replicate uses an independent substream of ``seed``, so results do
    not depend on evaluation order or on the worker count (see
    ``map_replicates``).  ``colindep simulate`` writes the same
    replicates with their c2 and trace.
    """
    return _null_draws(model, reps, n, seed, df, spec)[:, 0].copy()


def _measured_alpha_sq(gamma: float, m: int, n: int, num_blocks: int, seed: int, reps: int) -> float:
    """Mean alpha_hat^2 of ``reps`` draws of the block model at ``gamma``.

    Replicate r draws its matrix from substream (seed, r), standardizes
    its columns and then its rows in place, and reads alpha_hat^2 as the
    data's is read: ``offdiag_moments`` of c2, the mean squared entry of
    X'X/m, or of XX'/n when m < n (the smaller Gram matrix, as in
    ``spectral``).  The replicates' values are summed in index order.
    """
    spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=num_blocks, gamma=gamma)

    def replicate(rng: np.random.Generator) -> float:
        a = sample_matrix_normal(spec, rng)._scratch().values
        _standardize_axis(a, axis=0)
        _standardize_axis(a, axis=1)
        gram = _smaller_gram(a)
        gram /= max(m, n)
        return offdiag_moments(float(np.mean(gram * gram)), n)[1]

    est = 0.0
    for alpha_sq in map_replicates(replicate, reps, seed):
        est += alpha_sq
    return est / reps


def calibrate_gamma(
    target_alpha: float,
    m: int,
    n: int,
    num_blocks: int,
    reps: int,
    seed: int,
) -> float:
    """Find the block-effect size gamma whose simulated alpha hits a target.

    Each trial gamma is measured as the data's alpha_hat is: ``reps``
    draws of the m-by-n block model, each standardized (columns, then
    rows) and read through the c2 identity; see ``_measured_alpha_sq``.
    The same random numbers are reused at every trial gamma (the block
    effects enter as an explicit gamma scaling), which makes the
    measured alpha a continuous function of gamma that bisection
    inverts to within CALIB_TOL.  At gamma = 0 the measured alpha^2
    keeps a floor of about 1/m, its sampling noise, so a target at or
    below alpha(0) returns 0.  The bracket [0, GAMMA_FIRST] doubles its
    top, up to GAMMA_MAX, while alpha there falls short of the target,
    as it can at small n.  Requires n >= 3.
    """
    if not 0.0 <= target_alpha < 1.0:
        raise InvalidInput("target_alpha must lie in [0, 1)")
    if reps < 1:
        raise InvalidInput("reps must be positive")
    target_sq = target_alpha * target_alpha

    def measure(g: float) -> float:
        return _measured_alpha_sq(g, m, n, num_blocks, seed, reps)

    if measure(0.0) >= target_sq:
        return 0.0
    lo, hi = 0.0, GAMMA_FIRST
    f_hi = measure(hi)
    while f_hi < target_sq:
        if hi >= GAMMA_MAX:
            raise CalibrationFailure(
                f"alpha({hi}) = {math.sqrt(f_hi):.4f} is below target {target_alpha}"
            )
        lo, hi = hi, 2.0 * hi
        f_hi = measure(hi)
    while True:  # hi - lo halves each step: below 1e-4 by the 20th
        mid = 0.5 * (lo + hi)
        f_mid = measure(mid)
        if abs(math.sqrt(f_mid) - target_alpha) <= 0.5 * CALIB_TOL or hi - lo < 1e-4:
            break
        if f_mid < target_sq:
            lo = mid
        else:
            hi = mid
    if abs(math.sqrt(f_mid) - target_alpha) > CALIB_TOL:
        raise CalibrationFailure(
            f"bisection stalled at gamma={mid:.4f} with alpha={math.sqrt(f_mid):.4f}"
        )
    return mid


def two_sample_w(n1: int, n2: int) -> np.ndarray:
    """Unit-norm two-group contrast: constant -1/n1 then +1/n2, scaled.

    The scaling sqrt(n1 n2 / (n1 + n2)) makes |w| = 1 and w'x equal to
    the variance-one multiple of the group mean difference.
    """
    if n1 < 1 or n2 < 1:
        raise InvalidInput("group sizes must be positive")
    c = math.sqrt(n1 * n2 / (n1 + n2))
    return c * np.concatenate([np.full(n1, -1.0 / n1), np.full(n2, 1.0 / n2)])


@dataclass(frozen=True)
class BilinearResult:
    """Bilinear statistic w' (X'X/m) w with its null comparison.

    ``z_scores`` holds the per-row contrasts Z_i = x_i'w whose mean
    square is ``tau_hat_sq``; ``cv`` is the coefficient of variation of
    tau_hat implied by the effective sample size, and ``std_distance``
    measures (tau_hat - |w|) in units of cv * |w|.
    """

    tau_hat: float
    tau_hat_sq: float
    cv: float
    z_scores: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    null_tau: float
    std_distance: float
    m_tilde: float

    def to_dict(self) -> dict:
        return {
            "method": "bilinear",
            "tau_hat": self.tau_hat,
            "tau_hat_sq": self.tau_hat_sq,
            "cv": self.cv,
            "null_tau": self.null_tau,
            "std_distance": self.std_distance,
            "m_tilde": self.m_tilde,
            "w_norm": float(np.linalg.norm(self.w)),
        }


def bilinear_test(x: DataMatrix, w: np.ndarray, m_tilde: float) -> BilinearResult:
    """Evaluate the bilinear statistic for a fixed contrast vector.

    Computes Z_i = x_i'w for every row, tau_hat^2 as the mean of Z_i^2
    (identical to w' (X'X/m) w), and the coefficient of variation
    (2 m_tilde)^{-1/2}.  The null value of tau is |w| when the columns
    are uncorrelated with unit variance, which presumes rows that are
    standardized or unit variance by construction.
    """
    if m_tilde <= 0:
        raise InvalidInput("m_tilde must be positive")
    w = np.asarray(w, dtype=float)
    if w.shape != (x.n,):
        raise InvalidInput(f"w must have length n={x.n}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("w must be finite")
    z = x.values @ w
    tau_hat_sq = float(np.mean(z * z))
    tau_hat = math.sqrt(tau_hat_sq)
    cv = 1.0 / math.sqrt(2.0 * m_tilde)
    null_tau = float(np.linalg.norm(w))
    if null_tau > 0:
        std_distance = (tau_hat - null_tau) / (cv * null_tau)
    else:
        std_distance = 0.0
    return BilinearResult(
        tau_hat=tau_hat,
        tau_hat_sq=tau_hat_sq,
        cv=cv,
        z_scores=z,
        w=w,
        null_tau=null_tau,
        std_distance=std_distance,
        m_tilde=m_tilde,
    )
