"""Order-sensitive permutation tests of column-wise i.i.d. structure.

If the columns of a matrix are independent and identically distributed,
every ordering of the components of the first eigenvector of the column
covariance matrix is equally likely.  The tests here score an observed
ordering (runs of similar components, or a linear trend) and compare it
against scores of randomly permuted orderings.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigengapWarning, InvalidInput
from .matrix import DataMatrix, SpectralSummary, spectral

_STATISTICS = ("block", "trend", "trace")
#: cells of statistic input (permuted vectors, or gathered band entries)
#: scored per chunk of permutations: 128 KiB arrays, as fast as 512 KiB
#: ones, and small enough not to fragment the heap between larger arrays
_PERM_CELLS = 1 << 14
#: numpy.random.SeedSequence's hash constants (bit_generator.pyx): its
#: hashmix multiplier and start for the pool, the same for the output
#: words, and the left and right multipliers of its mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class BlockBasis:
    """Run lengths min_len..max_len of the 0/1 block vectors beta_h, B = sum_h beta_h beta_h'.

    Neither the vectors nor B are stored: v'Bv and tr(delta_hat B) are
    sums over runs, read off prefix sums.
    """

    n: int
    min_len: int
    max_len: int

    @property
    def size(self) -> int:
        return sum(self.n - length + 1 for length in range(self.min_len, self.max_len + 1))


@dataclass(frozen=True)
class TestResult:
    """A statistic, its simulated null sample and the resulting p-value.

    ``L`` is the number of null samples taken: for a sampled null that
    stops at its ceil(L/20)-th exceedance (``sequential_stop``), fewer
    than were asked for.  ``mc_se`` is the Monte Carlo standard error of
    a sampled p-value.
    """

    statistic: float
    null_samples: np.ndarray
    p_value: float
    method: str
    seed: int
    exceed_count: int

    @property
    def L(self) -> int:
        return int(self.null_samples.size)

    @property
    def mc_se(self) -> float:
        """sqrt(p(1-p)/L) for a sampled p-value; 0 for an exhaustive one, which is exact.

        The binomial formula reads 0 at a sampled p of 0 or 1 too, where
        the p-value is not exact.
        """
        if self.method.endswith("_exhaustive"):
            return 0.0
        return math.sqrt(self.p_value * (1.0 - self.p_value) / self.L)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "L": self.L,
            "exceed_count": self.exceed_count,
            "mc_se": self.mc_se,
            "seed": self.seed,
        }


def block_basis(n: int, min_len: int = 2, max_len: int = 10) -> BlockBasis:
    """Block vectors of run length min_len..max_len over n components.

    ``max_len`` is silently truncated to n so the basis stays well
    defined for short vectors; min_len below 2 or above n is an error.
    """
    if min_len < 2:
        raise InvalidInput("min_len must be at least 2")
    if min_len > max_len:
        raise InvalidInput("min_len must not exceed max_len")
    if min_len > n:
        raise InvalidInput(f"min_len={min_len} exceeds n={n}")
    return BlockBasis(n=n, min_len=min_len, max_len=min(max_len, n))


def block_statistic(v: np.ndarray, basis: BlockBasis) -> float:
    """Quadratic form v'Bv; large values mean runs of similar components.

    v'Bv = sum_h (beta_h'v)^2, and each beta_h'v is a run sum
    cs[s+len] - cs[s] of the cumulative sums cs of v.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.n,):
        raise InvalidInput(f"expected a vector of length {basis.n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("v must be finite")
    return float(_block_rows(v[None], basis)[0])


def _block_rows(vs: np.ndarray, basis: BlockBasis) -> np.ndarray:
    # block_statistic of each row of vs, from the rows' cumulative sums
    cs = np.zeros((vs.shape[0], vs.shape[1] + 1))
    np.cumsum(vs, axis=1, out=cs[:, 1:])
    out = np.zeros(vs.shape[0])
    for length in range(basis.min_len, basis.max_len + 1):
        runs = cs[:, length:] - cs[:, :-length]
        out += np.einsum("ij,ij->i", runs, runs)
    return out


def trend_statistic(v: np.ndarray) -> float:
    """Squared least-squares slope of v against its index 1..n."""
    v = np.asarray(v, dtype=float)
    if v.size < 3:
        raise InvalidInput("trend statistic needs at least 3 components")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("v must be finite")
    return float(_trend_rows(v.reshape(1, -1))[0])


def _trend_rows(vs: np.ndarray) -> np.ndarray:
    # trend_statistic of each row of vs
    idx = np.arange(1, vs.shape[1] + 1, dtype=float)
    idx -= idx.mean()
    slope = (vs - vs.mean(axis=1, keepdims=True)) @ idx / (idx @ idx)
    return slope * slope


def first_eigvec(s: SpectralSummary) -> np.ndarray:
    """First right singular vector, sign-fixed so its largest entry is positive.

    Warns with DegenerateEigengapWarning when the top two eigenvalues
    agree to within 1e-8 relative, in which case the vector is unstable.
    """
    if s.rank < 1:
        raise InvalidInput("spectrum has rank 0")
    e = s.eigenvalues
    if s.rank >= 2 and (e[0] - e[1]) <= 1e-8 * e[0]:
        warnings.warn(
            f"top eigenvalues nearly equal ({e[0]:.6g} vs {e[1]:.6g}); "
            "first eigenvector is poorly determined",
            DegenerateEigengapWarning,
            stacklevel=2,
        )
    v = s.right_vectors[:, 0].copy()
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return v


def _band(basis: BlockBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rows, cols) = (i, i+d), d < max_len, of B's upper band, and their weights.

    B_ij counts the runs holding both i and j: for a run of length len,
    the starts max(0, j-len+1) <= s <= min(i, n-len).  Doubled off the
    diagonal, tr(D B) = sum(D[rows, cols] * weights) for a symmetric D.
    """
    n = basis.n
    d, i = np.nonzero(np.arange(basis.max_len)[:, None] + np.arange(n) < n)
    j = i + d
    lengths = np.arange(basis.min_len, basis.max_len + 1)[:, None]
    runs = np.clip(np.minimum(i, n - lengths) - np.maximum(0, j - lengths + 1) + 1, 0, None)
    return i, j, np.where(d == 0, 1.0, 2.0) * runs.sum(axis=0)


def trace_statistic(delta_hat: np.ndarray, basis: BlockBasis) -> float:
    """tr(delta_hat @ B): total block energy of a symmetric column covariance matrix."""
    d = np.asarray(delta_hat, dtype=float)
    if d.shape != (basis.n, basis.n):
        raise InvalidInput(f"expected a {basis.n}x{basis.n} matrix, got {d.shape}")
    if not np.allclose(d, d.T, rtol=0.0, atol=1e-8 * (np.abs(d).max() + 1.0)):
        raise InvalidInput("delta_hat must be symmetric")
    return float(_trace_rows(d, np.arange(basis.n)[None], _band(basis))[0])


def _trace_rows(d: np.ndarray, perms: np.ndarray, band: tuple) -> np.ndarray:
    # trace_statistic of d with its columns permuted by each row of perms;
    # the band is gathered by flat index, far faster than a 2-d fancy index
    rows, cols, weights = band
    flat = perms[:, rows] * d.shape[1]
    flat += perms[:, cols]
    return d.ravel().take(flat) @ weights


def exceeds(nulls: np.ndarray | float, s_obs: float) -> np.ndarray:
    """Whether each null draw counts as reaching ``s_obs``: ``nulls >= s_obs - 1e-12 max(1, |s_obs|)``.

    Ties count as exceedances; the epsilon keeps exact mathematical ties
    counted when reordered float sums differ in the last ulp, e.g.
    permutations of a constant eigenvector.
    """
    return np.asarray(nulls, dtype=float) >= s_obs - 1e-12 * max(1.0, abs(s_obs))


def mc_pvalue(nulls: np.ndarray, s_obs: float, conservative: bool = False) -> tuple[float, int]:
    """Monte Carlo tail p-value of ``s_obs`` against simulated null draws.

    Returns ``(p, exceed_count)``: the fraction of draws that ``exceeds``
    counts as at least as large as ``s_obs``, or (count+1)/(L+1) when
    ``conservative``.
    """
    nulls = np.asarray(nulls, dtype=float)
    exceed = int(np.sum(exceeds(nulls, s_obs)))
    if conservative:
        return (exceed + 1) / (nulls.size + 1), exceed
    return exceed / nulls.size, exceed


def sequential_stop(s_obs: float, L: int) -> Callable[[np.ndarray | float], int | None]:
    """Besag and Clifford's (1991) stop for a null sample of at most ``L`` draws.

    The returned function is fed the draws in index order, any number at
    a time.  It returns how many of the draws just fed to keep, up to the
    h-th that ``exceeds`` counts over all draws so far, h = ceil(L/20),
    and None while fewer than h have come.  ``mc_pvalue`` over the ell
    draws kept gives p = h/ell.  A fixed-L p below 0.05 counts fewer than
    h draws, so nothing stops and that p-value is the fixed-L one, bit for
    bit; a sample that stops would have given p >= 0.05 at L draws too.
    """
    h = -(-L // 20)
    hits = 0

    def cut(draws: np.ndarray | float) -> int | None:
        nonlocal hits
        counts = np.cumsum(exceeds(draws, s_obs)) + hits
        if counts[-1] >= h:
            return int(np.searchsorted(counts, h)) + 1
        hits = int(counts[-1])
        return None

    return cut


def _seed_words(seed: int) -> list[int]:
    """The 32-bit words of a nonnegative integer seed, low word first, as SeedSequence reads it.

    Raises InvalidInput for a seed that is not an integer or is negative.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        raise InvalidInput(f"seed must be an integer, got {seed!r}") from None
    if value < 0:
        raise InvalidInput(f"seed must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _substream_states(seed: int, reps: int) -> np.ndarray:
    """(reps, 4) uint64: ``SeedSequence((seed, r)).generate_state(4, np.uint64)`` for each r < reps.

    SeedSequence's mixing, run once over a uint32 array of all r instead
    of once per r: the seed's words and r (one word, reps <= 2**32)
    fill a pool of four words, hashmix and mix stir it, and the output
    words hash the pool again, with the second pair of constants.  Each
    hashmix call advances the hash constant whatever the value, so the
    constants are plain integers.
    """
    entropy = [np.array([w], dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(np.arange(reps, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((reps, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        out[:, i] = hashmix(pool[i % _POOL_WORDS], _MULT_B)
    # pairs of words, low word first, as generate_state reads them
    return out.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _from_words() -> Callable[[np.ndarray], np.random.Generator]:
    """``words -> Generator(PCG64)``, seeded by numpy from a row of ``_substream_states``."""
    # numpy.random is imported on first use: `import colindep.cli` leaves it unloaded
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    return lambda words: np.random.Generator(np.random.PCG64(StateWords(words)))


def _substreams(seed: int, reps: int) -> Iterator[np.random.Generator]:
    """For each r < reps, in order, a fresh Generator in the state of ``default_rng(SeedSequence((seed, r)))``."""
    return map(_from_words(), _substream_states(seed, reps))


def perm_pvalue(
    x: DataMatrix,
    statistic: str,
    L: int,
    seed: int,
    min_len: int = 2,
    max_len: int = 10,
    conservative: bool = False,
    exhaustive: bool = False,
    spectrum: SpectralSummary | None = None,
) -> TestResult:
    """Permutation p-value for one of the order-sensitive statistics.

    ``statistic`` is ``"block"`` or ``"trend"`` (computed on the first
    eigenvector, whose components are permuted L times) or ``"trace"``
    (tr of the column covariance against the block runs, recomputed
    under column permutations of the data).  The p-value is the fraction
    of permuted statistics at least as large as the observed one;
    ``conservative=True`` uses (count+1)/(L+1) instead.  The sampled
    null stops at the h-th permutation that reaches the observed
    statistic, h = ceil(L/20) (``sequential_stop``): the result then
    holds the first ell of the L fixed nulls, bit for bit, and reports
    ``L`` = ell and p = h/ell.  Every p-value below 0.05 takes all L
    permutations and is the fixed-L one.

    ``exhaustive=True`` replaces sampling with all n! permutations
    (allowed only for n <= 8) and returns the exact tail fraction.
    ``spectrum`` is a precomputed ``spectral(x)``, reused for the first
    eigenvector instead of a fresh eigendecomposition.  Permutation r is
    drawn from substream (seed, r), whose seeds are derived for all r in
    one pass (``_substreams``).  Permutations are scored in chunks of
    about ``_PERM_CELLS`` cells, and the stop cuts the last chunk at its
    exact index, so the result does not depend on the chunk size.
    """
    if statistic not in _STATISTICS:
        raise InvalidInput(f"statistic must be one of {_STATISTICS}")
    _seed_words(seed)  # the exhaustive path draws nothing, but reports the seed
    if L < 1 and not exhaustive:
        raise InvalidInput("L must be positive")
    n = x.n
    if exhaustive and n > 8:
        raise InvalidInput("exhaustive enumeration is limited to n <= 8")

    if statistic == "trace":
        delta_hat = x.values.T @ x.values
        delta_hat /= x.m  # in place: one n-by-n array in all
        band = _band(block_basis(n, min_len, max_len))
        width = band[0].size

        def stats(perms: np.ndarray) -> np.ndarray:
            return _trace_rows(delta_hat, perms, band)

    else:
        v1 = first_eigvec(spectrum if spectrum is not None else spectral(x))
        basis = block_basis(n, min_len, max_len) if statistic == "block" else None
        width = n

        def stats(perms: np.ndarray) -> np.ndarray:
            return _trend_rows(v1[perms]) if basis is None else _block_rows(v1[perms], basis)

    s_obs = float(stats(np.arange(n)[None])[0])
    if exhaustive:
        perms, cut = itertools.permutations(range(n)), None
    else:
        perms, cut = (rng.permutation(n) for rng in _substreams(seed, L)), sequential_stop(s_obs, L)
    # about _PERM_CELLS cells of statistic input per chunk of permutations
    step = max(1, _PERM_CELLS // width)
    pieces = []
    for chunk in iter(lambda: list(itertools.islice(perms, step)), []):
        pieces.append(stats(np.array(chunk, dtype=np.intp)))
        keep = cut(pieces[-1]) if cut else None
        if keep is not None:
            pieces[-1] = pieces[-1][:keep]
            break
    nulls = np.concatenate(pieces)
    p, exceed = mc_pvalue(nulls, s_obs, conservative)
    method = f"perm_{statistic}" + ("_exhaustive" if exhaustive else "")
    return TestResult(
        statistic=s_obs,
        null_samples=nulls,
        p_value=p,
        method=method,
        seed=seed,
        exceed_count=exceed,
    )
