"""Exact samplers for the lattice families and their jump laws.

This module holds the generic samplers (Poisson through numpy's Generator, tempered Sibuya
and zeta by exact rejection), the guide-table search of jump tables, one head-table sampler
with a zeta-rejection tail for every unbounded jump law, the compound-Poisson sum, and the
Poisson mixtures over a positive stable rate, whose cost does not depend on Lambda; each
family class in `families` draws from them, so no family is named here. Draws are int64
lattice steps: a jump, a draw or a batch's jump count of 2^62 or more, or a Poisson rate above
numpy's range, raises PrecisionError rather than wrap; sample_poisson itself returns counts up
to numpy's range, about 9.2e18.

Everything is driven by RngState, a splittable deterministic stream: the same
seed and call sequence produce the same draws on every platform, and batch
generation splits child streams by batch index so the output is independent
of how many threads consume the batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial

import numpy as np

from . import families
from .errors import DomainError, PrecisionError
from .special import _check_index, _scalar, _sibuya_weights, _stirling_tail, sibuya_survival

__all__ = [
    "RngState",
    "sample_poisson",
    "sample_sibuya",
    "sample_tempered_sibuya",
    "sample_zeta",
    "sample_family",
]

_MASK64 = (1 << 64) - 1
_BATCH = 1 << 16
# draws, a draw's sum of jumps in lattice steps and a batch's jump count must stay below 2^62
_INT_LIMIT = 1 << 62
# the largest rate numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# unbounded jumps up to this size come from a table, larger ones by zeta rejection
_HEAD = 4096


class RngState:
    """Deterministic random stream with cheap independent splits.

    Wraps a Philox generator keyed by numpy's SeedSequence; `split(i)` derives
    the i-th child stream from the spawn key (parent's key + (i,)), a pure
    function of the seed and the path of splits, so a batch partition maps to
    the same streams no matter which thread runs which batch.
    """

    __slots__ = ("_seq", "_gen")

    def __init__(self, seed: int):
        seed = _check_index(seed, "seed")
        if seed > _MASK64:
            raise DomainError("seed must fit in 64 bits")
        self._start(np.random.SeedSequence(seed))

    def _start(self, seq: np.random.SeedSequence) -> None:
        self._seq, self._gen = seq, np.random.Generator(np.random.Philox(seq))

    def split(self, child_index: int) -> "RngState":
        """Independent child stream number `child_index`; does not advance self."""
        child_index = _check_index(child_index, "child_index")
        child = RngState.__new__(RngState)
        child._start(np.random.SeedSequence(
            self._seq.entropy, spawn_key=self._seq.spawn_key + (child_index,)))
        return child

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


# ---------------------------------------------------------------------------
# Poisson, Sibuya, tempered Sibuya and zeta laws
# ---------------------------------------------------------------------------

def _check_range(k: np.ndarray, law: str) -> None:
    """PrecisionError unless every draw in k is below 2^62 (NaN and inf fail too)."""
    if k.size and not k.max() < _INT_LIMIT:
        raise PrecisionError(f"{law} draw reaches 2^62, beyond the integer range")


def sample_poisson(rate: float, rng: RngState, size=None):
    """Poisson(rate) draws, by numpy's `Generator.poisson`.

    Rates above numpy's range, 2^63 - 1 - 10 sqrt(2^63 - 1) (about 9.2e18),
    raise PrecisionError.
    """
    rate = _scalar(rate, "rate", lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
    if rate > _POISSON_MAX:
        raise PrecisionError(f"Poisson rate {rate!r} exceeds the int64 range")
    n = 1 if size is None else _check_index(size, "size")
    out = rng.generator.poisson(rate, n)
    return int(out[0]) if size is None else out


def sample_sibuya(alpha: float, rng: RngState, size=None):
    """K >= 1 with P(K = k) = sibuya_pmf(alpha, k), by _head_tail_jumps from a table built on
    the first draw at each alpha and cached. A draw of 2^62 or more raises PrecisionError, with
    at most 1 + alpha (1 + alpha) / 8192 times the law's own chance, which is large at small
    alpha: 1.3% at alpha = 0.1, and 96% at 0.001. So does an alpha where 1 + alpha rounds to 1."""
    alpha = _scalar(alpha, "alpha", lambda v: 0.0 < v < 1.0, "be in (0, 1)")
    s = _zeta_index(alpha)
    n = 1 if size is None else _check_index(size, "size")
    k = _head_tail_jumps(_sibuya_table(alpha), s, rng, n, partial(_sibuya_log_r, alpha))
    return int(k[0]) if size is None else k


def _zeta_index(alpha: float) -> float:
    """s = 1 + alpha; PrecisionError if it rounds to 1."""
    if 1.0 + alpha == 1.0:
        raise PrecisionError(f"alpha = {alpha!r} is too small: 1 + alpha rounds to 1 in float64")
    return 1.0 + alpha


@lru_cache(maxsize=8)
def _sibuya_table(alpha: float):
    """The _head_tail_table of sibuya_pmf(alpha, k), all on the right."""
    return _head_tail_table(1.0, 0.0, _sibuya_weights(alpha, _HEAD), sibuya_survival(alpha, _HEAD))


def _sibuya_log_r(alpha: float, k: np.ndarray) -> np.ndarray:
    """log(r(k) / r(inf)), about alpha (1 + alpha) / (2k), at float k > _HEAD, where r(k) =
    sibuya_pmf(alpha, k) k^{1+alpha} and r(inf) = alpha / Gamma(1 - alpha).

    It is lgamma(k - alpha) - lgamma(k + 1) + (1 + alpha) log k, by special._lgamma_diff's
    Stirling form, with each term of order 1 rewritten as one of order 1/k: with x = (1 + alpha)
    / (k + 1), (k - alpha - 1/2) log1p(-x) + 1 + alpha = -(1 + alpha) x sum_j x^j / (j + 2) -
    (alpha + 3/2) log1p(-x), summed to x^5 (x < 5e-4: the rest is below 1e-20 of it). So the
    relative error stays near 1e-15 / alpha up to k = 2^62, where a plain lgamma difference
    loses every digit by k = 1e15."""
    x = (1.0 + alpha) / (k + 1.0)
    series = x * np.polyval([1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2], x)
    return (-(1.0 + alpha) * (np.log1p(1.0 / k) + series) - (alpha + 1.5) * np.log1p(-x)
            + _stirling_tail(k - alpha) - _stirling_tail(k + 1.0))


def sample_tempered_sibuya(alpha: float, theta: float, rng: RngState, size=None):
    """K with pmf proportional to sibuya_pmf(alpha, k) e^{-theta k}, for finite theta > 0.

    Exact rejection: propose Sibuya(alpha), accept with probability
    e^{-theta (K-1)}; the acceptance rate is e^{theta}(1 - (1 - e^{-theta})^alpha).
    """
    _scalar(alpha, "alpha", lambda v: 0.0 < v < 1.0, "be in (0, 1)")
    _scalar(theta, "theta", lambda v: 0.0 < v < math.inf, "be finite and > 0")
    n = 1 if size is None else _check_index(size, "size")
    gen, out, done = rng.generator, np.empty(n, dtype=np.int64), 0
    with np.errstate(over="ignore"):  # theta (K - 1) may overflow; e^{-inf} = 0 rejects K
        while done < n:
            k = sample_sibuya(alpha, rng, min(n - done, _BATCH))
            keep = k[gen.random(k.size) <= np.exp(-theta * (k - 1.0))]
            out[done:done + keep.size] = keep
            done += keep.size
    return int(out[0]) if size is None else out


def sample_zeta(s: float, rng: RngState, size=None, start: int = 1):
    """K >= start with P(K = k) = k^{-s} / zeta(s, start), by Devroye's (1986) Pareto rejection.

    K = floor(start U^{-1/(s-1)}) is kept with chance r(K) / r(start), r(k) = 1 / (-k expm1((1-s)
    log1p(1/k))) being k^{-s} over K's mass at k, in a form exact at s near 1. Draws above 2^53
    are rounded; one of 2^62 or more raises PrecisionError, with the law's own chance.
    """
    _scalar(s, "s", lambda v: v > 1.0, "be > 1")
    start = _check_index(start, "start", 1)
    n = 1 if size is None else _check_index(size, "size")
    gen, out, done = rng.generator, np.empty(n, dtype=np.int64), 0
    bound = -start * math.expm1((1.0 - s) * math.log1p(1.0 / start))  # 1 / r(start)
    with np.errstate(over="ignore"):  # U^{-1/(s-1)} may overflow; 2^63 raises all the same
        while done < n:
            k = np.floor(start * (1.0 - gen.random(min(n - done, _BATCH))) ** (1.0 / (1.0 - s)))
            np.minimum(k, 2.0**63, out=k)
            keep = k[gen.random(k.size) * -k * np.expm1((1.0 - s) * np.log1p(1.0 / k)) <= bound]
            _check_range(keep, "zeta")
            out[done:done + keep.size] = keep
            done += keep.size
    return int(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# family sampler
# ---------------------------------------------------------------------------

def _search_table(right: float, left: float, w: np.ndarray):
    """(cdf, guide, first) for _from_table over the jumps -n..n, n = w.size - 1, entry j being
    the jump first + j: cdf the normalised cumulative masses left w[n..1], (left + right) w[0],
    right w[1..n], less a side of intensity 0 (exact zeros or totals, which no uniform picks),
    and guide[g] the first j with cdf[j] > g / G, G the least power of two >= 4 len(cdf)."""
    n = w.size - 1
    lo, hi = n if left == 0.0 else 0, n + 1 if right == 0.0 else 2 * n + 1
    cdf = np.cumsum(np.r_[left * w[:0:-1], (left + right) * w[0], right * w[1:]][lo:hi])
    cdf /= cdf[-1]
    cells = 1 << (4 * cdf.size - 1).bit_length()
    return cdf, np.searchsorted(cdf, np.arange(cells) / cells, side="right"), lo - n


def _from_table(table, gen: np.random.Generator, count: int) -> np.ndarray:
    """Jumps first + j with P(j <= i) = cdf[i], (cdf, guide, first) = table: for each uniform u,
    j is exactly np.searchsorted(cdf, u, side="right"), by indexed search (Chen and Asau 1974):
    guide[floor(u G)] (exact, as G is a power of two), unless cdf there is <= u, which sends
    about 1% of the draws on to searchsorted. Blocks of _BATCH draws keep the arrays small."""
    cdf, guide, first = table
    out = np.empty(count, dtype=np.int64)
    for lo in range(0, count, _BATCH):
        u = gen.random(min(count - lo, _BATCH))
        j = out[lo:lo + u.size]
        np.take(guide, (u * guide.size).astype(np.intp), out=j)
        slow = np.flatnonzero(cdf[j] <= u)
        j[slow] = np.searchsorted(cdf, u[slow], side="right")
        j += first
    return out


def _head_tail_table(right: float, left: float, head_w: np.ndarray, tail_mass: float):
    """The _search_table of head_w at k = 1.._HEAD and tail_mass in a bucket at _HEAD + 1."""
    return _search_table(right, left, np.r_[0.0, head_w, tail_mass])


def _head_tail_jumps(table, s: float, rng: RngState, count: int, log_r=None) -> np.ndarray:
    """count jumps from a _head_tail_table of a law proportional to r(k) k^{-s} beyond _HEAD, r
    falling: a bucket draw, at +-(_HEAD + 1), keeps its sign and takes a sample_zeta(s, start =
    _HEAD + 1) proposal, kept with chance r(k) / r(_HEAD + 1), r = exp(log_r) (or 1, drawing no
    uniforms, if log_r is None). Sibuya's r(k) = sibuya_pmf(alpha, k) k^{1+alpha} falls, as
    r(k+1) / r(k) = (1 - alpha/k)(1 + 1/k)^alpha <= (1 - alpha/k)(1 + alpha/k) < 1 (Bernoulli's
    inequality), to alpha / Gamma(1 - alpha), so over 1 - alpha (1 + alpha) / 8192 of the
    proposals are kept. A proposal of 2^62 or more raises in sample_zeta before it can be
    rejected, so a draw raises with at most 1 + alpha (1 + alpha) / 8192 times the law's own
    chance, r(_HEAD + 1) / r(inf)."""
    k = _from_table(table, rng.generator, count)
    far = np.flatnonzero((k > _HEAD) | (k < -_HEAD))  # no |k| temporary over every jump
    tail = np.empty(0, dtype=np.int64)
    while tail.size < far.size:
        z = sample_zeta(s, rng, far.size - tail.size, start=_HEAD + 1)
        if log_r is not None:
            z = z[rng.generator.random(z.size) <= np.exp(log_r(z) - log_r(_HEAD + 1.0))]
        tail = np.r_[tail, z]
    k[far] = np.where(k[far] > 0, tail, -tail)
    return k


def _compound_poisson(rate: float, draw_jumps, rng: RngState, n: int) -> np.ndarray:
    """n sums, each of a Poisson(rate) number of int64 jumps from `draw_jumps(rng, count)`.

    Jumps come in integer lattice units (multiples of a): summing in int64 and
    scaling by a once keeps every sample bit-exact on the PMF's lattice —
    accumulating float multiples of a fractional pitch would drift off it.
    """
    counts = sample_poisson(rate, rng, n)
    if counts.sum(dtype=np.float64) >= _INT_LIMIT:  # where the int64 sum may wrap
        raise PrecisionError(f"the jump count of {n} draws at intensity {rate:.5g} reaches 2^62")
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n, dtype=np.int64)
    try:
        jumps = draw_jumps(rng, total)
    except MemoryError:
        raise PrecisionError(f"{total} jumps for {n} draws at jump intensity {rate:.5g} per draw"
                             " do not fit in memory") from None
    # each nonempty draw's jumps run from its start to the next nonempty one's
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    sums = np.zeros(n, dtype=np.int64)
    sums[nonempty] = np.add.reduceat(jumps, starts)
    if max(int(jumps.max()), -int(jumps.min())) * int(counts.max()) >= _INT_LIMIT:
        # int64 sums wrap silently; a float64 sum tells whether any reaches 2^62
        approx = np.add.reduceat(jumps.astype(np.float64), starts)
        _check_range(np.abs(approx), "summed")
    return sums


def _stable_rates(lam: float, alpha: float, rng: RngState, n: int) -> np.ndarray:
    """n draws of lam^(1/alpha) S, S >= 0 with Laplace transform exp(-s^alpha).

    Kanter (1975) in log space, U uniform on (0, pi), E ~ Exp(1): log S =
    [alpha log sin(alpha U) + (1-alpha) log sin((1-alpha) U) - log sin U] / alpha
    - ((1-alpha)/alpha) log E. S = 1 at alpha = 1; lam = 0 gives zeros; overflow gives inf.
    """
    if lam == 0.0 or alpha == 1.0:
        return np.full(n, lam)
    u = math.pi * (1.0 - rng.generator.random(n))  # in (0, pi]: the float pi is below pi
    e = rng.generator.standard_exponential(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_s = (alpha * np.log(np.sin(alpha * u)) - np.log(np.sin(u))
                 + (1.0 - alpha) * (np.log(np.sin((1.0 - alpha) * u)) - np.log(e))) / alpha
        return np.exp(math.log(lam) / alpha + log_s)


def _poisson_counts(rates: np.ndarray, rng: RngState) -> np.ndarray:
    """Poisson draws at `rates`; a rate past numpy's range, inf, NaN or count >= 2^62 raises."""
    if rates.size and not rates.max() <= _POISSON_MAX:
        raise PrecisionError("Poisson mixing rate exceeds numpy's range, about 9.2e18")
    k = rng.generator.poisson(rates)
    _check_range(k, "Poisson")
    return k


def sample_family(p: families.FamilyParams, rng: RngState, size=None, threads: int = 1):
    """Draws from the family's law, by the family's `_draw`.

    Batches of 2^16 samples each run on independent child streams keyed by
    batch index, so the result depends only on (stream state, size) — not on
    `threads`, which merely sets how many batches run concurrently.
    """
    threads = _check_index(threads, "threads", 1)
    families._family(p)
    n = 1 if size is None else _check_index(size, "size")
    if n == 0:
        return np.empty(0)
    # one 63-bit draw advances rng; the batches run on splits of the stream it keys
    session = RngState(int(rng.generator.integers(0, 1 << 63)))
    batches = range(-(-n // _BATCH))

    def run(i):
        return p.a * p._draw(session.split(i), min(_BATCH, n - i * _BATCH))

    if threads == 1 or len(batches) == 1:
        parts = list(map(run, batches))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, batches))
    out = np.concatenate(parts)
    return float(out[0]) if size is None else out
