"""Exact samplers for the lattice families and their jump laws.

This module holds the generic samplers (Poisson and Sibuya through numpy's Generator,
tempered Sibuya and zeta by exact rejection), the guide-table search of signed jump
tables, the compound-Poisson sum, and the Poisson mixtures over a positive stable rate,
whose cost does not depend on Lambda; each family class in `families` draws from them,
so no family is named here. Draws are int64 lattice steps: a jump, count or draw of 2^62
or more, or a Poisson rate above numpy's range, raises PrecisionError rather than wrap.

Everything is driven by RngState, a splittable deterministic stream: the same
seed and call sequence produce the same draws on every platform, and batch
generation splits child streams by batch index so the output is independent
of how many threads consume the batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import families
from .errors import DomainError, PrecisionError
from .special import _check_index

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
# draws, and a draw's sum of jumps in lattice steps, must stay below 2^62
_INT_LIMIT = 1 << 62
# the largest rate numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


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
    if not (isinstance(rate, (int, float, np.floating, np.integer))
            and math.isfinite(rate)):
        raise DomainError(f"rate must be finite, got {rate!r}")
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate!r}")
    if rate > _POISSON_MAX:
        raise PrecisionError(f"Poisson rate {rate!r} exceeds the int64 range")
    n = 1 if size is None else _check_index(size, "size")
    out = rng.generator.poisson(float(rate), n)
    return int(out[0]) if size is None else out


def sample_sibuya(alpha: float, rng: RngState, size=None):
    """K >= 1 with P(K = k) = sibuya_pmf(alpha, k), as Geometric(W), W ~ Beta(alpha, 1 - alpha).

    The mixture identity is exact (Devroye 1993, "A triptych of discrete
    distributions related to the stable law"). W comes from numpy's
    `Generator.beta`; K = 1 + floor(log U / log1p(-W)) is formed in float64,
    so draws above 2^53 are rounded. A draw of 2^62 or more raises
    PrecisionError, as does W = 0, which underflows for small alpha (about
    half the draws at alpha = 0.001).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    n = 1 if size is None else _check_index(size, "size")
    gen = rng.generator
    w = gen.beta(alpha, 1.0 - alpha, n)
    u = 1.0 - gen.random(n)  # in (0, 1]
    # W = 0 or a subnormal W gives inf or NaN here, which _check_range rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = 1.0 + np.floor(np.log(u) / np.log1p(-w))
    _check_range(k, "sibuya")
    out = k.astype(np.int64)
    return int(out[0]) if size is None else out


def sample_tempered_sibuya(alpha: float, theta: float, rng: RngState, size=None):
    """K with pmf proportional to sibuya_pmf(alpha, k) e^{-theta k}.

    Exact rejection: propose Sibuya(alpha), accept with probability
    e^{-theta (K-1)}; the acceptance rate is e^{theta}(1 - (1 - e^{-theta})^alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    if not theta > 0.0:
        raise DomainError(f"theta must be > 0, got {theta!r}")
    n = 1 if size is None else _check_index(size, "size")
    gen = rng.generator
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        k = sample_sibuya(alpha, rng, pending.size)
        accept = gen.random(pending.size) <= np.exp(-theta * (k - 1.0))
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return int(out[0]) if size is None else out


def sample_zeta(s: float, rng: RngState, size=None, start: int = 1):
    """K >= start with P(K = k) = k^{-s} / zeta(s, start), by Devroye's (1986) Pareto rejection.

    K = floor(start U^{-1/(s-1)}) is kept with chance r(K) / r(start), r(k) = 1 / (-k expm1((1-s)
    log1p(1/k))) being k^{-s} over K's mass at k, in a form exact at s near 1. Draws above 2^53
    are rounded; one of 2^62 or more raises PrecisionError, with the law's own chance.
    """
    if not s > 1.0:
        raise DomainError(f"s must be > 1, got {s!r}")
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
    """(cdf, guide) for _from_table over the jumps -n..n, n = w.size - 1, entry j being the jump
    j - n: cdf their normalised cumulative masses left w[n..1], (left + right) w[0], right w[1..n],
    and guide[g] the first j with cdf[j] > g / G, G the least power of two >= 4 len(cdf)."""
    cdf = np.cumsum(np.r_[left * w[:0:-1], (left + right) * w[0], right * w[1:]])
    cdf /= cdf[-1]
    cells = 1 << (4 * cdf.size - 1).bit_length()
    return cdf, np.searchsorted(cdf, np.arange(cells) / cells, side="right")


def _from_table(table, gen: np.random.Generator, count: int) -> np.ndarray:
    """Indices j with P(j <= i) = cdf[i], (cdf, guide) = table: for each uniform u exactly
    np.searchsorted(cdf, u, side="right"), by indexed search (Chen and Asau 1974): guide[floor(u G)]
    (exact, as G is a power of two), unless cdf there is <= u, which sends about 1% of the draws
    on to searchsorted. Blocks of _BATCH draws keep the arrays small."""
    cdf, guide = table
    out = np.empty(count, dtype=np.int64)
    for lo in range(0, count, _BATCH):
        u = gen.random(min(count - lo, _BATCH))
        j = out[lo:lo + u.size]
        np.take(guide, (u * guide.size).astype(np.intp), out=j)
        slow = np.flatnonzero(cdf[j] <= u)
        j[slow] = np.searchsorted(cdf, u[slow], side="right")
    return out


def _compound_poisson(rate: float, draw_jumps, rng: RngState, n: int) -> np.ndarray:
    """n sums, each of a Poisson(rate) number of int64 jumps from `draw_jumps(rng, count)`.

    Jumps come in integer lattice units (multiples of a): summing in int64 and
    scaling by a once keeps every sample bit-exact on the PMF's lattice —
    accumulating float multiples of a fractional pitch would drift off it.
    """
    counts = sample_poisson(rate, rng, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n, dtype=np.int64)
    jumps = draw_jumps(rng, total)
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
