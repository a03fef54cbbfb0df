"""Exact samplers for the lattice families and their jump laws.

This module holds the generic samplers (Poisson, Sibuya, tempered Sibuya,
zeta), thin calls into numpy's Generator, and the compound-Poisson sum; each
family class in `families` draws its own jumps from them, so no family is
named here. Draws are int64 lattice steps: a jump or a draw of 2^62 or more,
or a Poisson rate above numpy's range, raises PrecisionError rather than wrap.

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
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH = 1 << 16
# draws, and a draw's sum of jumps in lattice steps, must stay below 2^62
_INT_LIMIT = 1 << 62
# the largest rate numpy's Generator.poisson accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngState:
    """Deterministic random stream with cheap independent splits.

    Wraps a counter-based generator keyed by a 64-bit seed; `split(i)` derives
    the i-th child stream as a pure function of (state key, i), so a batch
    partition maps to the same streams no matter which thread runs which batch.
    """

    __slots__ = ("_base", "_gen")

    def __init__(self, seed: int):
        seed = _check_index(seed, "seed")
        if not 0 <= seed <= _MASK64:
            raise DomainError("seed must fit in 64 bits")
        self._key(_splitmix64(seed))

    def _key(self, base: int) -> None:
        self._base = base
        self._gen = np.random.Generator(np.random.Philox(key=base | (_splitmix64(base) << 64)))

    @classmethod
    def _from_base(cls, base: int) -> "RngState":
        out = cls.__new__(cls)
        out._key(base)
        return out

    def split(self, child_index: int) -> "RngState":
        """Independent child stream number `child_index`; does not advance self."""
        child_index = _check_index(child_index, "child_index")
        if child_index < 0:
            raise DomainError("child_index must be >= 0")
        mixed = (self._base ^ ((child_index + 1) * _GOLDEN)) & _MASK64
        return RngState._from_base(_splitmix64(mixed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _as_count(size) -> int:
    size = _check_index(size, "size")
    if size < 0:
        raise DomainError("size must be >= 0")
    return size


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
    n = 1 if size is None else _as_count(size)
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
    n = 1 if size is None else _as_count(size)
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
    n = 1 if size is None else _as_count(size)
    gen = rng.generator
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        k = sample_sibuya(alpha, rng, pending.size)
        accept = gen.random(pending.size) <= np.exp(-theta * (k - 1.0))
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return int(out[0]) if size is None else out


def sample_zeta(s: float, rng: RngState, size=None):
    """K >= 1 with P(K = k) = k^{-s} / zeta(s), by numpy's `Generator.zipf`.

    numpy proposes only values up to about 2^63, so the draws follow the law
    conditioned on K below that. Callers that need the whole law treat a draw of
    2^62 or more as a PrecisionError (PolylogDS does); a capped sampler
    rejects such draws anyway.
    """
    if not s > 1.0:
        raise DomainError(f"s must be > 1, got {s!r}")
    n = 1 if size is None else _as_count(size)
    out = rng.generator.zipf(s, n)
    return int(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# family sampler
# ---------------------------------------------------------------------------

def _zeta_capped(s: float, m: int, rng: RngState, count: int) -> np.ndarray:
    """zeta(s) law conditioned on K <= m, by resampling the overshoots."""
    out = np.empty(count, dtype=np.int64)
    pending = np.arange(count)
    while pending.size:
        k = sample_zeta(s, rng, pending.size)
        good = k <= m
        out[pending[good]] = k[good]
        pending = pending[~good]
    return out


def _signs(frac_positive: float, gen: np.random.Generator, count: int) -> np.ndarray:
    return np.where(gen.random(count) < frac_positive, 1, -1).astype(np.int64)


def _rademacher_sum(k: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Sum of K fair +-1 steps, drawn as one binomial: 2 Binom(K, 1/2) - K."""
    return 2 * gen.binomial(k, 0.5).astype(np.int64) - k.astype(np.int64)


def _sample_jumps(p: families.FamilyParams, rng: RngState, count: int) -> np.ndarray:
    """`count` independent jumps of the compound-Poisson representation.

    Returned in integer lattice units (multiples of a): summing in int64 and
    scaling by a once keeps every sample bit-exact on the PMF's lattice —
    accumulating float multiples of a fractional pitch would drift off it.
    """
    return families._family(p)._jumps(rng, count)


def _sample_batch(p: families.FamilyParams, rng: RngState, n: int) -> np.ndarray:
    lam = families._family(p)._total_intensity()
    counts = sample_poisson(lam, rng, n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n)
    jumps = _sample_jumps(p, rng, total)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # integer lattice sums are exact; scale by the pitch once at the end
    padded = np.append(jumps, np.int64(0))
    empty = counts == 0
    sums = np.add.reduceat(padded, offsets)
    sums[empty] = 0
    if max(int(jumps.max()), -int(jumps.min())) * int(counts.max()) >= _INT_LIMIT:
        # int64 sums wrap silently; a float64 sum tells whether any reaches 2^62
        approx = np.add.reduceat(padded.astype(np.float64), offsets)
        approx[empty] = 0.0
        _check_range(np.abs(approx), "summed")
    return p.a * sums


def sample_family(p: families.FamilyParams, rng: RngState, size=None, threads: int = 1):
    """Draws from the family's law: a Poisson number of jumps, summed.

    Batches of 2^16 samples each run on independent child streams keyed by
    batch index, so the result depends only on (stream state, size) — not on
    `threads`, which merely sets how many batches run concurrently.
    """
    threads = _check_index(threads, "threads")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads!r}")
    families._family(p)
    n = 1 if size is None else _as_count(size)
    if n == 0:
        return np.empty(0)
    # one 63-bit draw advances rng; the batches run on splits of the stream it keys
    session = RngState._from_base(int(rng.generator.integers(0, 1 << 63, dtype=np.int64)))
    spans = [(i, lo, min(lo + _BATCH, n)) for i, lo in enumerate(range(0, n, _BATCH))]

    def run(span):
        i, lo, hi = span
        return _sample_batch(p, session.split(i), hi - lo)

    if threads == 1 or len(spans) == 1:
        parts = [run(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, spans))
    out = np.concatenate(parts)
    return float(out[0]) if size is None else out
