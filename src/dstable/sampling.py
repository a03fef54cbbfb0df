"""Exact samplers for the lattice families and their jump laws.

This module holds the generic samplers (Poisson, Sibuya, tempered Sibuya,
zeta) and the compound-Poisson sum; each family class in `families` draws
its own jumps from them, so no family is named here.

Everything is driven by RngState, a splittable deterministic stream: the same
seed and call sequence produce the same draws on every platform, and batch
generation splits child streams by batch index so the output is independent
of how many threads consume the batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import gammaln

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
_POISSON_SWITCH = 30.0


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
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise DomainError("seed must fit in 64 bits")
        self._base = _splitmix64(seed)
        key = self._base | (_splitmix64(self._base) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @classmethod
    def _from_base(cls, base: int) -> "RngState":
        out = cls.__new__(cls)
        out._base = base
        key = base | (_splitmix64(base) << 64)
        out._gen = np.random.Generator(np.random.Philox(key=key))
        return out

    def split(self, child_index: int) -> "RngState":
        """Independent child stream number `child_index`; does not advance self."""
        if isinstance(child_index, bool) or not isinstance(child_index, (int, np.integer)):
            raise DomainError(f"child_index must be an integer, got {child_index!r}")
        if child_index < 0:
            raise DomainError("child_index must be >= 0")
        mixed = (self._base ^ ((int(child_index) + 1) * _GOLDEN)) & _MASK64
        return RngState._from_base(_splitmix64(mixed))

    def _take_word(self) -> int:
        """One 63-bit draw; advances this stream."""
        return int(self._gen.integers(0, 1 << 63, dtype=np.int64))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _as_count(size) -> int:
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise DomainError(f"size must be an integer, got {size!r}")
    if size < 0:
        raise DomainError("size must be >= 0")
    return int(size)


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------

def _poisson_small(rate: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """CDF-inversion Poisson for rate < 30: table to negligible tail, then search."""
    if rate == 0.0:
        return np.zeros(n, dtype=np.int64)
    k_top = int(rate + 20.0 * math.sqrt(rate) + 30.0)
    pmf = np.empty(k_top + 1)
    pmf[0] = math.exp(-rate)
    for k in range(1, k_top + 1):
        pmf[k] = pmf[k - 1] * (rate / k)
    cdf = np.cumsum(pmf)
    u = gen.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _poisson_ptrs(rate: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """Transformed-rejection Poisson for large rates (squeeze + exact log test)."""
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_rate = math.log(rate)
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        u = gen.random(m) - 0.5
        v = gen.random(m)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
        quick = (us >= 0.07) & (v <= v_r)
        bad = (k < 0.0) | ((us < 0.013) & (v > us))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_accept = (np.log(v * inv_alpha / (a / (us * us) + b))
                          <= k * log_rate - rate - gammaln(k + 1.0))
        accept = quick | (~bad & log_accept)
        out[pending[accept]] = k[accept].astype(np.int64)
        pending = pending[~accept]
    return out


def sample_poisson(rate: float, rng: RngState, size=None):
    """Poisson(rate) draws: CDF inversion below rate 30, transformed rejection above."""
    if not (isinstance(rate, (int, float, np.floating, np.integer))
            and math.isfinite(rate)):
        raise DomainError(f"rate must be finite, got {rate!r}")
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate!r}")
    rate = float(rate)
    n = 1 if size is None else _as_count(size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if rate < _POISSON_SWITCH:
        out = _poisson_small(rate, rng.generator, n)
    else:
        out = _poisson_ptrs(rate, rng.generator, n)
    return int(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Sibuya and tempered Sibuya
# ---------------------------------------------------------------------------

def _sibuya_survival_vec(alpha: float, k: np.ndarray) -> np.ndarray:
    """P(K > k) = Gamma(k+1-alpha) / (Gamma(1-alpha) Gamma(k+1)), k float array."""
    return np.exp(gammaln(k + 1.0 - alpha) - gammaln(1.0 - alpha) - gammaln(k + 1.0))


def sample_sibuya(alpha: float, rng: RngState, size=None):
    """K >= 1 with P(K = k) = sibuya_pmf(alpha, k), by survival inversion.

    Doubles k until the survival drops below the uniform draw, then binary
    searches: O(log K) closed-form survival evaluations per draw.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    n = 1 if size is None else _as_count(size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    u = 1.0 - rng.generator.random(n)  # in (0, 1]
    lo = np.zeros(n)                   # survival(0) = 1 >= u always
    hi = np.ones(n)
    need = _sibuya_survival_vec(alpha, hi) >= u
    while need.any():
        lo[need] = hi[need]
        hi[need] *= 2.0
        if hi.max() > 2.0**1000:
            raise PrecisionError("sibuya search exceeded 2^1000 (astronomical draw)")
        need[need] = _sibuya_survival_vec(alpha, hi[need]) >= u[need]
    # invariant: survival(lo) >= u > survival(hi), answer in (lo, hi]
    wide = hi - lo > 1.0
    while wide.any():
        mid = np.floor((lo[wide] + hi[wide]) / 2.0)
        up = _sibuya_survival_vec(alpha, mid) >= u[wide]
        lo_w, hi_w = lo[wide], hi[wide]
        lo_w[up] = mid[up]
        hi_w[~up] = mid[~up]
        lo[wide], hi[wide] = lo_w, hi_w
        wide = hi - lo > 1.0
    if hi.max() >= 2.0**62:
        raise PrecisionError("sibuya draw exceeds the integer range")
    out = hi.astype(np.int64)
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
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gen = rng.generator
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        k = sample_sibuya(alpha, rng, pending.size)
        accept = gen.random(pending.size) <= np.exp(-theta * (k - 1.0))
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return int(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# zeta (Zipf) law
# ---------------------------------------------------------------------------

def sample_zeta(s: float, rng: RngState, size=None):
    """K >= 1 with P(K = k) = k^{-s} / zeta(s), via two-uniform rejection.

    Pareto-type envelope: X = floor(U^{-1/(s-1)}), accepted against the ratio
    test with T = (1 + 1/X)^{s-1}; expected trials are bounded for every s > 1.
    """
    if not s > 1.0:
        raise DomainError(f"s must be > 1, got {s!r}")
    n = 1 if size is None else _as_count(size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gen = rng.generator
    b = 2.0 ** (s - 1.0)
    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        u = 1.0 - gen.random(m)
        v = gen.random(m)
        x = np.floor(u ** (-1.0 / (s - 1.0)))
        t = (1.0 + 1.0 / x) ** (s - 1.0)
        accept = v * x * (t - 1.0) / (b - 1.0) <= t / b
        accept &= x < 2.0**62
        out[pending[accept]] = x[accept].astype(np.int64)
        pending = pending[~accept]
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
    sums = np.add.reduceat(np.append(jumps, np.int64(0)), offsets)
    sums[counts == 0] = 0
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
    n = 1 if size is None else _as_count(size)
    if n == 0:
        return np.empty(0)
    session = rng._take_word()
    spans = [(i, lo, min(lo + _BATCH, n)) for i, lo in enumerate(range(0, n, _BATCH))]

    def run(span):
        i, lo, hi = span
        child = RngState._from_base(_splitmix64((session ^ ((i + 1) * _GOLDEN)) & _MASK64))
        return _sample_batch(p, child, hi - lo)

    if threads == 1 or len(spans) == 1:
        parts = [run(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, spans))
    out = np.concatenate(parts)
    return float(out[0]) if size is None else out
