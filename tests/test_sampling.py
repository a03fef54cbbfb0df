"""Sampler verification: closed-form frequencies, stream discipline, and
agreement between the samplers and the Fourier-inversion PMFs."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import ive, zeta
from hypothesis import strategies as st

from dstable.analysis import binned_tv
from dstable import sampling
from dstable.errors import DomainError, PrecisionError
from dstable.families import (
    DiscreteStable,
    PolylogDS,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    char_fn,
    compound_poisson_view,
    derived_intensities,
)
from dstable.inversion import pmf_from_cf
from dstable.sampling import (
    RngState,
    sample_family,
    sample_poisson,
    sample_sibuya,
    sample_tempered_sibuya,
    sample_zeta,
)
from dstable.special import _sibuya_weights, riemann_zeta, sibuya_pmf, sibuya_survival

# survival(1/2, 10) = C(20,10)/4^10, exactly representable
SIBUYA_HALF_SURV_10 = 184756 / 1048576
# tempered Sibuya at alpha=1/2, theta=ln 2: P(K=1) = (2+sqrt 2)/4
TEMPERED_P1_LN2 = (2.0 + math.sqrt(2.0)) / 4.0
# acceptance rate of the tempering rejection at the same parameters: 2-sqrt 2
TEMPERED_ACCEPT_LN2 = 2.0 - math.sqrt(2.0)
ZETA2_INV = 0.60792710185402662866
# log(r(k) / r(inf)) = lgamma(k - alpha) - lgamma(k + 1) + (1 + alpha) log k, the log of the
# Sibuya tail's acceptance scale, from mpmath at 100 digits
SIBUYA_LOG_R_K = (4097, 10**6, 2**40, 10**15, 2**62)
SIBUYA_LOG_R = {
    0.05: (6.407413876899766e-06, 2.6250004812500233e-08, 2.3874235921543348e-14,
           2.6250000000000007e-17, 5.692061405548899e-21),
    0.5: (9.153783571447257e-05, 3.750001250000469e-07, 3.410605131649515e-13,
          3.7500000000000013e-16, 8.131516293641283e-20),
    0.95: (0.00022610673396843505, 9.262504476877859e-07, 8.424194675175451e-13,
           9.262500000000004e-16, 2.0084845245293968e-19),
}

# (family, inversion size) pairs used for sampler-vs-pmf agreement;
# windows chosen so out-of-window mass is far below the TV resolution
AGREEMENT_CASES = [
    (SymmetricDS(0.6, 1.0, 1.0), 1 << 18),
    (TruncatedSDS(0.4, 1.0, 1.0, 8), 1 << 14),
    (DiscreteStable(0.6, 0.4, 1.0, 0.1), 1 << 20),
    (TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), 1 << 14),
    (PolylogDS(0.8, 1.0, 2.0, 0.2), 1 << 20),
    (TruncatedPolylogDS(0.8, 1.0, 2.0, 0.2, 64), 1 << 14),
]
_IDS = [type(p).__name__ for p, _ in AGREEMENT_CASES]


@pytest.fixture(scope="module", params=AGREEMENT_CASES, ids=_IDS)
def family_draws(request):
    p, n_inv = request.param
    pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, n_inv)
    draws = sample_family(p, RngState(11), size=200_000, threads=2)
    return p, pmf, draws


# ---------------------------------------------------------------------------
# stream discipline
# ---------------------------------------------------------------------------

class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(123).generator.random(32)
        b = RngState(123).generator.random(32)
        assert np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_seed_determinism_property(self, seed):
        assert np.array_equal(RngState(seed).generator.random(4),
                              RngState(seed).generator.random(4))

    def test_split_is_pure(self):
        rng = RngState(9)
        before = RngState(9).generator.random(8)
        rng.split(0), rng.split(7), rng.split(123456)
        assert np.array_equal(rng.generator.random(8), before)

    def test_split_deterministic_and_distinct(self):
        rng = RngState(5)
        c1 = rng.split(3).generator.random(16)
        c2 = rng.split(3).generator.random(16)
        c3 = rng.split(4).generator.random(16)
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, c3)

    def test_child_parent_uncorrelated(self):
        rng = RngState(2024)
        child = rng.split(1)
        n = 100_000
        u = rng.generator.random(n)
        v = child.generator.random(n)
        r = np.corrcoef(u, v)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, "0", None, True])
    def test_bad_seed(self, seed):
        with pytest.raises(DomainError):
            RngState(seed)

    @pytest.mark.parametrize("idx", [-1, 0.5, True])
    def test_bad_split_index(self, idx):
        with pytest.raises(DomainError):
            RngState(0).split(idx)


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------

class TestPoisson:
    def test_zero_rate(self):
        assert sample_poisson(0.0, RngState(0)) == 0
        assert np.all(sample_poisson(0.0, RngState(0), size=100) == 0)

    def test_scalar_is_int(self):
        k = sample_poisson(3.0, RngState(1))
        assert isinstance(k, int)

    def test_empty(self):
        out = sample_poisson(2.0, RngState(0), size=0)
        assert out.shape == (0,) and out.dtype == np.int64

    def test_moments_small_rate(self):
        x = sample_poisson(4.0, RngState(21), size=1_000_000)
        assert abs(x.mean() - 4.0) < 0.01
        assert abs(x.var() - 4.0) < 0.05

    def test_moments_large_rate(self):
        x = sample_poisson(100.0, RngState(22), size=1_000_000)
        assert abs(x.mean() - 100.0) < 0.1
        assert abs(x.var() - 100.0) < 1.0

    def test_cdf_matches_reference_across_the_switch(self):
        from scipy.stats import poisson as poisson_ref
        # 9.5 and 10.5 straddle numpy's switch from inversion to PTRS at rate 10
        for rate, seed in ((9.5, 33), (10.5, 34), (29.5, 31), (31.0, 32)):
            x = sample_poisson(rate, RngState(seed), size=1_000_000)
            ks = np.arange(x.max() + 1)
            ecdf = np.searchsorted(np.sort(x), ks, side="right") / x.size
            assert np.max(np.abs(ecdf - poisson_ref.cdf(ks, rate))) < 0.002

    def test_rate_beyond_numpy_range(self):
        # numpy's largest rate still draws; above it the count would not fit in int64
        assert sample_poisson(sampling._POISSON_MAX, RngState(0)) > 2**62
        for rate in (np.nextafter(sampling._POISSON_MAX, math.inf), 1e19, 1e300):
            with pytest.raises(PrecisionError, match="int64"):
                sample_poisson(rate, RngState(0), size=4)

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf, "2"])
    def test_bad_rate(self, rate):
        with pytest.raises(DomainError):
            sample_poisson(rate, RngState(0))


# ---------------------------------------------------------------------------
# Sibuya
# ---------------------------------------------------------------------------

class TestSibuya:
    # alpha >= 0.5: below it the law puts so much mass at 2^62 or more
    # (1.3% at alpha = 0.1) that 10^6 draws always raise PrecisionError
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.95])
    def test_atom_frequencies(self, alpha):
        k = sample_sibuya(alpha, RngState(41), size=1_000_000)
        assert k.min() >= 1
        for j in range(1, 11):
            want = sibuya_pmf(alpha, j)
            sd = math.sqrt(want * (1.0 - want) / k.size)
            assert abs(np.mean(k == j) - want) < 4.0 * sd, f"k={j}"
        # P(K > 1000) = Gamma(1001 - alpha) / (Gamma(1 - alpha) 1000!)
        want = math.exp(math.lgamma(1001.0 - alpha) - math.lgamma(1.0 - alpha)
                        - math.lgamma(1001.0))
        sd = math.sqrt(want * (1.0 - want) / k.size)
        assert abs(np.mean(k > 1000) - want) < 4.0 * sd

    def test_survival_frequency_frozen(self):
        k = sample_sibuya(0.5, RngState(42), size=1_000_000)
        assert abs(np.mean(k > 10) - SIBUYA_HALF_SURV_10) < 0.003

    def test_extreme_alpha(self):
        k = sample_sibuya(0.999, RngState(43), size=200_000)
        assert k.min() >= 1
        assert np.mean(k == 1) > 0.99

    def test_scalar_is_int(self):
        assert isinstance(sample_sibuya(0.3, RngState(2)), int)

    def test_tiny_alpha_raises_without_warning(self):
        # at alpha = 0.001, 99% of the draws pass the table to the zeta tail, and 96% of
        # the mass lies at 2^62 or beyond, where the zeta proposals raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="2\\^62"):
                sample_sibuya(0.001, RngState(44), size=1000)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.4, math.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            sample_sibuya(alpha, RngState(0))

    # the table holds k <= 4096; the draws beyond come from the zeta tail
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.95])
    def test_tail_frequencies(self, alpha):
        k = sample_sibuya(alpha, RngState(45), size=2_000_000)
        for m in (4096, 40_000):
            want = sibuya_survival(alpha, m)
            sd = math.sqrt(want * (1.0 - want) / k.size)
            assert abs(np.mean(k > m) - want) < 4.0 * sd, f"m={m}"

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_tail_acceptance_scale_falls(self, alpha):
        # r(k) = sibuya_pmf(alpha, k) k^{1+alpha} is non-increasing, so the tail's
        # acceptance r(k) / r(4097) is at most 1: over the table's range from its masses,
        # beyond it from _sibuya_log_r at every k to 2^20 and at powers of 2 to 2^62
        k = np.arange(1.0, 4098.0)
        assert np.all(np.diff(_sibuya_weights(alpha, 4097) * k ** (1.0 + alpha)) < 0.0)
        for k in (np.arange(4097.0, 2.0**20 + 1.0), 2.0 ** np.arange(13, 63)):
            log_r = sampling._sibuya_log_r(alpha, k)
            assert np.all(np.diff(log_r) < 0.0) and np.all(log_r > 0.0)

    @pytest.mark.parametrize("alpha", list(SIBUYA_LOG_R))
    def test_tail_log_ratio_mpmath(self, alpha):
        got = sampling._sibuya_log_r(alpha, np.array(SIBUYA_LOG_R_K, dtype=float))
        np.testing.assert_allclose(got, SIBUYA_LOG_R[alpha], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_table_masses_sum_to_one(self, alpha):
        head = math.fsum(_sibuya_weights(alpha, 4096))
        assert abs(head + sibuya_survival(alpha, 4096) - 1.0) < 1e-12


class TestTemperedSibuya:
    def test_first_atom_frequency_frozen(self):
        k = sample_tempered_sibuya(0.5, math.log(2.0), RngState(51), size=1_000_000)
        assert k.min() >= 1
        assert abs(np.mean(k == 1) - TEMPERED_P1_LN2) < 0.004

    def test_acceptance_identity(self):
        # E[exp(-theta (K-1))] over Sibuya proposals equals the closed-form
        # acceptance rate e^theta (1 - (1 - e^-theta)^alpha)
        k = sample_sibuya(0.5, RngState(52), size=1_000_000)
        w = np.exp(-math.log(2.0) * (k - 1.0))
        sd = w.std() / math.sqrt(w.size)
        assert abs(w.mean() - TEMPERED_ACCEPT_LN2) < 3.0 * sd + 1e-12

    def test_partial_sum_identity(self):
        theta, alpha = 0.5, 0.7
        total = math.fsum(sibuya_pmf(alpha, k) * math.exp(-theta * (k - 1.0))
                          for k in range(1, 4001))
        closed = math.exp(theta) * (1.0 - (1.0 - math.exp(-theta)) ** alpha)
        assert abs(total - closed) < 1e-12

    def test_strong_tempering_pins_to_one(self):
        k = sample_tempered_sibuya(0.5, 50.0, RngState(53), size=2000)
        assert np.all(k == 1)

    def test_huge_finite_theta_pins_to_one_without_warning(self):
        # theta (K - 1) overflows to inf for K > 1, which rejects K
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = sample_tempered_sibuya(0.5, 1e308, RngState(54), size=2000)
        assert np.all(k == 1)

    # at theta = inf, -theta (K - 1) is NaN at K = 1 and nothing would ever be accepted
    @pytest.mark.parametrize("theta", [0.0, -0.5, math.nan, math.inf])
    def test_bad_theta(self, theta):
        with pytest.raises(DomainError):
            sample_tempered_sibuya(0.5, theta, RngState(0))


class TestZeta:
    def test_first_atom_zeta2(self):
        k = sample_zeta(2.0, RngState(61), size=1_000_000)
        assert k.min() >= 1
        assert abs(np.mean(k == 1) - ZETA2_INV) < 0.004

    def test_first_atom_zeta5(self):
        k = sample_zeta(5.0, RngState(62), size=1_000_000)
        assert abs(np.mean(k == 1) - 1.0 / riemann_zeta(5.0)) < 0.004

    def test_loglog_slope(self):
        k = sample_zeta(2.5, RngState(63), size=2_000_000)
        kk = np.arange(10, 101)
        counts = np.bincount(k[k <= 100], minlength=101)[10:101]
        keep = counts >= 30
        slope = np.polyfit(np.log(kk[keep]), np.log(counts[keep]), 1)[0]
        assert abs(slope - (-2.5)) < 0.1

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0, math.nan])
    def test_bad_s(self, s):
        with pytest.raises(DomainError):
            sample_zeta(s, RngState(0))

    @staticmethod
    def _blocks(s, block, calls, seed, start=1):
        """The draws of the `calls` blocks of `block` draws that did not raise, and
        the share of blocks that raised."""
        rng, kept = RngState(seed), []
        for _ in range(calls):
            try:
                kept.append(sample_zeta(s, rng, block, start=start))
            except PrecisionError:
                pass
        return np.concatenate(kept), 1.0 - len(kept) / calls

    @pytest.mark.parametrize("s, block, calls", [(1.05, 4, 8000), (1.3, 4096, 256),
                                                 (1.8, 4096, 256)])
    def test_far_tail_follows_law_cut_at_2_62(self, s, block, calls):
        # a block raises when a draw reaches 2^62, which has chance q = zeta(s, 2^62) / zeta(s)
        # each, so the blocks kept follow the law cut at 2^62: [lo, hi) has chance
        # (zeta(s, lo) - zeta(s, hi)) / zeta(s) / (1 - q)
        k, _ = self._blocks(s, block, calls, 71)
        q = zeta(s, 2.0**62) / zeta(s)
        edges = np.array([1, 2, 10, 10**3, 10**6, 10**12, 2**50, 2**62], dtype=float)
        assert k.min() >= 1 and k.max() < 2**62
        got = np.bincount(np.searchsorted(edges, k, side="right") - 1, minlength=7) / k.size
        want = -np.diff(zeta(s, edges)) / zeta(s) / (1.0 - q)
        assert np.all(np.abs(got - want) <= 4.0 * np.sqrt(want * (1.0 - want) / k.size))

    def test_raise_frequency_matches_law(self):
        # a block of 4 raises with chance 1 - (1 - q)^4 = 0.382 at s = 1.05; a sampler
        # cut near 2^63 that passes draws of 2^62 and more never raises
        _, raised = self._blocks(1.05, 4, 4000, 72)
        want = 1.0 - (1.0 - zeta(1.05, 2.0**62) / zeta(1.05)) ** 4
        assert abs(raised - want) < 4.0 * math.sqrt(want * (1.0 - want) / 4000)

    @pytest.mark.parametrize("s, start", [(1.05, 4097), (1.3, 2), (1.3, 4097), (1.8, 4097),
                                          (3.0, 10)])
    def test_start_follows_hurwitz_law(self, s, start):
        # from `start` on, [lo, hi) has chance (zeta(s, lo) - zeta(s, hi)) / zeta(s, start),
        # cut at 2^62 as above; at s = 1.05 a draw from 4097 reaches 2^62 with chance 0.18,
        # so blocks of 4 keep about half the calls
        block, calls = (4, 8000) if s < 1.1 else (4096, 64)
        k, raised = self._blocks(s, block, calls, 73, start)
        q = zeta(s, 2.0**62) / zeta(s, start)
        assert k.min() >= start and k.max() < 2**62
        want = 1.0 - (1.0 - q) ** block
        assert abs(raised - want) <= 4.0 * math.sqrt(want * (1.0 - want) / calls)
        edges = start * np.array([1, 2, 10, 10**3, 10**6, 10**9, 2**62 / start], dtype=float)
        got = np.bincount(np.searchsorted(edges, k, side="right") - 1, minlength=6) / k.size
        want = -np.diff(zeta(s, edges)) / zeta(s, start) / (1.0 - q)
        assert np.all(np.abs(got - want) <= 4.0 * np.sqrt(want * (1.0 - want) / k.size))

    # sha256 of 200k draws from start 1, as the sampler drew them before it took `start`
    @pytest.mark.parametrize("s, seed, digest", [
        (1.3, 81, "6f6bca9a94488e5a758b9915c58a2f45967c6c4efe76c98bc8503ee674bd0d8d"),
        (1.8, 82, "8a17cf097c40993f39ddb9fa0a823ae8abfe3da3a0a4b204084cb854b7da3fa3"),
        (3.0, 83, "d889686ae7ff2ab1664f63fe3171d502ce6532dfac2c2aa9b2ad357d641cf256"),
    ])
    def test_start_one_stream_frozen(self, s, seed, digest):
        k = sample_zeta(s, RngState(seed), 200_000, start=1)
        assert hashlib.sha256(np.ascontiguousarray(k, dtype="<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("start", [0, -3, 2.0, True])
    def test_bad_start(self, start):
        with pytest.raises(DomainError, match="start"):
            sample_zeta(2.0, RngState(0), 10, start=start)


class _Uniforms:
    """Stands in for a Generator: random(n) hands out the next n of the given uniforms."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=float), 0

    def random(self, n):
        self.at += n
        return self.u[self.at - n:self.at]


class TestTableSearch:
    # sampling._from_table must find exactly the index np.searchsorted finds, through the
    # guide table or past it; u = 1 - 2^-53 is the largest uniform numpy draws
    TOP = 1.0 - 2.0**-53

    @staticmethod
    def _same_as_searchsorted(table, u):
        cdf, guide = table
        u = np.asarray(u, dtype=float)
        got = sampling._from_table(table, _Uniforms(u), u.size)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
        # the guide: G a power of two >= 4 len(cdf), guide[g] the first j with cdf[j] > g / G
        cells = guide.size
        assert cells & (cells - 1) == 0 and cells >= 4 * cdf.size
        assert np.array_equal(guide, np.searchsorted(cdf, np.arange(cells) / cells, side="right"))
        return got

    @classmethod
    def _edge_uniforms(cls, table, rng):
        """Uniforms on and next to every cdf value and cell edge, plus random ones."""
        cdf, guide = table
        marks = np.r_[cdf, np.arange(guide.size) / guide.size]
        marks = marks[marks < 1.0]
        u = np.r_[0.0, cls.TOP, marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
                  rng.generator.random(10_000)]
        return u[(u >= 0.0) & (u < 1.0)]

    def test_one_entry_table(self):
        table = sampling._search_table(0.3, 0.7, np.array([2.0]))
        got = self._same_as_searchsorted(table, [0.0, 0.5, self.TOP])
        assert np.all(got == 0)

    def test_zero_masses_are_never_drawn(self):
        w = np.array([0.0, 0.0, 1.0, 0.0, 1e-300, 0.0, 3.0, 0.0])
        table = sampling._search_table(1.0, 0.0, w)
        got = self._same_as_searchsorted(table, self._edge_uniforms(table, RngState(1)))
        masses = np.diff(np.r_[0.0, table[0]])
        assert np.all(masses[got] > 0.0)

    def test_truncated_sds_table_with_tiny_tails(self):
        # m = 4096: thousands of masses far below 1 / G share the last cells
        p = TruncatedSDS(0.4, 1.0, 1.0, 4096)
        table = p._jump_search
        assert np.diff(table[0]).min() < 1e-12
        self._same_as_searchsorted(table, self._edge_uniforms(table, RngState(2)))

    def test_blocks_and_generator_stream(self):
        # more than one block of uniforms: the same indices as one searchsorted over one call
        table = PolylogDS(0.8, 1.0, 0.5, 0.1)._jump_search
        n = (1 << 16) * 2 + 7
        got = sampling._from_table(table, RngState(3).generator, n)
        want = np.searchsorted(table[0], RngState(3).generator.random(n), side="right")
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(w=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1, max_size=40),
           right=st.floats(0.0, 10.0), left=st.floats(0.0, 10.0), seed=st.integers(0, 2**32))
    def test_random_tables(self, w, right, left, seed):
        w = np.array(w)
        masses = np.r_[left * w[:0:-1], (left + right) * w[0], right * w[1:]]
        if not masses.sum() > 0.0:
            return
        table = sampling._search_table(right, left, w)
        self._same_as_searchsorted(table, self._edge_uniforms(table, RngState(seed)))


# ---------------------------------------------------------------------------
# jump laws
# ---------------------------------------------------------------------------

class TestJumps:
    # SymmetricDS and DiscreteStable draw from Poisson mixtures and have no
    # jumps; their cases here test the draws
    def test_symmetric_walk_sign_balance(self):
        x = sample_family(SymmetricDS(0.6, 1.0, 1.0), RngState(71), 200_000)
        nz = x[x != 0]
        n_pos = int((nz > 0).sum())
        assert abs(n_pos - nz.size / 2) < 3.0 * math.sqrt(nz.size) / 2.0

    def test_truncated_bounds_exact(self):
        p = TruncatedSDS(0.45, 1.0, 0.5, 6)
        j = p._jumps(RngState(72), 100_000)
        assert np.issubdtype(j.dtype, np.integer)
        assert np.all(np.abs(j) <= p.m)

    def test_skewed_sign_frequency(self):
        # P(X > 0) and P(X < 0) of the skewed law against its inverted PMF
        p = DiscreteStable(0.6, 0.4, 1.0, 1.0)
        pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, 1 << 16)
        ks = pmf.k_min + np.arange(pmf.masses.size)
        x = sample_family(p, RngState(73), 500_000)
        for emp, want in ((np.mean(x > 0), pmf.masses[ks > 0].sum()),
                          (np.mean(x < 0), pmf.masses[ks < 0].sum())):
            assert abs(emp - want) < 3.0 * math.sqrt(want * (1 - want) / x.size)

    def test_sign_magnitude_jumps_never_zero(self):
        # a TemperedDS jump is a sample_tempered_sibuya draw, k >= 1 (TestTemperedSibuya)
        for p in (PolylogDS(0.9, 2.0, 1.0, 1.0),
                  TruncatedPolylogDS(0.9, 2.0, 1.0, 1.0, 32)):
            j = p._jumps(RngState(74), 50_000)
            assert np.all(j != 0)

    def test_tempered_sign_frequency(self, monkeypatch):
        # each side draws its jump count at the rate l_i (1 - (1 - e^{-theta_i})^alpha),
        # right then left in each batch, and P(X > 0), P(X < 0) follow the PMF
        p = TemperedDS(0.6, 0.2, 1.0, 1.0, 0.2, 1.5)
        l1, l2 = derived_intensities(p)
        want = [l1 * (1.0 - (1.0 - math.exp(-0.2)) ** 0.6),
                l2 * (1.0 - (1.0 - math.exp(-1.5)) ** 0.6)]
        rates, poisson = [], sampling.sample_poisson
        monkeypatch.setattr(sampling, "sample_poisson",
                            lambda rate, rng, size: rates.append(rate) or poisson(rate, rng, size))
        x = sample_family(p, RngState(77), 500_000)
        assert rates == pytest.approx(want * 8, rel=1e-12)  # 8 batches of up to 2^16
        pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, 1 << 16)
        ks = pmf.k_min + np.arange(pmf.masses.size)
        for emp, mass in ((np.mean(x > 0), pmf.masses[ks > 0].sum()),
                          (np.mean(x < 0), pmf.masses[ks < 0].sum())):
            assert abs(emp - mass) < 4.0 * math.sqrt(mass * (1 - mass) / x.size)

    def test_gaussian_limit_symmetric_steps_are_unit(self):
        # gamma = 1: X/a = Poisson(Lambda/2) - Poisson(Lambda/2), the sum of a
        # Poisson(Lambda) number of +-1 steps, with variance Lambda exactly
        p = SymmetricDS(1.0, 1.0, 1.0)
        lam = compound_poisson_view(p).total_intensity
        x = sample_family(p, RngState(76), 400_000) / p.a
        assert np.array_equal(x, np.round(x))
        # fourth central moment 3 lam^2 + lam: the sample variance has variance (2 lam^2 + lam) / n
        assert abs(x.var() - lam) < 4.0 * math.sqrt((2.0 * lam**2 + lam) / x.size)

    def test_truncated_polylog_cap(self):
        p = TruncatedPolylogDS(0.6, 1.0, 3.0, 1.0, 16)
        j = p._jumps(RngState(75), 100_000)
        assert np.all(np.abs(j) <= p.m)
        assert np.all(np.abs(j) >= 1)

    def test_truncated_polylog_atom_frequencies(self):
        # |K| follows k^{-s} / sum_{j <= m} j^{-s} on 1..m
        p = TruncatedPolylogDS(0.6, 1.0, 3.0, 1.0, 16)
        k = np.abs(p._jumps(RngState(78), 400_000))
        w = np.arange(1.0, 17.0) ** -1.6
        want = w / w.sum()
        emp = np.bincount(k, minlength=17)[1:] / k.size
        assert np.all(np.abs(emp - want) < 4.0 * np.sqrt(want * (1 - want) / k.size))


# ---------------------------------------------------------------------------
# Poisson mixtures over a positive stable rate
# ---------------------------------------------------------------------------

class TestStableMixture:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 0.999])
    def test_laplace_transform(self, alpha):
        # E exp(-s S) = exp(-s^alpha) for the positive stable mixing law
        r = sampling._stable_rates(1.0, alpha, RngState(81), 400_000)
        for s in (0.5, 1.0, 2.0):
            v = np.exp(-s * r)
            assert abs(v.mean() - math.exp(-s**alpha)) < 5.0 * v.std() / math.sqrt(r.size)

    def test_rate_scales_as_lambda_to_one_over_alpha(self):
        one = sampling._stable_rates(1.0, 0.6, RngState(82), 1000)
        scaled = sampling._stable_rates(8.0, 0.6, RngState(82), 1000)
        assert np.allclose(scaled, 8.0 ** (1.0 / 0.6) * one, rtol=1e-12)

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_one_sided_ds(self, beta):
        # a side with zero intensity draws 0, with no NaN
        p = DiscreteStable(0.7, beta, 1.0, 0.1)
        x = sample_family(p, RngState(83), 200_000)
        assert np.all(np.isfinite(x))
        assert np.all(beta * x >= 0.0)
        t = np.linspace(0.2, 0.8, 20) * math.pi / p.a
        emp = np.exp(1j * np.outer(t, x)).mean(axis=1)
        assert np.max(np.abs(emp - char_fn(p, t))) < 4.0 / math.sqrt(x.size)

    def test_cost_independent_of_lambda(self, monkeypatch):
        # Lambda is about 4.7e5 jumps per draw; the mixture draws no jump count
        def refuse(*args):
            raise AssertionError("compound-Poisson path taken")

        monkeypatch.setattr(sampling, "sample_poisson", refuse)
        p = SymmetricDS(0.9, 1.0, 1e-3)
        assert compound_poisson_view(p).total_intensity > 4e5
        x = sample_family(p, RngState(84), 200_000)
        t = np.linspace(0.2, 0.8, 20) * math.pi / p.a
        emp = np.exp(1j * np.outer(t, x)).mean(axis=1)
        assert np.max(np.abs(emp - char_fn(p, t))) < 4.0 / math.sqrt(x.size)
        sample_family(DiscreteStable(0.7, 0.5, 1.0, 1e-3), RngState(85), 1000)
        with pytest.raises(AssertionError, match="compound"):
            sample_family(TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), RngState(86), 10)

    def test_untempered_side_is_the_mixture(self, monkeypatch):
        # theta1 = 0 with Lambda about 277: the right side draws no Sibuya jump, and the
        # tempered left side has intensity 0
        def refuse(*args):
            raise AssertionError("Sibuya jumps drawn")

        monkeypatch.setattr(sampling, "sample_sibuya", refuse)
        p = TemperedDS(0.7, 1.0, 1.0, 1e-3, 0.0, 0.5)
        assert compound_poisson_view(p).total_intensity > 250.0
        x = sample_family(p, RngState(87), 200_000)
        t = np.linspace(0.2, 0.8, 20) * math.pi / p.a
        emp = np.exp(1j * np.outer(t, x)).mean(axis=1)
        assert np.max(np.abs(emp - char_fn(p, t))) < 4.0 / math.sqrt(x.size)

    @pytest.mark.parametrize("rate", [1e19, math.inf, math.nan])
    @pytest.mark.parametrize("p", [SymmetricDS(0.6, 1.0, 1.0), DiscreteStable(0.7, 0.5, 1.0, 1.0)],
                             ids=["SymmetricDS", "DiscreteStable"])
    def test_mixing_rate_beyond_poisson_range_raises(self, monkeypatch, p, rate):
        monkeypatch.setattr(sampling, "_stable_rates",
                            lambda lam, alpha, rng, n: np.full(n, rate))
        with pytest.raises(PrecisionError, match="range"):
            sample_family(p, RngState(0), size=100)

    def test_poisson_count_beyond_int_range_raises(self, monkeypatch):
        # a rate inside numpy's range can still draw a count of 2^62 or more
        monkeypatch.setattr(sampling, "_stable_rates",
                            lambda lam, alpha, rng, n: np.full(n, 2.0**62 + 2.0**40))
        with pytest.raises(PrecisionError, match="2\\^62"):
            sample_family(DiscreteStable(0.7, 0.5, 1.0, 1.0), RngState(0), size=100)

    def test_overflowing_rate_raises(self):
        # at gamma = 0.05 the mixing rate lambda^20 S overflows float64 for some draws
        with pytest.raises(PrecisionError, match="range"):
            sample_family(SymmetricDS(0.05, 1.0, 1.0), RngState(0), size=100_000)


# ---------------------------------------------------------------------------
# family sampler
# ---------------------------------------------------------------------------

class TestSampleFamily:
    def test_scalar_is_float(self):
        x = sample_family(SymmetricDS(0.5, 1.0, 1.0), RngState(0))
        assert isinstance(x, float)

    def test_empty(self):
        x = sample_family(SymmetricDS(0.5, 1.0, 1.0), RngState(0), size=0)
        assert x.shape == (0,)

    def test_deterministic_across_threads(self):
        p = TemperedDS(0.7, 0.1, 1.0, 0.05, 0.4, 0.6)
        a = sample_family(p, RngState(99), size=200_001, threads=1)
        b = sample_family(p, RngState(99), size=200_001, threads=8)
        assert np.array_equal(a, b)

    def test_same_seed_byte_identical(self):
        p = PolylogDS(0.8, 1.0, 2.0, 0.2)
        a = sample_family(p, RngState(123), size=70_000, threads=2)
        b = sample_family(p, RngState(123), size=70_000, threads=2)
        assert a.tobytes() == b.tobytes()

    # sha256 of 100k draws as little-endian float64, the pin on each exact stream; a
    # digest is re-frozen only when its stream moves on purpose, with the law check of
    # tests/test_laws.py (test_mean_lattice_ks_to_inverted_pmf) passing on the new
    # stream. TemperedDS was last re-frozen when Sibuya draws came from a guide table
    # with a zeta-rejection tail
    FROZEN_FAMILIES = {
        "TruncatedSDS": TruncatedSDS(0.4, 1.0, 1.0, 8),
        "TemperedDS": TemperedDS(0.7, 0.3, 1.0, 0.5, 0.05, 0.2),
        "PolylogDS": PolylogDS(0.8, 1.0, 0.5, 0.1),
        "TruncatedPolylogDS": TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64),
    }
    FROZEN_DRAWS = {
        ("TruncatedSDS", 7): "50d5aed3a425b44e4935dd2fc43b67b1022d285011e6a0fac6d4bf3ba5b2a611",
        ("TruncatedSDS", 2024): "bf4af6d5e0eab8e1b21016b632f45222a977576574ab9b6045b9b700bfb0270d",
        ("TemperedDS", 7): "8720b0bf0cee759bd1373cae9063c6ff8d06b151008e01ae016d8af37053205e",
        ("TemperedDS", 2024): "f04c98d44e612edde2618d08d4d0ff1986c11ae0e79dd8e5e97d6ad78afdd368",
        ("PolylogDS", 7): "15e4995d971e7e2372fb3c112ec8cc6366ff1b37e58c6872afd03b2f59579c25",
        ("PolylogDS", 2024): "be10263a866896507c0e88009375f41ae7c1cdcb587f36ea2fe370cb2762bc59",
        ("TruncatedPolylogDS", 7):
            "c9a1371c50fe3adb7e49ba9b2d6da28be49d1f84c0ee172ca0a3a4cba5acec67",
        ("TruncatedPolylogDS", 2024):
            "e9e5709e12ef3509d12d7c0fe823157a32bd5d616d9a930738d69d6d8c2fd2ee",
    }

    @pytest.mark.parametrize("name, seed", list(FROZEN_DRAWS))
    def test_draws_frozen(self, name, seed):
        x = sample_family(self.FROZEN_FAMILIES[name], RngState(seed), size=100_000)
        digest = hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()
        assert digest == self.FROZEN_DRAWS[name, seed]

    def test_sequential_calls_differ(self):
        rng = RngState(7)
        p = SymmetricDS(0.5, 1.0, 1.0)
        a = sample_family(p, rng, size=1000)
        b = sample_family(p, rng, size=1000)
        assert not np.array_equal(a, b)

    def test_lattice_exact(self, family_draws):
        p, _, x = family_draws
        k = np.round(x / p.a).astype(np.int64)
        assert np.all(x == p.a * k)

    def test_bad_threads(self):
        with pytest.raises(DomainError):
            sample_family(SymmetricDS(0.5, 1.0, 1.0), RngState(0), size=10, threads=0)

    @pytest.mark.parametrize("threads", [True, 2.0, 2.5, "2", None])
    def test_non_integer_threads(self, threads):
        with pytest.raises(DomainError, match="integer"):
            sample_family(SymmetricDS(0.5, 1.0, 1.0), RngState(0), size=10, threads=threads)

    def test_truncated_jump_beyond_support_raises(self, monkeypatch):
        # a step sum that overshoots a*m must not reach the caller
        monkeypatch.setattr(sampling, "_from_table",
                            lambda cdf, gen, count: np.full(count, 1000, dtype=np.int64))
        with pytest.raises(PrecisionError, match="support"):
            sample_family(TruncatedSDS(0.4, 1.0, 1.0, 8), RngState(0), size=1000)

    def test_zeta_jump_beyond_int_range_raises(self):
        # at s = 1.05, about 11% of the zeta law lies at 2^62 or more, so
        # 100 000 draws hold such a jump, which must not pass silently
        with pytest.raises(PrecisionError, match="zeta"):
            sample_family(PolylogDS(0.05, 1.0, 0.0, 1.0), RngState(1), size=100_000)

    def test_zeta_raise_frequency_matches_law(self):
        # a sample raises when some jump reaches 2^62; for 7 draws of PolylogDS(0.1, 1, 0, 1)
        # that happens with chance 1 - exp(-7 Lambda zeta(1.1, 2^62) / zeta(1.1)) = 0.614,
        # and in 8% of the runs if the law is cut near 2^63 and only draws past 2^62 raise
        p = PolylogDS(0.1, 1.0, 0.0, 1.0)
        want = -math.expm1(-7.0 * compound_poisson_view(p).total_intensity
                           * zeta(1.1, 2.0**62) / zeta(1.1))
        raised = 0
        for seed in range(400):
            try:
                sample_family(p, RngState(seed), size=7)
            except PrecisionError:
                raised += 1
        assert abs(raised / 400 - want) < 4.0 * math.sqrt(want * (1.0 - want) / 400)

    def test_zeta_jumps_follow_law_cut_at_2_62(self):
        # at s = 1.05 a jump reaches 2^62 with chance q = 0.113 and raises; the jumps that
        # are returned fall in [lo, hi) with chance (zeta(s, lo) - zeta(s, hi)) / (1 - q)
        p, rng, kept = PolylogDS(0.05, 1.0, 0.0, 1.0), RngState(5), []
        for _ in range(4000):
            try:
                kept.append(p._jumps(rng, 1))
            except PrecisionError:
                pass
        k = np.concatenate(kept)
        q = zeta(1.05, 2.0**62) / zeta(1.05)
        raised = 1.0 - k.size / 4000
        assert abs(raised - q) < 4.0 * math.sqrt(q * (1.0 - q) / 4000)
        edges = np.array([1, 2, 10, 10**3, 10**6, 10**12, 2**62])
        got = np.bincount(np.searchsorted(edges, k, side="right") - 1, minlength=7) / k.size
        assert got[6] == 0.0 and k.min() >= 1
        want = -np.diff(zeta(1.05, edges.astype(float))) / zeta(1.05) / (1.0 - q)
        assert np.all(np.abs(got[:6] - want) < 4.0 * np.sqrt(want * (1.0 - want) / k.size))

    @pytest.mark.parametrize("right, left", [(1.0, 0.5), (1.0, 0.0), (0.0, 1.0), (0.2, 3.0)])
    def test_polylog_jumps_beyond_head_follow_law(self, right, left):
        # a jump k has chance P k^-s / ((P + Q) zeta(s)) on the right and Q k^-s / ... on the
        # left, s = 1 + alpha; the table holds |k| <= K = 4096 and the tail beyond comes from
        # sample_zeta, so each side's share beyond K is P zeta(s, K + 1) / ((P + Q) zeta(s))
        p, big = PolylogDS(0.8, right, left, 0.1), 4096
        s, n = 1.8, 4_000_000
        j = p._jumps(RngState(77), n)
        assert j.dtype == np.int64 and not np.any(j == 0)
        for side, mag in ((right, j[j > 0]), (left, -j[j < 0])):
            for lo, hi in ((1, 2), (2, big + 1), (big + 1, 10 * big), (10 * big, 2.0**62)):
                want = side / (right + left) * (zeta(s, lo) - zeta(s, hi)) / zeta(s)
                got = np.count_nonzero((mag >= lo) & (mag < hi)) / n
                assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n), (lo, hi)
            want = side / (right + left) * zeta(s, big + 1) / zeta(s)
            got = np.count_nonzero(mag > big) / n
            assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n)
        assert p == PolylogDS(0.8, right, left, 0.1) and repr(p) == repr(PolylogDS(0.8, right, left, 0.1))

    def test_capped_zeta_rejects_huge_draws(self):
        # jumps come from a table on 1..m, so a heavy tail beyond m never shows
        p = TruncatedPolylogDS(0.05, 1.0, 1.0, 1.0, 64)
        x = sample_family(p, RngState(1), size=20_000)
        j = p._jumps(RngState(2), 20_000)
        assert np.all(np.abs(j) <= 64) and np.all(j != 0)
        assert np.all(np.isfinite(x)) and np.all(x == np.round(x))

    def test_no_jump_gives_int64_zeros(self):
        # Lambda = 1e-9: 1000 draws hold a jump with chance 1e-6
        p = TruncatedPolylogDS(0.8, 1e-9, 0.0, 1.0, 1)
        out = sampling._compound_poisson(p._total_intensity(), p._jumps, RngState(0), 1000)
        assert out.dtype == np.int64 and out.shape == (1000,) and not out.any()

    def test_tempered_with_one_untempered_side_matches_pmf(self):
        # theta2 = 0: the left side is the Poisson mixture over a stable rate, the right a
        # Poisson sum of tempered Sibuya jumps
        p = TemperedDS(0.7, 0.3, 1.0, 0.5, 0.2, 0.0)
        pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, 1 << 20)
        x = sample_family(p, RngState(13), size=200_000)
        assert binned_tv(pmf, x, bins=64) < 0.012
        t = np.linspace(0.2, 0.8, 20) * math.pi / p.a
        emp = np.exp(1j * np.outer(t, x)).mean(axis=1)
        assert np.max(np.abs(emp - char_fn(p, t))) < 4.0 / math.sqrt(x.size)

    # two jumps of 2^61 reach 2^62 exactly; three of 2^62 - 1 wrap an int64
    # sum to a negative value
    @pytest.mark.parametrize("count, jump", [(2, 2**61), (3, 2**62 - 1)])
    def test_jump_sum_beyond_int_range_raises(self, monkeypatch, count, jump):
        monkeypatch.setattr(sampling, "sample_poisson",
                            lambda rate, rng, n: np.full(n, count, dtype=np.int64))
        monkeypatch.setattr(sampling, "sample_tempered_sibuya",
                            lambda alpha, theta, rng, total: np.full(total, jump, dtype=np.int64))
        p = TemperedDS(0.6, 0.4, 1.0, 0.1, 0.5, 0.5)
        with pytest.raises(PrecisionError, match="2\\^62"):
            sample_family(p, RngState(0), size=1000)

    @pytest.mark.parametrize("size", [-1, 2.5, "10"])
    def test_bad_size(self, size):
        with pytest.raises(DomainError):
            sample_family(SymmetricDS(0.5, 1.0, 1.0), RngState(0), size=size)


# ---------------------------------------------------------------------------
# sampler vs law
# ---------------------------------------------------------------------------

class TestAgreement:
    def test_empirical_cf(self, family_draws):
        p, _, x = family_draws
        t = np.linspace(0.2, 0.8, 20) * math.pi / p.a
        band = 4.0 / math.sqrt(x.size)
        emp = np.exp(1j * np.outer(t, x)).mean(axis=1)
        assert np.max(np.abs(emp - char_fn(p, t))) < band

    def test_binned_tv(self, family_draws):
        p, pmf, x = family_draws
        assert binned_tv(pmf, x, bins=64) < 0.012

    def test_mean_jump_count(self, family_draws):
        # indirect Poisson-rate check: fraction of exact zeros matches
        # the pmf atom at 0 (strictest single-atom comparison)
        p, pmf, x = family_draws
        p0 = pmf.mass_at(0)
        emp = np.mean(x == 0.0)
        sd = math.sqrt(p0 * (1.0 - p0) / x.size)
        assert abs(emp - p0) < 4.0 * sd + 1e-9

    def test_gaussian_limit_symmetric_matches_bessel_masses(self):
        # SymmetricDS(1, 1, 1) has masses e^{-2} I_|k|(2), as in test_02
        x = sample_family(SymmetricDS(1.0, 1.0, 1.0), RngState(12), size=200_000)
        for k in range(-8, 9):
            want = float(ive(abs(k), 2.0))
            sd = math.sqrt(want * (1.0 - want) / x.size)
            assert abs(np.mean(x == k) - want) < 4.0 * sd + 1e-9, f"k={k}"

    def test_total_intensity_consistency(self, family_draws):
        # P(no jumps) = e^{-Lambda} <= P(X=0); both computable
        p, pmf, _ = family_draws
        lam = compound_poisson_view(p).total_intensity
        assert math.exp(-lam) <= pmf.mass_at(0) + 1e-12
