"""Sampler verification: closed-form frequencies, stream discipline, and
agreement between the samplers and the Fourier-inversion PMFs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import ive
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
    _sample_jumps,
    sample_family,
    sample_poisson,
    sample_sibuya,
    sample_tempered_sibuya,
    sample_zeta,
)
from dstable.special import riemann_zeta, sibuya_pmf

# survival(1/2, 10) = C(20,10)/4^10, exactly representable
SIBUYA_HALF_SURV_10 = 184756 / 1048576
# tempered Sibuya at alpha=1/2, theta=ln 2: P(K=1) = (2+sqrt 2)/4
TEMPERED_P1_LN2 = (2.0 + math.sqrt(2.0)) / 4.0
# acceptance rate of the tempering rejection at the same parameters: 2-sqrt 2
TEMPERED_ACCEPT_LN2 = 2.0 - math.sqrt(2.0)
ZETA2_INV = 0.60792710185402662866

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
        for rate, seed in ((29.5, 31), (31.0, 32)):
            x = sample_poisson(rate, RngState(seed), size=1_000_000)
            ks = np.arange(x.max() + 1)
            ecdf = np.searchsorted(np.sort(x), ks, side="right") / x.size
            assert np.max(np.abs(ecdf - poisson_ref.cdf(ks, rate))) < 0.002

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf, "2"])
    def test_bad_rate(self, rate):
        with pytest.raises(DomainError):
            sample_poisson(rate, RngState(0))


# ---------------------------------------------------------------------------
# Sibuya
# ---------------------------------------------------------------------------

class TestSibuya:
    def test_first_atom_frequency(self):
        k = sample_sibuya(0.5, RngState(41), size=1_000_000)
        assert k.min() >= 1
        assert abs(np.mean(k == 1) - 0.5) < 0.004

    def test_survival_frequency_frozen(self):
        k = sample_sibuya(0.5, RngState(42), size=1_000_000)
        assert abs(np.mean(k > 10) - SIBUYA_HALF_SURV_10) < 0.003

    def test_extreme_alpha(self):
        k = sample_sibuya(0.999, RngState(43), size=200_000)
        assert k.min() >= 1
        assert np.mean(k == 1) > 0.99

    def test_scalar_is_int(self):
        assert isinstance(sample_sibuya(0.3, RngState(2)), int)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.4, math.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            sample_sibuya(alpha, RngState(0))


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

    @pytest.mark.parametrize("theta", [0.0, -0.5, math.nan])
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


# ---------------------------------------------------------------------------
# jump laws
# ---------------------------------------------------------------------------

class TestJumps:
    def test_symmetric_walk_sign_balance(self):
        j = _sample_jumps(SymmetricDS(0.6, 1.0, 1.0), RngState(71), 200_000)
        nz = j[j != 0]
        n_pos = int((nz > 0).sum())
        assert abs(n_pos - nz.size / 2) < 3.0 * math.sqrt(nz.size) / 2.0

    def test_truncated_bounds_exact(self):
        p = TruncatedSDS(0.45, 1.0, 0.5, 6)
        j = _sample_jumps(p, RngState(72), 100_000)
        assert np.issubdtype(j.dtype, np.integer)
        assert np.all(np.abs(j) <= p.m)

    def test_skewed_sign_frequency(self):
        p = DiscreteStable(0.6, 0.4, 1.0, 0.1)
        l1, l2 = derived_intensities(p)
        j = _sample_jumps(p, RngState(73), 500_000)
        frac = np.mean(j > 0)
        want = l1 / (l1 + l2)
        assert abs(frac - want) < 3.0 * math.sqrt(want * (1 - want) / j.size)

    def test_sign_magnitude_jumps_never_zero(self):
        for p in (DiscreteStable(0.5, 0.0, 1.0, 1.0),
                  TemperedDS(0.7, 0.2, 1.0, 1.0, 0.3, 0.4),
                  PolylogDS(0.9, 2.0, 1.0, 1.0),
                  TruncatedPolylogDS(0.9, 2.0, 1.0, 1.0, 32)):
            j = _sample_jumps(p, RngState(74), 50_000)
            assert np.all(j != 0)

    def test_gaussian_limit_symmetric_steps_are_unit(self):
        # gamma = 1: Sibuya(1) is the point mass at K = 1, a single +-1 step
        j = _sample_jumps(SymmetricDS(1.0, 1.0, 1.0), RngState(76), 100_000)
        assert set(np.unique(j)) == {-1, 1}

    def test_truncated_polylog_cap(self):
        p = TruncatedPolylogDS(0.6, 1.0, 3.0, 1.0, 16)
        j = _sample_jumps(p, RngState(75), 100_000)
        assert np.all(np.abs(j) <= p.m)
        assert np.all(np.abs(j) >= 1)


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
        monkeypatch.setattr(sampling, "_rademacher_sum", lambda k, gen: k + 1)
        with pytest.raises(PrecisionError, match="support"):
            sample_family(TruncatedSDS(0.4, 1.0, 1.0, 8), RngState(0), size=1000)

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
