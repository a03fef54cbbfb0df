"""Fourier-inversion correctness: exact finite cases, the Bessel-series
identity, agreement with a direct DFT, the Hermitian spot checks, CF reuse
across window doublings, and aliasing control."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstable.errors import DomainError, InversionError, PrecisionError
from dstable.families import DiscreteStable, SymmetricDS, char_fn
from dstable.inversion import (
    LatticePMF,
    cdf_from_pmf,
    pmf_auto,
    pmf_from_cf,
    tail_prob,
)

# e^{-2} I_k(2): masses of SymmetricDS(gamma=1, sigma=1, a=1), lambda = 2
BESSEL_MASSES = {
    0: 0.30850832255367103953,
    1: 0.21526928924893765916,
    2: 0.093239033304733380375,
    5: 0.0013297610941881578142,
    10: 4.0830166112655466968e-8,
    30: 5.2693058653954966758e-34,
}


def _cf_of(p):
    return lambda t: char_fn(p, t)


# ---------------------------------------------------------------------------
# exact finite-support cases
# ---------------------------------------------------------------------------

def test_point_mass():
    pmf = pmf_from_cf(lambda t: np.ones_like(t) + 0j, 0.7, 8)
    assert pmf.mass_at(0) == pytest.approx(1.0, abs=1e-14)
    assert tail_prob(pmf, 0.0) < 1e-14
    assert pmf.alias_bound < 1e-14


def test_fair_coin():
    pmf = pmf_from_cf(lambda t: np.cos(1.0 * t) + 0j, 1.0, 8)
    assert pmf.mass_at(1) == pytest.approx(0.5, abs=1e-14)
    assert pmf.mass_at(-1) == pytest.approx(0.5, abs=1e-14)
    assert pmf.mass_at(0) == pytest.approx(0.0, abs=1e-14)
    assert tail_prob(pmf, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert cdf_from_pmf(pmf, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert cdf_from_pmf(pmf, -math.inf) == 0.0
    assert cdf_from_pmf(pmf, math.inf) == pytest.approx(1.0, abs=1e-12)


def test_mass_at_rejects_non_integer_k():
    pmf = pmf_from_cf(lambda t: np.cos(1.0 * t) + 0j, 1.0, 8)
    for k in (1.5, math.nan, True):
        with pytest.raises(DomainError, match="k must be an integer"):
            pmf.mass_at(k)
    assert pmf.mass_at(np.int64(-1)) == pmf.mass_at(-1) > 0.0


def test_cdf_from_pmf_rejects_nan():
    pmf = pmf_from_cf(lambda t: np.cos(1.0 * t) + 0j, 1.0, 8)
    for x in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(DomainError, match="NaN"):
            cdf_from_pmf(pmf, x)


def test_cdf_from_pmf_array_matches_scalar():
    p = DiscreteStable(0.7, 0.5, 1.0, 0.1)
    pmf = pmf_from_cf(_cf_of(p), p.a, 1 << 10)
    x = p.a * np.array([[-600.0, -3.5, -1.0], [0.0, 0.25, 2.0], [7.0, 511.0, math.inf]])
    got = cdf_from_pmf(pmf, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert np.array_equal(got, np.vectorize(lambda xi: cdf_from_pmf(pmf, xi))(x))
    assert isinstance(cdf_from_pmf(pmf, 0.0), float)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.floats(0.1, 2.0))
def test_cosine_mixture_recovered_exactly(raw, a):
    # cf = c_0 + sum_j c_j cos(j a t) is the CF of masses c_j / 2 at +-j
    c = np.array(raw)
    total = c.sum() + 1.0
    c /= total
    c0 = 1.0 - c.sum()

    def cf(t):
        out = np.full_like(t, c0, dtype=complex)
        for j, cj in enumerate(c, start=1):
            out += cj * np.cos(j * a * t)
        return out

    pmf = pmf_from_cf(cf, a, 32)
    assert abs(pmf.mass_at(0) - c0) < 1e-12
    for j, cj in enumerate(c, start=1):
        assert abs(pmf.mass_at(j) - cj / 2.0) < 1e-12
        assert abs(pmf.mass_at(-j) - cj / 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Bessel-series oracle
# ---------------------------------------------------------------------------

def test_bessel_identity_gamma_one():
    pmf = pmf_from_cf(_cf_of(SymmetricDS(1.0, 1.0, 1.0)), 1.0, 256)
    for k, want in BESSEL_MASSES.items():
        assert abs(pmf.mass_at(k) - want) < 1e-9, k
        assert abs(pmf.mass_at(-k) - want) < 1e-9, k


# ---------------------------------------------------------------------------
# transform against a direct DFT
# ---------------------------------------------------------------------------

def _dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n^2) forward DFT, the correctness oracle for the fast path."""
    n = x.size
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi / n * np.outer(j, j))
    return kernel @ x


def _masses_direct(cf, a, n):
    """Masses on k = -n/2 .. n/2 - 1 from cf on the full grid, via _dft_direct."""
    t = 2.0 * math.pi / (n * a) * np.arange(n)
    folded = _dft_direct(cf(t)) / n
    assert np.max(np.abs(folded.imag)) < 1e-12
    return np.concatenate([folded.real[n // 2:], folded.real[: n // 2]])


def test_direct_and_fft_paths_agree():
    p = DiscreteStable(0.7, 0.4, 1.0, 0.5)
    n = 1 << 10
    direct = _masses_direct(_cf_of(p), 0.5, n)
    fast = pmf_from_cf(_cf_of(p), 0.5, n).masses
    assert np.max(np.abs(direct - fast)) < 1e-12


def test_random_skewed_lattice_pmf_recovered():
    # cf(t) = sum_k p_k e^{i a k t}: a wrong conj or sign mirrors the masses
    rng = np.random.default_rng(5)
    a, n = 0.3, 64
    k = np.arange(-n // 2, n // 2)
    p = rng.random(n) * np.where(k > 0, 3.0, 1.0)
    p /= p.sum()

    def cf(t):
        return np.exp(1j * a * np.outer(t, k)) @ p

    pmf = pmf_from_cf(cf, a, n)
    assert np.max(np.abs(pmf.masses - p)) < 1e-11
    assert np.max(np.abs(_masses_direct(cf, a, n) - p)) < 1e-11


def test_parseval():
    p = DiscreteStable(0.7, 0.4, 1.0, 0.5)
    n = 512
    pmf = pmf_from_cf(_cf_of(p), 0.5, n)
    t = 2.0 * math.pi / (n * 0.5) * np.arange(n)
    lhs = float(np.mean(np.abs(char_fn(p, t)) ** 2))
    rhs = float(np.sum(pmf.masses**2))
    assert abs(lhs - rhs) < 1e-10


def test_symmetric_cf_gives_symmetric_pmf():
    pmf = pmf_from_cf(_cf_of(SymmetricDS(0.6, 1.0, 0.5)), 0.5, 2048)
    m = pmf.masses
    # skip the unpaired Nyquist point k = -1024
    assert np.max(np.abs(m[1:] - m[1:][::-1])) < 1e-12


def test_median_of_symmetric_family():
    pmf = pmf_from_cf(_cf_of(SymmetricDS(0.9, 1.0, 0.5)), 0.5, 1 << 14)
    below = cdf_from_pmf(pmf, -0.25)  # strictly left of zero
    assert abs(below + pmf.mass_at(0) / 2.0 - 0.5) < 1e-9


def test_window_doubling_changes_masses_within_alias_bound():
    cf = _cf_of(SymmetricDS(0.4, 1.0, 1.0))
    small = pmf_from_cf(cf, 1.0, 4096)
    big = pmf_from_cf(cf, 1.0, 8192)
    worst = max(abs(small.mass_at(k) - big.mass_at(k)) for k in small.k_values()[::5])
    assert worst <= small.alias_bound


# ---------------------------------------------------------------------------
# tails and CDF
# ---------------------------------------------------------------------------

def test_tail_prob_monotone_and_window_exhaustion():
    pmf = pmf_from_cf(_cf_of(SymmetricDS(0.6, 1.0, 1.0)), 1.0, 1024)
    xs = np.linspace(0.0, 600.0, 101)
    tails = [tail_prob(pmf, x) for x in xs]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tail_prob(pmf, 1.0 * 512) <= pmf.alias_bound
    with pytest.raises(DomainError):
        tail_prob(pmf, -1.0)


@pytest.mark.parametrize("k_min", [-5, -2, 0, 2])
def test_tail_prob_array_matches_scalar_on_any_window(k_min):
    # windows that hold 0, end at it, start at it, or miss it
    pmf = LatticePMF(a=0.5, k_min=k_min, masses=np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
                     alias_bound=0.0)
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 10.0])
    got = tail_prob(pmf, x)
    want = np.array([pmf.masses[np.abs(pmf.x_values()) > xi].sum() for xi in x])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert [tail_prob(pmf, xi) for xi in x] == list(got)
    assert isinstance(tail_prob(pmf, 0.5), float)
    for bad in (np.array([1.0, -1.0]), np.array([math.nan]), math.nan):
        with pytest.raises(DomainError, match="x must be >= 0"):
            tail_prob(pmf, bad)


def test_cdf_right_continuous_step():
    pmf = pmf_from_cf(lambda t: np.cos(t) + 0j, 1.0, 8)
    at_atom = cdf_from_pmf(pmf, 1.0)
    just_below = cdf_from_pmf(pmf, 1.0 - 1e-9)
    assert at_atom == pytest.approx(1.0, abs=1e-12)
    assert just_below == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# validation and failure modes
# ---------------------------------------------------------------------------

def test_cf_not_one_at_zero_rejected():
    with pytest.raises(InversionError):
        pmf_from_cf(lambda t: 0.5 * np.ones_like(t) + 0j, 1.0, 8)


def test_non_power_of_two_rejected():
    for bad in (12, 7, 0, -8):
        with pytest.raises(DomainError):
            pmf_from_cf(lambda t: np.ones_like(t) + 0j, 1.0, bad)
    with pytest.raises(DomainError):
        pmf_from_cf(lambda t: np.ones_like(t) + 0j, 1.0, 8.0)


def test_non_hermitian_cf_rejected():
    # a lattice shift by 0.37a is not on the lattice: imaginary residue
    with pytest.raises(InversionError):
        pmf_from_cf(lambda t: np.exp(1j * 0.37 * t), 1.0, 8)


def _imag_at_nyquist(t):
    # Hermitian at every mirrored pair but the self-mirrored point pi/a
    return np.cos(t) + 0.2j * np.isclose(t, np.pi)


@pytest.mark.parametrize("n", [8, 4096])
@pytest.mark.parametrize("cf", [
    lambda t: np.exp(0.37j * t),                     # not 2 pi - periodic
    lambda t: np.cos(t) + 0.3j * np.sin(t) ** 2,     # periodic, not Hermitian
    _imag_at_nyquist,
], ids=["non-periodic", "non-hermitian", "imag-at-nyquist"])
def test_mirror_spot_check_rejects(cf, n):
    with pytest.raises(InversionError, match="not Hermitian or not periodic"):
        pmf_from_cf(cf, 1.0, n)


def test_non_positive_definite_cf_rejected():
    # cf(0) = 1 but "masses" go negative: not a CF on this lattice
    with pytest.raises(InversionError):
        pmf_from_cf(lambda t: 1.5 * np.cos(t) - 0.5 + 0j, 1.0, 8)


def test_lattice_pmf_invariants_enforced():
    good = np.array([0.25, 0.5, 0.25])
    LatticePMF(1.0, -1, good, 0.0)
    with pytest.raises(DomainError):
        LatticePMF(0.0, -1, good, 0.0)
    with pytest.raises(DomainError):
        LatticePMF(1.0, -1, good, -0.1)
    with pytest.raises(InversionError):
        LatticePMF(1.0, -1, np.array([0.3, 0.8, -1e-6]), 0.0)
    with pytest.raises(InversionError):
        LatticePMF(1.0, -1, np.array([0.2, 0.2, 0.2]), 0.0)  # sums to 0.6
    # sub-unit sum is fine when alias_bound covers it
    LatticePMF(1.0, -1, np.array([0.2, 0.2, 0.2]), 0.5)


def test_lattice_pmf_rejects_bad_fields():
    good = np.array([0.25, 0.5, 0.25])
    for k_min in (1.5, "x", True):
        with pytest.raises(DomainError, match="k_min must be an integer"):
            LatticePMF(1.0, k_min, good, 0.0)
    with pytest.raises(DomainError, match="alias_bound must be >= 0, got nan"):
        LatticePMF(1.0, -1, good, math.nan)
    with pytest.raises(DomainError, match="nonempty"):
        LatticePMF(0.1, 0, np.array([]), 0.0)
    LatticePMF(1.0, -1, good, math.inf)  # an unbounded alias estimate is allowed


def test_pmf_from_cf_rejects_bad_pitch_and_short_cf():
    with pytest.raises(DomainError, match="lattice pitch a must be > 0"):
        pmf_from_cf(lambda t: np.ones(t.shape, dtype=complex), -1.0, 8)
    # the half grid of n = 8 has 5 points
    with pytest.raises(DomainError, match="cf must return one value per grid point"):
        pmf_from_cf(lambda t: np.ones(3, dtype=complex), 1.0, 8)


def test_mass_at_outside_window_is_zero():
    pmf = pmf_from_cf(lambda t: np.cos(t) + 0j, 1.0, 8)
    assert pmf.mass_at(17) == 0.0
    assert pmf.mass_at(-400) == 0.0


def test_pmf_auto_reaches_tolerance():
    cf = _cf_of(SymmetricDS(0.75, 1.0, 1.0))
    pmf = pmf_auto(cf, 1.0, tol=1e-6)
    assert pmf.alias_bound < 1e-6
    n = pmf.masses.size
    if n > 256:
        assert pmf_from_cf(cf, 1.0, n // 2).alias_bound >= 1e-6


def test_pmf_auto_cap_raises_with_hint():
    cf = _cf_of(SymmetricDS(0.4, 1.0, 1.0))
    with pytest.raises(PrecisionError, match="2\\^"):
        pmf_auto(cf, 1.0, tol=1e-9, n_max=1 << 14)
    with pytest.raises(DomainError):
        pmf_auto(cf, 1.0, tol=0.0)
    for n_max in (128, math.nan, 1024.0):
        with pytest.raises(DomainError, match="n_max"):
            pmf_auto(cf, 1.0, tol=1e-6, n_max=n_max)


@pytest.mark.parametrize("p, tol", [
    (SymmetricDS(0.6, 1.0, 0.1), 1e-5),
    (DiscreteStable(0.7, 0.5, 1.0, 0.5), 1e-4),
])
def test_pmf_auto_evaluates_each_half_grid_point_once(p, tol):
    seen = []

    def cf(t):
        seen.append(np.size(t))
        return char_fn(p, t)

    pmf = pmf_auto(cf, p.a, tol=tol)
    final_n = pmf.masses.size
    assert final_n >= 1024  # several doublings
    windows = [256 << i for i in range(int(math.log2(final_n // 256)) + 1)]
    spot = sum(min(32, n // 2 - 1) for n in windows)
    assert sum(seen) <= final_n // 2 + 1 + spot
    again = pmf_from_cf(_cf_of(p), p.a, final_n)
    assert np.max(np.abs(pmf.masses - again.masses)) < 1e-14
