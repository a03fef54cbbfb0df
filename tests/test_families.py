"""Family parameter validation, CF identities, and Levy-measure consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstable.errors import DomainError
from dstable.families import (
    AttractionTarget,
    CompoundPoissonView,
    DiscreteStable,
    PolylogDS,
    StableParams,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    char_fn,
    compound_poisson_view,
    derived_intensities,
    levy_weight,
    stable_cf,
    symmetric_levy_weights,
    target_stable,
)
from dstable.families import _cos_poly, _cpow, _one_minus_exp, _sibuya_weights
from dstable.sampling import RngState, sample_family
from dstable.special import polylog_unit, riemann_zeta, sibuya_pmf, sibuya_survival

ZETA2 = 1.6449340668482264365  # zeta(2)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_gammas = st.floats(0.05, 1.0)
_sigmas = st.floats(0.1, 3.0)
_lattice = st.floats(0.02, 2.0)
_alphas = st.floats(0.05, 0.95)
_betas = st.floats(-1.0, 1.0)
_thetas = st.floats(0.01, 2.0)
_poly_alphas = st.floats(0.1, 3.0)
_weights = st.floats(0.0, 2.0)
_ms = st.integers(1, 300)


@st.composite
def any_family(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return SymmetricDS(draw(_gammas), draw(_sigmas), draw(_lattice))
    if kind == 1:
        return TruncatedSDS(draw(_gammas), draw(_sigmas), draw(_lattice), draw(_ms))
    if kind == 2:
        return DiscreteStable(draw(_alphas), draw(_betas), draw(_sigmas), draw(_lattice))
    if kind == 3:
        return TemperedDS(draw(_alphas), draw(_betas), draw(_sigmas), draw(_lattice),
                          draw(_thetas), draw(_thetas))
    if kind == 4:
        return PolylogDS(draw(_poly_alphas), draw(_weights) + 0.01, draw(_weights),
                         draw(_lattice))
    return TruncatedPolylogDS(draw(_poly_alphas), draw(_weights) + 0.01, draw(_weights),
                              draw(_lattice), draw(_ms))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

# (constructor call, start of the message it must raise)
_INVALID = [
    (lambda: SymmetricDS(0.0, 1.0, 1.0), "gamma must be in"),
    (lambda: SymmetricDS(1.2, 1.0, 1.0), "gamma must be in"),
    (lambda: SymmetricDS(0.5, 0.0, 1.0), "sigma must be > 0"),
    (lambda: SymmetricDS(0.5, 1.0, 0.0), "a must be > 0"),
    (lambda: SymmetricDS(math.nan, 1.0, 1.0), "gamma must be in"),
    (lambda: TruncatedSDS(0.5, 1.0, 1.0, 0), "m must be an integer"),
    (lambda: TruncatedSDS(0.5, 1.0, 1.0, 1.5), "m must be an integer"),
    (lambda: TruncatedSDS(0.5, 1.0, 1.0, True), "m must be an integer"),
    (lambda: DiscreteStable(1.0, 0.0, 1.0, 1.0), "alpha must be in"),
    (lambda: DiscreteStable(0.0, 0.0, 1.0, 1.0), "alpha must be in"),
    (lambda: DiscreteStable(0.5, 1.5, 1.0, 1.0), "beta must be in"),
    (lambda: DiscreteStable(0.5, 0.0, -1.0, 1.0), "sigma must be > 0"),
    (lambda: TemperedDS(0.5, 0.0, 1.0, 1.0, 0.0, 0.0), r"theta1 \+ theta2 must be > 0"),
    (lambda: TemperedDS(0.5, 0.0, 1.0, 1.0, -0.1, 1.0), "theta1 must be >= 0"),
    (lambda: TemperedDS(1.0, 0.0, 1.0, 1.0, 0.5, 0.5), "alpha must be in"),
    (lambda: PolylogDS(0.0, 1.0, 1.0, 1.0), "alpha must be > 0"),
    (lambda: PolylogDS(0.8, 0.0, 0.0, 1.0), r"P \+ Q must be > 0"),
    (lambda: PolylogDS(0.8, -0.5, 1.0, 1.0), "P must be >= 0"),
    (lambda: PolylogDS(0.8, 1.0, 1.0, 0.0), "a must be > 0"),
    (lambda: TruncatedPolylogDS(0.8, 1.0, 1.0, 1.0, 0), "m must be an integer"),
    (lambda: StableParams(2.5, 0.0, 1.0), "alpha must be in"),
    (lambda: StableParams(1.0, -1.01, 1.0), "beta must be in"),
    (lambda: StableParams(1.0, 0.0, 0.0), "sigma must be > 0"),
]


@pytest.mark.parametrize("bad", [bad for bad, _ in _INVALID])
def test_invalid_params_rejected(bad):
    # the message names the offending parameter, as the CLI flag spells it
    with pytest.raises(DomainError, match="^" + dict(_INVALID)[bad]):
        bad()


def test_valid_edge_params_accepted():
    SymmetricDS(1.0, 1.0, 1.0)                       # gamma = 1 allowed
    TemperedDS(0.5, 0.0, 1.0, 1.0, 0.0, 0.7)         # one-sided tempering allowed
    DiscreteStable(0.5, 1.0, 1.0, 1.0)               # extreme skew allowed
    PolylogDS(2.5, 1.0, 0.0, 1.0)                    # alpha >= 2 allowed
    StableParams(2.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# characteristic-function basics
# ---------------------------------------------------------------------------

FIXED_FAMILIES = [
    SymmetricDS(0.6, 1.2, 0.3),
    TruncatedSDS(0.6, 1.2, 0.3, 12),
    DiscreteStable(0.7, 0.4, 1.1, 0.25),
    TemperedDS(0.7, -0.3, 1.1, 0.25, 0.4, 0.9),
    TemperedDS(0.5, 0.2, 1.0, 0.5, 0.0, 0.8),
    PolylogDS(0.8, 1.5, 0.7, 0.2),
    PolylogDS(2.2, 0.5, 0.5, 0.4),
    TruncatedPolylogDS(0.8, 1.5, 0.7, 0.2, 40),
]


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_cf_unit_at_zero_and_bounded(p):
    assert char_fn(p, 0.0) == 1.0 + 0.0j
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 1001)
    g = char_fn(p, t)
    assert np.all(np.abs(g) <= 1.0 + 1e-12)


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_cf_hermitian_and_periodic(p):
    # stay away from at = 2 pi k: families with alpha < 1 have cusps there that
    # amplify the rounding of t + 2 pi / a
    t = np.linspace(0.05, 1.95, 257) * math.pi / p.a
    g = char_fn(p, t)
    assert np.max(np.abs(g - np.conj(char_fn(p, -t)))) == 0.0
    assert np.max(np.abs(g - char_fn(p, t + 2.0 * math.pi / p.a))) < 1e-9


def test_cf_shapes():
    p = DiscreteStable(0.7, 0.0, 1.0, 1.0)
    assert isinstance(char_fn(p, 1.0), complex)
    t = np.linspace(-1, 1, 6).reshape(2, 3)
    assert char_fn(p, t).shape == (2, 3)


@settings(max_examples=60, deadline=None)
@given(any_family())
def test_cf_properties_random_families(p):
    assert char_fn(p, 0.0) == 1.0 + 0.0j
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 101)
    g = char_fn(p, t)
    assert np.all(np.abs(g) <= 1.0 + 1e-12)
    assert np.max(np.abs(g - np.conj(char_fn(p, -t)))) == 0.0


# ---------------------------------------------------------------------------
# compound-Poisson view: the triangle identity
# ---------------------------------------------------------------------------

def _jump_cf_reference(p, t):
    """Single-jump CF h(t) of each family, written from its jump law.

    The library derives h from the log CF; this oracle builds it from each
    family's own jump weights, so exp(-Lambda (1 - h)) = char_fn is a check
    between two formulas rather than of one formula against itself.
    """
    at = p.a * np.asarray(t, dtype=float)
    if isinstance(p, SymmetricDS):
        return 1.0 - (2.0 * np.sin(0.5 * at) ** 2) ** p.gamma + 0.0j
    if isinstance(p, TruncatedSDS):
        w = _sibuya_weights(p.gamma, p.m)
        return _cos_poly(w, np.cos(at)) / float(_cos_poly(w, np.array(1.0))) + 0.0j
    if isinstance(p, DiscreteStable):
        l1, l2 = derived_intensities(p)
        z = 2.0 * np.sin(0.5 * at) ** 2 - 1j * np.sin(at)
        return 1.0 - (l1 * _cpow(z, p.alpha) + l2 * _cpow(np.conj(z), p.alpha)) / (l1 + l2)
    if isinstance(p, TemperedDS):
        l1, l2 = derived_intensities(p)
        base1 = complex(_cpow(_one_minus_exp(p.theta1, np.array(0.0)), p.alpha))
        base2 = complex(_cpow(np.conj(_one_minus_exp(p.theta2, np.array(0.0))), p.alpha))
        lam = l1 * (1.0 - base1.real) + l2 * (1.0 - base2.real)
        side1 = l1 * (1.0 - _cpow(_one_minus_exp(p.theta1, at), p.alpha))
        side2 = l2 * (1.0 - _cpow(np.conj(_one_minus_exp(p.theta2, at)), p.alpha))
        return (side1 + side2) / lam
    if isinstance(p, PolylogDS):
        li = polylog_unit(1.0 + p.alpha, at)
        return (p.p * li + p.q * np.conj(li)) / ((p.p + p.q) * riemann_zeta(1.0 + p.alpha))
    k = np.arange(1.0, p.m + 1.0)
    w = k ** -(1.0 + p.alpha)
    fin = np.exp(1j * at[..., None] * k) @ w
    return (p.p * fin + p.q * np.conj(fin)) / ((p.p + p.q) * w.sum())


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_triangle_identity_fixed(p):
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 1001)
    v = compound_poisson_view(p)
    assert isinstance(v, CompoundPoissonView)
    assert v.total_intensity > 0.0
    rebuilt = np.exp(-v.total_intensity * (1.0 - _jump_cf_reference(p, t)))
    assert np.max(np.abs(char_fn(p, t) - rebuilt)) < 1e-10
    # the derived jump CF is the jump law's CF: h(0) = 1, |h| <= 1
    assert np.max(np.abs(v.jump_cf(t) - _jump_cf_reference(p, t))) < 1e-12
    assert abs(complex(v.jump_cf(np.array([0.0]))[0]) - 1.0) < 1e-12
    assert np.all(np.abs(v.jump_cf(t)) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(any_family())
def test_triangle_identity_random(p):
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 101)
    v = compound_poisson_view(p)
    rebuilt = np.exp(-v.total_intensity * (1.0 - _jump_cf_reference(p, t)))
    assert np.max(np.abs(char_fn(p, t) - rebuilt)) < 1e-10


def test_dispatchers_reject_non_family_objects():
    s = StableParams(0.5, 0.0, 1.0)
    for call in (lambda: char_fn(s, 1.0), lambda: compound_poisson_view(s),
                 lambda: derived_intensities(s), lambda: levy_weight(s, 1),
                 lambda: target_stable(s), lambda: sample_family(s, RngState(0), 10),
                 lambda: sample_family(s, RngState(0), 0)):
        with pytest.raises(DomainError, match="not a family parameter object"):
            call()


# ---------------------------------------------------------------------------
# frozen intensities and special parameter points
# ---------------------------------------------------------------------------

def test_symmetric_intensity_values():
    # lambda = sigma^{2 gamma} 2^gamma / a^{2 gamma}, split evenly
    l1, l2 = derived_intensities(SymmetricDS(0.5, 1.0, 1.0))
    assert l1 == l2
    assert abs(2.0 * l1 - math.sqrt(2.0)) < 1e-15
    l1, _ = derived_intensities(SymmetricDS(1.0, 0.7, 0.4))
    assert abs(2.0 * l1 - 2.0 * 0.7**2 / 0.4**2) < 1e-12


def test_truncated_intensity_values():
    # m = 1 keeps only the single-step jump: Lambda = lambda * gamma
    lam = math.sqrt(2.0)
    l1, l2 = derived_intensities(TruncatedSDS(0.5, 1.0, 1.0, 1))
    assert abs(l1 + l2 - lam * 0.5) < 1e-14
    # m = 2: survival(0.5, 2) = 0.375 so Lambda = lambda * 0.625
    l1, l2 = derived_intensities(TruncatedSDS(0.5, 1.0, 1.0, 2))
    assert abs(l1 + l2 - lam * 0.625) < 1e-14


def test_discrete_stable_intensity_values():
    l1, l2 = derived_intensities(DiscreteStable(0.5, 1.0, 1.0, 1.0))
    assert abs(l1 - math.sqrt(2.0)) < 1e-14
    assert l2 == 0.0
    # lattice scaling: a^{-alpha}
    l1b, _ = derived_intensities(DiscreteStable(0.5, 1.0, 1.0, 0.25))
    assert abs(l1b - math.sqrt(2.0) * 0.25**-0.5) < 1e-13


def test_polylog_intensity_values():
    l1, l2 = derived_intensities(PolylogDS(1.0, 1.0, 1.0, 1.0))
    assert abs(l1 - ZETA2) < 1e-10
    assert abs(l2 - ZETA2) < 1e-10
    # truncated at m = 3: 1 + 1/4 + 1/9 = 49/36
    l1, l2 = derived_intensities(TruncatedPolylogDS(1.0, 1.0, 1.0, 1.0, 3))
    assert abs(l1 - 49.0 / 36.0) < 1e-14
    assert abs(l2 - 49.0 / 36.0) < 1e-14


def test_tempered_view_intensity_value():
    # l1 = sqrt(2), theta = ln 2: Lambda = sqrt(2) (1 - (1/2)^{1/2}) = sqrt(2) - 1
    v = compound_poisson_view(TemperedDS(0.5, 1.0, 1.0, 1.0, math.log(2.0), math.log(2.0)))
    assert abs(v.total_intensity - (math.sqrt(2.0) - 1.0)) < 1e-13


def test_tempered_collapses_to_discrete_stable_when_side_untempered():
    # beta = 1 kills the left side, theta1 = 0 leaves the right side untempered
    p_t = TemperedDS(0.6, 1.0, 1.0, 1.0, 0.0, 0.7)
    p_d = DiscreteStable(0.6, 1.0, 1.0, 1.0)
    t = np.linspace(-3.0, 3.0, 301)
    assert np.max(np.abs(char_fn(p_t, t) - char_fn(p_d, t))) < 1e-14


def test_gamma_one_collapses_to_cosine_exponent():
    p = SymmetricDS(1.0, 0.7, 0.4)
    t = np.linspace(-7.0, 7.0, 201)
    direct = np.exp(-(0.7**2) * 2.0 / 0.4**2 * (1.0 - np.cos(0.4 * t)))
    assert np.max(np.abs(char_fn(p, t) - direct)) < 1e-14


def test_symmetric_cf_near_stable_limit_at_small_lattice():
    # a = 0.01: CF at t = 1 is within 1e-3 of the 1.5-stable CF value e^{-1}
    g = char_fn(SymmetricDS(0.75, 1.0, 0.01), 1.0)
    assert abs(g - math.exp(-1.0)) < 1e-3


# ---------------------------------------------------------------------------
# stable_cf
# ---------------------------------------------------------------------------

def test_stable_cf_values():
    assert abs(stable_cf(StableParams(1.0, 0.0, 1.0), 1.0) - math.exp(-1.0)) < 1e-15
    assert abs(stable_cf(StableParams(2.0, 0.0, 1.0), 1.0) - math.exp(-1.0)) < 1e-15
    assert abs(stable_cf(StableParams(0.5, 0.0, 2.0), 2.0) - math.exp(-2.0)) < 1e-15
    # fully skewed alpha = 1/2: exp(-(1 - i tan(pi/4))) = e^{-1} (cos 1 + i sin 1)
    got = stable_cf(StableParams(0.5, 1.0, 1.0), 1.0)
    want = math.exp(-1.0) * complex(math.cos(1.0), math.sin(1.0))
    assert abs(got - want) < 1e-15
    # Hermitian in t
    assert abs(stable_cf(StableParams(0.5, 1.0, 1.0), -1.0) - want.conjugate()) < 1e-15


def test_stable_cf_symmetric_flag_overrides_beta():
    s = StableParams(1.5, 0.7, 1.0)
    t = np.linspace(-2, 2, 41)
    assert np.allclose(stable_cf(s, t, symmetric=True),
                       np.exp(-np.abs(t) ** 1.5), rtol=0, atol=1e-15)


def test_stable_cf_skewed_domain_errors():
    with pytest.raises(DomainError):
        stable_cf(StableParams(1.0, 0.5, 1.0), 1.0)
    with pytest.raises(DomainError):
        stable_cf(StableParams(1.3, 0.5, 1.0), 1.0)


# ---------------------------------------------------------------------------
# Levy weights
# ---------------------------------------------------------------------------

def test_levy_weight_values():
    p = PolylogDS(1.0, 1.0, 1.0, 1.0)
    assert levy_weight(p, 2) == 0.25
    assert levy_weight(p, -3) == pytest.approx(1.0 / 9.0, rel=1e-15)
    q = DiscreteStable(0.5, 1.0, 1.0, 1.0)
    assert levy_weight(q, 1) == pytest.approx(math.sqrt(2.0) * 0.5, rel=1e-14)
    assert levy_weight(q, -1) == 0.0
    r = TemperedDS(0.5, 0.0, 1.0, 1.0, 0.3, 0.0)
    base = derived_intensities(r)[0] * sibuya_pmf(0.5, 4)
    assert levy_weight(r, 4) == pytest.approx(base * math.exp(-1.2), rel=1e-14)
    assert levy_weight(r, -4) == pytest.approx(base, rel=1e-14)
    tr = TruncatedPolylogDS(1.0, 1.0, 1.0, 1.0, 5)
    assert levy_weight(tr, 5) == pytest.approx(1.0 / 25.0, rel=1e-15)
    assert levy_weight(tr, 6) == 0.0


def test_levy_weight_domain_errors():
    p = PolylogDS(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        levy_weight(p, 0)
    with pytest.raises(DomainError):
        levy_weight(p, 1.5)
    with pytest.raises(DomainError):
        levy_weight(SymmetricDS(0.5, 1.0, 1.0), 1)
    with pytest.raises(DomainError):
        levy_weight(TruncatedSDS(0.5, 1.0, 1.0, 4), 1)


def _reconstruct_log_cf(p, t, k_max):
    """sum_{0 < |k| <= k_max} levy_weight(p, k) (e^{i a t k} - 1)."""
    at = p.a * np.asarray(t, dtype=float)
    total = np.zeros(at.shape, dtype=complex)
    for k in range(1, k_max + 1):
        wp, wm = levy_weight(p, k), levy_weight(p, -k)
        phase = np.exp(1j * at * k)
        total += wp * (phase - 1.0) + wm * (np.conj(phase) - 1.0)
    return total


def test_levy_reconstruction_tempered_is_exact():
    # exponential tempering: the tail beyond k = 200 is ~ e^{-60}, invisible
    p = TemperedDS(0.7, -0.3, 1.1, 0.25, 0.4, 0.9)
    t = np.linspace(-10.0, 10.0, 41)
    resid = np.abs(_reconstruct_log_cf(p, t, 200) - np.log(char_fn(p, t)))
    assert np.max(resid) < 1e-12


def test_levy_reconstruction_discrete_stable_bound_and_decay():
    p = DiscreteStable(0.9, 0.0, 1.0, 100.0)
    l1, l2 = derived_intensities(p)
    t = np.array([0.003, 0.01, 0.02])
    at = p.a * t
    prev = None
    for k_max in (1_000, 10_000, 100_000):
        k = np.arange(1.0, k_max + 1)
        w = np.empty(k_max)
        w[0] = p.alpha
        w[1:] = p.alpha * np.cumprod((k[:-1] - p.alpha) / (k[:-1] + 1.0))
        rec = np.zeros(len(t), dtype=complex)
        for lo in range(0, k_max, 20_000):
            kk = k[lo:lo + 20_000]
            ph = np.exp(1j * np.outer(at, kk))
            rec += (ph - 1.0) @ (l1 * w[lo:lo + 20_000])
            rec += (np.conj(ph) - 1.0) @ (l2 * w[lo:lo + 20_000])
        resid = np.max(np.abs(rec - np.log(char_fn(p, t))))
        bound = 2.0 * (l1 + l2) * sibuya_survival(p.alpha, k_max)
        assert resid <= bound
        if prev is not None:
            assert resid < prev
        prev = resid
    # at 1e5 terms the truncated series matches to better than 1e-6
    assert prev < 1e-6


def test_levy_reconstruction_polylog_bound():
    p = PolylogDS(0.9, 1.0, 1.0, 50.0)
    t = np.array([0.005, 0.02])
    resid = np.abs(_reconstruct_log_cf(p, t, 5_000) - np.log(char_fn(p, t)))
    # integral tail bound on sum_{k > K} of both sides' weights, doubled for |e^{i..}-1|
    bound = 2.0 * (p.p + p.q) * p.a**-p.alpha * 5_000.0**-p.alpha / p.alpha
    assert np.max(resid) <= bound


def test_symmetric_levy_weights_rebuild_cf():
    p = SymmetricDS(0.9, 1.0, 1.0)
    terms = 4096
    wts = symmetric_levy_weights(p, terms)
    lam = sum(derived_intensities(p))
    t = np.linspace(0.1, 3.0, 7)
    k = np.arange(1.0, terms + 1)
    rec = 2.0 * ((np.cos(np.outer(t, k)) - 1.0) @ wts)
    resid = np.max(np.abs(rec - np.log(char_fn(p, t)).real))
    assert resid <= 2.0 * lam * sibuya_survival(p.gamma, terms)


# nu(k) / lam = -2^-g (-1)^k binom(2g, g + k) at k = _SDS_LEVY_K, frozen from
# mpmath to 40 digits; at g = 1 the law is a +-1 walk and only nu(1) is nonzero
_SDS_LEVY_K = (1, 2, 3, 10, 100, 1000, 100_000)
_SDS_LEVY_REF = {
    0.05: (
        4.617364524029957741873421593086205143706e-2,
        2.139754291623638944402428434275934491548e-2,
        1.368039629070851125196279182245947250999e-2,
        3.635076111956979097835569112210681553649e-3,
        2.887168699910865285360818520315666596754e-4,
        2.293357431485986997215787122682215826615e-5,
        1.447010700988230906295217589067873537496e-7,
    ),
    0.3: (
        2.079363263127770236724313312775084841264e-1,
        6.328496887780170416602747773331448700129e-2,
        3.26013476037160297414541439967850888611e-2,
        4.699509526388052996569860857495185024927e-3,
        1.179248431617649916419781740081175944086e-4,
        2.962107636689727457964887020615526532633e-6,
        1.868963374157484568358977063298007596526e-9,
    ),
    0.5: (
        3.001054387190353565183997303355801942215e-1,
        6.00210877438070713036799460671160388443e-2,
        2.572332331877445913014854831447830236184e-2,
        2.256431870067935011416539325831430031741e-3,
        2.250847061569304406498160431527639647653e-5,
        2.2507913530906034465388596122317545146e-7,
        2.250790790449034943649223851108082052939e-11,
    ),
    0.9: (
        4.60070509142714318010454148014354463053e-1,
        1.586450031526600732178113803193359043564e-2,
        4.47460265302374553906165218532922409029e-3,
        1.411844046767098884621888794819066801722e-4,
        2.219940450671181189180512345153083586676e-7,
        3.518090549174109670111095743560729297895e-10,
        8.837036864036583913316542817266202006163e-16,
    ),
    1.0: (0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("gamma", sorted(_SDS_LEVY_REF))
def test_symmetric_levy_weights_closed_form(gamma):
    p = SymmetricDS(gamma, 1.3, 0.7)
    lam = sum(derived_intensities(p))
    wts = symmetric_levy_weights(p, 100_000)
    got = wts[np.array(_SDS_LEVY_K) - 1] / lam
    np.testing.assert_allclose(got, _SDS_LEVY_REF[gamma], rtol=1e-11, atol=0.0)
    if gamma == 1.0:
        assert np.count_nonzero(wts) == 1


def test_symmetric_levy_weights_domain():
    with pytest.raises(DomainError):
        symmetric_levy_weights(DiscreteStable(0.5, 0.0, 1.0, 1.0), 8)
    with pytest.raises(DomainError):
        symmetric_levy_weights(SymmetricDS(0.5, 1.0, 1.0), 0)


# ---------------------------------------------------------------------------
# truncation consistency
# ---------------------------------------------------------------------------

def test_truncated_sds_approaches_symmetric():
    full = SymmetricDS(0.45, 1.0, 0.5)
    lam = sum(derived_intensities(full))
    t = np.linspace(-math.pi / 0.5, math.pi / 0.5, 801)
    g_full = char_fn(full, t)
    prev = None
    for m in (16, 256, 4096):
        d = np.max(np.abs(char_fn(TruncatedSDS(0.45, 1.0, 0.5, m), t) - g_full))
        assert d <= 2.0 * lam * sibuya_survival(0.45, m)
        if prev is not None:
            assert d < prev
        prev = d


def test_truncated_polylog_approaches_polylog():
    full = PolylogDS(0.7, 1.2, 0.4, 0.5)
    t = np.linspace(-math.pi / 0.5, math.pi / 0.5, 801)
    g_full = char_fn(full, t)
    prev = None
    for m in (16, 256, 4096):
        d = np.max(np.abs(char_fn(TruncatedPolylogDS(0.7, 1.2, 0.4, 0.5, m), t) - g_full))
        assert d <= 2.0 * (1.2 + 0.4) * 0.5**-0.7 * m**-0.7 / 0.7
        if prev is not None:
            assert d < prev
        prev = d


@pytest.mark.parametrize("p", [
    TruncatedPolylogDS(2.5, 0.01, 1.0, 0.03125, 6),
    TruncatedPolylogDS(2.875, 0.01, 1.0, 0.03125, 16),
    TruncatedPolylogDS(3.0, 1.01, 1.0, 0.03125, 1000),
], ids=lambda p: f"alpha{p.alpha}-m{p.m}")
def test_truncated_polylog_cf_modulus_near_zero(p):
    # a^-alpha is ~3e4 here: the real part of the exponent must not round
    # above 0 next to t = 0, where the jump terms nearly cancel
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 101)
    assert np.max(np.abs(char_fn(p, t))) <= 1.0
    assert np.max(char_fn(p, t * 1e-6).real) <= 1.0


# ---------------------------------------------------------------------------
# attraction targets
# ---------------------------------------------------------------------------

def test_target_stable_mapping():
    t = target_stable(SymmetricDS(0.75, 1.3, 0.1))
    assert t == AttractionTarget(StableParams(1.5, 0.0, 1.3), gaussian=False)
    assert target_stable(SymmetricDS(1.0, 1.0, 1.0)).gaussian

    t = target_stable(TruncatedSDS(0.75, 1.3, 0.1, 9))
    assert t.stable == StableParams(1.5, 0.0, 1.3)
    assert t.gaussian

    assert target_stable(DiscreteStable(0.7, 0.4, 1.1, 0.25)) == AttractionTarget(
        StableParams(0.7, 0.4, 1.1), gaussian=False)
    assert target_stable(TemperedDS(0.7, 0.4, 1.1, 0.25, 0.4, 0.9)) == AttractionTarget(
        StableParams(0.7, 0.4, 1.1), gaussian=True)


def test_target_stable_polylog():
    # scale from tail matching: sigma^alpha = (P+Q) pi / (2 alpha sin(pi alpha/2) Gamma(alpha))
    t = target_stable(PolylogDS(0.8, 1.0, 1.0, 0.1))
    assert not t.gaussian
    assert t.stable.alpha == 0.8
    assert t.stable.beta == 0.0
    c = 1.7733109069087460316  # pi / (2 * 0.8 * sin(0.4 pi) * Gamma(0.8))
    assert t.stable.sigma == pytest.approx((2.0 * c) ** 1.25, rel=1e-12)

    skew = target_stable(PolylogDS(0.8, 3.0, 1.0, 0.1))
    assert skew.stable.beta == pytest.approx(0.5)

    assert target_stable(PolylogDS(2.5, 1.0, 1.0, 0.1)) == AttractionTarget(None, True)

    tr = target_stable(TruncatedPolylogDS(0.8, 1.0, 1.0, 0.1, 9))
    assert tr.gaussian and tr.stable == t.stable


def test_target_stable_small_lattice_cf_agreement():
    # the whole point of the target: CFs approach it as a -> 0
    for p, sym in [
        (SymmetricDS(0.75, 1.0, 0.01), True),
        (DiscreteStable(0.7, 0.5, 1.0, 0.01), False),
        (PolylogDS(0.8, 1.0, 1.0, 0.01), False),
    ]:
        tgt = target_stable(p).stable
        t = np.linspace(-5.0, 5.0, 201)
        d = np.max(np.abs(char_fn(p, t) - stable_cf(tgt, t, symmetric=sym)))
        assert d < 0.02, type(p).__name__
