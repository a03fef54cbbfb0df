"""Family parameter validation, CF identities, and Levy-measure consistency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import chebyshev

from dstable import families
from dstable.errors import DomainError, PrecisionError
from dstable.families import (
    AttractionTarget,
    CompoundPoissonView,
    DiscreteStable,
    FamilyParams,
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
    target_stable,
)
from dstable.families import _walk_rate
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
    (lambda: SymmetricDS("x", 1.0, 1.0), "gamma must be in"),
    (lambda: SymmetricDS(0.5, 1j, 1.0), "sigma must be > 0"),
    (lambda: TemperedDS(0.5, 0.0, 1.0, 1.0, None, 1.0), "theta1 must be >= 0"),
    (lambda: SymmetricDS(True, 1.0, 1.0), "gamma must be in"),
    (lambda: StableParams(np.array(1.0), 0.0, 1.0), "alpha must be in"),  # a 0-d array
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


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_cf_rejects_non_finite_t(p):
    h = compound_poisson_view(p).jump_cf
    for bad in (math.nan, math.inf, np.array([0.0, -math.inf]), "x", 1j, None, True,
                [True, 0.5], [0.5, np.True_]):
        for f in (lambda t: char_fn(p, t), h):
            with pytest.raises(DomainError, match="finite"):
                f(bad)


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_jump_cf_at_a_scalar_is_a_complex(p):
    # DiscreteStable and TemperedDS raised AttributeError here; the others gave numpy scalars
    h = compound_poisson_view(p).jump_cf
    for t in (0.0, 0.7, -3.0):
        got = h(t)
        assert type(got) is complex and got == h(np.array([t]))[0]


def test_cf_shapes():
    p = DiscreteStable(0.7, 0.0, 1.0, 1.0)
    assert isinstance(char_fn(p, 1.0), complex)
    t = np.linspace(-1, 1, 6).reshape(2, 3)
    assert char_fn(p, t).shape == (2, 3)


def test_cf_reads_ints_past_int64_as_floats():
    p = SymmetricDS(0.5, 1.0, 1.0)
    assert np.array_equal(char_fn(p, [2**70, 1]), char_fn(p, [float(2**70), 1.0]))
    assert char_fn(p, 2**70) == char_fn(p, float(2**70))


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

def _one_minus_exp(theta: float, at: np.ndarray) -> np.ndarray:
    """1 - e^{-theta} e^{i at}, with the real part formed without cancellation."""
    damp = math.exp(-theta)
    re = -math.expm1(-theta) + damp * 2.0 * np.sin(0.5 * at) ** 2
    return re - 1j * damp * np.sin(at)


def _cpow(z: np.ndarray, alpha: float) -> np.ndarray:
    """z**alpha on the principal branch with 0**alpha = 0 exactly."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(alpha * np.log(z))
    return np.where(z == 0, 0.0 + 0.0j, out)


def _jump_gap_reference(p, t):
    """1 - h(t), h the single-jump CF of each family, written from its jump law.

    The library derives h from the log CF; this oracle builds it from each
    family's own jump weights, so exp(-Lambda (1 - h)) = char_fn is a check
    between two formulas rather than of one formula against itself; the
    discrete-stable pair goes through complex log and exp (_cpow), where the
    library works in real polar form. Lambda reaches 1e5, so a gap formed as
    1 - h, one rounding off near t = 0, can move the rebuilt CF by 1e-10; the
    power-law branches form it without that subtraction.
    """
    at = p.a * np.asarray(t, dtype=float)
    if isinstance(p, SymmetricDS):
        return (2.0 * np.sin(0.5 * at) ** 2) ** p.gamma + 0.0j
    if isinstance(p, TruncatedSDS):
        # a jump is a walk of K fair +-1 steps, K ~ Sibuya on 1..m: h = P(cos at) / P(1)
        # with P(c) = sum_k w_k c^k, summed by Horner from its definition
        w = [sibuya_pmf(p.gamma, k) for k in range(1, p.m + 1)]
        c, acc = np.cos(at), 0.0
        for wk in reversed(w):
            acc = (acc + wk) * c
        return 1.0 - acc / sum(w) + 0.0j
    if isinstance(p, DiscreteStable):
        l1, l2 = derived_intensities(p)
        z = 2.0 * np.sin(0.5 * at) ** 2 - 1j * np.sin(at)
        return (l1 * _cpow(z, p.alpha) + l2 * _cpow(np.conj(z), p.alpha)) / (l1 + l2)
    if isinstance(p, TemperedDS):
        l1, l2 = derived_intensities(p)
        base1 = complex(_cpow(_one_minus_exp(p.theta1, np.array(0.0)), p.alpha))
        base2 = complex(_cpow(np.conj(_one_minus_exp(p.theta2, np.array(0.0))), p.alpha))
        lam = l1 * (1.0 - base1.real) + l2 * (1.0 - base2.real)
        side1 = l1 * (1.0 - _cpow(_one_minus_exp(p.theta1, at), p.alpha))
        side2 = l2 * (1.0 - _cpow(np.conj(_one_minus_exp(p.theta2, at)), p.alpha))
        return 1.0 - (side1 + side2) / lam
    if isinstance(p, PolylogDS):
        # a jump of size k has probability k^-(1+alpha) / zeta(1+alpha) on each side
        li, z = polylog_unit(1.0 + p.alpha, at), riemann_zeta(1.0 + p.alpha)
        return (p.p * (z - li) + p.q * (z - np.conj(li))) / ((p.p + p.q) * z)
    # 1 - e^{+-ix} = 2 sin^2(x/2) -+ i sin x, summed against w_k = k^-(1+alpha)
    k = np.arange(1.0, p.m + 1.0)
    w = k ** -(1.0 + p.alpha)
    x = at[..., None] * k
    versine, sine = 2.0 * np.sin(0.5 * x) ** 2 @ w, np.sin(x) @ w
    return ((p.p + p.q) * versine - 1j * (p.p - p.q) * sine) / ((p.p + p.q) * w.sum())


@pytest.mark.parametrize("p", FIXED_FAMILIES, ids=lambda p: type(p).__name__)
def test_triangle_identity_fixed(p):
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 1001)
    v = compound_poisson_view(p)
    assert isinstance(v, CompoundPoissonView)
    assert v.total_intensity > 0.0
    gap = _jump_gap_reference(p, t)
    rebuilt = np.exp(-v.total_intensity * gap)
    assert np.max(np.abs(char_fn(p, t) - rebuilt)) < 1e-10
    # the derived jump CF is the jump law's CF: h(0) = 1, |h| <= 1
    assert np.max(np.abs(v.jump_cf(t) - (1.0 - gap))) < 1e-12
    assert abs(complex(v.jump_cf(np.array([0.0]))[0]) - 1.0) < 1e-12
    assert np.all(np.abs(v.jump_cf(t)) <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(any_family())
# Lambda = 3.6e5 and 4.0e5: an h(0) one ulp off 1 put the rebuilt CF 1.2e-10 and
# 8.8e-11 off at t = 0
@example(TruncatedPolylogDS(alpha=3.0, p=1.51, q=1.75, a=0.021484375, m=33))
@example(PolylogDS(alpha=3.0, p=1.4648387430030487, q=1.4548387430030487, a=0.02))
def test_triangle_identity_random(p):
    t = np.linspace(-math.pi / p.a, math.pi / p.a, 101)
    v = compound_poisson_view(p)
    rebuilt = np.exp(-v.total_intensity * _jump_gap_reference(p, t))
    assert np.max(np.abs(char_fn(p, t) - rebuilt)) < 1e-10


def test_dispatchers_reject_non_family_objects():
    for s in (StableParams(0.5, 0.0, 1.0), FamilyParams()):  # the bare base has no law
        for call in (lambda: char_fn(s, 1.0), lambda: compound_poisson_view(s),
                     lambda: derived_intensities(s), lambda: levy_weight(s, 1),
                     lambda: target_stable(s), lambda: sample_family(s, RngState(0), 10),
                     lambda: sample_family(s, RngState(0), 0)):
            with pytest.raises(DomainError, match="not a family parameter object"):
                call()


@pytest.mark.parametrize("p", [
    PolylogDS(400.0, 1.0, 0.0, 0.1),  # a^-alpha = 1e400
    TruncatedPolylogDS(400.0, 1.0, 0.0, 0.1, 4),
    DiscreteStable(0.7, 0.5, 1e300, 1e-300),  # (sigma / a)^alpha = 1e420
    TemperedDS(0.7, 0.5, 1e300, 1e-300, 1.0, 1.0),
    SymmetricDS(0.5, 1e300, 1e-300),  # sigma / a = 1e600
    SymmetricDS(1.0, 1e300, 1.0),  # sigma^2 = 1e600
    SymmetricDS(1.0, 1.0, 1e-200),  # a^2 underflows to 0
    TruncatedSDS(0.5, 1e300, 1e-300, 4),
])
def test_overflowing_intensity_is_precision_error(p):
    # Lambda past float64 raises a typed error everywhere, never a bare OverflowError or
    # ZeroDivisionError, nor a NaN or -0j CF with a RuntimeWarning; each of the six
    # classes is a FamilyParams, so the guard passes it on to the overflow check
    assert isinstance(p, FamilyParams)
    calls = [lambda: char_fn(p, 0.3), lambda: char_fn(p, np.linspace(-1.0, 1.0, 5)),
             lambda: compound_poisson_view(p), lambda: derived_intensities(p),
             lambda: levy_weight(p, 1), lambda: target_stable(p),
             lambda: sample_family(p, RngState(0), 10)]
    for call in calls:
        with pytest.raises(PrecisionError, match="overflows"):
            call()


def test_polylog_alpha_below_float_resolution():
    # 1 + alpha rounds to 1: a PrecisionError naming alpha from every dispatcher, not a
    # DomainError about riemann_zeta's s; at alpha = 2^-52 the CF is still computed
    p = PolylogDS(1e-17, 1.0, 0.0, 1.0)
    for call in (lambda: char_fn(p, 1.0), lambda: sample_family(p, RngState(0), 3)):
        with pytest.raises(PrecisionError, match="alpha = 1e-17"):
            call()
    assert char_fn(PolylogDS(2.0**-52, 1.0, 0.0, 1.0), np.array([0.0, 1.0])).tolist() == [1, 0]


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
    assert np.array_equal(char_fn(p_t, t), char_fn(p_d, t))


# (1 - e^{-theta} e^{ix})^alpha - (1 - e^{-theta})^alpha, one side of the discrete-stable
# pair's log CF over its intensity, from 40-digit mpmath at x in _SIDE_X (the floats)
_SIDE_X = (1e-9, 1e-3, 0.5, 2.0, math.pi, 2.0 * math.pi - 1e-6, 37.0)
_SIDE_MPMATH = {
    (0.0, 0.05): (
        0.3537196179682465-0.027838337662555217j, 0.7057648107245997-0.055527141848487005j,
        0.9633278319669986-0.06371063953657113j, 1.025950865121934-0.02928840170324163j,
        1.0352649238413776-3.1695846881296783e-18j, 0.4996422416414596+0.039322684650436215j,
        0.9794294248942585+0.059880380631443686j,
    ),
    (0.0, 0.3): (
        0.001777791740240333-0.0009058301352175381j, 0.11217964597596326-0.05713719066505975j,
        0.7469755168665049-0.31250977325470336j, 1.151919213740321-0.19920426666877494j,
        1.2311444133449163-2.2615755976364962e-17j, 0.014121502827164966+0.007195262407397255j,
        0.8334432635259781+0.31978831252315404j,
    ),
    (0.0, 0.7): (
        2.2753424281382296e-07-4.4656109492218276e-07j, 0.003608651526954177-0.007076253593847963j,
        0.3679914525488513-0.48786687780239574j, 1.3262274203570512-0.5600282193598879j,
        1.624504792712471-6.963056081082016e-17j, 2.8644883697750262e-05+5.6218701031073926e-05j,
        0.5035938769699633+0.5789172681083682j,
    ),
    (0.0, 0.99): (
        1.93242225708816e-11-1.2301169955976707e-09j, 1.7361027555045616e-05-0.001071378607914329j,
        0.12964779294609272-0.4811402356893575j, 1.4139346415110645-0.8965203983182244j,
        1.9861849908740719-1.2040256703362812e-16j, 1.8034981528362115e-08+1.148011968143936e-06j,
        0.2433464733794002+0.6430540310119223j,
    ),
    (0.0001, 0.05): (
        1.498527832099274e-12-3.1546210990995465e-07j, 0.07525088238223802-0.0520221451289568j,
        0.3323702812620989-0.0637010486020801j, 0.39499258024981354-0.02928668160030837j,
        0.4043065686450583-3.169418285537875e-18j, 1.4984560024620603e-06+0.0003154523701913875j,
        0.348471620393301+0.059873513821797474j,
    ),
    (0.0001, 0.3): (
        6.625236649409535e-13-1.8927490001674175e-07j, 0.05091122133727322-0.05383740146462027j,
        0.6838878856145203-0.3124612067793766j, 1.0888090661963945-0.19919018430754956j,
        1.1680311587519037-2.261428598021375e-17j, 6.624983259374712e-07+0.0001892711460415535j,
        0.7703491348038626+0.3197492213069204j,
    ),
    (0.0001, 0.7): (
        1.6644678731638837e-14-1.1093309374396356e-08j,
        0.0025224666921787437-0.006830984138248258j, 0.36646060726699564-0.4877993659209701j,
        1.324608751999907-0.5599788156798041j, 1.6228630997384832-6.962464243857528e-17j,
        1.6644264106062645e-08+1.1093237265531077e-05j, 0.5020469981615914+0.5788486569957316j,
    ),
    (0.0001, 0.99): (
        5.481025978455092e-17-1.0854054109655858e-09j,
        1.3778077118889917e-05-0.0010696598908970143j, 0.12962500145919278-0.48109128854370303j,
        1.41378350606456-0.8964310850841144j, 1.9859770372158638-1.2039058757269138e-16j,
        5.4809341610918646e-11+1.0854052286427702e-06j, 0.24331210389418703+0.6429891583605692j,
    ),
    (0.05, 0.05): (
        8.187557695907076e-18-8.385042996456579e-10j, 8.185989181694348e-06-0.0008383979320575293j,
        0.10284724030252274-0.05895124080133424j, 0.16489428055397806-0.028430258156996506j,
        0.17416711022416587-3.086549258357124e-18j, 8.18755770063778e-12+8.385042998618443e-07j,
        0.11871421994881094+0.05646429321072034j,
    ),
    (0.05, 0.3): (
        1.7321683335503597e-17-2.364264244887346e-09j,
        1.7319058429335393e-05-0.0023640693699545907j, 0.3472378277517047-0.2887819217796051j,
        0.7403408178586516-0.19223477508332623j, 0.8179985207349276-2.1887771530056167e-17j,
        1.732168334620564e-11+2.3642642456019823e-06j, 0.4301632068847233+0.30058311099363594j,
    ),
    (0.05, 0.7): (
        5.645153661212842e-18-1.6479193443896672e-09j,
        5.644632774168621e-06-0.0016478735075959317j, 0.27418498956312226-0.4552217810250309j,
        1.1890233883756613-0.5358045485315025j, 1.4759715617615135-6.672701029109211e-17j,
        5.645153665035321e-12+1.64791934497779e-06j, 0.4018113269068769+0.545529409234374j,
    ),
    (0.05, 0.99): (
        5.799518567464224e-19-9.705968817080087e-10j, 5.799447383739496e-07-0.000970596003840498j,
        0.12175744091788888-0.45728517854894685j, 1.3434319856906682-0.8529527087430597j,
        1.8879635118355573-1.1455874278397354e-16j, 5.799518571855264e-13+9.705968820805266e-07j,
        0.22980805793418474+0.6114224988027013j,
    ),
    (0.5, 0.05): (
        9.064461955835598e-20-7.356265768112879e-11j, 9.064444276397058e-08-7.356253758821056e-05j,
        0.0158074493653859-0.026990846772450235j, 0.06115636251062246-0.021067026887411505j,
        0.06955380307656829-2.3672223241147993e-18j, 9.064461962792248e-14+7.356265770930879e-08j,
        0.024731797572087943+0.03083599788734022j,
    ),
    (0.5, 0.3): (
        3.6338789719217015e-19-3.4957179595926383e-10j,
        3.633873540705605e-07-0.00034957138434973576j, 0.06862101875046991-0.13888125432750992j,
        0.33426493309694255-0.1363711143194073j, 0.39691827934999957-1.5990518741378904e-17j,
        3.633878974712229e-13+3.49571796093335e-07j, 0.11231006336725657+0.1659781926690201j,
    ),
    (0.5, 0.7): (
        4.1070315008745593e-19-5.61665217453512e-10j,
        4.1070284390835277e-07-0.0005616649072214544j, 0.08884440303336114-0.25002768026320943j,
        0.6728942288661727-0.3566102296585686j, 0.8730289726999579-4.5101911174751584e-17j,
        4.1070315040315074e-13+5.616652176692784e-07j, 0.1577035075769784+0.3199113880158212j,
    ),
    (0.5, 0.99): (
        3.0771764377322966e-19-6.060924089281275e-10j,
        3.0771761027999126e-07-0.0006060923008169661j, 0.0749807194211086-0.28990429834788733j,
        0.8535965694366094-0.5446058447837199j, 1.2017758887042296-7.318800602968312e-17j,
        3.077176440099586e-13+6.060924091611875e-07j, 0.14326087237305288+0.3885389586043901j,
    ),
    (3.0, 0.05): (
        1.3715867354433425e-21-2.613103844735247e-12j,
        1.3715865852191086e-09-2.6131033419682634e-06j,
        0.00033367746693936315-0.0012449629418169658j, 0.0036228016649526534-0.002218544749587754j,
        0.0049825226268090305-2.9110606421917016e-19j,
        1.371586736498511e-15+2.6131038457400244e-09j, 0.0006357324743313085+0.001661659472486979j,
    ),
    (3.0, 0.3): (
        8.023735721074613e-21-1.547972187573035e-11j,
        8.023734897551793e-09-1.5479719003473634e-05j, 0.00195527669352651-0.00738732077340698j,
        0.02158272387244642-0.013382591037731612j, 0.029886944999191655-1.767981871977139e-18j,
        8.023735727247367e-15+1.5479721881682637e-08j, 0.003730910421649813+0.009874794439765192j,
    ),
    (3.0, 0.7): (
        1.7972635628927052e-20-3.538900183802402e-11j,
        1.7972633982477394e-08-3.538899565540772e-05j, 0.004391464293865079-0.01693319367398602j,
        0.04978486923186621-0.03149149210757453j, 0.06971313658559665-4.2062499889042864e-18j,
        1.7972635642753813e-14+3.538900185163224e-08j, 0.008399878471362329+0.02268922390813935j,
    ),
    (3.0, 0.99): (
        2.467010715645599e-20-4.9314375702292445e-11j, 2.46701050938063e-08-4.931436747008304e-05j,
        0.006039696405681626-0.023641034766156446j, 0.06982104566134906-0.04480920233042742j,
        0.09857880700203961-6.0332537071980905e-18j, 2.4670107175435465e-14+4.931437572125581e-08j,
        0.011573035360142696+0.031731745331337234j,
    ),
}


def _side_ref(theta, alpha, x):
    s = _SIDE_MPMATH[(theta, alpha)][_SIDE_X.index(abs(x))]
    return s if x > 0.0 else s.conjugate()


@pytest.mark.parametrize("theta1,theta2", [(0.0, 0.0), (1e-4, 0.05), (0.5, 0.0), (3.0, 3.0)])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.99])
def test_discrete_stable_pair_log_cf_mpmath(theta1, theta2, alpha):
    # relative accuracy next to 0, at pi and next to 2 pi; DiscreteStable at theta = 0
    at = np.array([1e-9, -1e-9, 1e-3, 0.5, math.pi, -2.0, 2.0 * math.pi - 1e-6, 37.0])
    for beta in (-0.9, 0.0, 1.0):
        if theta1 + theta2 == 0.0:
            p = DiscreteStable(alpha, beta, 1.0, 1.0)
        else:
            p = TemperedDS(alpha, beta, 1.0, 1.0, theta1, theta2)
        l1, l2 = derived_intensities(p)
        # the left side is conj S(theta2, x) = S(theta2, -x)
        ref = np.array([-l1 * _side_ref(theta1, alpha, x) - l2 * _side_ref(theta2, alpha, -x)
                        for x in at])
        got = p._log_cf(at)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14, beta


# _sibuya_side at tiny theta, from 50-digit mpmath with b = -expm1(-theta), at x in
# _SIDE_X[:5]; u = alpha log(|N|/b) is in the hundreds there, where b^alpha e^u would
# scale the rounding of u to about 5e-14
_TINY_THETA_MPMATH = {
    (1e-300, 0.05): (
        0.3537196179682455-0.027838337662555217j, 0.7057648107245987-0.055527141848487005j,
        0.9633278319669976-0.06371063953657113j, 1.0259508651219331-0.02928840170324163j,
        1.0352649238413765-3.1695846881296783e-18j,
    ),
    (1e-300, 0.3): (
        0.001777791740240333-0.0009058301352175381j, 0.11217964597596326-0.05713719066505975j,
        0.7469755168665049-0.31250977325470336j, 1.151919213740321-0.19920426666877494j,
        1.2311444133449163-2.2615755976364962e-17j,
    ),
    (1e-300, 0.7): (
        2.2753424281382296e-07-4.4656109492218276e-07j,
        0.003608651526954177-0.007076253593847963j, 0.3679914525488513-0.48786687780239574j,
        1.3262274203570512-0.5600282193598879j, 1.624504792712471-6.963056081082016e-17j,
    ),
    (1e-300, 0.9999): (
        1.574059908431527e-13-1.0020744629738016e-09j,
        6.574835747675838e-07-0.0010006907564838665j, 0.12248937726414713-0.47944309731313584j,
        1.4161250192265433-0.9091692647622596j, 1.9998613753683072-1.2244394598500062e-16j,
    ),
    (2.3e-308, 0.05): (
        0.3537196179682461-0.027838337662555217j, 0.7057648107245993-0.055527141848487005j,
        0.9633278319669981-0.06371063953657113j, 1.0259508651219338-0.02928840170324163j,
        1.0352649238413771-3.1695846881296783e-18j,
    ),
    (2.3e-308, 0.3): (
        0.001777791740240333-0.0009058301352175381j, 0.11217964597596326-0.05713719066505975j,
        0.7469755168665049-0.31250977325470336j, 1.151919213740321-0.19920426666877494j,
        1.2311444133449163-2.2615755976364962e-17j,
    ),
    (2.3e-308, 0.7): (
        2.2753424281382296e-07-4.4656109492218276e-07j,
        0.003608651526954177-0.007076253593847963j, 0.3679914525488513-0.48786687780239574j,
        1.3262274203570512-0.5600282193598879j, 1.624504792712471-6.963056081082016e-17j,
    ),
    (2.3e-308, 0.9999): (
        1.574059908431527e-13-1.0020744629738016e-09j,
        6.574835747675838e-07-0.0010006907564838665j, 0.12248937726414713-0.47944309731313584j,
        1.4161250192265433-0.9091692647622596j, 1.9998613753683072-1.2244394598500062e-16j,
    ),
}


@pytest.mark.parametrize("theta,alpha", sorted(_TINY_THETA_MPMATH))
def test_sibuya_side_tiny_theta_mpmath(theta, alpha):
    x = np.array(_SIDE_X[:5])
    re, im = families._sibuya_side(theta, alpha, np.r_[x, -x])
    ref = np.array(_TINY_THETA_MPMATH[theta, alpha])
    ref = np.r_[ref, ref.conj()]
    assert np.max(np.abs(re + 1j * im - ref) / np.abs(ref)) <= 1e-15


# Lambda = (l1 + l2)(1 - (1 - e^{-theta})^alpha) at beta = 0, sigma = a = 1, from 40-digit
# mpmath; formed as 1 - (...)^alpha, the parent's value was 3.1e-6 and 60% off
_TEMPERED_RATE_MPMATH = {(0.7, 30.0): 1.4428354958850733e-13,
                         (0.3, 36.0): 7.809783993522808e-17}


@pytest.mark.parametrize("alpha,theta", sorted(_TEMPERED_RATE_MPMATH))
def test_tempered_total_intensity_mpmath(alpha, theta):
    lam = compound_poisson_view(TemperedDS(alpha, 0.0, 1.0, 1.0, theta, theta)).total_intensity
    ref = _TEMPERED_RATE_MPMATH[(alpha, theta)]
    assert abs(lam - ref) <= 1e-14 * ref


@pytest.mark.parametrize("p", [TemperedDS(0.7, 0.0, 1.0, 1.0, 800.0, 0.5),
                               TemperedDS(0.7, 0.3, 1.0, 1.0, 1e-200, 0.5),
                               TemperedDS(0.01, 0.3, 1.0, 1.0, 1e-320, 0.5),
                               TemperedDS(0.05, -0.4, 1.0, 1.0, 3.0, 1e-4),
                               DiscreteStable(0.99, 0.5, 1.0, 1.0)], ids=repr)
def test_discrete_stable_pair_extreme_theta_and_edge_angles(p):
    # no overflow at theta = 800 (expm1(800) does), none from 1/theta at 1e-200 or at a
    # subnormal theta, and no warning at a t = 0 or +-pi (warnings are errors here)
    t = np.array([0.0, math.pi, -math.pi, 1e-9, 0.5, 37.0]) / p.a
    g = char_fn(p, t)
    assert g[0] == 1.0
    assert np.all(np.isfinite(g)) and np.all(np.abs(g) <= 1.0)
    assert g[2] == np.conj(g[1])
    v = compound_poisson_view(p)
    assert math.isfinite(v.total_intensity) and v.total_intensity > 0.0
    rebuilt = np.exp(-v.total_intensity * _jump_gap_reference(p, t))
    assert np.max(np.abs(g - rebuilt)) < 1e-12


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


@pytest.mark.parametrize("s", [StableParams(2.0, 0.0, 1.0), StableParams(0.7, 0.5, 1e10)],
                         ids=["gaussian", "skewed"])
def test_stable_cf_is_quietly_zero_at_large_finite_t(s):
    # (sigma |t|)^alpha overflows to inf here, and the CF is 0 with no overflow warning
    assert stable_cf(s, 1e300) == 0j
    assert np.array_equal(stable_cf(s, np.array([-1e300, 1e300])), [0j, 0j])


def test_stable_cf_skewed_domain_errors():
    with pytest.raises(DomainError):
        stable_cf(StableParams(1.0, 0.5, 1.0), 1.0)
    with pytest.raises(DomainError):
        stable_cf(StableParams(1.3, 0.5, 1.0), 1.0)


@pytest.mark.parametrize("s", [StableParams(0.7, 0.0, 1.0), StableParams(0.7, 0.5, 1.0)],
                         ids=["symmetric", "skewed"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                               np.array([0.0, 1.0, math.nan]), np.array([-math.inf, 2.0]),
                               "x", 1j, None, True, [True, 0.5], [0.5, np.True_]])
def test_stable_cf_rejects_non_finite_t(s, t):
    # NaN came back as nan+0j and +-inf as 0, where char_fn raises
    with pytest.raises(DomainError, match="t must be finite"):
        stable_cf(s, t)


@pytest.mark.parametrize("alpha", [0.05, 0.8, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("a", [1e-3, 0.1, 1.0])
def test_polylog_cf_is_one_at_origin(alpha, a):
    # Lambda, the subtracted zeta(s) and polylog_unit(s, 0) share one riemann_zeta value
    assert char_fn(PolylogDS(alpha, 1.0, 0.5, a), 0.0) == 1.0


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
    # TruncatedSDS at gamma = 1/2, m = 4: walk lengths w = (1/2, 1/8, 1/16, 5/128),
    # nu_j = lambda sum_k w_k P(k-step walk ends at j), lambda = sqrt 2
    ts = TruncatedSDS(0.5, 1.0, 1.0, 4)
    lam = math.sqrt(2.0)
    assert levy_weight(ts, 1) == pytest.approx(lam * (0.5 / 2 + 3 / 8 / 16), rel=1e-15)
    assert levy_weight(ts, -2) == pytest.approx(lam * (1 / 8 / 4 + 4 / 16 * 5 / 128), rel=1e-15)
    assert levy_weight(ts, 4) == pytest.approx(lam * 5 / 128 / 16, rel=1e-15)
    assert levy_weight(ts, 5) == 0.0


def test_levy_weight_domain_errors():
    p = PolylogDS(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        levy_weight(p, 0)
    with pytest.raises(DomainError):
        levy_weight(p, 1.5)


# levy_weight(TruncatedSDS(0.4, 1, 1, 8), k) from 40-digit mpmath:
# lambda sum_{k<=8} w_k P(k-step walk ends at j), w_k the Sibuya masses
_TSDS_LEVY_MPMATH = {1: 0.31454851819535703, -1: 0.31454851819535703,
                     2: 0.064784291581684952, 8: 7.8117507333576885e-5}


def test_truncated_sds_levy_weight_mpmath():
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    for k, ref in _TSDS_LEVY_MPMATH.items():
        assert abs(levy_weight(p, k) - ref) <= 1e-15 * ref
    assert levy_weight(p, 9) == 0.0


@pytest.mark.parametrize("gamma", [0.05, 0.4, 0.9, 1.0])
@pytest.mark.parametrize("m", [1, 2, 8, 300, 2048])
def test_truncated_sds_cosine_weights_keep_the_walk_mass(gamma, m):
    # P(1) = sum_j b_j: the cosine series keeps every walk, the ones ending at 0 in b_0
    b = TruncatedSDS(gamma, 1.0, 1.0, m)._table[2]
    assert np.all(b >= 0.0)
    assert abs(b.sum() - math.fsum(sibuya_pmf(gamma, k) for k in range(1, m + 1))) <= 1e-15


def test_truncated_sds_table_is_built_once_per_object(monkeypatch):
    # char_fn, levy_weight and every 2^16-draw sampling batch read one Chebyshev table
    calls = []
    real = chebyshev.poly2cheb  # imported by the table on first use
    monkeypatch.setattr(chebyshev, "poly2cheb", lambda c: calls.append(1) or real(c))
    p = TruncatedSDS(0.35, 1.1, 0.7, 12)
    char_fn(p, np.linspace(-3.0, 3.0, 101))
    for k in range(1, 51):
        levy_weight(p, k)
    sample_family(p, RngState(5), size=(1 << 17) + 1, threads=2)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [TruncatedSDS(0.4, 1.0, 1.0, 8),
                               TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 8)])
def test_truncated_table_cache_stays_out_of_dataclass_behaviour(p):
    fresh = dataclasses.replace(p)
    char_fn(p, np.linspace(-1.0, 1.0, 9))
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    q = dataclasses.replace(p, m=4)
    assert q._table[2].size == 5 and p._table[2].size == 9
    assert levy_weight(q, 4) > 0.0 and levy_weight(q, 5) == 0.0 and levy_weight(q, -5) == 0.0
    assert levy_weight(p, 5) > 0.0


@pytest.mark.parametrize("gamma,sigma,a", [(0.4, 1.0, 1.0), (0.9, 1.3, 0.5)])
def test_truncated_sds_levy_weights_approach_symmetric(gamma, sigma, a):
    # nu_k - nu_k^(m) = lambda sum_{j>m} w_j P(j-step walk ends at k), in [0, lambda P(K > m)]
    ks = (1, 2, 3, 10, 15)
    nu = [levy_weight(SymmetricDS(gamma, sigma, a), k) for k in ks]
    lam = _walk_rate(SymmetricDS(gamma, sigma, a))
    prev = None
    for m in (16, 256, 2048):
        d = np.array([nu_k - levy_weight(TruncatedSDS(gamma, sigma, a, m), k)
                      for nu_k, k in zip(nu, ks)])
        assert np.all(d >= 0.0)
        assert np.all(d <= lam * sibuya_survival(gamma, m))
        if prev is not None:
            assert np.all(d < prev)
        prev = d


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
    wts = np.array([levy_weight(p, k) for k in range(1, terms + 1)])
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
    got = np.array([levy_weight(p, k) for k in _SDS_LEVY_K]) / lam
    np.testing.assert_allclose(got, _SDS_LEVY_REF[gamma], rtol=1e-13, atol=0.0)
    for k in _SDS_LEVY_K:
        assert levy_weight(p, -k) == levy_weight(p, k)
    if gamma == 1.0:
        # past k = 1 the closed form is exactly 0, on both sides of its k = 64 switch
        assert [k for k in range(1, 4097) if levy_weight(p, k) != 0.0] == [1]


@pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.9])
def test_symmetric_levy_weight_far_asymptote(gamma):
    # nu(k) ~ lam 2^-g Gamma(2g+1) sin(pi g) / pi k^{-1-2g}; the next term is O(1/k)
    p = SymmetricDS(gamma, 1.3, 0.7)
    lam = sum(derived_intensities(p))
    k = 10**12
    asymptote = (lam * 2.0**-gamma * math.gamma(2.0 * gamma + 1.0) * math.sin(math.pi * gamma)
                 / math.pi * float(k) ** (-1.0 - 2.0 * gamma))
    assert levy_weight(p, k) == pytest.approx(asymptote, rel=1e-9)
    assert levy_weight(p, -k) == levy_weight(p, k)


def test_symmetric_levy_weight_at_subnormal_gamma():
    # Gamma(g) overflows below g ~ 6e-309; nu(1) -> lam g as g -> 0
    p = SymmetricDS(1e-310, 1.0, 1.0)
    assert levy_weight(p, 1) == pytest.approx(sum(derived_intensities(p)) * 1e-310, rel=1e-9)


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


# log CF of TruncatedSDS(0.4, 1, 1, m) at a t in _TSDS_AT, from 40-digit mpmath:
# 2^0.4 sum_{k<=m} w_k (cos^k(at) - 1), w_k the Sibuya masses
_TSDS_AT = (1e-9, 1e-5, 1e-3, 1.0, 3.0)
_TSDS_LOG_CF_MPMATH = {
    1: (-2.639015821545789e-19, -2.6390158215237973e-11, -2.639015601627811e-7,
        -0.24262989758841919, -1.0503243366571959),
    8: (-1.0132361484547147e-18, -1.0132361483797775e-10, -1.0132353990826694e-6,
        -0.58710461469913334, -1.3492873632401398),
    64: (-3.574654650900827e-18, -3.574654648759758e-10, -3.574633240346691e-6,
         -0.79938118487775044, -1.5697767427499795),
    300: (-9.0456344028665747e-18, -9.0456343774351512e-10, -9.0453800964162747e-6,
          -0.87648677761006094, -1.6471517894849931),
}


@pytest.mark.parametrize("m", sorted(_TSDS_LOG_CF_MPMATH))
def test_truncated_sds_log_cf_mpmath(m):
    # relative accuracy down to a t = 1e-9, where cos(at) rounds to 1
    got = TruncatedSDS(0.4, 1.0, 1.0, m)._log_cf(np.array(_TSDS_AT))
    ref = np.array(_TSDS_LOG_CF_MPMATH[m])
    assert np.all(got.imag == 0.0)
    assert np.max(np.abs(got.real - ref) / np.abs(ref)) <= 1e-14


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
    for p in [
        SymmetricDS(0.75, 1.0, 0.01),
        DiscreteStable(0.7, 0.5, 1.0, 0.01),
        PolylogDS(0.8, 1.0, 1.0, 0.01),
    ]:
        tgt = target_stable(p).stable
        t = np.linspace(-5.0, 5.0, 201)
        d = np.max(np.abs(char_fn(p, t) - stable_cf(tgt, t)))
        assert d < 0.02, type(p).__name__
