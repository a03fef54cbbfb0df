"""Verification-experiment correctness: tail constants against closed forms,
tail-regime classification, CF-convergence distances, the stable-CDF oracle
against Gaussian/Cauchy/Levy closed forms, KS and moment statistics, and the
pre-limit sum experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc, ndtr

from dstable import analysis
from dstable.analysis import (
    PrelimitReport,
    TailReport,
    binned_tv,
    cf_distance,
    ks_statistic,
    prelimit_experiment,
    sample_moments,
    stable_cdf,
    tail_check,
    tail_constant_theoretical,
)
from dstable.errors import DomainError, PrecisionError
from dstable.families import (
    DiscreteStable,
    PolylogDS,
    StableParams,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    char_fn,
)
from dstable.inversion import LatticePMF, pmf_from_cf, tail_prob
from dstable.quadrature import tanh_sinh
from dstable.sampling import RngState, sample_family

# sigma = 1 tail constants: 1 / (Gamma(1-2g) cos(pi g)) away from g = 1/2,
# and sqrt(2)/pi at g = 1/2 (half-exponent closed form)
TAIL_CONSTANTS = {
    0.25: 0.79788456080286535588,
    0.40: 0.70489613249997593345,
    0.45: 0.67193441409567433984,
    0.50: 0.45015815807855303478,
}
# Cauchy(sigma) tail limit 2 sigma / pi: the analytic continuation of the
# general-exponent constant to g = 1/2, sqrt(2) above the closed form
CAUCHY_TAIL_LIMIT = 0.63661977236758134308

# Phi(1.3859 / sqrt 2): N(0, 2) CDF, frozen from a 50-digit evaluation
GAUSS_CDF_AT_1_3859 = 0.83645182871371993076

# regression anchors: sup-CF distance over [-10, 10] (2001 points) at the
# pitch ladder a = 0.5, 0.1, 0.02 — strict decrease is the acceptance claim,
# the values pin the implementation
CF_DISTANCE_ANCHORS = {
    "symmetric": (0.024627997042583342, 0.00043834036406469046,
                  1.7507551738141225e-05),
    "skewed": (0.13041784859417144, 0.042246667144525414,
               0.010145979839219029),
    "polylog": (0.0053889274319935676, 0.00075900418918749268,
                0.00010958367585196804),
}

KS_CRIT_1PC = 1.628  # asymptotic 1% one-sample KS quantile, D_crit = this / sqrt(n)


def _cf_of(p):
    return lambda t: char_fn(p, t)


def _pmf_step_cdfs(pmf):
    """Right-continuous CDF of a lattice PMF and its left-limit companion."""
    xs, cum = pmf.x_values(), np.cumsum(pmf.clamped())

    def right(u):
        i = np.searchsorted(xs, u, side="right")
        return np.where(i > 0, cum[np.maximum(i - 1, 0)], 0.0)

    def left(u):
        i = np.searchsorted(xs, u, side="left")
        return np.where(i > 0, cum[np.maximum(i - 1, 0)], 0.0)

    return right, left


# ---------------------------------------------------------------------------
# closed-form tail constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma, want", sorted(TAIL_CONSTANTS.items()))
def test_tail_constant_frozen(gamma, want):
    got = tail_constant_theoretical(SymmetricDS(gamma, 1.0, 1.0))
    assert got == pytest.approx(want, rel=1e-13)


def test_tail_constant_ignores_pitch():
    vals = [tail_constant_theoretical(SymmetricDS(0.4, 1.0, a))
            for a in (0.01, 0.1, 1.0)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-13)
    assert vals[1] == pytest.approx(vals[2], rel=1e-13)


def test_tail_constant_sigma_power():
    # C(sigma) = sigma^{2 gamma} C(1): the tail scales with the law itself
    base = tail_constant_theoretical(SymmetricDS(0.3, 1.0, 0.1))
    scaled = tail_constant_theoretical(SymmetricDS(0.3, 2.5, 0.1))
    assert scaled == pytest.approx(2.5 ** 0.6 * base, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.1, 5.0), st.floats(0.005, 3.0))
def test_tail_constant_positive_and_pitch_free(gamma, sigma, a):
    c = tail_constant_theoretical(SymmetricDS(gamma, sigma, a))
    assert math.isfinite(c) and c > 0.0
    assert c == pytest.approx(
        tail_constant_theoretical(SymmetricDS(gamma, sigma, 1.0)), rel=1e-11)


def test_tail_constant_gaussian_case_rejected():
    with pytest.raises(DomainError, match="Gaussian tails"):
        tail_constant_theoretical(SymmetricDS(1.0, 1.0, 1.0))


def test_tail_constant_wrong_family_rejected():
    with pytest.raises(DomainError, match="SymmetricDS only"):
        tail_constant_theoretical(DiscreteStable(0.7, 0.0, 1.0, 1.0))


def test_tail_constant_disagreeing_forms_raise(monkeypatch):
    # a Lévy intensity off by 1% breaks the lambda form against the sigma form
    real = analysis.derived_intensities
    monkeypatch.setattr(analysis, "derived_intensities",
                        lambda p: tuple(1.01 * x for x in real(p)))
    with pytest.raises(PrecisionError, match="disagree"):
        tail_constant_theoretical(SymmetricDS(0.4, 1.0, 1.0))


def test_tail_constant_sign_flip_raises(monkeypatch):
    # both forms agree, but a negative Gamma factor makes the constant negative
    monkeypatch.setattr(math, "gamma", lambda x: -1.0)
    with pytest.raises(PrecisionError, match="not positive"):
        tail_constant_theoretical(SymmetricDS(0.4, 1.0, 1.0))


# ---------------------------------------------------------------------------
# tail_check: constant recovery and regime classification
# ---------------------------------------------------------------------------

def test_tail_check_auto_grid_recovers_constant():
    r = tail_check(SymmetricDS(0.45, 1.0, 1.0), n_max=1 << 20)
    assert r.theoretical_constant == pytest.approx(TAIL_CONSTANTS[0.45], rel=1e-13)
    assert r.relative_gap < 0.01
    assert r.x_grid[-1] > 100.0  # the window supports a far threshold
    assert np.all(r.scaled_tail > 0.0)
    assert not r.super_linear and r.decay_exponent < 0.5
    assert r.continuation_constant is None


def test_tail_check_explicit_grid_recovers_constant():
    grid = np.linspace(10.0, 100.0, 19)
    r = tail_check(SymmetricDS(0.4, 1.0, 1.0), x_grid=grid, n_max=1 << 20)
    assert np.array_equal(r.x_grid, grid)
    assert r.relative_gap < 0.05
    # power tails: -log P grows logarithmically, nowhere near super-linear
    assert not r.super_linear and r.decay_exponent < 0.5


def test_tail_check_half_gamma_reports_continuation():
    # the measured constant at gamma = 1/2 is the Cauchy limit 2 sigma / pi,
    # a factor sqrt(2) above the half-exponent closed form; the report must
    # surface both so the discrepancy is visible
    r = tail_check(SymmetricDS(0.5, 1.0, 1.0), n_max=1 << 18)
    assert r.continuation_constant == pytest.approx(CAUCHY_TAIL_LIMIT, rel=1e-13)
    assert r.scaled_tail[-1] == pytest.approx(CAUCHY_TAIL_LIMIT, rel=0.01)
    assert r.relative_gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=0.01)


def test_tail_check_truncated_is_super_linear():
    grid = np.linspace(0.5, 5.0, 46)
    r = tail_check(TruncatedSDS(0.4, 1.0, 0.05, 8), x_grid=grid, n_max=1 << 16)
    assert r.super_linear
    assert 1.2 < r.decay_exponent < 1.6
    assert r.theoretical_constant is None and r.relative_gap is None
    # -log tail must be increasing while the tail is still resolvable
    # (below ~1e-12 the inversion noise plateau freezes the values)
    resolvable = r.scaled_tail < -math.log(1e-12)
    assert np.all(np.diff(r.scaled_tail[resolvable]) > 0.0)


def test_tail_check_tempered_is_super_linear():
    grid = np.linspace(0.5, 5.0, 46)
    r = tail_check(TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5),
                   x_grid=grid, n_max=1 << 16)
    assert r.super_linear
    assert 1.02 < r.decay_exponent < 1.3


def test_tail_check_vanished_tail_decays_faster_than_any_power():
    # jumps of one step: P(|X| > 40) is far below the resolvable 1e-12 at both points
    r = tail_check(TruncatedSDS(0.4, 1.0, 1.0, 1), x_grid=[40.0, 50.0], n_max=1 << 16)
    assert r.decay_exponent == math.inf and r.super_linear


def test_tail_check_short_last_decade_fits_every_point():
    # only x = 30 lies in [3, 30], the last decade, so the fit takes all three points
    x = np.array([1.0, 2.0, 30.0])
    r = tail_check(SymmetricDS(0.4, 1.0, 1.0), x_grid=x, n_max=1 << 20)
    tails = r.scaled_tail / x**0.8  # scaled_tail is x^{2 gamma} P(|X| > x)
    want = np.polyfit(np.log(x), np.log(-np.log(tails)), 1)[0]
    assert r.decay_exponent == pytest.approx(want, rel=1e-12)


def test_tail_check_auto_grid_window_too_small():
    with pytest.raises(PrecisionError, match="window beyond n"):
        tail_check(SymmetricDS(0.25, 1.0, 1.0), n_max=1 << 12)


def test_tail_check_window_cannot_cover_grid():
    with pytest.raises(PrecisionError, match="cannot cover"):
        tail_check(SymmetricDS(0.4, 1.0, 1.0),
                   x_grid=np.linspace(10.0, 200.0, 5), n_max=1 << 8)


def test_tail_check_contamination_unresolvable():
    with pytest.raises(PrecisionError, match="grid-local alias"):
        tail_check(SymmetricDS(0.25, 1.0, 1.0),
                   x_grid=np.linspace(50.0, 200.0, 5), n_max=1 << 14)


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, 2.0, math.nan, "x", 1j, None, True])
def test_tail_check_rejects_alias_tol_outside_unit_interval(tol):
    for grid in (None, np.linspace(10.0, 100.0, 5)):
        with pytest.raises(DomainError, match="alias_tol"):
            tail_check(SymmetricDS(0.4, 1.0, 1.0), x_grid=grid, alias_tol=tol,
                       n_max=1 << 12)


@pytest.mark.parametrize("n_max, grid", [
    (math.nan, None), (math.nan, [10.0, 100.0]), (2.0**20, None), (2.0**20, [10.0, 100.0]),
    (4, [10.0, 100.0]), (1000, None),
])
def test_tail_check_rejects_bad_n_max(n_max, grid):
    with pytest.raises(DomainError, match="n_max"):
        tail_check(SymmetricDS(0.4, 1.0, 1.0), x_grid=grid, n_max=n_max)


def test_tail_check_one_pass_tails_match_tail_prob():
    # at lattice points, between them and past the window edge (k = -2048..2047)
    p = DiscreteStable(0.7, 0.5, 1.0, 0.1)
    pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, 1 << 12)
    x = p.a * np.r_[0.0, 0.5, np.arange(1.0, 60.0), 1000.5, 2047.0, 2048.0, 5000.0]
    want = np.array([pmf.clamped()[np.abs(pmf.x_values()) > xi].sum() for xi in x])
    got = tail_prob(pmf, x)
    assert np.all((got == 0.0) == (want == 0.0))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("bad", [
    np.array([3.0, 2.0]),            # decreasing
    np.array([1.0]),                 # single point
    np.array([-1.0, 2.0]),           # non-positive start
    np.array([[1.0, 2.0], [3.0, 4.0]]),  # not 1-d
    np.array([0.5, np.nan, 5.0]),     # NaN: each comparison with it is False
    np.array([np.nan, 1.0, 5.0]),
])
def test_tail_check_grid_rejected(bad):
    with pytest.raises(DomainError):
        tail_check(SymmetricDS(0.4, 1.0, 1.0), x_grid=bad)


def test_tail_report_rejects_malformed_grids():
    with pytest.raises(DomainError, match="strictly increasing"):
        TailReport(np.array([1.0, 1.0]), np.array([0.5, 0.4]),
                   None, None, 1.0, False)
    with pytest.raises(DomainError, match="strictly increasing"):
        TailReport(np.array([0.5, np.nan, 5.0]), np.ones(3), None, None, 1.0, False)
    with pytest.raises(DomainError, match="equal length"):
        TailReport(np.array([1.0, 2.0]), np.array([0.5]), None, None, 1.0, False)


# ---------------------------------------------------------------------------
# CF convergence distance
# ---------------------------------------------------------------------------

def _cf_ladder(label):
    ctor = {
        "symmetric": lambda a: SymmetricDS(0.75, 1.0, a),
        "skewed": lambda a: DiscreteStable(0.7, 0.5, 1.0, a),
        "polylog": lambda a: PolylogDS(0.8, 1.0, 1.0, a),
    }[label]
    return [cf_distance(ctor(a), 10.0) for a in (0.5, 0.1, 0.02)]


@pytest.mark.parametrize("label", sorted(CF_DISTANCE_ANCHORS))
def test_cf_distance_anchors(label):
    got = _cf_ladder(label)
    for g, want in zip(got, CF_DISTANCE_ANCHORS[label]):
        assert g == pytest.approx(want, rel=1e-6)
    assert got[0] > got[1] > got[2] > 0.0


def test_cf_distance_vanishes_on_tiny_window():
    assert cf_distance(SymmetricDS(0.75, 1.0, 0.1), 1e-9) < 1e-12


def test_cf_distance_rejects_bad_window():
    p = SymmetricDS(0.75, 1.0, 0.1)
    for t_max in (0.0, math.inf):
        with pytest.raises(DomainError, match="t_max"):
            cf_distance(p, t_max)
    with pytest.raises(DomainError, match="points"):
        cf_distance(p, 10.0, points=1)
    with pytest.raises(DomainError, match="points must be an integer"):
        cf_distance(p, 10.0, points=2.5)


def test_cf_distance_rejects_gaussian_only_family():
    with pytest.raises(DomainError, match="Gaussian"):
        cf_distance(PolylogDS(2.5, 1.0, 1.0, 0.1), 10.0)


# ---------------------------------------------------------------------------
# stable CDF oracle
# ---------------------------------------------------------------------------

def test_stable_cdf_gaussian_closed_form():
    s = StableParams(2.0, 0.0, 1.0)
    got = stable_cdf(s, 1.3859)
    assert isinstance(got, float)
    assert got == pytest.approx(GAUSS_CDF_AT_1_3859, abs=1e-9)
    grid = np.linspace(-5.0, 5.0, 101)
    assert np.max(np.abs(stable_cdf(s, grid) - ndtr(grid / math.sqrt(2.0)))) < 1e-9


def test_stable_cdf_cauchy_closed_form():
    s = StableParams(1.0, 0.0, 2.0)
    assert stable_cdf(s, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert stable_cdf(s, 2.0) == pytest.approx(0.75, abs=1e-14)
    assert stable_cdf(s, -2.0) == pytest.approx(0.25, abs=1e-14)


def test_stable_cdf_levy_closed_form():
    # alpha = 1/2, beta = 1 is the Levy law: F(x) = erfc(sqrt(sigma / 2x))
    s = StableParams(0.5, 1.0, 1.0)
    for x in (0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
        assert stable_cdf(s, x) == pytest.approx(
            float(erfc(math.sqrt(1.0 / (2.0 * x)))), abs=1e-7)
    assert stable_cdf(s, -1.0) < 1e-8
    assert abs(stable_cdf(s, 0.0)) < 1e-8


def test_stable_cdf_positivity_closed_form():
    # strictly stable mass below zero:
    # F(0) = 1/2 - arctan(beta tan(pi alpha / 2)) / (pi alpha)
    for alpha, beta in [(0.6, 0.7), (0.8, -0.4)]:
        want = 0.5 - math.atan(beta * math.tan(0.5 * math.pi * alpha)) / (
            math.pi * alpha)
        assert stable_cdf(StableParams(alpha, beta, 1.0), 0.0) == pytest.approx(
            want, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.35, 0.7, 1.4])
def test_stable_cdf_symmetry(alpha):
    s = StableParams(alpha, 0.0, 1.0)
    x = np.array([0.3, 1.0, 5.0, 300.0])
    assert np.max(np.abs(stable_cdf(s, x) + stable_cdf(s, -x) - 1.0)) < 2e-8


def test_stable_cdf_monotone_across_evaluation_regimes():
    # for alpha < 1 the far region is summed by series, the core by
    # quadrature; the CDF must stay strictly increasing through the seam
    s = StableParams(0.7, 0.0, 1.0)
    fine = np.linspace(0.8, 1.6, 81)
    vals = stable_cdf(s, fine)
    assert np.all(np.diff(vals) > 0.0)
    wide = stable_cdf(s, np.linspace(-2000.0, 2000.0, 41))
    assert np.all(np.diff(wide) >= 0.0)
    assert wide[0] > 0.0 and wide[-1] < 1.0


def test_stable_cdf_far_tail_power_law():
    # survival ~ Gamma(a) sin(pi a / 2) / pi * x^{-a} far out
    s = StableParams(0.7, 0.0, 1.0)
    x = 1e6
    one_term = math.gamma(0.7) * math.sin(0.35 * math.pi) / math.pi * x ** -0.7
    assert 1.0 - stable_cdf(s, x) == pytest.approx(one_term, rel=1e-3)


def test_stable_cdf_handles_extreme_arguments():
    s = StableParams(0.7, 0.0, 1.0)
    v = stable_cdf(s, np.array([-1.6e6, 0.0, 1.6e6]))
    assert v[0] < 2e-5 and v[2] > 1.0 - 2e-5
    assert v[1] == pytest.approx(0.5, abs=1e-8)


# W0(4 / (pi alpha tol)) from 40-digit mpmath, the Gil-Pelaez cutoff's Lambert W; the
# argument runs from 1.3e10 down to 6.4e-7, through x < e where log log x is undefined
_W0_TOLS = (1e-8, 1e-6, 1e-4, 1e-2, 0.5, 10.0, 1e6)
_W0_REFS = {
    0.01: (20.258824908633537187, 15.896167195916163737, 11.605588301037338796,
           7.4444377098406116737, 4.1232420762086463637, 1.9015042728083750312,
           0.00012730774617958012393),
    0.3: (17.031172672052152675, 12.718027372456698446, 8.5141483590169678165,
          4.5381811594704628774, 1.6424782381134886427, 0.31097973056415143911,
          4.2441138032436776145e-6),
    1.0: (15.896167195916163737, 11.605588301037338964, 7.4444377098406117997,
          3.5732571222422019179, 0.96762368169831867111, 0.11364603136524126651,
          1.2732379235993206524e-6),
    2.0: (15.244855909897562014, 10.968866876644836724, 6.8364840892468244356,
          3.041301825028391296, 0.65883961924919728617, 0.059957160763406114272,
          6.3661936708323384338e-7),
}


@pytest.mark.parametrize("alpha", list(_W0_REFS))
def test_lambert_w0_frozen(alpha):
    for tol, ref in zip(_W0_TOLS, _W0_REFS[alpha]):
        x = 4.0 / (math.pi * alpha * tol)
        assert analysis._lambert_w0(x) == pytest.approx(ref, rel=5e-16, abs=0.0), tol


# Phi(x) from 40-digit mpmath; Phi(-40) = 3.7e-350 is 0 in float64
_NORMAL_CDF_REFS = (
    (-40.0, 3.6558935409150297037e-350), (-37.5, 4.6053530095819548438e-308),
    (-37.0, 5.7255712225245768227e-300), (-30.0, 4.9067139271481870595e-198),
    (-20.0, 2.7536241186062336951e-89), (-8.5, 9.4795348222033183542e-18),
    (-3.0, 0.0013498980316300945267), (-1.0, 0.15865525393145705141),
    (-0.001, 0.49960105778608893741), (0.0, 0.5), (0.25, 0.59870632568292372424),
    (1.5, 0.933192798731141934), (5.0, 0.99999971334842812081),
    (8.0, 0.9999999999999993779), (9.0, 0.99999999999999999989), (40.0, 1.0),
)


def test_normal_cdf_frozen():
    x, ref = np.array(_NORMAL_CDF_REFS).T
    got = analysis._normal_cdf(x)
    # erfc(-x/sqrt 2) has condition number ~x^2, so x/sqrt 2 rounded costs x^2 ulps
    assert np.all(np.abs(got - ref) <= (1.0 + x * x) * 2.0**-52 * ref + 2.0**-1074)


@pytest.mark.parametrize("alpha, tol", [(1.9, 0.1), (1.9, 0.5), (1.5, 0.2), (0.5, 0.5)])
def test_stable_cdf_coarse_tolerance(alpha, tol):
    # the Gil-Pelaez cutoff solves z e^z = 4 / (pi alpha tol), which a fixed-point
    # iteration in log form left through a negative z at these coarse tolerances
    s = StableParams(alpha, 0.0, 1.0)
    x = np.array([-2.0, -0.3, 0.0, 0.3, 1.0])
    assert np.all(np.abs(stable_cdf(s, x, tol=tol) - stable_cdf(s, x)) <= tol)


@pytest.mark.parametrize("s", [StableParams(1e-3, 0.0, 1.0),
                               StableParams(0.3, 0.2, 1e-308)], ids=["tiny_alpha", "tiny_sigma"])
def test_stable_cdf_cutoff_past_float_range(s):
    # the cutoff W0(4 / (pi alpha tol))^(1/alpha) / sigma is e^3112 and e^719, past the
    # float range: a typed error, and no RuntimeWarning (an error under this config)
    with pytest.raises(PrecisionError, match="cutoff"):
        stable_cdf(s, 0.5)


def test_stable_cdf_shapes_and_validation():
    s = StableParams(0.7, 0.0, 1.0)
    grid = np.array([[-1.0, 0.0], [1.0, 2.0]])
    out = stable_cdf(s, grid)
    assert out.shape == grid.shape
    assert out[0, 1] == pytest.approx(stable_cdf(s, 0.0), abs=1e-12)
    assert stable_cdf(s, np.array([])).size == 0
    for tol in (1e-9, math.inf):
        with pytest.raises(DomainError, match="tol"):
            stable_cdf(s, 1.0, tol=tol)


@pytest.mark.parametrize("s", [StableParams(0.7, 0.5, 1.0), StableParams(0.7, 0.0, 1.0),
                               StableParams(1.5, 0.0, 2.0), StableParams(2.0, 0.0, 1.0)],
                         ids=["gil_pelaez", "series", "alpha_1.5", "gaussian"])
def test_stable_cdf_at_infinity_and_nan(s):
    # the CDF is exactly 0 at -inf and 1 at +inf on every branch; a NaN is no point
    # of the line, and raises before any quadrature runs
    got = stable_cdf(s, np.array([math.inf, 0.0, -math.inf]))
    assert got[0] == 1.0 and got[2] == 0.0 and got[1] == stable_cdf(s, 0.0)
    assert stable_cdf(s, math.inf) == 1.0 and stable_cdf(s, -math.inf) == 0.0
    with pytest.raises(DomainError, match="NaN"):
        stable_cdf(s, np.array([0.0, 1.0, math.nan]))


# ---------------------------------------------------------------------------
# KS statistic
# ---------------------------------------------------------------------------

def test_ks_statistic_discrete_by_hand():
    # empirical: atoms 2/3 at 0, 1/3 at 1; target: F(0)=0.6 with left limit
    # 0.1, F(1)=1 with left limit 0.6 — the exact sup is 0.1, attained just
    # below 0; without the left limits the estimate inflates to 0.6
    samples = [0.0, 0.0, 1.0]
    table = {0.0: (0.6, 0.1), 1.0: (1.0, 0.6)}
    cdf = lambda u: np.array([table[v][0] for v in u])
    cdf_left = lambda u: np.array([table[v][1] for v in u])
    assert ks_statistic(samples, cdf, cdf_left) == pytest.approx(0.1, abs=1e-15)
    assert ks_statistic(samples, cdf) == pytest.approx(0.6, abs=1e-15)


def test_ks_statistic_uniform_midpoints():
    n = 100
    samples = (np.arange(n) + 0.5) / n
    d = ks_statistic(samples, lambda u: np.clip(u, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n, abs=1e-15)


@pytest.mark.parametrize("p, n_inv", [
    (TruncatedSDS(0.4, 1.0, 1.0, 8), 1 << 12),
    (DiscreteStable(0.6, 0.4, 1.0, 0.1), 1 << 20),
])
def test_ks_statistic_exact_for_own_lattice_law(p, n_inv):
    pmf = pmf_from_cf(_cf_of(p), p.a, n_inv)
    draws = sample_family(p, RngState(11), 20_000)
    right, left = _pmf_step_cdfs(pmf)
    d = ks_statistic(draws, right, left)
    assert d < KS_CRIT_1PC / math.sqrt(20_000)


def test_ks_statistic_coarse_lattice_needs_left_limits():
    # on a pitch-1 lattice the naive comparison is off by the largest atom
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    pmf = pmf_from_cf(_cf_of(p), p.a, 1 << 12)
    draws = sample_family(p, RngState(11), 20_000)
    right, _ = _pmf_step_cdfs(pmf)
    assert ks_statistic(draws, right) > 0.4


def test_ks_statistic_rejects_empty():
    with pytest.raises(DomainError):
        ks_statistic([], lambda u: u)


def test_ks_statistic_rejects_nan():
    with pytest.raises(DomainError, match="NaN"):
        ks_statistic([math.nan, 0.0, 1.0], lambda u: np.full_like(u, 0.5))


# ---------------------------------------------------------------------------
# sample moments
# ---------------------------------------------------------------------------

def test_moments_of_fair_signed_coin():
    # +-0.3 with equal probability: mean 0, variance 0.09, excess kurtosis -2
    a = 0.3
    draws = a * (2.0 * np.random.default_rng(0).integers(0, 2, 1_000_000) - 1.0)
    mean, var, kurt = sample_moments(draws)
    assert abs(mean) < 4.0 * a / 1000.0
    assert var == pytest.approx(a * a, rel=0.01)
    assert kurt == pytest.approx(-2.0, abs=1e-3)


def test_moments_of_constant_sample():
    mean, var, kurt = sample_moments(np.full(100, 3.25))
    assert mean == 3.25 and var == 0.0
    assert math.isnan(kurt)


def test_moments_match_cf_curvature():
    # variance from the log-CF second difference: the truncated family has
    # all moments, so the sample variance must settle on the CF's curvature
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    h = 1e-5
    lg = lambda t: math.log(char_fn(p, np.array([t]))[0].real)
    var_cf = -(lg(h) + lg(-h) - 2.0 * lg(0.0)) / h ** 2
    assert var_cf == pytest.approx(2.0264723234, rel=1e-5)
    mean, var, kurt = sample_moments(sample_family(p, RngState(3), 200_000))
    assert var == pytest.approx(var_cf, rel=0.03)
    assert abs(mean) < 4.0 * math.sqrt(var_cf / 200_000)
    assert kurt > 0.0  # compound Poisson with unbounded jump counts


def test_moments_reject_tiny_samples():
    with pytest.raises(DomainError):
        sample_moments([1.0])


def test_moments_reject_nan():
    with pytest.raises(DomainError, match="NaN"):
        sample_moments([math.nan, 1.0, 2.0])


def test_binned_tv_rejects_single_bin():
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    pmf = pmf_from_cf(_cf_of(p), p.a, 1 << 10)
    for bins in (1, 2.5):
        with pytest.raises(DomainError, match="bins"):
            binned_tv(pmf, np.zeros(10), bins=bins)


def test_binned_tv_rejects_empty_sample():
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    pmf = pmf_from_cf(_cf_of(p), p.a, 1 << 10)
    with pytest.raises(DomainError, match="sample"):
        binned_tv(pmf, [])


def test_binned_tv_rejects_nan():
    p = TruncatedSDS(0.4, 1.0, 1.0, 8)
    pmf = pmf_from_cf(_cf_of(p), p.a, 1 << 10)
    with pytest.raises(DomainError, match="NaN"):
        binned_tv(pmf, [math.nan] * 10 + [0.0])


def test_binned_tv_rejects_massless_pmf():
    # valid: the alias bound of 1 covers the missing mass
    with pytest.raises(DomainError, match="pmf carries no mass"):
        binned_tv(LatticePMF(0.1, 0, np.zeros(4), 1.0), [0.0, 0.1])


# ---------------------------------------------------------------------------
# pre-limit sums
# ---------------------------------------------------------------------------

def test_prelimit_crossover_regimes():
    # x-unit cutoff a / theta = 500 puts the stable window out to
    # n* ~ 500^0.7 ~ 78: sums look stable at small n, then the finite
    # variance reasserts and the Gaussian takes over
    p = TemperedDS(0.7, 0.0, 1.0, 0.05, 1e-4, 1e-4)
    rep = prelimit_experiment(p, [2, 10, 50], reps=10_000, seed=7)
    assert rep.ks_to_stable[0] < rep.ks_to_gaussian[0]
    assert rep.ks_to_stable[1] < rep.ks_to_gaussian[1]
    assert rep.ks_to_stable[2] > rep.ks_to_gaussian[2]
    assert np.all(np.diff(rep.ks_to_stable) > 0.0)
    assert np.all(np.diff(rep.ks_to_gaussian) < 0.0)
    assert np.all(np.diff(rep.predicted_sum_variance) < 0.0)
    # frozen run (seed 7): regression band wide enough to survive
    # quadrature-level drift but not a seeding or scaling change; re-frozen when
    # Sibuya draws came from a guide table with a zeta-rejection tail
    assert np.allclose(rep.ks_to_stable, [0.024301, 0.066299, 0.165584],
                       atol=2e-3)
    assert np.allclose(rep.ks_to_gaussian, [0.325520, 0.215228, 0.107100],
                       atol=2e-3)
    assert rep.reps == 10_000 and rep.seed == 7


def test_prelimit_deterministic_and_thread_invariant():
    p = TemperedDS(0.7, 0.0, 1.0, 0.05, 0.05, 0.05)
    a = prelimit_experiment(p, [3], reps=10_000, seed=5)
    b = prelimit_experiment(p, [3], reps=10_000, seed=5)
    c = prelimit_experiment(p, [3], reps=10_000, seed=5, threads=4)
    assert np.array_equal(a.ks_to_stable, b.ks_to_stable)
    assert np.array_equal(a.ks_to_stable, c.ks_to_stable)
    assert np.array_equal(a.predicted_sum_variance, c.predicted_sum_variance)


def test_prelimit_rejects_bad_inputs():
    good = TruncatedSDS(0.4, 1.0, 1.0, 8)
    with pytest.raises(DomainError, match="truncated or tempered"):
        prelimit_experiment(SymmetricDS(0.4, 1.0, 1.0), [2], reps=10_000, seed=0)
    for reps in (9_999, 10_000.0):
        with pytest.raises(DomainError, match="reps"):
            prelimit_experiment(good, [2], reps=reps, seed=0)
    for bad in ([0], [], [[2, 3]], [2.5]):
        with pytest.raises(DomainError, match="n_values"):
            prelimit_experiment(good, bad, reps=10_000, seed=0)


def test_prelimit_constant_sums_are_at_ks_one_from_the_gaussian():
    # Lambda ~ 1e-24: every draw, so every sum, is 0, and the Gaussian has sd 0
    rep = prelimit_experiment(TruncatedSDS(0.4, 1e-12, 1.0, 8), [1, 2], 10_000, 0)
    assert np.all(rep.ks_to_gaussian == 1.0)


def test_tanh_sinh_rejects_an_empty_interval():
    for a, b in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(DomainError, match="b > a"):
            tanh_sinh(np.cos, a, b)


def test_tanh_sinh_unresolved_integrand_raises():
    # a step function with 31 jumps: the level-to-level change never reaches 1e-14
    with pytest.raises(PrecisionError, match="did not reach"):
        tanh_sinh(lambda x: np.sign(np.sin(50 * x)), 0.0, 1.0, tol=1e-14)


def test_prelimit_admits_truncated_polylog():
    # jumps capped at m = 64 steps: finite variance, so the sums sit near the
    # Gaussian already at n = 2 and move away from the alpha = 0.8 stable law
    p = TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64)
    rep = prelimit_experiment(p, [2, 10], reps=10_000, seed=3)
    assert np.all(rep.ks_to_gaussian < 0.05)
    assert np.all(rep.ks_to_stable > 0.3)
    assert rep.ks_to_stable[1] > rep.ks_to_stable[0]
    assert np.all(np.diff(rep.predicted_sum_variance) < 0.0)


@pytest.mark.parametrize("p", [
    TruncatedPolylogDS(1.5, 1.0, 0.5, 0.1, 64),  # skewed alpha = 1.5 target: no stable_cf
    TruncatedPolylogDS(2.5, 1.0, 0.5, 0.1, 64),  # alpha >= 2: no stable target
])
def test_prelimit_rejects_target_before_any_draw(p, monkeypatch):
    monkeypatch.setattr(analysis, "sample_family",
                        lambda *a, **k: pytest.fail("sample_family was called"))
    with pytest.raises(DomainError):
        prelimit_experiment(p, [2], reps=10_000, seed=0)


def test_prelimit_report_rejects_malformed():
    ones = np.ones(3)
    with pytest.raises(DomainError, match="one shape"):
        PrelimitReport(np.arange(3), ones, np.ones(2), ones, reps=10, seed=0)
    with pytest.raises(DomainError, match="KS"):
        PrelimitReport(np.arange(3), 2.0 * ones, ones, ones, reps=10, seed=0)
