"""Acceptance gate: one test per required end-to-end property, each named so
`pytest -v` emits a single pass/fail line per property, asserted at the
stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest
from scipy.special import ive

from dstable.analysis import (
    binned_tv,
    cf_distance,
    prelimit_experiment,
    tail_check,
    tail_constant_theoretical,
)
from dstable.families import (
    DiscreteStable,
    PolylogDS,
    SymmetricDS,
    TemperedDS,
    TruncatedPolylogDS,
    TruncatedSDS,
    char_fn,
    compound_poisson_view,
)
from dstable.inversion import pmf_from_cf
from dstable.sampling import RngState, sample_family
from dstable.special import polylog_unit, riemann_zeta, sibuya_survival
from test_families import _jump_cf_reference


def _draw_families(rng):
    """Five random parameter draws for each of the six families."""
    for _ in range(5):
        g = rng.uniform(0.15, 1.0)
        al = rng.uniform(0.2, 0.95)
        be = rng.uniform(-1.0, 1.0)
        sg = rng.uniform(0.3, 2.5)
        a = rng.uniform(0.05, 1.0)
        m = int(rng.integers(2, 65))
        th1, th2 = rng.uniform(0.02, 2.0, size=2)
        pp, qq = rng.uniform(0.1, 3.0, size=2)
        ps = rng.uniform(0.2, 1.8)
        yield SymmetricDS(g, sg, a)
        yield TruncatedSDS(g, sg, a, m)
        yield DiscreteStable(al, be, sg, a)
        yield TemperedDS(al, be, sg, a, th1, th2)
        yield PolylogDS(ps, pp, qq, a)
        yield TruncatedPolylogDS(ps, pp, qq, a, m)


def test_01_cf_matches_compound_poisson_rebuild():
    # every family CF must equal exp(-Lambda (1 - h)) from its jump
    # decomposition, with h from the jump-law oracle, sup over a 1001-point
    # grid <= 1e-10, in under 10 s
    start = time.perf_counter()
    worst = 0.0
    for p in _draw_families(np.random.default_rng(20240817)):
        t = np.linspace(-math.pi / p.a, math.pi / p.a, 1001)
        view = compound_poisson_view(p)
        rebuilt = np.exp(-view.total_intensity * (1.0 - _jump_cf_reference(p, t)))
        worst = max(worst, float(np.max(np.abs(char_fn(p, t) - rebuilt))))
    assert worst <= 1e-10, f"worst CF mismatch {worst:.3e}"
    assert time.perf_counter() - start < 10.0


def test_02_inversion_matches_bessel_series():
    # SymmetricDS(1, 1, 1) has masses e^{-2} I_|k|(2); inversion must hit
    # them to 1e-9 for |k| <= 30, in under 5 s
    start = time.perf_counter()
    p = SymmetricDS(1.0, 1.0, 1.0)
    pmf = pmf_from_cf(lambda t: char_fn(p, t), 1.0, 256)
    for k in range(-30, 31):
        want = float(ive(abs(k), 2.0))  # e^{-2} I_|k|(2)
        assert pmf.mass_at(k) == pytest.approx(want, abs=1e-9), f"k={k}"
    assert time.perf_counter() - start < 5.0


def test_03_power_tail_constant_recovered():
    # x^{2 gamma} P(|X| > x) at the largest reliable x of a 2^22 window
    # (fold-in below 1e-8) within 10% of the closed form, in under 2 min
    start = time.perf_counter()
    for gamma in (0.25, 0.4, 0.45):
        p = SymmetricDS(gamma, 1.0, 1.0)
        report = tail_check(p, alias_tol=1e-8, n_max=1 << 22)
        assert report.theoretical_constant == pytest.approx(
            tail_constant_theoretical(p), rel=1e-13)
        assert report.relative_gap <= 0.10, (
            f"gamma={gamma}: gap {report.relative_gap:.4f}")
    assert time.perf_counter() - start < 120.0


def test_04_cf_distance_decreases_with_pitch():
    # sup-CF distance to the stable target strictly decreases along the
    # pitch ladder 0.5, 0.1, 0.02 for all three family kinds, in under 30 s
    start = time.perf_counter()
    ladders = [
        lambda a: SymmetricDS(0.75, 1.0, a),
        lambda a: DiscreteStable(0.7, 0.5, 1.0, a),
        lambda a: PolylogDS(0.8, 1.0, 1.0, a),
    ]
    anchors = [
        (0.024627997042583342, 0.00043834036406469046, 1.7507551738141225e-05),
        (0.13041784859417144, 0.042246667144525414, 0.010145979839219029),
        (0.0053889274319935676, 0.00075900418918749268, 0.00010958367585196804),
    ]
    for ctor, frozen in zip(ladders, anchors):
        d = [cf_distance(ctor(a), 10.0) for a in (0.5, 0.1, 0.02)]
        assert d[0] > d[1] > d[2] > 0.0, f"not strictly decreasing: {d}"
        for got, want in zip(d, frozen):
            assert got == pytest.approx(want, rel=1e-6)
    assert time.perf_counter() - start < 30.0


def test_05_tail_regime_classification():
    # on the shared window [10a, 100a] at a = 0.05: truncation and
    # tempering make -log P(|X|>x) grow super-linearly, the untruncated
    # power-tail family must not, in under 1 min
    start = time.perf_counter()
    grid = np.linspace(0.5, 5.0, 46)
    trunc = tail_check(TruncatedSDS(0.4, 1.0, 0.05, 8), x_grid=grid,
                       n_max=1 << 16)
    temp = tail_check(TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), x_grid=grid,
                      n_max=1 << 16)
    plain = tail_check(SymmetricDS(0.4, 1.0, 0.05), x_grid=grid,
                       n_max=1 << 23)
    assert trunc.super_linear, f"truncated exponent {trunc.decay_exponent:.3f}"
    assert temp.super_linear, f"tempered exponent {temp.decay_exponent:.3f}"
    assert not plain.super_linear, f"power-tail exponent {plain.decay_exponent:.3f}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("p, n_inv", [
    (SymmetricDS(0.6, 1.0, 1.0), 1 << 20),
    (TruncatedSDS(0.4, 1.0, 1.0, 8), 1 << 14),
    (DiscreteStable(0.6, 0.4, 1.0, 0.1), 1 << 22),
    (TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), 1 << 14),
    (PolylogDS(0.8, 1.0, 2.0, 0.2), 1 << 22),
    (TruncatedPolylogDS(0.8, 1.0, 2.0, 0.2, 64), 1 << 14),
], ids=lambda v: type(v).__name__ if not isinstance(v, int) else str(v))
def test_06_sampler_agrees_with_inversion(p, n_inv):
    # 10^6 samples (seed 42) vs the inversion PMF: equal-mass-binned
    # total variation <= 0.005, in under 2 min per family
    start = time.perf_counter()
    pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, n_inv)
    draws = sample_family(p, RngState(42), 1_000_000, threads=4)
    tv = binned_tv(pmf, draws, bins=64)
    assert tv <= 0.005, f"binned TV {tv:.5f}"
    assert time.perf_counter() - start < 120.0


def test_07_prelimit_sums_closer_to_stable_than_gaussian():
    # normalized sums of 10 tempered draws: KS to the heavy-tailed limit
    # must beat KS to the moment-matched Gaussian, in under 2 min
    start = time.perf_counter()
    p = TemperedDS(0.7, 0.0, 1.0, 0.05, 0.05, 0.05)
    rep = prelimit_experiment(p, [10], reps=20_000, seed=42)
    ks_stable = float(rep.ks_to_stable[0])
    ks_gauss = float(rep.ks_to_gaussian[0])
    assert ks_stable < ks_gauss, (
        f"KS to stable {ks_stable:.4f} is not below KS to Gaussian "
        f"{ks_gauss:.4f}: at these parameters the tempering bites after "
        f"x0 = a/theta = {p.a / p.theta1:g} in x-units, so the stable window "
        f"ends near n* ~ (x0/sigma)^alpha = "
        f"{(p.a / p.theta1) ** 0.7:.2f} and the sums of n = 10 draws are "
        f"already in the Gaussian regime; the ordering holds at deeper "
        f"cutoffs (e.g. theta = 1e-4)"
    )
    assert time.perf_counter() - start < 120.0


def test_08_special_function_anchors():
    # zeta(2), zeta(4), Li_2 at the negative unit point, and the Sibuya
    # survival closed form, all to 1e-9, in under 1 s
    start = time.perf_counter()
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)
    assert riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-9)
    li2 = polylog_unit(2.0, math.pi)
    assert abs(li2 - (-math.pi ** 2 / 12.0)) <= 1e-9
    assert sibuya_survival(0.5, 2) == pytest.approx(0.375, abs=1e-9)
    assert time.perf_counter() - start < 1.0


def test_09_sampling_is_deterministic_and_thread_invariant():
    # same seed -> byte-identical draws; 1 worker vs 8 workers ->
    # byte-identical draws; for every family, in under 1 min
    start = time.perf_counter()
    families = [
        SymmetricDS(0.6, 1.0, 1.0),
        TruncatedSDS(0.4, 1.0, 1.0, 8),
        DiscreteStable(0.6, 0.4, 1.0, 0.1),
        TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5),
        PolylogDS(0.8, 1.0, 2.0, 0.2),
        TruncatedPolylogDS(0.8, 1.0, 2.0, 0.2, 64),
    ]
    for p in families:
        size = 200_001  # crosses the per-worker span boundary
        one = sample_family(p, RngState(42), size, threads=1)
        two = sample_family(p, RngState(42), size, threads=1)
        eight = sample_family(p, RngState(42), size, threads=8)
        assert one.tobytes() == two.tobytes(), type(p).__name__
        assert one.tobytes() == eight.tobytes(), type(p).__name__
    assert time.perf_counter() - start < 60.0
