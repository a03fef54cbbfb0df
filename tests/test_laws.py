"""The law check behind a stream move: sampled draws against the inverted PMF.

For each case and seed, `sample_family` draws N values, and `ks_statistic` takes the
lattice KS distance to the CDF of the PMF inverted from the exact CF (with the CDF's
left limits, so atoms are not overstated). The mean over seeds is held to a bound from
the Kolmogorov distribution at N, not to today's draws: for a continuous law sqrt(N) D_N
tends to the Kolmogorov law, of mean sqrt(pi/2) ln 2 and variance pi^2/12 - mean^2. A
lattice law only makes D_N stochastically smaller, so the mean over seeds is dominated by
the mean of SEEDS Kolmogorov variables over sqrt(N), whose sd is KOLMOGOROV_SD / sqrt(SEEDS
N); the bound sits 4 of those above its mean. A re-frozen digest in `test_sampling` cites
this test.
"""

import math

import numpy as np
import pytest

from dstable.analysis import ks_statistic
from dstable.families import (DiscreteStable, PolylogDS, SymmetricDS, TemperedDS,
                              TruncatedPolylogDS, TruncatedSDS, char_fn, derived_intensities)
from dstable.inversion import cdf_from_pmf, pmf_from_cf
from dstable.sampling import RngState, sample_family
from dstable.special import _hurwitz_zeta, sibuya_survival

DRAWS, SEEDS = 10_000, 20
KOLMOGOROV_MEAN = math.sqrt(0.5 * math.pi) * math.log(2.0)
KOLMOGOROV_SD = math.sqrt(math.pi**2 / 12.0 - KOLMOGOROV_MEAN**2)

# the FROZEN_FAMILIES of test_sampling, the `tempered` case of the benchmark's sample
# workload, then the two Poisson-mixture samplers, each with its inversion window
LAW_CASES = {
    "TruncatedSDS": (TruncatedSDS(0.4, 1.0, 1.0, 8), 1 << 12),
    "TemperedDS": (TemperedDS(0.7, 0.3, 1.0, 0.5, 0.05, 0.2), 1 << 14),
    "PolylogDS": (PolylogDS(0.8, 1.0, 0.5, 0.1), 1 << 20),
    "TruncatedPolylogDS": (TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64), 1 << 12),
    "TemperedDS-bench": (TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), 1 << 14),
    "SymmetricDS": (SymmetricDS(0.6, 1.0, 1.0), 1 << 14),
    "DiscreteStable": (DiscreteStable(0.7, 0.5, 1.0, 0.1), 1 << 20),
}


def _window_error(p, n: int) -> float:
    """A bound on the CDF error of the PMF on n points: the mass folded in from outside
    the window. For the heavy-tailed laws that is about the Levy mass at n/2 steps and
    beyond, one big jump carrying the tail, and twice it is taken (for PolylogDS at 2^20
    the error is 2.5e-4 against a 2^22 window, and the allowance 6.2e-4). That mass is
    (P + Q) a^-alpha zeta(1 + alpha, K) for PolylogDS, K = n/2, and (l1 + l2) P(Sibuya >=
    K) for DiscreteStable. For SymmetricDS, nu(k) = lam 2^-g Gamma(2g+1) sin(pi g) / pi
    Gamma(k-g) / Gamma(k+1+g) per side, whose sum over k >= K telescopes to lam 2^-g
    Gamma(2g+1) sin(pi g) / (2 pi g) Gamma(K-g) / Gamma(K+g). The other laws have jumps
    bounded by m or tempered by e^{-theta k}, and their CDFs agree with a 2^22 window's to
    1e-13."""
    k = n // 2
    if isinstance(p, PolylogDS):
        return 2.0 * (p.p + p.q) * p.a**-p.alpha * _hurwitz_zeta(1.0 + p.alpha, k)
    if isinstance(p, DiscreteStable):
        return 2.0 * sum(derived_intensities(p)) * sibuya_survival(p.alpha, k - 1)
    if isinstance(p, SymmetricDS):
        g, lam = p.gamma, sum(derived_intensities(p))
        side = (lam * 2.0**-g * math.gamma(2.0 * g + 1.0) * math.sin(math.pi * g)
                / (2.0 * math.pi * g) * math.exp(math.lgamma(k - g) - math.lgamma(k + g)))
        return 2.0 * 2.0 * side
    return 1e-12


@pytest.mark.parametrize("name", list(LAW_CASES))
def test_mean_lattice_ks_to_inverted_pmf(name):
    p, n = LAW_CASES[name]
    pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, n)
    cdf = lambda x: cdf_from_pmf(pmf, x)
    cdf_left = lambda x: cdf_from_pmf(pmf, x - 0.5 * p.a)
    ks = [ks_statistic(sample_family(p, RngState(seed), size=DRAWS), cdf, cdf_left)
          for seed in range(SEEDS)]
    bound = ((KOLMOGOROV_MEAN + 4.0 * KOLMOGOROV_SD / math.sqrt(SEEDS)) / math.sqrt(DRAWS)
             + _window_error(p, n))
    assert np.mean(ks) < bound
