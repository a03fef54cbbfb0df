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
from dstable.families import PolylogDS, TemperedDS, TruncatedPolylogDS, TruncatedSDS, char_fn
from dstable.inversion import cdf_from_pmf, pmf_from_cf
from dstable.sampling import RngState, sample_family
from dstable.special import _hurwitz_zeta

DRAWS, SEEDS = 10_000, 20
KOLMOGOROV_MEAN = math.sqrt(0.5 * math.pi) * math.log(2.0)
KOLMOGOROV_SD = math.sqrt(math.pi**2 / 12.0 - KOLMOGOROV_MEAN**2)

# the FROZEN_FAMILIES of test_sampling, then the `tempered` case of the benchmark's
# sample workload, each with its inversion window
LAW_CASES = {
    "TruncatedSDS": (TruncatedSDS(0.4, 1.0, 1.0, 8), 1 << 12),
    "TemperedDS": (TemperedDS(0.7, 0.3, 1.0, 0.5, 0.05, 0.2), 1 << 14),
    "PolylogDS": (PolylogDS(0.8, 1.0, 0.5, 0.1), 1 << 20),
    "TruncatedPolylogDS": (TruncatedPolylogDS(0.8, 1.0, 0.5, 0.1, 64), 1 << 12),
    "TemperedDS-bench": (TemperedDS(0.7, 0.0, 1.0, 0.05, 0.5, 0.5), 1 << 14),
}


def _window_error(p, n: int) -> float:
    """A bound on the CDF error of the PMF on n points: the mass folded in from outside
    the window. For PolylogDS that is about the Levy mass beyond n/2 steps, one big jump
    carrying the tail, and twice it is taken (at 2^20 the error is 2.5e-4 against a
    2^22 window, and the allowance 6.2e-4). The other laws have jumps bounded by m or
    tempered by e^{-theta k}, and their CDFs agree with a 2^22 window's to 1e-13."""
    if isinstance(p, PolylogDS):
        return 2.0 * (p.p + p.q) * p.a**-p.alpha * _hurwitz_zeta(1.0 + p.alpha, n // 2)
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
