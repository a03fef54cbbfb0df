"""Verification experiments: tail constants and regimes, CF convergence,
the continuous stable CDF oracle, pre-limit sums, and sample statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, PrecisionError
from .families import (
    FamilyParams,
    StableParams,
    SymmetricDS,
    char_fn,
    derived_intensities,
    stable_cf,
    target_stable,
)
from .inversion import LatticePMF, _HalfGridMemo, pmf_from_cf, tail_prob
from .quadrature import tanh_sinh
from .sampling import RngState, sample_family
from .special import _check_index, _points, _scalar, _shaped

__all__ = [
    "TailReport",
    "PrelimitReport",
    "tail_constant_theoretical",
    "tail_check",
    "cf_distance",
    "stable_cdf",
    "prelimit_experiment",
    "sample_moments",
    "ks_statistic",
    "binned_tv",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_HALF_GAMMA_TOL = 1e-12  # |gamma - 1/2| below this selects the Cauchy-index branch
_TAIL_FLOOR = 1e-12  # inversion noise plateau is ~1e-15; smaller tails are fiction
_KS_CDF_TOL = 1e-6  # absolute error of the stable CDF behind each prelimit KS distance


@dataclass(frozen=True)
class TailReport:
    """Tail diagnostics over a grid of thresholds.

    For SymmetricDS, `scaled_tail` holds x^{2 gamma} P(|X| > x) and
    `theoretical_constant` its closed-form limit (`relative_gap` compares them
    at the largest x). For the light-tailed families, `scaled_tail` holds
    -log P(|X| > x) and the constants are None. In both cases
    `decay_exponent` is the power-fit exponent of -log tail over the last
    decade of x, and `super_linear` says whether it exceeds 1.
    """

    x_grid: np.ndarray = field(repr=False)
    scaled_tail: np.ndarray = field(repr=False)
    theoretical_constant: Optional[float]
    relative_gap: Optional[float]
    decay_exponent: float
    super_linear: bool
    continuation_constant: Optional[float] = None

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        s = np.asarray(self.scaled_tail, dtype=float)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "scaled_tail", s)
        if x.ndim != 1 or x.shape != s.shape:
            raise DomainError("x_grid and scaled_tail must be 1-d of equal length")
        if x.size and not (np.all(np.diff(x) > 0.0) and x[0] > 0.0):  # NaN fails too
            raise DomainError("x_grid must be strictly increasing and positive")


@dataclass(frozen=True)
class PrelimitReport:
    """KS distances of normalized sums against the stable and Gaussian laws."""

    n_values: np.ndarray = field(repr=False)
    ks_to_stable: np.ndarray = field(repr=False)
    ks_to_gaussian: np.ndarray = field(repr=False)
    predicted_sum_variance: np.ndarray = field(repr=False)
    reps: int
    seed: int

    def __post_init__(self):
        for name in ("n_values", "ks_to_stable", "ks_to_gaussian",
                     "predicted_sum_variance"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.n_values.shape == self.ks_to_stable.shape
                == self.ks_to_gaussian.shape == self.predicted_sum_variance.shape):
            raise DomainError("report arrays must share one shape")
        for arr in (self.ks_to_stable, self.ks_to_gaussian):
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
                raise DomainError("KS distances must lie in [0, 1]")


# ---------------------------------------------------------------------------
# tail constants and classification
# ---------------------------------------------------------------------------

def tail_constant_theoretical(p: SymmetricDS) -> float:
    """The constant C with P(|X| > x) -> C x^{-2 gamma} for SymmetricDS.

    gamma = 1/2 (to 1e-12) uses the Cauchy-index branch lambda a / pi; other
    gamma use lambda (a^{2g}/2^g) / (Gamma(1-2g) cos(pi g)), which simplifies
    to sigma^{2g} / (Gamma(1-2g) cos(pi g)) — both forms are evaluated and
    must agree. gamma = 1 (Gaussian tails) has no power-law constant.
    """
    if not isinstance(p, SymmetricDS):
        raise DomainError("tail constant is defined for SymmetricDS only")
    g = p.gamma
    if not g < 1.0:
        raise DomainError("gamma = 1 has Gaussian tails: no power-law constant")
    lam = 2.0 * derived_intensities(p)[0]
    if abs(g - 0.5) <= _HALF_GAMMA_TOL:
        return lam * p.a / math.pi
    via_lambda = lam * (p.a ** (2 * g) / 2.0**g) / (math.gamma(1.0 - 2 * g)
                                                    * math.cos(math.pi * g))
    direct = p.sigma ** (2 * g) / (math.gamma(1.0 - 2 * g) * math.cos(math.pi * g))
    if not abs(via_lambda - direct) <= 1e-12 * abs(direct):
        raise PrecisionError(f"tail constant forms disagree: {via_lambda!r} vs {direct!r}")
    if not direct > 0.0:
        raise PrecisionError(f"tail constant {direct!r} is not positive (sign pairing broke)")
    return direct


def _decay_exponent(x: np.ndarray, tail: np.ndarray) -> float:
    """Power-fit exponent of -log tail over the last decade of resolvable x.

    Tail values at or below the inversion noise plateau are excluded: beyond
    the point where P(|X|>x) falls under ~1e-12 the computed values flatten
    into rounding noise and would drag any fit toward zero slope.
    """
    good = tail > _TAIL_FLOOR
    if good.sum() < 2:
        return math.inf  # tail vanishes within resolution: faster than any power
    x, tail = x[good], tail[good]
    last = x >= x[-1] / 10.0
    if last.sum() < 2:
        last = np.ones_like(x, dtype=bool)
    neg_log = -np.log(tail[last])
    if np.any(neg_log <= 0.0):
        raise PrecisionError("tail probabilities too large for a decay fit")
    return float(np.polyfit(np.log(x[last]), np.log(neg_log), 1)[0])


def _fold_in(pmf: LatticePMF, x: float) -> float:
    """Bound on the mass folded into |X| <= x, for tails decreasing past the window."""
    cl = pmf.clamped()
    return (x / pmf.a + 1.0) * (cl[0] + cl[-1])


def _pmf_covering(p: FamilyParams, x_max: float, alias_tol: float,
                  n_max: int) -> LatticePMF:
    """PMF whose window reaches 4 x_max out with _fold_in(pmf, x_max) < alias_tol."""
    # the smallest n >= 2^10 with a * (n // 2) >= 4 x_max; past n_max none covers
    reach = min(float(n_max), 4.0 * x_max / p.a)
    n = 2 << max(9, math.ceil(math.log2(reach)))
    if n > n_max:
        raise PrecisionError(
            f"window 2^{int(math.log2(n_max))} cannot cover x = {x_max:g} "
            f"with margin at lattice pitch {p.a:g}"
        )
    memo = _HalfGridMemo(lambda t: char_fn(p, t))  # each doubling adds the odd points only
    while True:
        pmf = pmf_from_cf(memo, p.a, n)
        contamination = _fold_in(pmf, x_max)
        if contamination < alias_tol:
            return pmf
        n *= 2
        if n > n_max:
            raise PrecisionError(
                f"grid-local alias {contamination:.2e} >= {alias_tol:g} at "
                f"n = {n // 2}; a larger window than n_max = {n_max} is needed"
            )


def tail_check(p: FamilyParams, x_grid=None, alias_tol: float = 1e-8,
               n_max: int = 1 << 22) -> TailReport:
    """Tail diagnostics from the inversion PMF over `x_grid`.

    SymmetricDS is compared against its closed-form power-tail constant;
    every family also gets the decay-regime fit (super_linear True means
    -log P(|X|>x) grows faster than linearly, i.e. lighter than any e^{-bx}).

    x_grid=None inverts once at the full n_max window and examines the last
    decade up to the largest reliable x — the largest threshold whose tail
    value the window resolves with fold-in contamination below alias_tol.
    """
    _scalar(alias_tol, "alias_tol", lambda v: 0.0 < v < 1.0, "be in (0, 1)")
    n_max = _check_index(n_max, "n_max", 8)
    if x_grid is None:
        if n_max & (n_max - 1):
            raise DomainError(f"n_max must be a power of two when x_grid is None, got {n_max}")
        pmf = pmf_from_cf(lambda t: char_fn(p, t), p.a, n_max)
        edge = _fold_in(pmf, 0.0)  # the bound at x is (x/a + 1) * edge
        ceiling = p.a * (n_max // 8)  # stay well inside the window
        x_rel = ceiling if edge <= 0.0 else min(
            p.a * max(alias_tol / edge - 1.0, 0.0), ceiling)
        if x_rel < 10.0 * p.a:
            raise PrecisionError(
                f"largest reliable x is {x_rel:g} (< 10 lattice steps): "
                f"a window beyond n = {n_max} is needed"
            )
        x = np.linspace(x_rel / 10.0, x_rel, 25)
    else:
        x, shape = _points(x_grid, "x_grid", lambda v: v > 0.0, "be > 0")  # NaN fails too
        if shape is None or len(shape) != 1 or x.size < 2:
            raise DomainError("x_grid must be 1-d with at least 2 points")
        if not np.all(np.diff(x) > 0.0):
            raise DomainError("x_grid must be strictly increasing")
        pmf = _pmf_covering(p, float(x[-1]), alias_tol, n_max)
    tails = tail_prob(pmf, x)
    exponent = _decay_exponent(x, tails)

    if isinstance(p, SymmetricDS) and p.gamma < 1.0:
        const = tail_constant_theoretical(p)
        scaled = x ** (2.0 * p.gamma) * tails
        gap = abs(scaled[-1] / const - 1.0)
        cont = None
        if abs(p.gamma - 0.5) <= _HALF_GAMMA_TOL:
            cont = 2.0 * p.sigma / math.pi  # Cauchy-limit convention for comparison
        return TailReport(x, scaled, const, gap, exponent, exponent > 1.0, cont)

    neg_log = np.where(tails > 0.0, -np.log(np.maximum(tails, 1e-300)), math.inf)
    return TailReport(x, neg_log, None, None, exponent, exponent > 1.0)


# ---------------------------------------------------------------------------
# CF convergence
# ---------------------------------------------------------------------------

def cf_distance(p: FamilyParams, t_max: float, points: int = 2001) -> float:
    """sup_t |char_fn(p, t) - stable_cf(target, t)| over t in [-t_max, t_max]."""
    _scalar(t_max, "t_max", lambda v: 0.0 < v < math.inf, "be finite and > 0")
    points = _check_index(points, "points", 2)
    target = target_stable(p)
    if target.stable is None:
        raise DomainError(
            "family has no stable target (Gaussian attraction only): "
            "no reference CF to compare against"
        )
    t = np.linspace(-t_max, t_max, points)
    return float(np.max(np.abs(char_fn(p, t) - stable_cf(target.stable, t))))


# ---------------------------------------------------------------------------
# stable CDF oracle
# ---------------------------------------------------------------------------

def _lambert_w0(x: float) -> float:
    """Principal branch of Lambert W at x > 0, by Halley steps on w e^w = x taken as
    w - x e^-w, which cannot overflow.  The start, log1p(x) up to x = e and log x -
    log log x past it, is within 32% of W0(x); three steps reach float64 on (0, 1e308]
    (2e-16 relative against 40-digit mpmath), and the fourth is spare."""
    w = math.log1p(x) if x <= math.e else math.log(x) - math.log(math.log(x))
    for _ in range(4):
        r = w - x * math.exp(-w)
        w -= r / (w + 1.0 - 0.5 * (w + 2.0) * r / (w + 1.0))
    return w


def _gil_pelaez_cutoff(alpha: float, sigma: float, tol: float) -> float:
    """T with integral remainder beyond T below tol/4 for |cf| = e^{-(sigma t)^a}: z = (sigma
    T)^alpha solves z = log(4 / (pi alpha tol z)), so z = W0(4 / (pi alpha tol)), Lambert W.

    T is formed in logs, and PrecisionError is raised where it is not a finite float."""
    log_t = math.log(_lambert_w0(4.0 / (math.pi * alpha * tol))) / alpha - math.log(sigma)
    if not log_t < _LOG_FLOAT_MAX:
        raise PrecisionError(
            f"Gil-Pelaez cutoff exp({log_t:.4g}) exceeds the float range at alpha={alpha}, "
            f"sigma={sigma}")
    return math.exp(log_t)


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x/sqrt 2), elementwise through math.erfc."""
    return 0.5 * np.asarray(_ERFC(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


# series is used only where its terms decrease from the first one on
_SERIES_Z_MAX = 0.9


def _sas_survival_series(alpha: float, z: np.ndarray, tol: float) -> np.ndarray:
    """P(Z > x) for the symmetric stable law, alpha < 1, z = (sigma/x)^alpha.

    Convergent expansion (1/pi) sum_k (-1)^{k+1} Gamma(k alpha)/k!
    sin(k pi alpha/2) z^k. For z <= 0.9 the term magnitudes decrease
    monotonically, so truncation error is bounded by the first dropped term.
    """
    out = np.zeros_like(z)
    lz = np.log(z)
    for k in range(1, 400):
        mag = np.exp(math.lgamma(k * alpha) - math.lgamma(k + 1.0) + k * lz)
        out += ((-1.0) ** (k + 1) * math.sin(0.5 * math.pi * k * alpha)) * mag
        if mag.max() <= 0.1 * math.pi * tol:
            return out / math.pi
    raise PrecisionError("stable tail series did not converge")


def _gil_pelaez_block(s: StableParams, block: np.ndarray, t_max: float,
                      tol: float) -> np.ndarray:
    def integrand(t):
        phases = np.exp(-1j * np.outer(block, t))
        return (phases * stable_cf(s, t)).imag / t

    integral, _ = tanh_sinh(integrand, 0.0, t_max, tol=tol / 4.0)
    return 0.5 - integral / math.pi


def stable_cdf(s: StableParams, x, tol: float = 1e-8):
    """CDF of the strictly stable law with CF `stable_cf(s, .)`.

    alpha = 2 and the symmetric alpha = 1 law use their closed forms. For
    symmetric alpha < 1 the tail region |x| >= sigma 0.9^{-1/alpha} is summed
    by the convergent power series in (sigma/|x|)^alpha; everything else
    inverts the CF through the half-line sine transform
    F(x) = 1/2 - (1/pi) int_0^inf Im[e^{-itx} cf(t)] / t dt, truncated where
    the CF has decayed below the tolerance budget and integrated by adaptive
    double-exponential quadrature (which raises a precision error where the
    phase oscillates beyond its resolution, e.g. far tails at small alpha).
    Absolute error <= tol; output is forced monotone in x, and is 0 and 1 at
    x = -inf and +inf; NaN raises. Scalar x gives a float, an array an array.
    """
    _scalar(tol, "tol", lambda v: 1e-8 <= v < math.inf, "be finite and >= 1e-8")
    xs, shape = _points(x, "x", lambda v: ~np.isnan(v), "not be NaN")
    if s.alpha == 2.0 and s.beta == 0.0:
        out = _normal_cdf(xs / (s.sigma * math.sqrt(2.0)))
    elif s.alpha == 1.0 and s.beta == 0.0:
        out = 0.5 + np.arctan(xs / s.sigma) / math.pi
    else:
        out = _cdf_by_regions(s, xs, tol)
    return _shaped(out, shape)


def _cdf_by_regions(s: StableParams, xs: np.ndarray, tol: float) -> np.ndarray:
    """stable_cdf at xs where no closed form holds: by the tail series, or Gil-Pelaez."""
    order = np.argsort(xs, kind="stable")
    sorted_x = xs[order]
    out_sorted = np.where(sorted_x > 0.0, 1.0, 0.0)  # the CDF at x = -inf and +inf

    settled = np.isinf(sorted_x)
    if s.beta == 0.0 and s.alpha < 1.0:
        by_series = ~settled & (np.abs(sorted_x) >= s.sigma * _SERIES_Z_MAX ** (-1.0 / s.alpha))
        if by_series.any():
            far = sorted_x[by_series]
            surv = _sas_survival_series(s.alpha, (s.sigma / np.abs(far)) ** s.alpha, tol)
            out_sorted[by_series] = np.where(far > 0.0, 1.0 - surv, surv)
        settled |= by_series

    near = sorted_x[~settled]
    if near.size:
        t_max = _gil_pelaez_cutoff(s.alpha, s.sigma, tol)
        vals = np.empty_like(near)
        for lo in range(0, near.size, 1024):
            vals[lo:lo + 1024] = _gil_pelaez_block(s, near[lo:lo + 1024], t_max, tol)
        out_sorted[~settled] = vals

    # monotone rearrangement + range guard
    out_sorted = np.minimum.accumulate(np.maximum.accumulate(out_sorted)[::-1])[::-1]
    out_sorted = np.clip(out_sorted, 0.0, 1.0)
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------

def _samples(samples, least: int) -> np.ndarray:
    """`samples` as a flat float array; DomainError below `least` values or on NaN."""
    x, _ = _points(samples, "samples", lambda v: ~np.isnan(v), "not be NaN")
    if x.size < least:
        raise DomainError(f"need {least} or more samples, got {x.size}")
    return x


def sample_moments(samples):
    """(mean, unbiased variance, excess kurtosis) of a 1-d sample."""
    x = _samples(samples, 2)
    mean = float(x.mean())
    centered = x - mean
    var = float(np.dot(centered, centered) / (x.size - 1))
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    kurt = m4 / m2**2 - 3.0 if m2 > 0.0 else math.nan
    return mean, var, kurt


def ks_statistic(samples, cdf, cdf_left=None) -> float:
    """One-sample Kolmogorov-Smirnov sup distance against callable `cdf`.

    Handles ties; the sup over the line is attained at a sample value or
    just before one. Exact for a continuous target. For a target with atoms
    at the sample values pass `cdf_left` evaluating the CDF's left limit
    (e.g. the CDF at u - a/2 on a pitch-a lattice); otherwise the empirical
    left limits are compared against the right-continuous values, which
    overstates the distance by up to the largest atom.
    """
    x = np.sort(_samples(samples, 1))
    n = x.size
    uniq, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / n
    before = cum - counts / n
    f = np.asarray(cdf(uniq), dtype=float)
    f_left = f if cdf_left is None else np.asarray(cdf_left(uniq), dtype=float)
    return float(max(np.max(np.abs(cum - f)), np.max(np.abs(before - f_left))))


def binned_tv(pmf: LatticePMF, samples, bins: int = 64) -> float:
    """Total-variation distance between an equal-mass-binned histogram of
    `samples` and the same binning of `pmf`.

    Bin edges sit at the PMF's quantiles (outer bins unbounded), so every
    bin carries comparable mass and the statistic has a ~sqrt(bins/n) noise
    floor instead of one driven by the lattice resolution.
    """
    bins = _check_index(bins, "bins", 2)
    masses = pmf.clamped()
    total = masses.sum()
    if total <= 0.0:
        raise DomainError("pmf carries no mass")
    cum = np.cumsum(masses) / total
    xs = pmf.x_values()
    quantiles = np.arange(1, bins) / bins
    edge_idx = np.unique(np.searchsorted(cum, quantiles, side="left"))
    edges = xs[np.minimum(edge_idx, xs.size - 1)]
    edges = np.unique(edges)
    # pmf mass per bin: (-inf, e0], (e0, e1], ..., (e_last, inf)
    idx = np.searchsorted(edges, xs, side="left")
    p_bin = np.bincount(idx, weights=masses, minlength=edges.size + 1) / total
    s = _samples(samples, 1)
    s_bin = np.bincount(np.searchsorted(edges, s, side="left"),
                        minlength=edges.size + 1) / s.size
    return float(0.5 * np.abs(p_bin - s_bin).sum())


# ---------------------------------------------------------------------------
# pre-limit experiment
# ---------------------------------------------------------------------------

def prelimit_experiment(p: FamilyParams, n_values, reps: int, seed: int,
                        threads: int = 1) -> PrelimitReport:
    """KS distances of S_n = n^{-1/alpha} (X_1 + ... + X_n) to both limits.

    For each n, draws `reps` normalized sums and reports the KS distance to
    the family's stable target and to the Gaussian moment-matched to the
    sums. `predicted_sum_variance` = n^{1 - 2/alpha} Var(X_1) flags the
    regime where finite variance reasserts itself (it collapses to 0 as n
    grows for alpha < 2). Deterministic given seed.

    Takes the families whose target is Gaussian and also stable: TruncatedSDS,
    TemperedDS, TruncatedPolylogDS below alpha = 2 and SymmetricDS at gamma = 1.
    A target that stable_cf does not cover (skewed, alpha >= 1) raises before any draw.
    """
    limit = target_stable(p)
    target = limit.stable
    if not (limit.gaussian and target is not None):
        raise DomainError(
            "pre-limit experiment applies to the truncated or tempered families "
            "with a stable target"
        )
    stable_cf(target, 0.0)  # DomainError here, not after reps * n draws
    n_arr = np.asarray(n_values)
    if (n_arr.ndim != 1 or n_arr.size == 0 or n_arr.dtype.kind not in "iu"
            or n_arr.min() < 1):
        raise DomainError("n_values must be a 1-d array of integers >= 1")
    n_arr = n_arr.astype(np.int64)
    reps = _check_index(reps, "reps", 10_000)  # fewer draws give no stable KS estimate
    alpha = target.alpha
    rng = RngState(seed)
    ks_stable = np.empty(n_arr.size)
    ks_gauss = np.empty(n_arr.size)
    pred_var = np.empty(n_arr.size)
    var_x = None
    for i, n in enumerate(n_arr):
        n = int(n)
        draws = sample_family(p, rng, size=reps * n, threads=threads)
        if var_x is None:
            var_x = float(np.var(draws, ddof=1))
        sums = float(n) ** (-1.0 / alpha) * draws.reshape(reps, n).sum(axis=1)
        ks_stable[i] = ks_statistic(sums, lambda q: stable_cdf(target, q, tol=_KS_CDF_TOL))
        mean, sd = float(sums.mean()), float(sums.std())
        if sd == 0.0:
            ks_gauss[i] = 1.0
        else:
            ks_gauss[i] = ks_statistic(sums, lambda q: _normal_cdf((q - mean) / sd))
        pred_var[i] = float(n) ** (1.0 - 2.0 / alpha) * var_x
    return PrelimitReport(n_arr, ks_stable, ks_gauss, pred_var, reps, int(seed))
