"""The six lattice families, each class the one definition of its law.

Every family lives on the lattice a*Z and is a compound-Poisson law: a total
jump intensity Lambda and a single-jump law, with CF exp(-Lambda (1 - h(t))).
Each class subclasses `FamilyParams`, which holds the defaults they share, and
defines its parameter rules, its one-sided intensities, Lambda, its log CF as a
function of a*t, its Levy weights, its stable target and its sampler. The
public functions below (`char_fn`, `compound_poisson_view`,
`derived_intensities`, `levy_weight`, `target_stable`) dispatch to the class
through one guard; `compound_poisson_view` derives h = 1 + log CF / Lambda,
so the CF formula of each family is written once.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import poly2cheb

from . import sampling
from .errors import DomainError, PrecisionError
from .special import (_check_index, _finite_step, _hurwitz_zeta, _lgamma_diff, _points,
                      _reduce_angle, _scalar, _shaped, _sibuya_weights, polylog_unit, riemann_zeta,
                      sibuya_pmf, sibuya_survival)

__all__ = [
    "StableParams",
    "AttractionTarget",
    "CompoundPoissonView",
    "SymmetricDS",
    "TruncatedSDS",
    "DiscreteStable",
    "TemperedDS",
    "PolylogDS",
    "TruncatedPolylogDS",
    "FamilyParams",
    "char_fn",
    "stable_cf",
    "derived_intensities",
    "compound_poisson_view",
    "levy_weight",
    "target_stable",
]


# ---------------------------------------------------------------------------
# parameter rules
# ---------------------------------------------------------------------------

# field name -> (name in messages, test, rule as the message states it)
_RULES = {
    "gamma": ("gamma", lambda v: 0.0 < v <= 1.0, "be in (0, 1]"),
    "alpha": ("alpha", lambda v: 0.0 < v < 1.0, "be in (0, 1)"),
    "beta": ("beta", lambda v: -1.0 <= v <= 1.0, "be in [-1, 1]"),
    "sigma": ("sigma", lambda v: 0.0 < v < math.inf, "be > 0"),
    "a": ("a", lambda v: 0.0 < v < math.inf, "be > 0"),
    "theta1": ("theta1", lambda v: 0.0 <= v < math.inf, "be >= 0"),
    "theta2": ("theta2", lambda v: 0.0 <= v < math.inf, "be >= 0"),
    "p": ("P", lambda v: 0.0 <= v < math.inf, "be >= 0"),
    "q": ("Q", lambda v: 0.0 <= v < math.inf, "be >= 0"),
    "m": ("m", None, None),  # the one integer field, read by _check_index
}

# rules on several fields, checked right after the field named as the key
_JOINT_RULES = {
    "q": (lambda o: o.p + o.q > 0.0, "P + Q must be > 0"),
    "theta2": (lambda o: o.theta1 + o.theta2 > 0.0,
               "theta1 + theta2 must be > 0 (otherwise use DiscreteStable)"),
}


def _validate(obj, **overrides) -> None:
    """Check each field of `obj` by its _RULES entry, or by `overrides`."""
    for f in fields(obj):
        label, ok, rule = overrides.get(f.name, _RULES[f.name])
        value = getattr(obj, f.name)
        if ok is None:
            _check_index(value, label, 1)
        else:
            _scalar(value, label, ok, rule)
        if f.name in _JOINT_RULES:
            joint, msg = _JOINT_RULES[f.name]
            if not joint(obj):
                raise DomainError(msg)


def _validate_polylog(p) -> None:
    """_validate, with the polylog pair's alpha > 0 rule."""
    _validate(p, alpha=("alpha", lambda v: 0.0 < v < math.inf, "be > 0"))


# ---------------------------------------------------------------------------
# stable laws and views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableParams:
    """Strictly stable law: index alpha, skew beta, scale sigma."""

    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        _validate(self, alpha=("alpha", lambda v: 0.0 < v <= 2.0, "be in (0, 2]"))


@dataclass(frozen=True)
class AttractionTarget:
    """Limit law of normalized sums: a stable law, a Gaussian, or both.

    `stable` is the formal stable law whose tails the family's Levy measure
    mimics (None when no such law exists); `gaussian` is True when the family
    has finite variance and therefore sums into the Gaussian domain.
    """

    stable: Optional[StableParams]
    gaussian: bool


@dataclass(frozen=True)
class CompoundPoissonView:
    """Total jump intensity and single-jump CF: char_fn = exp(-Lambda(1 - h))."""

    total_intensity: float
    jump_cf: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# shared numerics
# ---------------------------------------------------------------------------

def _walk_rate(p) -> float:
    """lambda = sigma^{2 gamma} 2^gamma / a^{2 gamma} of the symmetric-walk pair."""
    return p.sigma ** (2 * p.gamma) * 2.0**p.gamma / p.a ** (2 * p.gamma)


def _polylog_target(p, gaussian: bool) -> AttractionTarget:
    if p.alpha >= 2.0:
        return AttractionTarget(None, gaussian=True)
    # scale from Levy-tail matching: sigma^alpha = (P+Q) pi / (2 alpha sin(pi alpha/2) Gamma(alpha))
    c = math.pi / (2.0 * p.alpha * math.sin(0.5 * math.pi * p.alpha) * math.gamma(p.alpha))
    sigma = ((p.p + p.q) * c) ** (1.0 / p.alpha)
    beta = (p.p - p.q) / (p.p + p.q)
    return AttractionTarget(StableParams(p.alpha, beta, sigma), gaussian=gaussian)


# ---------------------------------------------------------------------------
# the six families
# ---------------------------------------------------------------------------


class FamilyParams:
    """Base of the six family dataclasses, holding the defaults they share.

    Each family defines, for the dispatchers below: _intensities() -> (l1, l2);
    _log_cf(at), the log CF at at = a*t, which vanishes at at = 0; _levy_weight(k) for
    a nonzero integer k; and _target(). The defaults here check the fields by their
    _RULES, take Lambda as l1 + l2, and draw as a Poisson(Lambda) sum of _jumps(rng,
    count), jumps in lattice units; a family whose rate or draws differ overrides them.
    _FiniteLevy serves the truncated pair, and _SibuyaPair DiscreteStable and TemperedDS."""

    def __post_init__(self):
        _validate(self)

    def _total_intensity(self) -> float:
        return sum(self._intensities())

    def _draw(self, rng, n: int) -> np.ndarray:
        """n draws in lattice steps: a Poisson(Lambda) number of _jumps, summed."""
        return sampling._compound_poisson(self._total_intensity(), self._jumps, rng, n)


class _FiniteLevy(FamilyParams):
    """A finite Levy measure: mass right w[k] at +k and left w[k] at -k, k = 1..m.

    Subclasses supply `_table` = (right, left, w), w[k] for k = 0..m, as a cached_property,
    built once per object, as is `_jump_search`, the search table of the jumps -m..m."""

    @cached_property
    def _jump_search(self):
        return sampling._search_table(*self._table)

    def _intensities(self):
        right, left, w = self._table
        total = float(np.sum(w))
        return right * total, left * total

    def _log_cf(self, at):
        right, left, w = self._table
        step = _finite_step(w[1:], at)
        return right * step + left * np.conj(step)

    def _levy_weight(self, k: int) -> float:
        right, left, w = self._table
        return (right if k > 0 else left) * float(w[abs(k)]) if abs(k) < w.size else 0.0

    def _jumps(self, rng, count: int) -> np.ndarray:
        steps = sampling._from_table(self._jump_search, rng.generator, count)
        if max(steps.max(initial=0), -steps.min(initial=0)) > self.m:  # never, by construction
            raise PrecisionError(f"{type(self).__name__} jump past its support a*m, m = {self.m}")
        return steps


@dataclass(frozen=True)
class SymmetricDS(FamilyParams):
    """Symmetric lattice law with CF exp{-sigma^2g (2/a^2)^g (1-cos at)^g}, g = gamma.

    (1 - cos at)^g = 2^-g |1 - e^{iat}|^{2g}, so the Levy masses are the fractional
    centred-difference weights (Ortigueira 2006, Int. J. Math. Math. Sci.):
    nu(k) = lam 2^-g Gamma(2g+1) / (Gamma(g) Gamma(g+2)) prod_{j=1}^{k-1} (j-g)/(j+1+g),
    lam = sigma^{2g} (2/a^2)^g, symmetric in k. At g = 1 only nu(+-1) = lam/2 is nonzero."""

    gamma: float
    sigma: float
    a: float

    def _intensities(self):
        lam = _walk_rate(self)
        return 0.5 * lam, 0.5 * lam

    def _levy_weight(self, k: int) -> float:
        # the product splits into sibuya_survival(g, k-1) = prod (j-g)/j, exactly 0 past
        # k = 1 at g = 1, and prod j/(j+1+g) = Gamma(k) Gamma(2+g) / Gamma(k+1+g)
        g, k = self.gamma, abs(k)
        head = _walk_rate(self) * 2.0**-g * g * math.gamma(2.0 * g + 1.0) / (
            math.gamma(g + 1.0) * math.gamma(g + 2.0))  # nu(1), finite at subnormal g
        if k <= 64:
            ratio = math.prod(j / (j + 1.0 + g) for j in range(1, k))
        else:
            ratio = math.exp(math.lgamma(2.0 + g) - _lgamma_diff(float(k), 1.0 + g))
        return head * sibuya_survival(g, k - 1) * ratio

    def _log_cf(self, at):
        return -_walk_rate(self) * (2.0 * np.sin(0.5 * at) ** 2) ** self.gamma + 0.0j

    def _target(self) -> AttractionTarget:
        return AttractionTarget(
            StableParams(2.0 * self.gamma, 0.0, self.sigma), gaussian=self.gamma == 1.0
        )

    def _draw(self, rng, n: int) -> np.ndarray:
        # given T, Poisson(T/2) - Poisson(T/2) has CF e^{-T (1 - cos at)}, whose mean
        # over T = lambda^(1/gamma) S_gamma is exp(-lambda (1 - cos at)^gamma)
        half = 0.5 * sampling._stable_rates(_walk_rate(self), self.gamma, rng, n)
        return sampling._poisson_counts(half, rng) - sampling._poisson_counts(half, rng)


@dataclass(frozen=True)
class TruncatedSDS(_FiniteLevy):
    """SymmetricDS with the jump-size series truncated at m steps.

    Log CF lambda (P(cos at) - P(1)), P(c) = sum_{k<=m} w_k c^k, w the Sibuya masses, is
    lambda sum_j b_j (cos(j at) - 1) with b_j >= 0: lambda b_j / 2 is the Levy mass at +-j,
    b_0 the walks that end at 0 (Lambda counts them). b costs O(m^2), once per object."""

    gamma: float
    sigma: float
    a: float
    m: int

    @cached_property
    def _table(self):
        # poly2cheb drops trailing b_j that underflow to 0 (m past ~1000)
        half = 0.5 * _walk_rate(self)
        return half, half, poly2cheb(np.r_[0.0, _sibuya_weights(self.gamma, self.m)])

    def _target(self) -> AttractionTarget:
        return AttractionTarget(StableParams(2.0 * self.gamma, 0.0, self.sigma), gaussian=True)


def _sibuya_side(theta: float, alpha: float, x):
    """(1 - e^{-theta} e^{ix})^alpha - (1 - e^{-theta})^alpha at x in [-pi, pi], as (real,
    imaginary) parts in real arithmetic. At theta = 0, 1 - e^{ix} = 2 sin(|x|/2)
    e^{i(x - pi sgn x)/2}. Otherwise it is |N|^alpha e^{iv} - b^alpha = b^alpha (e^{u+iv} - 1),
    b = 1 - e^{-theta}, N = 1 - e^{-theta} e^{ix}, v = alpha arg N and u = alpha log(|N|/b),
    formed from |N|/b - 1 = 2 e^{-theta} (1 - cos x) / (b (|N| + b)) to keep its accuracy as
    x -> 0. The real part is the direct difference where u > 1, which cancels little there,
    and the expm1 form elsewhere: e^u would scale the rounding of a large u."""
    if theta == 0.0:
        mod = (2.0 * np.sin(0.5 * np.abs(x))) ** alpha
        phase = 0.5 * alpha * (x - np.pi * np.sign(x))
        return mod * np.cos(phase), mod * np.sin(phase)
    damp, b = math.exp(-theta), -math.expm1(-theta)
    vers = 2.0 * np.sin(0.5 * x) ** 2  # 1 - cos x
    re_n, im_n = b + damp * vers, -damp * np.sin(x)
    v, n_abs = alpha * np.arctan2(im_n, re_n), np.hypot(re_n, im_n)
    with np.errstate(over="ignore"):  # |N|/b overflows at subnormal b, where u is large anyway
        u = alpha * np.log1p(2.0 * damp * vers / (n_abs + b) / b)
    mod, scale = n_abs**alpha, b**alpha
    return (np.where(u > 1.0, mod * np.cos(v) - scale,
                     scale * (np.expm1(u) * np.cos(v) - 2.0 * np.sin(0.5 * v) ** 2)),
            mod * np.sin(v))


class _SibuyaPair(FamilyParams):
    """The discrete-stable pair: Sibuya jumps with intensities l1 right and l2 left, the
    mass at +-k damped by e^{-theta_i k}. Log CF -l1 S(theta1, at) - l2 conj S(theta2, at),
    S = _sibuya_side. DiscreteStable is the pair at theta1 = theta2 = 0."""

    def _intensities(self):
        scale = self.sigma**self.alpha / (
            2.0 * math.cos(0.5 * math.pi * self.alpha) * self.a**self.alpha)
        return scale * (1.0 + self.beta), scale * (1.0 - self.beta)

    def _side_rates(self):
        """Jump rates l_i (1 - (1 - e^{-theta_i})^alpha), log(1 - e^{-theta}) per Maechler 2012."""
        rates = list(self._intensities())
        for i, theta in enumerate((self.theta1, self.theta2)):
            if theta > 0.0:
                log_b = (math.log(-math.expm1(-theta)) if theta <= math.log(2.0)
                         else math.log1p(-math.exp(-theta)))
                rates[i] *= -math.expm1(self.alpha * log_b)
        return tuple(rates)

    def _total_intensity(self) -> float:
        return sum(self._side_rates())

    def _log_cf(self, at):
        l1, l2 = self._intensities()
        x = _reduce_angle(at)
        re1, im1 = _sibuya_side(self.theta1, self.alpha, x)
        re2, im2 = ((re1, im1) if self.theta2 == self.theta1
                    else _sibuya_side(self.theta2, self.alpha, x))
        out = (-l1 * re1 - l2 * re2).astype(complex)
        out.imag = l2 * im2 - l1 * im1
        return out

    def _levy_weight(self, k: int) -> float:
        l1, l2 = self._intensities()
        lam, theta = (l1, self.theta1) if k > 0 else (l2, self.theta2)
        return lam * sibuya_pmf(self.alpha, abs(k)) * math.exp(-theta * abs(k))

    def _target(self) -> AttractionTarget:
        return AttractionTarget(StableParams(self.alpha, self.beta, self.sigma),
                                gaussian=self.theta1 + self.theta2 > 0.0)

    def _draw(self, rng, n: int) -> np.ndarray:
        # each side on its own: given T = l^(1/alpha) S_alpha, an untempered side Poisson(T) has
        # CF e^{-T (1 - e^{+-i at})}, whose mean over T is exp(-l (1 - e^{+-i at})^alpha); a
        # tempered side sums Poisson(rate) tempered Sibuya jumps. The mixing rates come first,
        # where DiscreteStable's stream has them.
        rates, thetas = self._side_rates(), (self.theta1, self.theta2)
        mixing = {i: sampling._stable_rates(rates[i], self.alpha, rng, n)
                  for i in (0, 1) if thetas[i] == 0.0}
        right, left = (
            sampling._poisson_counts(mixing[i], rng) if i in mixing
            else sampling._compound_poisson(
                rates[i], partial(sampling.sample_tempered_sibuya, self.alpha, thetas[i]), rng, n)
            for i in (0, 1))
        return right - left


@dataclass(frozen=True)
class DiscreteStable(_SibuyaPair):
    """Two-sided lattice law with log CF -l1 (1-e^{iat})^alpha - l2 (1-e^{-iat})^alpha."""

    alpha: float
    beta: float
    sigma: float
    a: float

    theta1 = theta2 = 0.0  # class attributes, not fields: the untempered pair


@dataclass(frozen=True)
class TemperedDS(_SibuyaPair):
    """DiscreteStable with per-index exponential tempering e^{-theta k} on each side."""

    alpha: float
    beta: float
    sigma: float
    a: float
    theta1: float
    theta2: float


@dataclass(frozen=True)
class PolylogDS(FamilyParams):
    """Lattice law whose Levy weights are P k^{-1-alpha} (right) and Q (left)."""

    alpha: float
    p: float
    q: float
    a: float

    __post_init__ = _validate_polylog

    def _intensities(self):
        z = riemann_zeta(sampling._zeta_index(self.alpha)) * self.a**-self.alpha
        return self.p * z, self.q * z

    def _levy_weight(self, k: int) -> float:
        side = self.p if k > 0 else self.q
        return side * self.a**-self.alpha * float(abs(k)) ** -(1.0 + self.alpha)

    def _log_cf(self, at):
        s = 1.0 + self.alpha
        li = polylog_unit(s, at)
        z = riemann_zeta(s)
        return self.a**-self.alpha * (self.p * (li - z) + self.q * (np.conj(li) - z))

    def _target(self) -> AttractionTarget:
        return _polylog_target(self, gaussian=False)

    @cached_property
    def _jump_search(self):
        s, head = 1.0 + self.alpha, sampling._HEAD
        return sampling._head_tail_table(self.p, self.q, np.arange(1.0, head + 1.0) ** -s,
                                         _hurwitz_zeta(s, head + 1))

    def _jumps(self, rng, count: int) -> np.ndarray:
        return sampling._head_tail_jumps(self._jump_search, 1.0 + self.alpha, rng, count)


@dataclass(frozen=True)
class TruncatedPolylogDS(_FiniteLevy):
    """PolylogDS with jump magnitudes capped at m lattice steps."""

    alpha: float
    p: float
    q: float
    a: float
    m: int

    __post_init__ = _validate_polylog

    @cached_property
    def _table(self):
        w = np.r_[0.0, np.arange(1.0, self.m + 1.0) ** -(1.0 + self.alpha)]
        return self.p * self.a**-self.alpha, self.q * self.a**-self.alpha, w

    def _target(self) -> AttractionTarget:
        return _polylog_target(self, gaussian=True)


def _family(p) -> FamilyParams:
    """`p` itself, once checked to be one of the six family parameter objects, whose jump
    intensities sum to a finite float: PrecisionError if they overflow. The bases
    (FamilyParams, _FiniteLevy, _SibuyaPair) are not dataclasses, so not families."""
    if not (isinstance(p, FamilyParams) and is_dataclass(p)):
        raise DomainError(f"not a family parameter object: {p!r}")
    with suppress(OverflowError, ZeroDivisionError):  # a**-alpha overflows, a**alpha underflows
        if math.isfinite(sum(p._intensities())):
            return p
    raise PrecisionError(f"the jump intensity of {p!r} overflows float64")


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------


def derived_intensities(p: FamilyParams):
    """(lambda1, lambda2): one-sided jump intensities; their sum need not be the
    compound-Poisson rate for tempered families (see compound_poisson_view)."""
    return _family(p)._intensities()


def char_fn(p: FamilyParams, t) -> np.ndarray:
    """Exact characteristic function of the family at real, finite t (scalar or array)."""
    t, shape = _points(t, "t")
    return _shaped(np.exp(_family(p)._log_cf(t * p.a)), shape)


def stable_cf(s: StableParams, t) -> np.ndarray:
    """CF of the limiting strictly stable law at real, finite t (scalar or array).

    At beta = 0: exp(-sigma^alpha |t|^alpha), alpha in (0, 2]. Otherwise the
    skewed strictly stable form, which requires alpha in (0, 1).
    """
    t, shape = _points(t, "t")
    with np.errstate(over="ignore"):  # an infinite mag at large finite t: the CF is 0
        mag = (s.sigma * np.abs(t)) ** s.alpha
    if s.beta == 0.0:
        g = np.exp(-mag).astype(complex)
    else:
        if s.alpha == 1.0:
            raise DomainError("skewed stable CF undefined at alpha = 1 (tan pole)")
        if s.alpha > 1.0:
            raise DomainError(
                "skewed stable CF implemented for alpha in (0, 1) only"
            )
        skew = s.beta * math.tan(0.5 * math.pi * s.alpha)
        g = np.exp(-mag * (1.0 - 1j * skew * np.sign(t)))
    return _shaped(g, shape)


def compound_poisson_view(p: FamilyParams) -> CompoundPoissonView:
    """(Lambda, h) with char_fn(p, t) = exp(-Lambda (1 - h(t))).

    h = 1 + log CF / Lambda, and h(0) = 1 because every log CF vanishes at 0.
    """
    lam = _family(p)._total_intensity()

    def h(t):
        t, shape = _points(t, "t")
        return _shaped(1.0 + p._log_cf(p.a * t) / lam, shape)

    return CompoundPoissonView(lam, h)


def levy_weight(p: FamilyParams, k) -> float:
    """Mass of the Levy measure at lattice point a*k, k a nonzero integer.

    SymmetricDS masses are a closed form, O(1) in k. TruncatedSDS weights are
    lambda b_|k| / 2 from the Chebyshev coefficients of its cosine series, computed in
    O(m^2) once per object.
    """
    k = _check_index(k, "k", None)
    if k == 0:
        raise DomainError("the Levy measure has no mass at 0")
    return _family(p)._levy_weight(k)


def target_stable(p: FamilyParams) -> AttractionTarget:
    """The stable law the family approaches as a -> 0, plus the Gaussian flag."""
    return _family(p)._target()
