"""The six lattice families, each class the one definition of its law.

Every family lives on the lattice a*Z and is a compound-Poisson law: a total
jump intensity Lambda and a single-jump law, with CF exp(-Lambda (1 - h(t))).
Each class holds its parameter rules, its one-sided intensities, Lambda, its
log CF as a function of a*t, its Levy weights, its stable target and its
sampler. The public functions below (`char_fn`, `compound_poisson_view`,
`derived_intensities`, `levy_weight`, `target_stable`) dispatch to the class
through one guard; `compound_poisson_view` derives h = 1 + log CF / Lambda,
so the CF formula of each family is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

import numpy as np

from . import sampling
from .errors import DomainError, PrecisionError
from .special import _finite_polylog_step, polylog_unit, riemann_zeta, sibuya_pmf

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
    "symmetric_levy_weights",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


# ---------------------------------------------------------------------------
# parameter rules
# ---------------------------------------------------------------------------


def _real(test: Callable[[float], bool]) -> Callable[[float], bool]:
    return lambda v: math.isfinite(v) and test(v)


def _is_count(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


# field name -> (name in messages, test, rule as the message states it)
_RULES = {
    "gamma": ("gamma", _real(lambda v: 0.0 < v <= 1.0), "be in (0, 1]"),
    "alpha": ("alpha", _real(lambda v: 0.0 < v < 1.0), "be in (0, 1)"),
    "beta": ("beta", _real(lambda v: -1.0 <= v <= 1.0), "be in [-1, 1]"),
    "sigma": ("sigma", _real(lambda v: v > 0.0), "be > 0"),
    "a": ("a", _real(lambda v: v > 0.0), "be > 0"),
    "theta1": ("theta1", _real(lambda v: v >= 0.0), "be >= 0"),
    "theta2": ("theta2", _real(lambda v: v >= 0.0), "be >= 0"),
    "p": ("P", _real(lambda v: v >= 0.0), "be >= 0"),
    "q": ("Q", _real(lambda v: v >= 0.0), "be >= 0"),
    "m": ("m", _is_count, "be an integer >= 1"),
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
        _require(ok(value), f"{label} must {rule}, got {value!r}")
        if f.name in _JOINT_RULES:
            joint, msg = _JOINT_RULES[f.name]
            _require(joint(obj), msg)


def _validate_polylog(p) -> None:
    """_validate, with the polylog pair's alpha > 0 rule."""
    _validate(p, alpha=("alpha", _real(lambda v: v > 0.0), "be > 0"))


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
        _validate(self, alpha=("alpha", _real(lambda v: 0.0 < v <= 2.0), "be in (0, 2]"))


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


def _sibuya_weights(gamma: float, m: int) -> np.ndarray:
    """w_1..w_m with w_k = sibuya_pmf(gamma, k), via the stable ratio recurrence."""
    w = np.empty(m)
    w[0] = gamma
    k = np.arange(1.0, m)
    if m > 1:
        w[1:] = gamma * np.cumprod((k - gamma) / (k + 1.0))
    return w


def _cos_poly(w: np.ndarray, c: np.ndarray):
    """sum_k w[k-1] * c**k evaluated by Horner (c may be any ndarray)."""
    acc = np.zeros_like(c)
    for wk in w[::-1]:
        acc = (acc + wk) * c
    return acc


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


def _walk_rate(p) -> float:
    """lambda = sigma^{2 gamma} 2^gamma / a^{2 gamma} of the symmetric-walk pair."""
    return p.sigma ** (2 * p.gamma) * 2.0**p.gamma / p.a ** (2 * p.gamma)


def _intensity_sum(p) -> float:
    l1, l2 = p._intensities()
    return l1 + l2


def _ds_intensities(p):
    """(lambda1, lambda2) of the discrete-stable pair."""
    scale = p.sigma**p.alpha / (2.0 * math.cos(0.5 * math.pi * p.alpha) * p.a**p.alpha)
    return scale * (1.0 + p.beta), scale * (1.0 - p.beta)


def _polylog_levy_weight(p, k: int) -> float:
    side = p.p if k > 0 else p.q
    return side * p.a**-p.alpha * float(abs(k)) ** -(1.0 + p.alpha)


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
#
# Each class defines, for the dispatchers below: _intensities() -> (l1, l2);
# _total_intensity() -> Lambda; _log_cf(at), the log CF at at = a*t, which
# vanishes at at = 0; _levy_weight(k) for a nonzero integer k; _target();
# and _draw(rng, n), n draws in lattice steps: a Poisson mixture over a stable
# rate, or a Poisson(Lambda) sum of _jumps(rng, count) in lattice units.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricDS:
    """Symmetric lattice law with CF exp{-sigma^2g (2/a^2)^g (1-cos at)^g}, g = gamma."""

    gamma: float
    sigma: float
    a: float

    __post_init__ = _validate
    _total_intensity = _intensity_sum

    def _intensities(self):
        lam = _walk_rate(self)
        return 0.5 * lam, 0.5 * lam

    def _levy_weight(self, k: int) -> float:
        raise DomainError("SymmetricDS Levy weights come as a table: use symmetric_levy_weights")

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
class TruncatedSDS:
    """SymmetricDS with the jump-size series truncated at m steps."""

    gamma: float
    sigma: float
    a: float
    m: int

    __post_init__ = _validate
    _total_intensity = _intensity_sum
    _draw = sampling._compound_poisson

    def _intensities(self):
        w = _sibuya_weights(self.gamma, self.m)
        lam_m = _walk_rate(self) * float(_cos_poly(w, np.array(1.0)))
        return 0.5 * lam_m, 0.5 * lam_m

    def _levy_weight(self, k: int) -> float:
        raise DomainError("TruncatedSDS Levy weights have no closed form and are not computed")

    def _log_cf(self, at):
        w = _sibuya_weights(self.gamma, self.m)
        c = np.cos(at)
        return _walk_rate(self) * (_cos_poly(w, c) - _cos_poly(w, np.array(1.0))) + 0.0j

    def _target(self) -> AttractionTarget:
        return AttractionTarget(StableParams(2.0 * self.gamma, 0.0, self.sigma), gaussian=True)

    def _jumps(self, rng, count: int) -> np.ndarray:
        k = sampling._from_table(_sibuya_weights(self.gamma, self.m), rng.generator, count)
        steps = 2 * rng.generator.binomial(k, 0.5) - k  # K fair +-1 steps, as one binomial
        if np.any(np.abs(steps) > self.m):  # jumps never exceed a*m by construction
            raise PrecisionError(f"TruncatedSDS jump beyond its support a*m, m = {self.m}")
        return steps


@dataclass(frozen=True)
class DiscreteStable:
    """Two-sided lattice law with log CF -l1 (1-e^{iat})^alpha - l2 (1-e^{-iat})^alpha."""

    alpha: float
    beta: float
    sigma: float
    a: float

    __post_init__ = _validate
    _intensities = _ds_intensities
    _total_intensity = _intensity_sum

    def _log_cf(self, at):
        l1, l2 = self._intensities()
        z = 2.0 * np.sin(0.5 * at) ** 2 - 1j * np.sin(at)  # 1 - e^{i at}
        w = _cpow(z, self.alpha)  # (conj z)^alpha = conj(z^alpha) off the branch cut
        return -l1 * w - l2 * np.conj(w)

    def _levy_weight(self, k: int) -> float:
        l1, l2 = self._intensities()
        return l1 * sibuya_pmf(self.alpha, k) if k > 0 else l2 * sibuya_pmf(self.alpha, -k)

    def _target(self) -> AttractionTarget:
        return AttractionTarget(StableParams(self.alpha, self.beta, self.sigma), gaussian=False)

    def _draw(self, rng, n: int) -> np.ndarray:
        # given T_i, a side Poisson(T_i) has CF e^{-T_i (1 - e^{+-i at})}, whose mean
        # over T_i = l_i^(1/alpha) S_alpha is exp(-l_i (1 - e^{+-i at})^alpha)
        l1, l2 = self._intensities()
        right = sampling._stable_rates(l1, self.alpha, rng, n)
        left = sampling._stable_rates(l2, self.alpha, rng, n)
        return sampling._poisson_counts(right, rng) - sampling._poisson_counts(left, rng)


@dataclass(frozen=True)
class TemperedDS:
    """DiscreteStable with per-index exponential tempering e^{-theta k} on each side."""

    alpha: float
    beta: float
    sigma: float
    a: float
    theta1: float
    theta2: float

    __post_init__ = _validate
    _intensities = _ds_intensities
    _draw = sampling._compound_poisson

    def _bases(self):
        """(1 - e^{-theta1})^alpha and (1 - e^{-theta2})^alpha, as complex."""
        z1 = _one_minus_exp(self.theta1, np.array(0.0))
        z2 = np.conj(_one_minus_exp(self.theta2, np.array(0.0)))
        return complex(_cpow(z1, self.alpha)), complex(_cpow(z2, self.alpha))

    def _side_rates(self):
        """Jump rates of the two sides, l_i (1 - (1 - e^{-theta_i})^alpha)."""
        l1, l2 = self._intensities()
        base1, base2 = self._bases()
        return l1 * (1.0 - base1.real), l2 * (1.0 - base2.real)

    def _total_intensity(self) -> float:
        return sum(self._side_rates())

    def _log_cf(self, at):
        l1, l2 = self._intensities()
        base1, base2 = self._bases()
        z1 = _one_minus_exp(self.theta1, at)
        z2 = np.conj(_one_minus_exp(self.theta2, at))
        # grouped per side so the exponent vanishes identically at t = 0
        return -l1 * (_cpow(z1, self.alpha) - base1) - l2 * (_cpow(z2, self.alpha) - base2)

    def _levy_weight(self, k: int) -> float:
        l1, l2 = self._intensities()
        if k > 0:
            return l1 * sibuya_pmf(self.alpha, k) * math.exp(-self.theta1 * k)
        return l2 * sibuya_pmf(self.alpha, -k) * math.exp(-self.theta2 * -k)

    def _target(self) -> AttractionTarget:
        return AttractionTarget(StableParams(self.alpha, self.beta, self.sigma), gaussian=True)

    def _jumps(self, rng, count: int) -> np.ndarray:
        lam1, lam2 = self._side_rates()
        pos = rng.generator.random(count) < lam1 / (lam1 + lam2)
        mag = np.empty(count, dtype=np.int64)
        for side, theta in ((pos, self.theta1), (~pos, self.theta2)):
            n_side = int(side.sum())
            if theta > 0.0:
                mag[side] = sampling.sample_tempered_sibuya(self.alpha, theta, rng, n_side)
            else:
                mag[side] = sampling.sample_sibuya(self.alpha, rng, n_side)
        return np.where(pos, 1, -1) * mag


@dataclass(frozen=True)
class PolylogDS:
    """Lattice law whose Levy weights are P k^{-1-alpha} (right) and Q (left)."""

    alpha: float
    p: float
    q: float
    a: float

    __post_init__ = _validate_polylog
    _total_intensity = _intensity_sum
    _levy_weight = _polylog_levy_weight
    _draw = sampling._compound_poisson

    def _intensities(self):
        z = riemann_zeta(1.0 + self.alpha) * self.a**-self.alpha
        return self.p * z, self.q * z

    def _log_cf(self, at):
        s = 1.0 + self.alpha
        li = polylog_unit(s, at)
        z = riemann_zeta(s)
        return self.a**-self.alpha * (self.p * (li - z) + self.q * (np.conj(li) - z))

    def _target(self) -> AttractionTarget:
        return _polylog_target(self, gaussian=False)

    def _jumps(self, rng, count: int) -> np.ndarray:
        sign = sampling._signs(self.p / (self.p + self.q), rng.generator, count)
        k = sampling.sample_zeta(1.0 + self.alpha, rng, count)
        # numpy's zipf stops at about 2^63, so a draw of 2^62 or more shows
        # that the cut drops mass of the law
        sampling._check_range(k, "zeta")
        return sign * k


@dataclass(frozen=True)
class TruncatedPolylogDS:
    """PolylogDS with jump magnitudes capped at m lattice steps."""

    alpha: float
    p: float
    q: float
    a: float
    m: int

    __post_init__ = _validate_polylog
    _total_intensity = _intensity_sum
    _draw = sampling._compound_poisson

    def _intensities(self):
        h = float(np.sum(np.arange(1.0, self.m + 1.0) ** -(1.0 + self.alpha))) * self.a**-self.alpha
        return self.p * h, self.q * h

    def _log_cf(self, at):
        fin = _finite_polylog_step(1.0 + self.alpha, at, self.m)
        return self.a**-self.alpha * (self.p * fin + self.q * np.conj(fin))

    def _levy_weight(self, k: int) -> float:
        return 0.0 if abs(k) > self.m else _polylog_levy_weight(self, k)

    def _target(self) -> AttractionTarget:
        return _polylog_target(self, gaussian=True)

    def _jumps(self, rng, count: int) -> np.ndarray:
        sign = sampling._signs(self.p / (self.p + self.q), rng.generator, count)
        w = np.arange(1.0, self.m + 1.0) ** -(1.0 + self.alpha)
        return sign * sampling._from_table(w, rng.generator, count)


FamilyParams = Union[
    SymmetricDS, TruncatedSDS, DiscreteStable, TemperedDS, PolylogDS, TruncatedPolylogDS
]


def _family(p) -> FamilyParams:
    """`p` itself, once checked to be one of the six family parameter objects."""
    if not isinstance(p, FamilyParams):
        raise DomainError(f"not a family parameter object: {p!r}")
    return p


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------


def derived_intensities(p: FamilyParams):
    """(lambda1, lambda2): one-sided jump intensities; their sum need not be the
    compound-Poisson rate for tempered families (see compound_poisson_view)."""
    return _family(p)._intensities()


def char_fn(p: FamilyParams, t) -> np.ndarray:
    """Exact characteristic function of the family at real t (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    g = np.exp(_family(p)._log_cf(np.atleast_1d(t_arr) * p.a))
    return complex(g[0]) if scalar else g.reshape(t_arr.shape)


def stable_cf(s: StableParams, t, symmetric: bool = False) -> np.ndarray:
    """CF of the limiting strictly stable law.

    With `symmetric` (or beta = 0): exp(-sigma^alpha |t|^alpha), alpha in (0, 2].
    Otherwise the skewed strictly stable form, which requires alpha in (0, 1).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tt = np.atleast_1d(t_arr)
    mag = (s.sigma * np.abs(tt)) ** s.alpha
    if symmetric or s.beta == 0.0:
        g = np.exp(-mag).astype(complex)
    else:
        if s.alpha == 1.0:
            raise DomainError("skewed stable CF undefined at alpha = 1 (tan pole)")
        if s.alpha > 1.0:
            raise DomainError(
                "skewed stable CF implemented for alpha in (0, 1) only"
            )
        skew = s.beta * math.tan(0.5 * math.pi * s.alpha)
        g = np.exp(-mag * (1.0 - 1j * skew * np.sign(tt)))
    return complex(g[0]) if scalar else g.reshape(t_arr.shape)


def compound_poisson_view(p: FamilyParams) -> CompoundPoissonView:
    """(Lambda, h) with char_fn(p, t) = exp(-Lambda (1 - h(t))).

    h = 1 + log CF / Lambda, and h(0) = 1 because every log CF vanishes at 0.
    """
    lam = _family(p)._total_intensity()

    def h(t):
        return 1.0 + p._log_cf(p.a * np.asarray(t, dtype=float)) / lam

    return CompoundPoissonView(lam, h)


def levy_weight(p: FamilyParams, k) -> float:
    """Mass of the Levy measure at lattice point a*k, k a nonzero integer.

    Defined for the four families with a closed form per k; SymmetricDS
    weights come as a table from symmetric_levy_weights, and TruncatedSDS
    weights are not computed.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"k must be an integer, got {k!r}")
    k = int(k)
    if k == 0:
        raise DomainError("the Levy measure has no mass at 0")
    return _family(p)._levy_weight(k)


def symmetric_levy_weights(p: SymmetricDS, k_max: int) -> np.ndarray:
    """Levy masses of SymmetricDS at lattice points a*1 .. a*k_max (symmetric in k).

    (1 - cos at)^g = 2^-g |1 - e^{iat}|^{2g}, so the masses are the fractional
    centred-difference weights (Ortigueira 2006, Int. J. Math. Math. Sci.):
    nu(k) = lam 2^-g Gamma(2g+1) / (Gamma(g) Gamma(g+2)) prod_{j=1}^{k-1} (j-g)/(j+1+g),
    g = gamma, lam = sigma^{2g} (2/a^2)^g. At g = 1 only nu(1) = lam/2 is nonzero.
    """
    if not isinstance(p, SymmetricDS):
        raise DomainError("symmetric_levy_weights applies to SymmetricDS only")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    g = p.gamma
    nu = np.empty(k_max)
    nu[0] = _walk_rate(p) * 2.0**-g * math.gamma(2.0 * g + 1.0) / (
        math.gamma(g) * math.gamma(g + 2.0))
    j = np.arange(1.0, k_max)
    nu[1:] = nu[0] * np.cumprod((j - g) / (j + 1.0 + g))
    return nu


def target_stable(p: FamilyParams) -> AttractionTarget:
    """The stable law the family approaches as a -> 0, plus the Gaussian flag."""
    return _family(p)._target()
