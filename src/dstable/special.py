"""Scalar special functions backing the lattice families, on numpy and the math module.

Everything here is float64: Sibuya probabilities from one survival product,
the Hurwitz zeta function zeta(s, q) for s > 1 and integer q >= 1 by
Euler-Maclaurin summation (the Riemann zeta function is q = 1), and
the polylogarithm on the unit circle with its finite partial sums.  The
polylogarithm is the power series of Li_s(e^mu) in mu = i theta, whose
coefficients are zeta values at s - k, plus the term Gamma(1-s)(-mu)^(s-1) (Wood,
"The computation of polylogarithms", 1992; DLMF 25.12).  That term and the
coefficient zeta(s-n+1), n the integer nearest s, both have a pole at integer s,
so they are always summed as one regularised pair.  The zeta values below 1 come
from the reflection formula (DLMF 25.4.1), and the pair's digamma and polygamma
values from Hurwitz zeta (DLMF 25.11.12).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = ["sibuya_pmf", "sibuya_survival", "riemann_zeta", "polylog_unit"]

# Bernoulli numbers B_2, B_4, ..., B_16
_B2J = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_CHUNK = 8192
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - _TWO_PI, from 40-digit mpmath


def _stirling_tail(z: float) -> float:
    """Stirling-series correction S(z) = lgamma(z) - (z-1/2)ln z + z - ln(2 pi)/2.

    Accurate to ~1e-20 absolute for z >= 32.
    """
    zi2 = 1.0 / (z * z)
    total = 0.0
    zpow = 1.0 / z
    for j, b in enumerate(_B2J, start=1):
        total += b / (2 * j * (2 * j - 1)) * zpow
        zpow *= zi2
    return total


def _lgamma_diff(base: float, shift: float) -> float:
    """lgamma(base + shift) - lgamma(base), computed without the catastrophic loss
    of the naive subtraction when base is large.  Requires base >= 32 and
    base + shift >= 32."""
    return (
        shift * math.log(base)
        + (base + shift - 0.5) * math.log1p(shift / base)
        - shift
        + _stirling_tail(base + shift)
        - _stirling_tail(base)
    )


def _check_index(k, name: str, least: int = 0) -> int:
    """k as an int; DomainError unless k is an integer >= least."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {k!r}")
    return int(k)


def sibuya_pmf(alpha: float, k) -> float:
    """P(K = k) for the Sibuya law with tail index alpha in (0, 1], k >= 1.

    P(K = k) = (-1)^(k+1) C(alpha, k) = (alpha/k) P(K > k-1), so the mass is the
    survival product times one ratio, with no alternating signs."""
    k = _check_index(k, "k", 1)
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"sibuya_pmf requires alpha in (0, 1], got {alpha!r}")
    return a / k * sibuya_survival(a, k - 1)


def sibuya_survival(alpha: float, m) -> float:
    """P(K > m) for the Sibuya law: prod_{j<=m} (1 - alpha/j)."""
    m = _check_index(m, "m")
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"sibuya_survival requires alpha in (0, 1], got {alpha!r}")
    if m <= 64:
        return math.prod(1.0 - a / j for j in range(1, m + 1))
    if a == 1.0:
        return 0.0
    # Gamma(m+1-alpha) / (Gamma(1-alpha) Gamma(m+1))
    return math.exp(_lgamma_diff(m + 1.0, -a) - math.lgamma(1.0 - a))


def _sibuya_weights(alpha: float, m: int) -> np.ndarray:
    """w_1..w_m with w_k = sibuya_pmf(alpha, k), via the stable ratio recurrence."""
    w = np.empty(m)
    w[0] = alpha
    k = np.arange(1.0, m)
    if m > 1:
        w[1:] = alpha * np.cumprod((k - alpha) / (k + 1.0))
    return w


def _hurwitz_zeta(s: float, q: int) -> float:
    """zeta(s, q) = sum_{k>=q} k^-s for s > 1 and an integer q >= 1.

    The terms k = q..q+15 are summed directly and the rest by Euler-Maclaurin from
    N = q + 16 (DLMF 25.11(iii)): N^(1-s)/(s-1) + N^-s/2 + sum_j B_2j/(2j)! (s)_(2j-1)
    N^(1-s-2j), j = 1..8.  The first term left out is under 1e-21 of the sum for every
    s > 1 and q: where s/N is large, the explicit terms carry all but (q/N)^s of it.
    Against 400-digit mpmath at 322 s in (1, 1000] and q from 1 to 10^6 the largest
    relative error was 2.4e-16 (``scipy.special.zeta``: 6.6e-16)."""
    n = q + 16
    n_s = n ** -s
    term, tail = 0.5 * s / n * n_s, 0.5 * n_s  # term = (s)_(2j-1) N^(1-s-2j) / (2j)!
    for j, b in enumerate(_B2J, start=1):
        tail += b * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * n * n)
    return math.fsum([float(k) ** -s for k in range(q, n)] + [n ** (1.0 - s) / (s - 1.0), tail])


def riemann_zeta(s: float) -> float:
    """Riemann zeta on (1, inf): _hurwitz_zeta(s, 1) behind a typed domain check.

    PolylogDS takes its intensity, its CF's zeta(s) and polylog_unit(s, 0) from here,
    so that one value cancels and its CF is exactly 1 at t = 0."""
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"riemann_zeta requires s > 1, got {s!r}")
    return _hurwitz_zeta(s, 1)


# ---------------------------------------------------------------------------
# polylogarithm on the unit circle
# ---------------------------------------------------------------------------

# Taylor coefficients of zeta(1+eps) - 1/eps, (-1)^k gamma_k/k! with gamma_k the
# Stieltjes constants; the first one left out adds under 1e-18 at |eps| = 1/2
_ZETA_POLE = np.array([
    5.772156649015328606e-1,
    7.281584548367672486e-2,
    -4.845181596436159242e-3,
    -3.42305736717224311e-4,
    9.689041939447083573e-5,
    -6.611031810842189181e-6,
    -3.316240908752772359e-7,
    1.046209458447918742e-7,
    -8.733218100273797361e-9,
    9.478277782762358956e-11,
    5.658421927608707966e-11,
    -6.768689863513696656e-12,
    3.492115936672031854e-13,
])


def _zeta_pole(eps: float) -> float:
    """zeta(1 + eps) for |eps| <= 1/2, eps != 0: 1/eps plus the _ZETA_POLE series."""
    return 1.0 / eps + float(np.polyval(_ZETA_POLE[::-1], eps))


def _zeta(x: float) -> float:
    """Riemann zeta at real x != 1.

    Above 1 it is _hurwitz_zeta(x, 1), on [1/2, 1) the _ZETA_POLE series, and below 1/2
    the reflection zeta(x) = 2^x pi^(x-1) sin(pi x/2) Gamma(1-x) zeta(1-x) (DLMF 25.4.1).
    sin(pi x/2) is reduced exactly, by r = fmod(x/2, 2) less its nearest integer, so the
    trivial zeros -2, -4, ... are exact and zeta keeps its relative accuracy next to them.
    Where 1 - x is within 1/2 of the pole, the series takes eps = -x itself, so that no
    rounding of 1 - x is divided by eps.  Against 50-digit mpmath at 20000 random x in
    (-59, 1) the relative error stayed below 27 * 2^-52 * max(1, |x zeta'(x)/zeta(x)|)."""
    if x > 1.0:
        return _hurwitz_zeta(x, 1)
    if x >= 0.5:
        return _zeta_pole(x - 1.0)
    if x == 0.0:
        return -0.5
    r = math.fmod(0.5 * x, 2.0)
    j = round(r)
    sine = (-1.0) ** j * math.sin(math.pi * (r - j))
    if x > -0.5:
        reflected = math.gamma(1.0 - x) * _zeta_pole(-x)
    else:  # Gamma(1-x) as -x Gamma(-x), where -x is exact and 1 - x may round
        reflected = -x * math.gamma(-x) * _hurwitz_zeta(1.0 - x, 1)
    return 2.0 ** x * math.pi ** (x - 1.0) * sine * reflected


def _pole_pair(n: int, eps: float):
    """(a, g) at s = n + eps, |eps| <= 1/2, with g = (pi eps/sin(pi eps)) (n-1)!/Gamma(n+eps)
    and a = zeta(1+eps) - g/eps, so that the Gamma term plus the k = n-1 term of the
    series is mu^(n-1)/(n-1)! (a - g expm1(eps L)/eps), L = log(-mu).

    The two terms have poles at eps = 0 that cancel; summed apart they lose about
    1e-16 (pi^(n-1)/(n-1)!)/|eps| (1.3e-12 at s = 3.0021), and a formed from a
    zeta(1+eps) value still loses 6e-15 at s = 3.089.  So a and g come from Taylor
    series in eps, which converge for |eps| < 1: _ZETA_POLE, and log g = eps lg, expanded
    with pi eps/sin(pi eps) = Gamma(1+eps) Gamma(1-eps).  The coefficients of lg are
    -psi(n) = gamma - H_(n-1) and, for k >= 2, (-1)^k (zeta(k)(1 + (-1)^k) - zeta(k, n))/k,
    from psi^(m)(q) = (-1)^(m+1) m! zeta(m+1, q) (DLMF 25.11.12).  At eps = 0, a = H_(n-1),
    g = 1.
    """
    lg_terms = [_ZETA_POLE[0] - math.fsum(1.0 / j for j in range(1, n))]
    for k in range(2, 56):
        even = 2.0 * _hurwitz_zeta(k, 1) if k % 2 == 0 else 0.0
        lg_terms.append((-1.0) ** k * (even - _hurwitz_zeta(k, n)) / k)
    lg = float(np.polyval(lg_terms[::-1], eps))
    x = eps * lg
    a = float(np.polyval(_ZETA_POLE[::-1], eps)) - (math.expm1(x) / x if x else 1.0) * lg
    return a, math.exp(x)


@functools.lru_cache(maxsize=8)
def _series(s: float):
    """Li_s(e^{i theta}) for 1 < s < 60 on a block of theta, from Li_s(e^mu) =
    Gamma(1-s)(-mu)^(s-1) + sum_k zeta(s-k) mu^k/k!, |mu| < 2 pi; at |mu| <= pi the
    terms fall like 2^-k, below 1e-19 by k = 60.  The coefficients are built once per s,
    and the block only reads them, so the block is cached."""
    n = round(s)
    eps = s - n
    a, g = _pole_pair(n, eps)
    at_one = riemann_zeta(s)  # Li_s(1); the pair would need L = -inf there
    # zeta(s - k) / k!, with coeff[0] riemann_zeta's value, the one PolylogDS subtracts;
    # the slot k = n-1 holds the pole, which the pair replaces
    coeff = np.array([at_one] + [0.0 if k == n - 1 else _zeta(s - k) / math.factorial(k)
                                 for k in range(1, 60)])
    coeff[n - 1] = a / math.factorial(n - 1)
    scale = -g / math.factorial(n - 1)

    def block(theta):
        theta = _reduce_angle(theta)
        mu = 1j * theta
        acc = np.full(theta.shape, coeff[-1], dtype=complex)
        for c in coeff[-2::-1]:
            acc = acc * mu + c
        # log 1 keeps L finite at theta = 0, which is set to Li_s(1) below
        abs_theta = np.where(theta == 0.0, 1.0, np.abs(theta))
        log_neg_mu = np.log(abs_theta) - 0.5j * np.pi * np.sign(theta)
        rate = log_neg_mu if eps == 0.0 else np.expm1(eps * log_neg_mu) / eps
        out = acc + scale * mu ** (n - 1) * rate
        out[theta == 0.0] = at_one
        return out

    return block


def _reduce_angle(theta):
    """theta - 2 pi j in [-pi, pi], exactly odd in theta; [-pi, pi] comes back unchanged.

    The fmod and the wrap by _TWO_PI are exact, and j (2 pi - _TWO_PI) is subtracted
    after, so the result keeps its relative accuracy next to every multiple of 2 pi. Past
    |theta| ~ 1e16 that term exceeds pi, and a second fmod and wrap bring x back."""
    if np.max(np.abs(theta), initial=0.0) <= np.pi:  # the grids never leave [-pi, pi]
        return theta
    x = np.fmod(theta, _TWO_PI)
    x -= _TWO_PI * np.rint(x / _TWO_PI)
    x = np.fmod(x - np.rint((theta - x) / _TWO_PI) * _TWO_PI_LO, _TWO_PI)
    return x - _TWO_PI * np.rint(x / _TWO_PI)


def _finite_step(weights: np.ndarray, theta) -> np.ndarray:
    """sum_{k=1}^{m} (e^{i k theta} - 1) w_k, w_k = weights[k-1] >= 0, vectorized over theta.

    Baby-step/giant-step: with K = isqrt(m), k = K q + r (r < K) and the weights
    as a Q x K matrix W (zero at k = 0 and past m), angle addition gives
      1 - cos(k theta) = V_q cos(r theta) + v_r + S_q s_r,
      sin(k theta)     = S_q cos(r theta) + (1 - V_q) s_r,
    v_r = 2 sin^2(r theta/2), s_r = sin(r theta), V_q = 2 sin^2(K q theta/2), S_q =
    sin(K q theta). That costs 2 (K + Q) = O(sqrt m) sines per point plus the matmuls
    V W and S W, against 2 m sines term by term. Built from versines, the real part is
    never positive while m |theta| <= pi and keeps its relative accuracy next to 0
    (and, theta going through _reduce_angle, next to every multiple of 2 pi).
    """
    flat = np.ravel(theta)
    m = weights.size
    big = math.isqrt(m)
    w = np.zeros((m // big + 1, big))
    w.flat[1 : m + 1] = weights
    w_r = w.sum(axis=0)
    baby, giant = np.arange(big), big * np.arange(w.shape[0])
    out = np.empty(flat.shape, dtype=complex)
    rows = max(1, (1 << 20) // (baby.size + giant.size))  # ~2^20 entries a block
    for lo in range(0, flat.size, rows):
        x = _reduce_angle(flat[lo : lo + rows, None])
        v, s_r = 2.0 * np.sin(0.5 * x * baby) ** 2, np.sin(x * baby)
        vw = 2.0 * np.sin(0.5 * x * giant) ** 2 @ w
        sw = np.sin(x * giant) @ w
        out.real[lo : lo + rows] = -((1.0 - v) * vw + v * w_r + s_r * sw).sum(axis=1)
        out.imag[lo : lo + rows] = ((1.0 - v) * sw + s_r * (w_r - vw)).sum(axis=1)
    return out.reshape(np.shape(theta))


def _finite_polylog_step(s: float, theta, m: int) -> np.ndarray:
    """sum_{k=1}^{m} (e^{i k theta} - 1) k^-s: _finite_step with weights k^-s."""
    return _finite_step(np.arange(1.0, m + 1.0) ** -s, theta)


def polylog_unit(s: float, theta):
    """Li_s(e^{i theta}) for s > 1 and real theta, vectorized over theta.

    Below s = 60 it sums the zeta series above in mu = i theta, one Horner pass per
    block, with theta moved into [-pi, pi] only where it lies outside; from s = 60 on
    it adds zeta(s) to _finite_polylog_step at m = 63.  At theta = 0 it returns
    zeta(s) with imaginary part exactly 0.  Against 40-digit mpmath values at 955 s in
    (1, 1000), integers and s within 1e-12 of them included, and 21 theta in
    [-9, 100], the largest absolute error measured was 9.2e-15, and the largest
    relative error where |Li| > 10 was 3.4e-16.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"polylog_unit requires s > 1, got {s!r}")
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise DomainError("polylog_unit requires finite theta")
    flat = np.atleast_1d(th).ravel()
    # from s = 60 on only k = 1..63 contribute above float64 resolution
    block = _series(s) if s < 60.0 else lambda th: riemann_zeta(s) + _finite_polylog_step(s, th, 63)
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = block(flat[lo : lo + _CHUNK])
    if th.ndim == 0:
        return complex(out[0])
    return out.reshape(th.shape)
