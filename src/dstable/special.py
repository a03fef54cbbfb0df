"""Scalar special functions backing the lattice families.

Everything here is float64: generalized binomial coefficients, Sibuya
probabilities, the Riemann zeta function on (1, inf) (``scipy.special.zeta``), and
the polylogarithm on the unit circle with its finite partial sums.  The
polylogarithm is the power series of Li_s(e^mu) in mu = i theta, whose
coefficients are zeta values at s - k, plus the term Gamma(1-s)(-mu)^(s-1) (Wood,
"The computation of polylogarithms", 1992; DLMF 25.12).  That term and the
coefficient zeta(s-n+1), n the integer nearest s, both have a pole at integer s,
so they are always summed as one regularised pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exprel, factorial, polygamma, zeta

from .errors import DomainError

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


def _sinpi(x: float):
    """sin(pi x) with argument reduction done on x itself, plus the exact sign.

    Returns (log_abs, sign); sign is 0 when x is an integer.
    """
    m = math.floor(x + 0.5)
    r = x - m  # exact; |r| <= 1/2
    if r == 0.0:
        return -math.inf, 0
    s = math.sin(math.pi * r)
    sign = (1 if s > 0 else -1) * (1 if m % 2 == 0 else -1)
    return math.log(abs(s)), sign


def _check_index(k, name: str):
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {k!r}")
    return int(k)


def gen_binomial(gamma: float, k) -> float:
    """Generalized binomial coefficient C(gamma, k) for real gamma and integer k >= 0.

    Uses the running product for k <= 64 and a log-gamma form (with reflection for
    gamma below k) beyond that.
    """
    k = _check_index(k, "k")
    if k < 0:
        raise DomainError(f"gen_binomial requires k >= 0, got {k}")
    g = float(gamma)
    if not math.isfinite(g):
        raise DomainError(f"gen_binomial requires finite gamma, got {gamma!r}")
    if k == 0:
        return 1.0
    if k <= 64:
        out = 1.0
        for j in range(k):
            out *= (g - j) / (j + 1)
        return out
    if g == math.floor(g):
        gi = int(g)
        if 0 <= gi <= k - 1:
            return 0.0
        if gi < 0:
            # C(-n, k) = (-1)^k C(n + k - 1, k)
            n = -gi
            sign = -1.0 if k % 2 else 1.0
            return sign * gen_binomial(float(n + k - 1), k)
    if g > k - 1:
        # all three gamma arguments are positive
        return math.exp(
            math.lgamma(g + 1.0) - math.lgamma(k + 1.0) - math.lgamma(g - k + 1.0)
        )
    # reflection: C(g, k) = (-1)^(k+1) sin(pi g) Gamma(g+1) Gamma(k-g) / (pi Gamma(k+1))
    log_sin, sign_sin = _sinpi(g)
    if sign_sin == 0:  # integer g was already handled; defensive
        return 0.0
    if k - g >= 32.0 and abs(g + 1.0) <= 8.0:
        log_ratio = _lgamma_diff(k - g, g + 1.0)  # lgamma(k+1) - lgamma(k-g)
    else:
        log_ratio = math.lgamma(k + 1.0) - math.lgamma(k - g)
    log_mag = math.lgamma(g + 1.0) + log_sin - math.log(math.pi) - log_ratio
    sign = sign_sin * (1.0 if k % 2 else -1.0)
    return sign * math.exp(log_mag)


def sibuya_pmf(alpha: float, k) -> float:
    """P(K = k) for the Sibuya law with tail index alpha in (0, 1], k >= 1."""
    k = _check_index(k, "k")
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"sibuya_pmf requires alpha in (0, 1], got {alpha!r}")
    if k < 1:
        raise DomainError(f"sibuya_pmf requires k >= 1, got {k}")
    if a == 1.0:
        return 1.0 if k == 1 else 0.0
    val = gen_binomial(a, k)
    return -val if k % 2 == 0 else val


def sibuya_survival(alpha: float, m) -> float:
    """P(K > m) for the Sibuya law: prod_{j<=m} (1 - alpha/j)."""
    m = _check_index(m, "m")
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"sibuya_survival requires alpha in (0, 1], got {alpha!r}")
    if m < 0:
        raise DomainError(f"sibuya_survival requires m >= 0, got {m}")
    if m == 0:
        return 1.0
    if a == 1.0:
        return 0.0
    if m <= 64:
        out = 1.0
        for j in range(1, m + 1):
            out *= 1.0 - a / j
        return out
    # Gamma(m+1-alpha) / (Gamma(1-alpha) Gamma(m+1))
    return math.exp(_lgamma_diff(m + 1.0, -a) - math.lgamma(1.0 - a))


def riemann_zeta(s: float) -> float:
    """Riemann zeta on (1, inf): ``scipy.special.zeta`` behind a typed domain check."""
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"riemann_zeta requires s > 1, got {s!r}")
    return float(zeta(s))


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


def _pole_pair(n: int, eps: float):
    """(a, g) at s = n + eps, |eps| <= 1/2, with g = (pi eps/sin(pi eps)) (n-1)!/Gamma(n+eps)
    and a = zeta(1+eps) - g/eps, so that the Gamma term plus the k = n-1 term of the
    series is mu^(n-1)/(n-1)! (a - g expm1(eps L)/eps), L = log(-mu).

    The two terms have poles at eps = 0 that cancel; summed apart they lose about
    1e-16 (pi^(n-1)/(n-1)!)/|eps| (1.3e-12 at s = 3.0021), and a formed from scipy's
    zeta(1+eps) still loses 6e-15 at s = 3.089.  So a and g come from Taylor series in
    eps, which converge for |eps| < 1: _ZETA_POLE, and log g = eps lg, expanded with
    pi eps/sin(pi eps) = Gamma(1+eps) Gamma(1-eps).  At eps = 0, a = H_(n-1), g = 1.
    """
    k = np.arange(1, 56)
    lg_terms = (polygamma(k - 1, 1) * (1.0 + (-1.0) ** k) - polygamma(k - 1, n)) / factorial(k)
    lg = np.polyval(lg_terms[::-1], eps)
    a = np.polyval(_ZETA_POLE[::-1], eps) - exprel(eps * lg) * lg
    return a, math.exp(eps * lg)


def _series(s: float):
    """Li_s(e^{i theta}) for 1 < s < 60 on a block of theta, from Li_s(e^mu) =
    Gamma(1-s)(-mu)^(s-1) + sum_k zeta(s-k) mu^k/k!, |mu| < 2 pi; at |mu| <= pi the
    terms fall like 2^-k, below 1e-19 by k = 60.  The coefficients are built once."""
    n = round(s)
    eps = s - n
    a, g = _pole_pair(n, eps)
    k = np.arange(60)
    coeff = zeta(s - k) / factorial(k)
    coeff[n - 1] = a / math.factorial(n - 1)
    scale = -g / math.factorial(n - 1)
    at_one = float(zeta(s))  # Li_s(1); the pair would need L = -inf there

    def block(theta):
        # reduce |theta| so the map stays exactly odd; [-pi, pi] comes back unchanged
        r = np.remainder(np.abs(theta), 2.0 * np.pi)
        theta = np.sign(theta) * np.where(r > np.pi, r - 2.0 * np.pi, r)
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


def _finite_polylog_step(s: float, theta, m: int) -> np.ndarray:
    """sum_{k=1}^{m} (e^{i k theta} - 1) k^-s, vectorized over theta.

    Baby-step/giant-step: with K = isqrt(m), k = K q + r (r < K) and the weights
    k^-s as a Q x K matrix W (zero at k = 0 and past m), angle addition gives
      1 - cos(k theta) = V_q cos(r theta) + v_r + S_q s_r,
      sin(k theta)     = S_q cos(r theta) + (1 - V_q) s_r,
    v_r = 2 sin^2(r theta/2), s_r = sin(r theta), V_q = 2 sin^2(K q theta/2), S_q =
    sin(K q theta). That costs 2 (K + Q) = O(sqrt m) sines per point plus the matmuls
    V W and S W, against 2 m sines term by term. Built from versines, the real part is
    never positive while m |theta| <= pi and keeps its relative accuracy next to 0
    (and, theta being reduced by 2 pi in two parts, next to every multiple of 2 pi).
    """
    flat = np.ravel(theta)
    big = math.isqrt(m)
    w = np.zeros((m // big + 1, big))
    w.flat[1 : m + 1] = np.arange(1.0, m + 1.0) ** -s
    w_r = w.sum(axis=0)
    baby, giant = np.arange(big), big * np.arange(w.shape[0])
    out = np.empty(flat.shape, dtype=complex)
    rows = max(1, (1 << 20) // (baby.size + giant.size))  # ~2^20 entries a block
    for lo in range(0, flat.size, rows):
        x0 = flat[lo : lo + rows, None]
        # x0 - 2 pi j in [-pi, pi]: the fmod and the wrap by _TWO_PI are exact
        x = np.fmod(x0, _TWO_PI)
        x -= _TWO_PI * np.rint(x / _TWO_PI)
        x -= np.rint((x0 - x) / _TWO_PI) * _TWO_PI_LO
        v, s_r = 2.0 * np.sin(0.5 * x * baby) ** 2, np.sin(x * baby)
        vw = 2.0 * np.sin(0.5 * x * giant) ** 2 @ w
        sw = np.sin(x * giant) @ w
        out.real[lo : lo + rows] = -((1.0 - v) * vw + v * w_r + s_r * sw).sum(axis=1)
        out.imag[lo : lo + rows] = ((1.0 - v) * sw + s_r * (w_r - vw)).sum(axis=1)
    return out.reshape(np.shape(theta))


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
    block = _series(s) if s < 60.0 else lambda th: zeta(s) + _finite_polylog_step(s, th, 63)
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = block(flat[lo : lo + _CHUNK])
    if th.ndim == 0:
        return complex(out[0])
    return out.reshape(th.shape)
