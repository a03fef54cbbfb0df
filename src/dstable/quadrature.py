"""Double-exponential (tanh-sinh) quadrature for the CDF inversion.

``tanh_sinh`` integrates adaptively on a finite interval and is robust to
integrable endpoint singularities (the CDF inversion integrand blows up like
t**(alpha-1) at 0).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PrecisionError

# Node positions are kept as offsets from the nearer endpoint so that values such as
# 1 - tanh(z) are not rounded away; beyond Z_MAX the offsets underflow usefulness.
_Z_MAX = 320.0
_T_MAX = float(np.arcsinh(2.0 * _Z_MAX / np.pi))
_MAX_LEVEL = 12  # halvings of the step h = 1 before PrecisionError


def _half_nodes(h: float, odd_only: bool):
    """Offsets/weights for the nonnegative abscissas t = k h of the tanh-sinh rule.

    offset = 1 - tanh((pi/2) sinh(kh)) is the node's distance from the endpoint of
    the canonical (-1, 1) interval; weight = (pi/2) cosh(kh) sech^2((pi/2) sinh(kh)).
    With ``odd_only`` only odd k are produced (the nodes new after halving h).
    """
    k = np.arange(1 if odd_only else 0, int(_T_MAX / h) + 1, 2 if odd_only else 1)
    t = k * h
    z = 0.5 * np.pi * np.sinh(t)
    ez = np.exp(-2.0 * z)
    offset = 2.0 * ez / (1.0 + ez)  # 1 - tanh(z) without cancellation
    sech2 = (2.0 * np.exp(-z) / (1.0 + ez)) ** 2
    weight = 0.5 * np.pi * np.cosh(t) * sech2
    good = (offset > 0) & (weight > 0)
    return k[good], offset[good], weight[good]


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12):
    """Integrate ``f`` over (a, b) with the tanh-sinh rule, doubling until converged.

    ``f`` must accept an ndarray of points strictly inside (a, b) and may return an
    array with extra leading axes (integration runs over the last axis), so a whole
    grid of integrals can share one set of nodes.  Returns ``(value, err_estimate)``
    where the estimate is the last level-to-level change.  Raises PrecisionError if
    that change never reaches ``tol``.
    """
    if not b > a:
        raise DomainError(f"tanh_sinh needs b > a, got a = {a!r}, b = {b!r}")
    half = 0.5 * (b - a)

    running = None  # sum of w * f over all nodes seen so far (no h factor)
    previous = None
    for level in range(_MAX_LEVEL + 1):
        h = 1.0 / (1 << level)
        k, offset, weight = _half_nodes(h, odd_only=level > 0)
        x_hi = b - half * offset
        x_lo = a + half * offset
        part = np.sum(f(x_hi) * weight, axis=-1)
        # k = 0 is the midpoint and must be counted once, not mirrored
        lo = k > 0
        part = part + np.sum(f(x_lo[lo]) * weight[lo], axis=-1)
        running = part if running is None else running + part
        value = half * h * running
        if previous is not None:
            err = float(np.max(np.abs(value - previous)))
            if err <= tol:
                return value, err
        previous = value
    raise PrecisionError(
        f"tanh-sinh quadrature did not reach tol={tol:g} after {_MAX_LEVEL} doublings"
    )

