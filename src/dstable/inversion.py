"""Discrete Fourier inversion of lattice characteristic functions.

For a law on the lattice a*Z with CF g, the masses on the window
k in [-N/2, N/2) are p_k = (1/N) sum_j g(2 pi j / (N a)) e^{-2 pi i j k / N}.
A lattice CF is Hermitian and 2 pi / a - periodic, g(t_{N-j}) = conj g(t_j), so
g is needed on the half grid j = 0..N/2 only (spot-checked on a few mirrored
points) and the masses are the real inverse FFT of conj g. They come folded
modulo N, so the window must be wide enough that out-of-window mass is
negligible; `alias_bound` carries a cheap estimate of that mass and
`pmf_auto` doubles the window until it is small, reusing the previous CF values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InversionError, PrecisionError
from .special import _check_index, _points, _scalar, _shaped

__all__ = ["LatticePMF", "pmf_from_cf", "pmf_auto", "tail_prob", "cdf_from_pmf"]

_NEG_EPS = 1e-12      # masses below -_NEG_EPS mean the input was not a CF
_IMAG_TOL = 1e-10     # largest |cf(t_{N-j}) - conj cf(t_j)| tolerated
_MIRROR_POINTS = 32   # mirrored points spot-checked per window


@dataclass(frozen=True)
class LatticePMF:
    """Masses on the lattice points a*k, k = k_min .. k_min + len(masses) - 1."""

    a: float
    k_min: int
    masses: np.ndarray = field(repr=False)
    alias_bound: float

    def __post_init__(self):
        _scalar(self.a, "lattice pitch a", lambda v: 0.0 < v < math.inf, "be > 0")
        _check_index(self.k_min, "k_min", None)
        _scalar(self.alias_bound, "alias_bound", lambda v: v >= 0.0, "be >= 0")
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.ndim != 1 or m.size == 0:
            raise DomainError("masses must be a nonempty 1-d array")
        if m.min() < -_NEG_EPS:
            raise InversionError(
                f"mass {m.min():.3e} below -{_NEG_EPS:g}: inversion failed "
                "(the characteristic function is not positive-definite?)"
            )
        total = float(m.sum())
        if not (1.0 - self.alias_bound - 1e-9 <= total <= 1.0 + 1e-9):
            raise InversionError(
                f"masses sum to {total!r}, outside [1 - alias_bound - 1e-9, 1 + 1e-9]"
            )

    def k_values(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_min + self.masses.size)

    def x_values(self) -> np.ndarray:
        return self.a * self.k_values()

    def clamped(self) -> np.ndarray:
        """Masses with the tiny negative rounding residues set to zero."""
        return np.maximum(self.masses, 0.0)

    def mass_at(self, k: int) -> float:
        idx = _check_index(k, "k", None) - self.k_min
        if 0 <= idx < self.masses.size:
            return max(float(self.masses[idx]), 0.0)
        return 0.0


def _geometric_tail(outer: np.ndarray) -> float:
    """Estimate of the mass beyond a window edge from its outermost decade.

    `outer` holds the clamped masses of one side ordered from the center
    outward; a geometric ratio is fitted across its last factor-of-ten span
    and summed past the edge. Power-law tails decay sub-geometrically, so
    this is an order-of-magnitude estimate, not a rigorous bound.
    """
    edge = outer.size - 1
    inner = max(0, edge // 10)
    p_in, p_edge = float(outer[inner]), float(outer[edge])
    if p_edge <= 0.0:
        return 0.0
    if p_in <= p_edge or edge == inner:
        return float(p_edge * outer.size)  # not decaying: flag loudly
    ratio = (p_edge / p_in) ** (1.0 / (edge - inner))
    return float(p_edge * ratio / (1.0 - ratio))


def pmf_from_cf(cf, a: float, n: int) -> LatticePMF:
    """Invert a 2 pi / a - periodic CF to masses on k in [-n/2, n/2).

    `cf` must accept a float ndarray and return the CF values; `n` must be a
    power of two >= 8. `cf` is evaluated on t_j = 2 pi j / (n a) for
    j = 0..n/2 and, as a spot check, at up to 32 mirrored points t_{n-j}
    (j = 1 and n/2 - 1 among them; every j when n/2 <= 32). Raises
    InversionError if cf(0) is not 1 to 1e-12, if |Im cf(pi/a)| or some
    |cf(t_{n-j}) - conj cf(t_j)| exceeds 1e-10, or if a mass falls below
    -1e-12.
    """
    n = _check_index(n, "n", None)
    if n < 8 or (n & (n - 1)) != 0:
        raise DomainError(f"n must be a power of two >= 8, got {n}")
    _scalar(a, "lattice pitch a", lambda v: 0.0 < v < math.inf, "be > 0")

    half = n // 2
    step = 2.0 * math.pi / (n * a)
    t = step * np.arange(half + 1, dtype=float)
    values = np.asarray(cf(t), dtype=complex)
    if values.shape != t.shape:
        raise DomainError("cf must return one value per grid point")
    if abs(values[0] - 1.0) > 1e-12:
        raise InversionError(f"cf(0) = {values[0]!r}, not 1 to 1e-12: not a CF")
    # mirror spot check on j = 1 .. n/2 - 1: every j up to 32 of them
    j = np.linspace(1, half - 1, min(_MIRROR_POINTS, half - 1)).round().astype(np.int64)
    mirrored = np.asarray(cf(step * (n - j)), dtype=complex)
    gap = max(abs(values[half].imag), float(np.max(np.abs(mirrored - np.conj(values[j])))))
    if gap > _IMAG_TOL:
        raise InversionError(
            f"Im cf(pi/a) or |cf(t_(n-j)) - conj cf(t_j)| is {gap:.3e}, above "
            f"{_IMAG_TOL:g}: cf is not Hermitian or not periodic on this lattice"
        )

    # masses at k = 0..n-1 (mod n), reordered to k = -n/2 .. n/2 - 1
    masses = np.fft.fftshift(np.fft.irfft(np.conj(values), n))

    clamped = np.maximum(masses, 0.0)
    alias = max(0.0, 1.0 - float(clamped.sum()))
    alias += _geometric_tail(clamped[:half][::-1])  # k = -1 .. -n/2, outward
    alias += _geometric_tail(clamped[half + 1:])    # k = +1 .. n/2-1, outward
    return LatticePMF(a=a, k_min=-half, masses=masses, alias_bound=alias)


class _HalfGridMemo:
    """`cf` that reuses its values on the largest grid it has seen.

    The half grid of window 2n at even j is bit for bit the half grid of
    window n (2n * a is exactly 2 * (n * a)), so a call whose even points
    equal the stored grid evaluates `cf` at its odd points only.
    """

    def __init__(self, cf):
        self.cf, self.t, self.values = cf, None, None

    def __call__(self, t):
        old = self.t
        if old is not None and t.size == 2 * old.size - 1 and np.array_equal(t[::2], old):
            values = np.empty(t.size, dtype=complex)
            values[::2], values[1::2] = self.values, self.cf(t[1::2])
        else:
            values = np.asarray(self.cf(t), dtype=complex)
        if old is None or t.size > old.size:  # smaller calls: the mirror spot check
            self.t, self.values = t, values
        return values


def pmf_auto(cf, a: float, tol: float = 1e-6, n_max: int = 1 << 24) -> LatticePMF:
    """Invert with the smallest power-of-two window whose alias_bound < tol.

    Doubles n from 256 upward, evaluating `cf` only at the half-grid points
    each doubling adds; raises PrecisionError with a window-size hint if the
    bound is still above tol at n_max.
    """
    _scalar(tol, "tol", lambda v: 0.0 < v < 1.0, "be in (0, 1)")
    n_max = _check_index(n_max, "n_max", 256)  # 256 is the first window
    memo = _HalfGridMemo(cf)
    n = 256
    history = []
    while n <= n_max:
        pmf = pmf_from_cf(memo, a, n)
        history.append((n, pmf.alias_bound))
        if pmf.alias_bound < tol:
            return pmf
        n *= 2
    hint = ""
    if len(history) >= 2 and history[-2][1] > 0 and history[-1][1] > 0:
        rate = math.log2(history[-2][1] / history[-1][1])
        if rate > 0.01:
            need = math.ceil(math.log2(history[-1][1] / tol) / rate)
            hint = f"; projected to need n = 2^{int(math.log2(history[-1][0])) + need}"
    raise PrecisionError(
        f"alias bound {history[-1][1]:.3e} still above {tol:g} at n = {history[-1][0]}"
        + hint
    )


def tail_prob(pmf: LatticePMF, x):
    """P(|X| > x) under the clamped masses: the sum over lattice points |a k| > x, for a
    scalar x >= 0 (a float back) or an array of them (an array back).

    The points below -x and above x count, never 0 itself, so each side of 0 is summed
    in place from its far end inward, in one pass: a cumsum left of 0 and a reverse
    cumsum right of it. A zero at each end stands for the mass past it."""
    x, shape = _points(x, "x", lambda v: v >= 0.0, "be >= 0")  # NaN fails too
    xv = pmf.x_values()
    cl = np.zeros(xv.size + 2)
    np.maximum(pmf.masses, 0.0, out=cl[1:-1])
    lo, hi = np.searchsorted(xv, 0.0), np.searchsorted(xv, 0.0, side="right")
    np.cumsum(cl[:lo + 1], out=cl[:lo + 1])  # cl[i], i <= lo: mass at xv[:i], all < 0
    np.cumsum(cl[:hi:-1], out=cl[:hi:-1])  # cl[i], i > hi: mass at xv[i - 1:], all > 0
    out = cl[np.searchsorted(xv, x, side="right") + 1] + cl[np.searchsorted(xv, -x)]
    return _shaped(out, shape)


def cdf_from_pmf(pmf: LatticePMF, x):
    """P(X <= x) under the clamped masses, right-continuous in x, for a scalar x (a float
    back) or an array of them (an array back)."""
    x, shape = _points(x, "x", lambda v: ~np.isnan(v), "not be NaN")
    cum = np.r_[0.0, np.cumsum(pmf.clamped())]  # cum[i]: the mass at the first i points
    return _shaped(cum[np.searchsorted(pmf.x_values(), x, side="right")], shape)
