"""Special functions: 1/Gamma, digamma, the Riemann zeta function with its
first derivative, and Gauss quadrature rules, from numpy and the math module
alone.

rgamma applies math.gamma element by element: no array that reaches it has
more than 50 entries.  zeta and zeta' come from Euler-Maclaurin summation for
s >= -1/2 and from the functional equation below it.  zeta on [-48, 2) is
read from a table built from them on first use: one Chebyshev series in d per
row k of zeta(1 + d - k), d in [0, 1], k < ZETA_SERIES_TERMS, which holds
every value the LM polylogarithm series needs.  gauss_rule builds a Gauss
rule from its three-term recurrence.  Everything here is pure and
reentrant; the zeta table is the one value kept.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["rgamma", "digamma", "riemann_zeta", "zeta_series", "ZETA_SERIES_TERMS", "gauss_rule"]


def _elementwise(fn, x):
    arr = np.asarray(x, dtype=float)
    out = np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def rgamma(x):
    """1/Gamma(x) for x below 171, where Gamma overflows (scalar or array);
    exactly 0 at the poles of Gamma, x = 0, -1, -2, ..."""
    return _elementwise(lambda v: 0.0 if v <= 0.0 and v.is_integer() else 1.0 / math.gamma(v), x)


# B_2j / (2j) for j = 1..6: the asymptotic series of digamma through x^-12
_DIGAMMA_COEF = np.array([1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0, -691.0 / 32760.0])
_DIGAMMA_SHIFTS = 11


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > -1, x != 0 (scalar or array):
    eleven steps of psi(x) = psi(x + 1) - 1/x take x past 10, where the
    asymptotic series ln y - 1/(2y) - sum_j B_2j / (2j y^2j) is summed
    through y^-12."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > -1.0) & (x != 0.0)):
        raise ValueError(f"digamma requires x > -1, x != 0, got {x}")
    y = x + _DIGAMMA_SHIFTS
    series = np.power.outer(1.0 / (y * y), np.arange(1, 7)) @ _DIGAMMA_COEF
    steps = (1.0 / np.add.outer(x, np.arange(float(_DIGAMMA_SHIFTS)))).sum(axis=-1)
    out = np.log(y) - 0.5 / y - series - steps
    return float(out) if out.ndim == 0 else out


# Bernoulli numbers B_2 .. B_10 for the Euler-Maclaurin corrections, over (2j)!
_J = np.arange(1, 6)
_EM_COEF = np.array([1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0]) / np.array(
    [math.factorial(2 * j) for j in _J]
)
_ZETA_N = 20
_LN_N = math.log(_ZETA_N)
_LN_TERMS = np.log(np.arange(1.0, _ZETA_N))
# imaginary step of the complex-step derivative; far below any rounding
_STEP = 1e-20


def _zeta_euler_maclaurin(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(s) and zeta'(s) for s >= -1/2, s != 1, by Euler-Maclaurin
    summation: partial sum to N = 20, integral and half terms, and the
    Bernoulli corrections B_2j/(2j)! s (s+1) ... (s+2j-2) N^(1-s-2j) up to
    B_10.  The sum is taken at s + ih, so zeta' is its imaginary part over h
    (complex-step differentiation: no difference is taken, so it is exact to
    rounding).  Within 1e-13 relative of mpmath on [-1/2, 50]."""
    z = (s + 1j * _STEP)[:, np.newaxis]
    rising = np.cumprod(z + np.arange(2.0 * _J[-1] - 1.0), axis=1)[:, ::2]
    terms = np.hstack([
        np.exp(-z * _LN_TERMS),  # partial sum
        np.exp((1.0 - z) * _LN_N) * (1.0 / (z - 1.0) + 0.5 / _ZETA_N),  # integral, half term
        _EM_COEF * rising * np.exp((1.0 - z - 2.0 * _J) * _LN_N),  # Bernoulli corrections
    ])
    val = terms.sum(axis=1)
    return val.real, val.imag / _STEP


def _reflection_scale(t: np.ndarray) -> np.ndarray:
    """(2 pi)^t / pi Gamma(1 - t), zeta(t) / (sin(pi t/2) zeta(1 - t))."""
    return np.power(2.0 * math.pi, t) / math.pi * _elementwise(math.gamma, 1.0 - t)


def _zeta_summed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(x) and zeta'(x) for real x != 1: Euler-Maclaurin for x >= -1/2;
    below, the functional equation zeta(t) = chi(t) zeta(1-t),
    chi(t) = (2 pi)^t / pi sin(pi t/2) Gamma(1-t), differentiated in closed
    form, with zeta and zeta' at 1 - t > 3/2 by the same summation."""
    right = x >= -0.5
    if right.all():
        return _zeta_euler_maclaurin(x)
    val, d1 = np.empty_like(x), np.empty_like(x)
    val[right], d1[right] = _zeta_euler_maclaurin(x[right])
    t = x[~right]
    z, dz = _zeta_euler_maclaurin(1.0 - t)
    # pi t/2 with t/2 reduced exactly mod 2 first; the sine is exactly 0
    # at the trivial zeros t = -2, -4, ...
    half_turn = math.pi * np.fmod(0.5 * t, 2.0)
    sine = np.where(np.fmod(t, 2.0) == 0.0, 0.0, np.sin(half_turn))
    scale = _reflection_scale(t)
    dchi = scale * (sine * (math.log(2.0 * math.pi) - digamma(1.0 - t)) + 0.5 * math.pi * np.cos(half_turn))
    val[~right] = scale * sine * z
    d1[~right] = dchi * z - scale * sine * dz
    return val, d1


ZETA_SERIES_TERMS = 50
# Chebyshev nodes per row of the zeta table; the series has degree one less
_CHEBYSHEV_NODES = 28
_DEGREES = np.arange(float(_CHEBYSHEV_NODES))
_ROWS = np.arange(ZETA_SERIES_TERMS)
# row k of the zeta table at d, times sin(pi/2 (a_k + b_k d)) / (p_k + q_k d),
# is zeta(1 + d - k): rows 0 and 1 keep the poles at d = 0 and d = 1 out of
# the table, rows k >= 3 the trivial zero at d = 0 (k odd) or d = 1 (k even)
_B = np.where(_ROWS < 3, 0.0, np.where(_ROWS % 2 == 1, 1.0, -1.0))
_A = np.where(_B > 0.0, 0.0, 1.0)
_P = np.r_[0.0, -1.0, np.ones(ZETA_SERIES_TERMS - 2)]
_Q = np.r_[1.0, 1.0, np.zeros(ZETA_SERIES_TERMS - 2)]


def _row_factor(k, d):
    """The factor that turns row k of the zeta table at d back into
    zeta(1 + d - k), for one row k or a slice of rows; k and d broadcast.
    Its sine is exactly 0 at a trivial zero: sin(pi d/2) at d = 0 or
    sin(pi (1 - d)/2) at d = 1."""
    return np.sin(0.5 * math.pi * (_A[k] + _B[k] * d)) / (_P[k] + _Q[k] * d)


def _chebyshev(d) -> np.ndarray:
    """T_j(2d - 1), j < _CHEBYSHEV_NODES, along a new last axis of d."""
    return np.cos(np.multiply.outer(np.arccos(2.0 * d - 1.0), _DEGREES))


@lru_cache(maxsize=1)
def _zeta_chebyshev() -> np.ndarray:
    """The zeta table: one row per k < ZETA_SERIES_TERMS of coefficients of
    the Chebyshev series in 2d - 1 of zeta(1 + d - k) / _row_factor(k, d),
    that is d zeta(1 + d), (d - 1) zeta(d), zeta(d - 1), then
    +-zeta(1 + d - k) / sin(pi (1 + d - k)/2), each smooth on [0, 1] and
    free of zeros there.  It interpolates the summed zeta at the Chebyshev
    nodes of the first kind, moved to where 1 + d is a double, so that rows
    0 and 1 see their arguments exactly near the poles; rows k >= 3 leave
    the sine out of the functional equation, as the zero of a sine at a
    rounded 1 + d - k would not be the zero of _row_factor."""
    theta = math.pi * (_DEGREES + 0.5) / _CHEBYSHEV_NODES
    d = (1.5 + 0.5 * np.cos(theta)) - 1.0
    k = _ROWS[:, np.newaxis]
    values = np.empty((ZETA_SERIES_TERMS, _CHEBYSHEV_NODES))
    values[:3] = _zeta_summed((1.0 + d - k[:3]).ravel())[0].reshape(3, -1) / _row_factor(k[:3], d)
    t = (1.0 + d - k[3:]).ravel()
    sign = np.where(k[3:] % 4 < 2, 1.0, -1.0)
    values[3:] = sign * (_reflection_scale(t) * _zeta_euler_maclaurin(1.0 - t)[0]).reshape(-1, d.size)
    coef = values @ np.cos(np.outer(theta, _DEGREES)) * (2.0 / _CHEBYSHEV_NODES)
    coef[:, 0] *= 0.5
    return coef


def zeta_series(d, k: int | None = None):
    """zeta(1 + d - k) from the zeta table, within 1e-13 relative of mpmath:
    for every k < ZETA_SERIES_TERMS at one d in (0, 1) when k is None, else
    for the one row k at each d in [0, 1] (scalar or array; d > 0 in row 0,
    d < 1 in row 1)."""
    if k is None:
        return _zeta_chebyshev() @ _chebyshev(d) * _row_factor(slice(None), d)
    row = _chebyshev(d) @ _zeta_chebyshev()[k]
    # rows 0 and 1 divide out their pole alone
    return row / (d - k) if k < 2 else row * _row_factor(k, d)


def _zeta_value(s: float) -> float:
    """zeta(s), s != 1: for -48 <= s < 2 from row k of the zeta table at d,
    with s = 1 + d - k and d in [0, 1); summed elsewhere."""
    if not -48.0 <= s < 2.0:
        return float(_zeta_summed(np.array([s]))[0][0])
    k = 1 - math.floor(s)
    return float(zeta_series(s + (k - 1), k))


def riemann_zeta(s, order: int = 0):
    """Riemann zeta zeta(s), or its derivative zeta'(s), for real s != 1
    (scalar or array).

    zeta on [-48, 2) is read from the zeta table (see zeta_series).  zeta
    elsewhere, and zeta', are summed by Euler-Maclaurin for s >= -1/2 and by
    the functional equation below.  Within 1e-13 relative of mpmath on
    [-49, 50]; zeta is exactly 0 at the trivial zeros.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    arr = np.asarray(s, dtype=float)
    x = arr.ravel()
    if not (np.isfinite(x) & (x != 1.0)).all():
        raise ValueError(f"riemann_zeta requires finite s != 1, got {s}")
    out = _zeta_summed(x)[1] if order else np.array([_zeta_value(v) for v in x.tolist()])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _recurrence(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """p_(n-1)(x), and b_n p_n(x) with its derivative in x, by running the
    recurrence of gauss_rule from p_0 = 1; the last axis of a, b and x runs
    over k, k and the nodes, the others over rules."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    # b_0 = 0, and b_n = 1 stands for the coefficient the caller leaves out
    pad = np.ones(b.shape[:-1] + (1,))
    b = np.concatenate([0.0 * pad, b, pad], axis=-1)
    # k first, with a trailing axis that broadcasts over the nodes
    a, b = (np.moveaxis(c, -1, 0)[..., np.newaxis] for c in (a, b))
    for k in range(a.shape[0]):
        shifted = x - a[k]
        p_prev, p = p, (shifted * p - b[k] * p_prev) / b[k + 1]
        dp_prev, dp = dp, (p_prev + shifted * dp - b[k] * dp_prev) / b[k + 1]
    return p_prev, p, dp


def gauss_rule(diagonal, offdiagonal, mu0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule of a weight function of
    total mass mu0 whose orthonormal polynomials satisfy
    b_(k+1) p_(k+1)(x) = (x - a_k) p_k(x) - b_k p_(k-1)(x), given
    diagonal = a_0..a_(n-1) and offdiagonal = b_1..b_(n-1) along their last
    axis; leading axes, shared with mu0, stack rules built together.

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix, here by np.linalg.eigvalsh, refined by one
    Newton step on p_n run through the recurrence.  The weights are
    1 / (p_(n-1) p_n') from the same pass, scaled to sum to mu0, as
    scipy.special's roots_* functions take them; they keep their relative
    accuracy where they are tiny, which eigenvector components would not."""
    a = np.asarray(diagonal, dtype=float)
    b = np.asarray(offdiagonal, dtype=float)
    n = a.shape[-1] if a.ndim else 0
    if n == 0 or b.shape != a.shape[:-1] + (n - 1,):
        raise ValueError("gauss_rule needs n >= 1 diagonal and n - 1 off-diagonal coefficients")
    jacobi = np.zeros(a.shape + (n,))
    i = np.arange(n)
    jacobi[..., i, i] = a
    jacobi[..., i[:-1], i[1:]] = b
    jacobi[..., i[1:], i[:-1]] = b
    x = np.linalg.eigvalsh(jacobi)
    p_last, p, dp = _recurrence(a, b, x)
    w = 1.0 / (p_last * dp)
    return x - p / dp, w * (np.asarray(mu0)[..., np.newaxis] / w.sum(axis=-1, keepdims=True))
