"""Special functions: log-gamma, Riemann zeta (with its first derivative), Beta.

Everything here is pure and reentrant.  log_gamma, beta_fn and zeta itself
are domain-checked wrappers over scipy.special; zeta' is computed here
because scipy has none.  It is vectorized and covers every real s != 1: the
LM information matrix needs zeta' at 1 + d, d and d - k for k up to 48.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta, digamma, gammaln, zeta
from scipy.special import gamma as gamma_fn

__all__ = ["log_gamma", "riemann_zeta", "beta_fn"]


def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    out = gammaln(arr)
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


def riemann_zeta(s, order: int = 0):
    """Riemann zeta zeta(s) (scipy.special.zeta), or its derivative zeta'(s),
    for real s != 1 (scalar or array).

    zeta' for s >= -1/2 is by Euler-Maclaurin summation.  Below, it is the
    functional equation zeta(s) = chi(s) zeta(1-s), chi(s) = 2^s pi^(s-1)
    sin(pi s/2) Gamma(1-s), differentiated in closed form, with zeta and zeta'
    at 1 - s > 3/2 from the same summation.  Within 1e-13 relative of mpmath
    on [-49, 50]; zeta is exactly 0 at the trivial zeros.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    arr = np.asarray(s, dtype=float)
    x = np.atleast_1d(arr)
    if not np.all(np.isfinite(x)) or np.any(x == 1.0):
        raise ValueError(f"riemann_zeta requires finite s != 1, got {s}")
    left = x < -0.5
    if order == 0:
        out = zeta(x)
    elif not left.any():
        out = _zeta_euler_maclaurin(x)[1]
    else:
        out = np.empty_like(x)
        out[~left] = _zeta_euler_maclaurin(x[~left])[1]
        t = x[left]
        val, d1 = _zeta_euler_maclaurin(1.0 - t)
        # pi t/2 with t/2 reduced exactly mod 2 first; the sine is exactly 0
        # at the trivial zeros t = -2, -4, ...
        half_turn = math.pi * np.fmod(0.5 * t, 2.0)
        sine = np.where(np.fmod(t, 2.0) == 0.0, 0.0, np.sin(half_turn))
        log_2pi = math.log(2.0 * math.pi)
        scale = np.exp(t * log_2pi) / math.pi * gamma_fn(1.0 - t)
        dchi = scale * (sine * (log_2pi - digamma(1.0 - t)) + 0.5 * math.pi * np.cos(half_turn))
        out[left] = dchi * val - scale * sine * d1
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b), a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(beta(a, b))
