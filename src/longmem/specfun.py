"""Special functions: log-gamma, Riemann zeta (with first two derivatives), Beta.

Everything here is pure and reentrant.  log_gamma and beta_fn are
domain-checked wrappers over scipy.special; riemann_zeta is computed here
because scipy has no zeta' or zeta''.  Accuracy target for zeta: absolute
error <= 1e-10 on (1, 2] (up to a few ulps where the derivatives blow up
near s = 1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta, gammaln

__all__ = ["log_gamma", "riemann_zeta", "beta_fn"]


def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    out = gammaln(arr)
    return float(out) if out.ndim == 0 else out


# Bernoulli numbers B_2, B_4, B_6 for the Euler-Maclaurin corrections.
_B2J = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)
_ZETA_N = 20


def riemann_zeta(s: float, order: int = 0) -> float:
    """Riemann zeta zeta(s), or its derivative zeta'(s) / zeta''(s), for s > 1.

    Euler-Maclaurin summation: partial sum to N = 20, integral and half terms,
    Bernoulli corrections up to B_6.  Derivatives differentiate each term in s.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError(f"riemann_zeta requires s > 1, got {s}")
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")

    N = _ZETA_N
    n = np.arange(1.0, N)
    ln_n = np.log(n)
    pw = n**-s
    val = float(pw.sum())
    d1 = float(-(ln_n * pw).sum())
    d2 = float((ln_n**2 * pw).sum())

    ln_N = math.log(N)
    # integral term N^(1-s)/(s-1)
    A = N ** (1.0 - s)
    sm1 = s - 1.0
    val += A / sm1
    d1 += -ln_N * A / sm1 - A / sm1**2
    d2 += ln_N**2 * A / sm1 + 2.0 * ln_N * A / sm1**2 + 2.0 * A / sm1**3
    # boundary half term N^(-s)/2
    A = 0.5 * N**-s
    val += A
    d1 += -ln_N * A
    d2 += ln_N**2 * A
    # Bernoulli corrections B_2j/(2j)! * (s)(s+1)...(s+2j-2) * N^(1-s-2j)
    for j, b2j in enumerate(_B2J, start=1):
        m = 2 * j - 1
        fac = s + np.arange(m)
        P = float(fac.prod())
        h1 = float((1.0 / fac).sum())
        h2 = float((1.0 / fac**2).sum())
        Pd1 = P * h1
        Pd2 = P * (h1**2 - h2)
        coef = b2j / math.factorial(2 * j)
        E = N ** (-s - 2 * j + 1)
        val += coef * P * E
        d1 += coef * (Pd1 - P * ln_N) * E
        d2 += coef * (Pd2 - 2.0 * Pd1 * ln_N + P * ln_N**2) * E

    return (val, d1, d2)[order]


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b), a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(beta(a, b))
