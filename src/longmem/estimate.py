"""Estimators for long-memory linear processes.

* QMLE: gamma_hat minimizes the truncated one-step prediction error sum
  S_n(gamma) = sum_t (X_t - mhat_t(gamma))^2 with
  mhat_t(gamma) = sum_{i=1}^{t-1} u_i(gamma) X_{t-i}, and
  sigma2_hat = S_n(gamma_hat) / n.  This is exactly the Gaussian
  quasi-maximum likelihood estimator with sigma2 profiled out.  All n
  predictors are one FFT product: the series is transformed once per fit,
  and each evaluation costs one rfft of the AR weights and one irfft.
  Series fitted together share them: one 2-D AR-weight build, one rfft and
  one irfft over the rows per search step.
* Whittle: frequency-domain contrast on the mean-removed periodogram,
  sigma2 profiled out analytically.  Every spectral shape is in closed form:
  the LM one sums its AR weights as 1 - Li_(1+d)(e^(-i lambda)) / zeta(1+d)
  by the convergent polylogarithm series, with no truncation.  What does not
  depend on gamma is computed once per series length and cached:
  log(2 sin(lambda/2)) and e^(i lambda) for FARIMA, the table of
  (-i lambda)^k / k! for LM, kept as its real even-k and imaginary odd-k
  halves, so an LM evaluation is two real matrix-vector products with
  zeta(1 + d - k), read from specfun's zeta table, and no complex BLAS call.
  Every transform goes through numpy.fft.
* BLUE location estimator: its weights solve the Toeplitz system
  Gamma w = 1 by conjugate gradient with T. Chan's circulant
  preconditioner, each step two FFT products, O(n log n) in all, started
  from the closed-form BLUE of fractional noise; a column that is not a
  covariance raises ToeplitzError.  Plus the asymptotic covariance of the
  QMLE (matrix M and the sigma2 block).  M is the exact limit information
  matrix, from its spectral form: in closed form for FARIMA, by one fixed
  Gauss-Laguerre rule for LM.

Every fit is one bounded golden-section/parabolic search over d: a port of
scipy.optimize's bounded minimize_scalar (Brent 1973) as a generator, which
yields each d and is sent its contrast, so that fit_batch can run the
searches of many series in lockstep; fit_qmle and fit_whittle are its
one-series case.  Each evaluation gives a complete point (contrast, gamma,
sigma2_hat, objective); a fit is the point at its minimizer.  For FARIMA10
the contrast at each d is minimized over alpha first, with no search: in
closed form for the QMLE, whose S_n is quadratic in alpha, and for Whittle
at the root of the slope of an O(1) contrast given two frequency sums at d.
A fit's iterations count its search over d; it converged when that search
succeeded at a finite contrast, with 0 < sigma2_hat < inf.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .models import (
    Family,
    GAMMA_NAMES,
    ModelSpec,
    ar_coeffs_gamma,
    autocovariance,
    dar_coeffs_gamma,
    default_gamma_bounds,
    fast_length,
    gamma_domain,
)
from .simulate import Series
from .specfun import ZETA_SERIES_TERMS, digamma, gauss_rule, riemann_zeta, zeta_series

logger = logging.getLogger(__name__)

__all__ = [
    "FitResult",
    "AsymptoticInfo",
    "IdentifiabilityError",
    "ToeplitzError",
    "predictors",
    "qmle_objective",
    "qmle_gradient",
    "check_fit",
    "fit_batch",
    "fit_qmle",
    "standard_errors",
    "periodogram",
    "fourier_frequencies",
    "spectral_density",
    "fit_whittle",
    "ESTIMATORS",
    "asymptotic_covariance",
    "blue_weights",
    "blue_mean",
]

# margin keeping optimizer iterates strictly inside the compact domain
_BOUND_MARGIN = 1e-3
_XATOL_1D = 1e-6
_PINNED_TOL = 2e-6
# terms of the LM polylogarithm series, an even number; each is at most half
# the previous one
_LM_SERIES_TERMS = ZETA_SERIES_TERMS
# Gauss-Laguerre nodes of the LM information integral; 80 give 3e-13 relative
_INFO_NODES = 80
# BLUE conjugate gradient: stop at this residual relative to that of w = 0;
# within the default bounds it takes at most about 30 steps
_CG_RTOL = 1e-15
_CG_MAXITER = 1000


class IdentifiabilityError(RuntimeError):
    """The limit information matrix is not positive definite."""


class ToeplitzError(RuntimeError):
    """The Toeplitz solve for the BLUE weights broke down: an empty column,
    one that is not a covariance, or no convergence."""


@dataclass
class FitResult:
    estimator: str
    family: Family
    gamma_hat: tuple[float, ...]
    sigma2_hat: float
    objective: float
    # evaluations of the search over d (nfev), not optimizer iterations
    iterations: int
    converged: bool
    boundary_pinned: bool = False
    # gamma coordinates, then sigma2; a fit leaves it None, standard_errors gives it
    stderr: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        """The fields as strict JSON values: a non-finite float becomes None."""
        finite = lambda v: v if math.isfinite(v) else None
        return {
            "estimator": self.estimator,
            "family": Family(self.family).value,
            "gamma_hat": [finite(v) for v in self.gamma_hat],
            "sigma2_hat": finite(self.sigma2_hat),
            "stderr": None if self.stderr is None else [finite(v) for v in self.stderr],
            "objective": finite(self.objective),
            "iterations": self.iterations,
            "converged": self.converged,
            "boundary_pinned": self.boundary_pinned,
        }


@dataclass
class AsymptoticInfo:
    M: np.ndarray  # (p-1, p-1) exact limit information matrix for gamma
    var_sigma2: float  # sigma^4 (mu4 - 1)
    mu4: float


# ---------------------------------------------------------------------------
# QMLE
# ---------------------------------------------------------------------------


def _transform_length(n: int) -> int:
    """N >= 2n - 1, so that the circular product of length N is the linear
    one.  It is the length fftconvolve(X, [0, u]) would choose, so the
    predictors are the values it gives."""
    return fast_length(2 * n - 1)


def _predict(X: np.ndarray, u: np.ndarray, N: int) -> np.ndarray:
    """(sum_{i=1}^{t-1} u_i X_{t-i})_{t=1..n} from X = rfft(values, N) and the
    weights u_1..u_(n-1): one rfft of the weights and one irfft.  X and u
    are one series or rows of them; each row's values equal its one-row
    transform bit for bit.  np.multiply, not *, so that numpy never writes
    the product into a temporary operand, whose rounding can differ.  The
    weights are zero-padded to N here: numpy.fft pads rows more slowly."""
    n = u.shape[-1] + 1
    padded = np.zeros(u.shape[:-1] + (N,))
    padded[..., 1:n] = u
    return irfft(np.multiply(X, rfft(padded, axis=-1)), N, axis=-1)[..., :n]


def predictors(values: np.ndarray, family: Family, gamma: tuple[float, ...]) -> np.ndarray:
    """All truncated one-step predictors mhat_1..mhat_n (mhat_1 = 0)."""
    N = _transform_length(values.size)
    return _predict(rfft(values, N), ar_coeffs_gamma(family, gamma, values.size - 1), N)


def qmle_objective(series: Series, family: Family, gamma) -> float:
    """Prediction error sum S_n(gamma) = sum_t (X_t - mhat_t(gamma))^2."""
    resid = series.values - predictors(series.values, family, tuple(gamma))
    return float(np.dot(resid, resid))


def qmle_gradient(series: Series, family: Family, gamma) -> np.ndarray:
    """Analytic gradient of S_n: -2 sum_t dmhat_t (X_t - mhat_t)."""
    values = series.values
    n = values.size
    gamma = tuple(gamma)
    N = _transform_length(n)
    X = rfft(values, N)
    resid = values - _predict(X, ar_coeffs_gamma(family, gamma, n - 1), N)
    return -2.0 * (_predict(X, dar_coeffs_gamma(family, gamma, n - 1), N) @ resid)


def standard_errors(
    family: Family, gamma_hat, sigma2_hat: float, n: int, mu4: float = 3.0
) -> tuple[float, ...] | None:
    """sqrt(diag(M^-1)/n) for gamma, then sqrt(sigma2_hat^2 (mu4-1)/n); None,
    with a logged warning giving the reason, outside the model domain or when
    the information matrix is not positive definite."""
    try:
        spec = ModelSpec(family=family, gamma=gamma_hat, sigma2=sigma2_hat)
        info = asymptotic_covariance(spec, mu4=mu4)
    except (ValueError, IdentifiabilityError) as exc:
        logger.warning(
            "no standard errors for %s at gamma %s: %s", Family(family).value, gamma_hat, exc
        )
        return None
    gamma_var = np.diag(np.linalg.inv(info.M))
    se = [math.sqrt(v / n) for v in gamma_var]
    se.append(math.sqrt(info.var_sigma2 / n))
    return tuple(se)


# ---------------------------------------------------------------------------
# Whittle
# ---------------------------------------------------------------------------


def fourier_frequencies(n: int) -> np.ndarray:
    """lambda_j = 2 pi j / n for j = 1..floor((n-1)/2)."""
    m = (n - 1) // 2
    return 2.0 * math.pi * np.arange(1, m + 1) / n


def periodogram(series: Series) -> np.ndarray:
    """I(lambda_j) = |sum_t X_t e^(-i t lambda_j)|^2 / (2 pi n) at the Fourier
    frequencies lambda_j, j = 1..floor((n-1)/2), after removing the sample mean."""
    values = series.values
    n = values.size
    if n < 4:
        raise ValueError(f"periodogram needs n >= 4, got {n}")
    centered = values - values.mean()
    dft = rfft(centered)
    m = (n - 1) // 2
    return np.abs(dft[1 : m + 1]) ** 2 / (2.0 * math.pi * n)


def _lm_powers(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d-independent factors (-i lam)^k / k!, k < _LM_SERIES_TERMS, of
    the LM polylogarithm series past its constant term, as two contiguous
    real (m, _LM_SERIES_TERMS / 2) halves: re holds the even k, where the
    power is real, with column 0 zero, and im the imaginary parts of the
    odd k.  lam^k / k! is a running product along k, and the sign of
    (-i)^k is taken exactly from its period of four."""
    k = np.arange(1, _LM_SERIES_TERMS)
    table = np.zeros((lam.size, _LM_SERIES_TERMS))
    table[:, 1:] = np.cumprod(lam[:, np.newaxis] / k, axis=1) * np.array([1, -1, -1, 1])[k % 4]
    return np.ascontiguousarray(table[:, 0::2]), np.ascontiguousarray(table[:, 1::2])


def _lm_series(powers: tuple[np.ndarray, np.ndarray], z: np.ndarray) -> np.ndarray:
    """sum_k z_k (-i lam)^k / k! from the halves of _lm_powers: two real
    matrix-vector products."""
    re, im = powers
    return re @ z[0::2] + 1j * (im @ z[1::2])


def _lm_head(d: float, log_lam: np.ndarray) -> np.ndarray:
    """Gamma(-d) (i lam)^d = Gamma(-d) e^(i pi d / 2) lam^d, the singular term
    of the LM polylogarithm series."""
    return math.gamma(-d) * cmath.exp(0.5j * math.pi * d) * np.exp(d * log_lam)


def _lm_transfer(
    d: float, log_lam: np.ndarray, powers: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """1 - Li_s(e^(-i lam)) / zeta(s), s = 1 + d, lam in (0, pi], by the series
    Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!, |mu| < 2 pi
    (Wood 1992), with log_lam = log(lam) and powers = _lm_powers(lam), whose
    real halves make the sum over k two real products.  Its k = 0 term is the
    normalizing zeta(s) and cancels exactly; against mpmath it is within
    1e-15 relative for d in [0.011, 0.489]; callers have checked d in (0, 1)."""
    z = zeta_series(d)
    return -(_lm_head(d, log_lam) + _lm_series(powers, z)) / z[0]


def _shape_function(family: Family, lam: np.ndarray):
    """gamma -> h_gamma(lam), with f = sigma2 h / (2 pi) and lam in (0, pi].

    What does not depend on gamma is computed here, once per frequency grid:
    log(lam) and the LM power table, or log(2 sin(lam/2)) and e^(i lam) for
    FARIMA.  fit_whittle takes it from _whittle_shape."""
    if family is Family.LM:
        log_lam, powers = np.log(lam), _lm_powers(lam)
        return lambda gamma: np.abs(_lm_transfer(gamma[0], log_lam, powers)) ** -2
    log_2sin = np.log(2.0 * np.sin(lam / 2.0))
    if family is Family.FARIMA00:
        return lambda gamma: np.exp(-2.0 * gamma[0] * log_2sin)
    e = np.exp(1j * lam)
    return lambda gamma: np.exp(-2.0 * gamma[0] * log_2sin) * np.abs(1.0 - gamma[1] * e) ** -2


@lru_cache(maxsize=8)
def _whittle_shape(family: Family, n: int):
    """The shape function on the Fourier frequencies of a length-n series,
    cached per (family, n): every replication of a campaign cell, and every
    series of the same length, reuses it."""
    return _shape_function(family, fourier_frequencies(n))


def spectral_density(spec: ModelSpec, lam):
    """Spectral density f(lambda) for lambda in (0, pi] (vectorized).

    FARIMA00: f = (sigma2/2pi) (2 sin(lambda/2))^(-2d); FARIMA10 adds the
    factor |1 - alpha e^(i lambda)|^(-2).  LM: f = (sigma2/2pi) |1 - sum_k
    u_k e^(-i k lambda)|^(-2) with the AR weights summed in closed form,
    1 - Li_(1+d)(e^(-i lambda)) / zeta(1+d), by a convergent polylogarithm
    series; nothing is truncated, and it is exact to about 1e-15 relative.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any((lam_arr <= 0.0) | (lam_arr > math.pi)):
        raise ValueError("lambda must lie in (0, pi]; the spectral density has a pole at 0")
    h = _shape_function(Family(spec.family), lam_arr)(spec.gamma)
    f = spec.sigma2 * h / (2.0 * math.pi)
    return f if np.ndim(lam) else float(f[0])


# ---------------------------------------------------------------------------
# Fits: one bounded search over d per series, searches run in lockstep
# ---------------------------------------------------------------------------


def _pinned(gamma: tuple[float, ...], bounds) -> bool:
    return any(
        g - lo < _PINNED_TOL or hi - g < _PINNED_TOL for g, (lo, hi) in zip(gamma, bounds)
    )


def _step_sign(v: float) -> float:
    """np.sign(v) + (v == 0): -1 below zero, 1 at or above it, NaN at NaN."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _bounded_search(bounds, xatol: float = _XATOL_1D, maxiter: int = 500):
    """Brent's (1973) bounded golden-section/parabolic minimization of a
    scalar function on [lo, hi], finite with lo <= hi (check_fit checks
    them), as a generator: it yields each x to evaluate, is sent f(x), and
    returns (x, fun, nfev, success).

    A port of scipy.optimize's minimize_scalar(method="bounded") with its
    arithmetic step for step, so it makes the same evaluations and gives the
    same x, fun, nfev and success.  success is False when maxiter evaluations
    are used up or x, fun or the last value is NaN.  The caller owns the
    loop, so many searches can share one batched evaluation per step.
    """
    a, b = (float(v) for v in bounds)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    status = 0
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _step_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            status = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        status = 2
    return xf, fx, num, status == 0


def _evaluate(contrasts, pending: list[int], xs: list[float]) -> list:
    """contrasts(pending, xs); when that raises, each row on its own, so that
    a row whose evaluation fails holds its exception and takes no other row
    with it."""
    try:
        return contrasts(pending, xs)
    except Exception as exc:
        if len(pending) == 1:
            return [exc]
    return [_evaluate(contrasts, [i], [x])[0] for i, x in zip(pending, xs)]


class _QmleRows:
    """QMLE points of equal-length series, for many d at a time.

    Every series is transformed once.  A call builds the AR weights of
    every pending d as one 2-D array and makes one rfft and one irfft over
    its rows; FARIMA10 then profiles alpha per row in closed form."""

    name, min_n = "QMLE", 2

    def __init__(self, series, family: Family, bounds):
        self.values = np.array([s.values for s in series])
        self.family, self.bounds = family, bounds
        self.N = _transform_length(self.values.shape[1])
        self.X = rfft(self.values, self.N, axis=1)

    def contrasts(self, pending: list[int], ds: list[float]) -> list[tuple]:
        at = slice(None) if len(pending) == len(self.values) else pending
        # FARIMA10 starts from the FARIMA00 residual w and profiles alpha
        fam = Family.FARIMA00 if self.family is Family.FARIMA10 else self.family
        u = ar_coeffs_gamma(fam, (np.array(ds),), self.values.shape[1] - 1)
        resid = self.values[at] - _predict(self.X[at], u, self.N)
        return [self._profile(w, d) for w, d in zip(resid, ds)]

    def _profile(self, w: np.ndarray, d: float) -> tuple:
        """The point (S_n, gamma, S_n / n, S_n) at d, alpha profiled for FARIMA10."""
        gamma = (d,)
        if self.family is Family.FARIMA10:
            # the residual of (1 - z)^d (1 - alpha z) is w_t - alpha w_(t-1),
            # with w_0 = 0: S_n is quadratic in alpha
            ss = float(np.dot(w[:-1], w[:-1]))
            alpha = float(np.dot(w[1:], w[:-1])) / ss if ss > 0.0 else 0.0
            # an overflowing S_n gives inf / inf, which no clamp catches
            alpha = alpha if math.isfinite(alpha) else 0.0
            gamma = (d, min(max(alpha, self.bounds[1][0]), self.bounds[1][1]))
            w = np.concatenate([w[:1], w[1:] - gamma[1] * w[:-1]])
        s = float(np.dot(w, w))
        return s, gamma, s / w.size, s


def _alpha_hat(n: int, rho: float, bounds) -> float:
    """The minimizer over bounds of the alpha part of the FARIMA10 Whittle
    contrast, m log1p(alpha (alpha - 2 rho)) - log((1 - alpha^n) / (1 -
    alpha)) + [n even] log1p(alpha), unimodal in alpha: a bound whose slope
    points outwards, else the slope's root by Newton's method, bisecting the
    sign-change bracket when a step would leave it or not halve the last one
    (Numerical Recipes' rtsafe).  A step below 1e-12 ends it before the
    bracket test, since rounding at the root can flip the slope's sign."""
    m, even = (n - 1) // 2, 1 - n % 2

    def slope(a: float) -> tuple[float, float]:
        p = a ** (n - 2)
        an, q, e = p * a * a, 1.0 + a * (a - 2.0 * rho), even / (1.0 + a)
        d1 = 2.0 * m * (a - rho) / q + n * p * a / (1.0 - an) - 1.0 / (1.0 - a) + e
        d2 = 2.0 * m * (q - 2.0 * (a - rho) ** 2) / (q * q) - 1.0 / (1.0 - a) ** 2 - e * e
        return d1, d2 + n * p * (n - 1 + an) / (1.0 - an) ** 2

    lo, hi = bounds
    if slope(lo)[0] >= 0.0:
        return lo
    if slope(hi)[0] <= 0.0:
        return hi
    alpha, last = min(max(rho, lo), hi), hi - lo
    while True:
        d1, d2 = slope(alpha)
        if d1 == 0.0 or math.isnan(d1):  # NaN from a NaN rho
            return alpha
        lo, hi = (alpha, hi) if d1 < 0.0 else (lo, alpha)
        step = d1 / d2 if d2 else math.inf
        if abs(step) <= 1e-12:
            return min(max(alpha - step, lo), hi)
        if lo < alpha - step < hi and abs(step) <= 0.5 * abs(last):
            last, alpha = step, alpha - step
        else:
            last, alpha = alpha - 0.5 * (lo + hi), 0.5 * (lo + hi)
            if alpha in (lo, hi):
                return alpha


class _WhittleRows:
    """Whittle points of equal-length series, one row at a time: the
    profiled m log sigma2_hat(gamma) + sum_j log h_gamma(lambda_j), with
    sigma2_hat(gamma) = (2 pi / m) sum_j I(lambda_j) / h_gamma(lambda_j).
    At sigma2_hat, sum_j I_j / f_j = m, so the objective sum_j log f_j +
    I_j / f_j is the contrast plus offset = m (1 - log 2 pi).  FARIMA10 rows
    take alpha's exact minimizer from two FARIMA00-shape sums at d."""

    name, min_n = "Whittle", 4

    def __init__(self, series, family: Family, bounds):
        n = series[0].n
        self.family, self.bounds, self.n = family, bounds, n
        self.offset = (n - 1) // 2 * (1.0 - math.log(2.0 * math.pi))
        # a zero periodogram fails its row at its first evaluation
        self.pgrams = [p if p.any() else None for p in map(periodogram, series)]
        self.shape = _whittle_shape(Family.FARIMA00 if family is Family.FARIMA10 else family, n)
        if family is Family.FARIMA10:
            self.cos = np.cos(fourier_frequencies(n))

    def contrasts(self, pending: list[int], ds: list[float]) -> list[tuple]:
        return [self._profile(self.pgrams[i], d) for i, d in zip(pending, ds)]

    def _profile(self, pgram: np.ndarray, d: float, alpha: float | None = None) -> tuple:
        """The point at d; for FARIMA10 at (d, alpha), alpha profiled if None,
        O(1) given A = sum_j I_j / h00_j and B = sum_j I_j cos(lambda_j) / h00_j:
        sum_j I_j / h_j = A (1 + alpha^2 - 2 alpha B / A), and 1 - alpha w over
        the n-th roots of unity w multiplies to 1 - alpha^n, so sum_j log |1 -
        alpha e^(i lambda_j)|^2 = log((1 - alpha^n) / (1 - alpha)) - [n even] log1p(alpha)."""
        if pgram is None:
            raise ValueError(
                "the periodogram is zero at every Fourier frequency: the series is "
                "constant, or its squares underflow, so the Whittle contrast is undefined"
            )
        h = self.shape((d,))
        w, m = pgram / h, pgram.size
        sigma2 = (2.0 * math.pi / m) * float(w.sum())
        value = m * math.log(sigma2) + float(np.log(h).sum())
        if self.family is not Family.FARIMA10:
            return value, (d,), sigma2, value + self.offset
        n, rho = self.n, float(w @ self.cos) / float(w.sum())
        alpha = _alpha_hat(n, rho, self.bounds[1]) if alpha is None else alpha
        roots = math.log1p(-(alpha**n)) - math.log1p(-alpha) - (1 - n % 2) * math.log1p(alpha)
        ratio = alpha * (alpha - 2.0 * rho)
        value = value + m * math.log1p(ratio) - roots
        return value, (d, alpha), sigma2 * (1.0 + ratio), value + self.offset


_ROWS = {"qmle": _QmleRows, "whittle": _WhittleRows}


def check_fit(
    family: Family,
    estimator: str,
    n: int,
    bounds: tuple[tuple[float, float], ...] | None = None,
) -> tuple[tuple[float, float], ...]:
    """The checks every fit of n observations shares, made before any
    evaluation: a known estimator, n at least that estimator's minimum (2
    for QMLE, 4 for Whittle), and bounds (default_gamma_bounds if None)
    that, shrunk by _BOUND_MARGIN, lie in models.gamma_domain, so that no
    evaluation leaves it (nor can a bound be infinite or NaN).  Returns the
    shrunk bounds, the search box; raises ValueError otherwise."""
    family = Family(family)
    if estimator not in _ROWS:
        raise ValueError(f"unknown estimator {estimator!r}")
    minimum = _ROWS[estimator].min_n
    if n < minimum:
        raise ValueError(f"{estimator}: need n >= {minimum} observations, got {n}")
    if bounds is None:
        bounds = default_gamma_bounds(family)
    shrunk = tuple((lo + _BOUND_MARGIN, hi - _BOUND_MARGIN) for lo, hi in bounds)
    domain = gamma_domain(family)
    if len(shrunk) != len(domain):
        raise ValueError(f"{family.value} needs {len(domain)} search bounds, got {shrunk}")
    for name, (lo, hi), (a, b) in zip(GAMMA_NAMES[family], shrunk, domain):
        if not a < lo <= hi < b:
            raise ValueError(
                f"search bounds must be finite with lower <= upper, inside {name} in ({a:g}, {b:g}); got {shrunk}"
            )
    return shrunk


def fit_batch(
    series,
    family: Family,
    estimator: str = "qmle",
    bounds: tuple[tuple[float, float], ...] | None = None,
) -> list:
    """Fit every series of a sequence of equal-length series, with their
    searches over d run in lockstep.  Entry i is the FitResult of series i,
    the one fit_qmle or fit_whittle would return, or the exception its own
    evaluation raised, which leaves the others as they would be alone; an
    empty sequence gives [].  A check all series share raises before any
    evaluation: mixed lengths, and those of check_fit.

    The one driver of _bounded_search: each step sends the pending d of
    every unfinished series to one contrasts call, one 2-D AR-weight build,
    rfft and irfft for QMLE, row by row for Whittle.  Every FitResult is the
    point its search ended at; nothing is evaluated after the search."""
    family = Family(family)
    series = list(series)
    if len({s.n for s in series}) > 1:
        raise ValueError("fit_batch needs series of one length")
    if not series:
        return []
    n = series[0].n
    opt_bounds = check_fit(family, estimator, n, bounds)
    rows = _ROWS[estimator]
    if n < 30:
        warnings.warn(f"n={n} is small; {rows.name} asymptotics are unreliable", stacklevel=2)
    rows = rows(series, family, opt_bounds)
    searches = [_bounded_search(opt_bounds[0]) for _ in series]
    pending = {i: next(search) for i, search in enumerate(searches)}

    seen, fits = [{} for _ in series], [None] * len(series)
    while pending:
        at, ds = list(pending), list(pending.values())
        for i, d, point in zip(at, ds, _evaluate(rows.contrasts, at, ds)):
            if not isinstance(point, Exception):  # an exception ends its row
                seen[i][d] = point
                try:
                    pending[i] = searches[i].send(point[0])
                    continue
                except StopIteration as stop:
                    d_hat, _, nfev, success = stop.value
                    value, gamma_hat, sigma2_hat, objective = seen[i][d_hat]
                    point = FitResult(
                        estimator=estimator,
                        family=family,
                        gamma_hat=gamma_hat,
                        sigma2_hat=sigma2_hat,
                        objective=objective,
                        iterations=nfev,
                        converged=success and math.isfinite(value) and 0 < sigma2_hat < math.inf,
                        boundary_pinned=_pinned(gamma_hat, opt_bounds),
                    )
            fits[i] = point
            del pending[i]
    return fits


def _fit_one(estimator, series, family, bounds) -> FitResult:
    (result,) = fit_batch([series], family, estimator, bounds)
    if isinstance(result, Exception):
        raise result
    return result


def fit_qmle(
    series: Series,
    family: Family,
    bounds: tuple[tuple[float, float], ...] | None = None,
) -> FitResult:
    """Quasi-maximum likelihood fit of (gamma, sigma2).

    gamma_hat minimizes qmle_objective over the (slightly shrunk) bounds and
    sigma2_hat = S_n(gamma_hat)/n.  The fit carries no standard errors:
    standard_errors(family, gamma_hat, sigma2_hat, n, mu4) gives them.  The
    one-series case of fit_batch.
    """
    return _fit_one("qmle", series, family, bounds)


def fit_whittle(
    series: Series,
    family: Family,
    bounds: tuple[tuple[float, float], ...] | None = None,
) -> FitResult:
    """Whittle fit: gamma_hat minimizes the profiled periodogram contrast
    m log(sigma2_hat(gamma)) + sum_j log h_gamma(lambda_j), where
    sigma2_hat(gamma) = (2 pi / m) sum_j I(lambda_j) / h_gamma(lambda_j).
    The one-series case of fit_batch."""
    return _fit_one("whittle", series, family, bounds)


# estimator name -> fit function; campaigns and the CLI read names from here
ESTIMATORS = {"qmle": fit_qmle, "whittle": fit_whittle}

# ---------------------------------------------------------------------------
# Asymptotic covariance and location estimators
# ---------------------------------------------------------------------------


def _lm_score(
    d: float, log_lam: np.ndarray, powers: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """-d/dd log h for LM at lam in (0, pi], with log_lam = log(lam) and
    powers = _lm_powers(lam).

    log h = -2 Re log T with T = 1 - Li_s(e^(-i lam)) / zeta(s), s = 1 + d.
    The series of _lm_transfer differentiated in s gives
    d/dd log T = L'/L - zeta'(s)/zeta(s), with L = Li_s - zeta(s) and
    L' = Gamma(1-s) (i lam)^(s-1) (log(i lam) - psi(1-s))
         + sum_(k>=1) zeta'(s-k) (-i lam)^k / k!.
    """
    # zeta at the d that the rounded s = 1 + d stands for, where zeta' is taken
    s = 1.0 + d
    z, dz = zeta_series(s - 1.0), riemann_zeta(s - np.arange(_LM_SERIES_TERMS), order=1)
    head = _lm_head(d, log_lam)
    li = head + _lm_series(powers, z)
    dli = head * (log_lam + 0.5j * math.pi - digamma(-d)) + _lm_series(powers, dz)
    return 2.0 * (dli / li).real - 2.0 * dz[0] / z[0]


@lru_cache(maxsize=1)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """log(lam) at the nodes lam = pi e^(-v), the weights, and the LM power
    table at the nodes.  The Gauss-Laguerre rule comes from the recurrence
    of the orthonormal Laguerre polynomials, diagonal 2k + 1, off-diagonal k."""
    k = np.arange(float(_INFO_NODES))
    v, w = gauss_rule(2.0 * k + 1.0, k[1:], 1.0)
    lam = math.pi * np.exp(-v)
    return np.log(lam), w, _lm_powers(lam)


def _lm_information(d: float) -> float:
    """(4 pi)^(-1) int_(-pi)^pi (d/dd log h)^2 dlambda for LM.  The integrand
    is even and grows like log^2 lambda at 0; on lambda = pi e^(-v) the
    integral over (0, pi] is pi int_0^inf F(pi e^(-v)) e^(-v) dv, one
    Gauss-Laguerre rule."""
    log_lam, w, powers = _laguerre_rule()
    return 0.5 * float(np.dot(w, _lm_score(d, log_lam, powers) ** 2))


def asymptotic_covariance(spec: ModelSpec, mu4: float = 3.0) -> AsymptoticInfo:
    """Exact limit information matrix for gamma and the sigma2 variance block.

    M is the K -> infinity limit of sigma2^(-1) sum_{k,l <= K} du_k du_l^T
    r_X(l - k), which equals the spectral form
    (4 pi)^(-1) int_(-pi)^pi grad log h grad log h^T dlambda (Whittle 1953;
    Fox & Taqqu 1986); nothing is truncated.  FARIMA00: M = pi^2/6.
    FARIMA10: M = [[pi^2/6, -log(1-alpha)/alpha], [., 1/(1-alpha^2)]], whose
    off-diagonal tends to 1 as alpha -> 0.  LM: an 80-node Gauss-Laguerre
    rule, within 3e-13 relative of mpmath for d in [0.011, 0.489].
    var_sigma2 = sigma2^2 (mu4 - 1).  ValueError: mu4 below 1, which no
    distribution has, or not finite.
    """
    if not 1.0 <= mu4 < math.inf:
        raise ValueError(f"mu4 must be finite and at least 1, got {mu4}")
    if spec.family is Family.LM:
        M = np.array([[_lm_information(spec.d)]])
    elif spec.family is Family.FARIMA00:
        M = np.array([[math.pi**2 / 6.0]])
    else:
        alpha = spec.alpha
        cross = -math.log1p(-alpha) / alpha if alpha != 0.0 else 1.0
        M = np.array([[math.pi**2 / 6.0, cross], [cross, 1.0 / (1.0 - alpha**2)]])
    eigvals = np.linalg.eigvalsh(M)
    if eigvals.min() <= 0.0:
        raise IdentifiabilityError(
            f"information matrix is not positive definite (min eigenvalue {eigvals.min():.3e})"
        )
    return AsymptoticInfo(M=M, var_sigma2=spec.sigma2**2 * (mu4 - 1.0), mu4=mu4)


def _fractional_noise_blue(d: float, n: int) -> np.ndarray:
    """Adenstedt's (1974) closed-form BLUE weights of fractional noise with
    memory d, unnormalized: w_j = Gamma(j-d) Gamma(n+1-j-d) / (Gamma(j)
    Gamma(n+1-j)) / Gamma(1-d)^2, j = 1..n.  Gamma(j-d) / Gamma(j) is
    Gamma(1-d) prod_(i<j) (1 - d/i), summed as logs by log1p, which keeps
    the weights within 4e-17 of their sum up to n = 10,000."""
    c = np.r_[0.0, np.cumsum(np.log1p(-d / np.arange(1.0, n)))]
    return np.exp(c + c[::-1])


def blue_weights(autocov: np.ndarray) -> np.ndarray:
    """Weights of the best linear unbiased mean estimator for the Toeplitz
    covariance Gamma with first column ``autocov``; normalized to sum to 1.

    Gamma w = 1 is solved by conjugate gradient, preconditioned by T. Chan's
    (1988) optimal circulant, c_k = ((n - k) r_k + k r_(n-k)) / n.  The
    spectrum of the preconditioned matrix clusters at 1 even with the pole
    of f at 0 (R. Chan & Ng 1996).  Each step costs one product with Gamma,
    an rfft/irfft pair on its circulant embedding of length N >= 2n - 1,
    and one rfft/irfft pair of length n for the preconditioner: O(n log n)
    in all.  When 0 < r_1 < r_0 it starts from the BLUE weights v of the
    fractional noise with the same lag-1 correlation, d = r_1 / (r_0 + r_1),
    scaled by v^T 1 / (v^T Gamma v): the exact solution for FARIMA00, and
    in any case no farther from the solution in the Gamma norm than w = 0,
    where it starts otherwise.  It stops when |1 - Gamma w| <= _CG_RTOL |1|:
    after at most 3 steps for FARIMA00, about 10 for LM and about 30 inside
    the default FARIMA10 bounds (about 110 at alpha = 0.9999).  On a grid
    of all three families at n <= 2000 the weights are within 1e-12,
    relative to the sum of their magnitudes, of a refined dense solve, and
    closer to it than Levinson's recursion.

    ValueError: a non-finite entry.  ToeplitzError: an empty column, a
    column that is not a covariance (a non-positive preconditioner
    eigenvalue or curvature p^T Gamma p), or no convergence within
    _CG_MAXITER steps."""
    r = np.asarray(autocov, dtype=float).ravel()
    n = r.size
    if n == 0:
        raise ToeplitzError("the autocovariance column is empty")
    if not np.isfinite(r).all():
        raise ValueError("the autocovariances must be finite")
    N = _transform_length(n)
    embedding = np.zeros(N)
    embedding[:n] = r
    embedding[N - n + 1 :] = r[:0:-1]
    eig = rfft(embedding).real
    k = np.arange(n)
    chan = (n - k) * r
    chan[1:] += k[1:] * r[:0:-1]
    pre = rfft(chan / n).real
    if not (pre > 0.0).all():
        raise ToeplitzError(
            f"not a covariance: the circulant preconditioner has eigenvalue {pre.min():.3e}"
        )

    def gamma_times(v: np.ndarray) -> tuple[np.ndarray, float]:
        """Gamma v and the curvature v^T Gamma v, which must be positive."""
        gv = irfft(eig * rfft(v, N), N)[:n]
        curvature = np.dot(v, gv)
        if not curvature > 0.0:
            raise ToeplitzError(f"not a covariance: curvature p^T Gamma p = {curvature:.3e}")
        return gv, curvature

    w = np.zeros(n)
    resid = np.ones(n)
    if n > 1 and 0.0 < r[1] < r[0]:
        start = _fractional_noise_blue(r[1] / (r[0] + r[1]), n)
        gv, curvature = gamma_times(start)
        scale = start.sum() / curvature
        w = scale * start
        resid -= scale * gv
    relative = math.sqrt(np.dot(resid, resid) / n)
    steps = 0
    p = rz = None
    while relative > _CG_RTOL:
        if steps == _CG_MAXITER:
            raise ToeplitzError(
                f"conjugate gradient stopped after {_CG_MAXITER} iterations "
                f"at relative residual {relative:.1e}"
            )
        z = irfft(rfft(resid) / pre, n)
        rz, rz_old = np.dot(resid, z), rz
        p = z if p is None else z + (rz / rz_old) * p
        q, curvature = gamma_times(p)
        step = rz / curvature
        w += step * p
        resid -= step * q
        relative = math.sqrt(np.dot(resid, resid) / n)
        steps += 1
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ToeplitzError(f"non-positive weight normalization {total!r}")
    return w / total


def blue_mean(series: Series, spec: ModelSpec) -> float:
    """Best linear unbiased estimate of the location parameter under ``spec``."""
    if series.n < 2:
        raise ValueError("blue_mean needs n >= 2")
    r = autocovariance(spec, series.n - 1)
    w = blue_weights(r)
    return float(np.dot(w, series.values))

