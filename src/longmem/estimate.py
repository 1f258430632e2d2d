"""Estimators for long-memory linear processes.

* QMLE: gamma_hat minimizes the truncated one-step prediction error sum
  S_n(gamma) = sum_t (X_t - mhat_t(gamma))^2 with
  mhat_t(gamma) = sum_{i=1}^{t-1} u_i(gamma) X_{t-i}, and
  sigma2_hat = S_n(gamma_hat) / n.  This is exactly the Gaussian
  quasi-maximum likelihood estimator with sigma2 profiled out.  All n
  predictors are one FFT product: the series is transformed once per fit,
  and each evaluation costs one rfft of the AR weights and one irfft.
* Whittle: frequency-domain contrast on the mean-removed periodogram,
  sigma2 profiled out analytically.  Every spectral shape is in closed form:
  the LM one sums its AR weights as 1 - Li_(1+d)(e^(-i lambda)) / zeta(1+d)
  by the convergent polylogarithm series, with no truncation.  What does not
  depend on gamma is computed once per series length and cached:
  log(2 sin(lambda/2)) and e^(i lambda) for FARIMA, the table of
  (-i lambda)^k / k! for LM, so an LM evaluation is one matrix-vector
  product with zeta(1 + d - k).
* BLUE location estimator with Toeplitz weights, plus the asymptotic
  covariance of the QMLE (matrix M and the sigma2 block) and helper scales.
  M is the exact limit information matrix, from its spectral form: in
  closed form for FARIMA, by one fixed Gauss-Laguerre rule for LM.

Every fit is one bounded golden-section/parabolic search over d.  For
FARIMA10 the contrast at each d is minimized over alpha first: in closed form
for the QMLE, whose S_n is quadratic in alpha, and by an inner bounded search
for Whittle.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import solve_toeplitz
from scipy.optimize import minimize_scalar
from scipy.special import digamma, roots_laguerre, zeta
from scipy.special import gamma as gamma_fn

from .models import (
    Family,
    ModelSpec,
    ar_coeffs_gamma,
    autocovariance,
    dar_coeffs_gamma,
    default_gamma_bounds,
)
from .simulate import Series
from .specfun import beta_fn, riemann_zeta

logger = logging.getLogger(__name__)

__all__ = [
    "FitResult",
    "AsymptoticInfo",
    "IdentifiabilityError",
    "ToeplitzError",
    "truncated_predictor",
    "predictors",
    "qmle_objective",
    "qmle_gradient",
    "quasi_loglik",
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
    "blue_efficiency",
    "mean_clt_scale",
]

# margin keeping optimizer iterates strictly inside the compact domain
_BOUND_MARGIN = 1e-3
_XATOL_1D = 1e-6
_PINNED_TOL = 2e-6
# terms of the LM polylogarithm series; each is at most half the previous one
_LM_SERIES_TERMS = 50
# Gauss-Laguerre nodes of the LM information integral; 80 give 3e-13 relative
_INFO_NODES = 80


class IdentifiabilityError(RuntimeError):
    """The limit information matrix is not positive definite."""


class ToeplitzError(RuntimeError):
    """The Toeplitz solve for the BLUE weights broke down."""


@dataclass
class FitResult:
    estimator: str
    family: Family
    gamma_hat: tuple[float, ...]
    sigma2_hat: float
    objective: float
    # objective evaluations (nfev), not optimizer iterations; a FARIMA10
    # Whittle fit counts every evaluation of its inner search over alpha
    iterations: int
    converged: bool
    boundary_pinned: bool = False
    stderr: tuple[float, ...] | None = None  # gamma coordinates, then sigma2

    def as_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "family": Family(self.family).value,
            "gamma_hat": list(self.gamma_hat),
            "sigma2_hat": self.sigma2_hat,
            "stderr": list(self.stderr) if self.stderr is not None else None,
            "objective": self.objective,
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


def _prediction_filter(values: np.ndarray):
    """u -> (sum_{i=1}^{t-1} u_i X_{t-i})_{t=1..n} for weights u_1..u_(n-1).

    rfft(X, N) is taken once, with N >= 2n - 1 so that the circular product
    is the linear one; each call then costs one rfft of the weights and one
    irfft.  N is the length fftconvolve(X, [0, u]) would choose, so the
    values are the ones it gives."""
    n = values.size
    N = next_fast_len(2 * n - 1, real=True)
    X = rfft(values, N)
    return lambda u: irfft(X * rfft(np.r_[0.0, u], N), N)[:n]


def predictors(values: np.ndarray, family: Family, gamma: tuple[float, ...]) -> np.ndarray:
    """All truncated one-step predictors mhat_1..mhat_n (mhat_1 = 0)."""
    return _prediction_filter(values)(ar_coeffs_gamma(family, gamma, values.size - 1))


def truncated_predictor(series: Series, family: Family, gamma, t: int) -> float:
    """mhat_t(gamma) = sum_{i=1}^{t-1} u_i(gamma) X_{t-i}, with mhat_1 = 0.

    t is 1-indexed, 1 <= t <= n.
    """
    values = series.values
    if not 1 <= t <= values.size:
        raise IndexError(f"t must lie in [1, {values.size}], got {t}")
    if t == 1:
        return 0.0
    u = ar_coeffs_gamma(family, gamma, t - 1)
    return float(np.dot(u, values[t - 2 :: -1]))


def qmle_objective(series: Series, family: Family, gamma) -> float:
    """Prediction error sum S_n(gamma) = sum_t (X_t - mhat_t(gamma))^2."""
    resid = series.values - predictors(series.values, family, tuple(gamma))
    return float(np.dot(resid, resid))


def qmle_gradient(series: Series, family: Family, gamma) -> np.ndarray:
    """Analytic gradient of S_n: -2 sum_t dmhat_t (X_t - mhat_t)."""
    values = series.values
    n = values.size
    gamma = tuple(gamma)
    predict = _prediction_filter(values)
    resid = values - predict(ar_coeffs_gamma(family, gamma, n - 1))
    du = dar_coeffs_gamma(family, gamma, n - 1)
    return np.array([-2.0 * np.dot(predict(row), resid) for row in du])


def quasi_loglik(series: Series, family: Family, gamma, sigma2: float) -> float:
    """Gaussian quasi conditional log-likelihood of (gamma, sigma2)."""
    n = series.n
    s = qmle_objective(series, family, gamma)
    return -0.5 * (n * math.log(sigma2) + s / sigma2)


def _fit_bounds(
    family: Family, bounds: tuple[tuple[float, float], ...] | None
) -> tuple[tuple[float, float], ...]:
    if bounds is None:
        bounds = default_gamma_bounds(family)
    return tuple((lo + _BOUND_MARGIN, hi - _BOUND_MARGIN) for lo, hi in bounds)


def _pinned(gamma: tuple[float, ...], bounds) -> bool:
    return any(
        g - lo < _PINNED_TOL or hi - g < _PINNED_TOL for g, (lo, hi) in zip(gamma, bounds)
    )


def _bounded_search(fun, bounds):
    return minimize_scalar(fun, bounds=bounds, method="bounded", options={"xatol": _XATOL_1D})


def _minimize_gamma(contrast, bounds) -> tuple[tuple[float, ...], float, int, bool]:
    """Bounded golden-section/parabolic search over d, shared by every family
    and both contrasts.  contrast(d) returns (value, gamma, nfev, ok): gamma
    is (d,), or (d, alpha) with the alpha that minimizes the contrast at that
    d; nfev counts the contrast evaluations behind it and ok says whether
    that minimization over alpha succeeded.  The fit converged when the search
    over d and the minimization at d_hat both did."""
    evals = []

    def value(d):
        evals.append((d, contrast(float(d))))
        return evals[-1][1][0]

    res = _bounded_search(value, bounds[0])
    s_min, gamma, _, ok = next(e for d, e in evals if d == res.x)
    nfev = sum(e[2] for _, e in evals)
    return gamma, s_min, nfev, bool(res.success) and ok


def fit_qmle(
    series: Series,
    family: Family,
    bounds: tuple[tuple[float, float], ...] | None = None,
    with_stderr: bool = False,
) -> FitResult:
    """Quasi-maximum likelihood fit of (gamma, sigma2).

    gamma_hat minimizes qmle_objective over the (slightly shrunk) bounds and
    sigma2_hat = S_n(gamma_hat)/n.  Standard errors, when requested, come from
    the asymptotic covariance: sqrt(diag(M^-1)/n) for gamma and
    sqrt(2 sigma2_hat^2 / n) for sigma2, the Gaussian mu4 = 3; call
    standard_errors for any other mu4.
    """
    family = Family(family)
    n = series.n
    if n < 2:
        raise ValueError(f"need n >= 2 observations, got {n}")
    if n < 30:
        warnings.warn(f"n={n} is small; QMLE asymptotics are unreliable", stacklevel=2)
    opt_bounds = _fit_bounds(family, bounds)
    values = series.values
    predict = _prediction_filter(values)

    def residual(fam, d):
        return values - predict(ar_coeffs_gamma(fam, (d,), n - 1))

    def contrast(d):
        if family is not Family.FARIMA10:
            resid = residual(family, d)
            return float(np.dot(resid, resid)), (d,), 1, True
        # the residual of (1 - z)^d (1 - alpha z) is w_t - alpha w_(t-1), with
        # w the FARIMA00 residual and w_0 = 0: S_n is quadratic in alpha
        w = residual(Family.FARIMA00, d)
        ss = float(np.dot(w[:-1], w[:-1]))
        alpha = float(np.dot(w[1:], w[:-1])) / ss if ss > 0.0 else 0.0
        alpha = min(max(alpha, opt_bounds[1][0]), opt_bounds[1][1])
        resid = np.concatenate([w[:1], w[1:] - alpha * w[:-1]])
        return float(np.dot(resid, resid)), (d, alpha), 1, True

    gamma_hat, s_min, nfev, ok = _minimize_gamma(contrast, opt_bounds)
    sigma2_hat = s_min / n
    result = FitResult(
        estimator="qmle",
        family=family,
        gamma_hat=gamma_hat,
        sigma2_hat=sigma2_hat,
        objective=s_min,
        iterations=nfev,
        converged=ok,
        boundary_pinned=_pinned(gamma_hat, opt_bounds),
    )
    if with_stderr:
        result.stderr = standard_errors(family, gamma_hat, sigma2_hat, n)
    return result


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


def _lm_powers(lam: np.ndarray) -> np.ndarray:
    """(m, _LM_SERIES_TERMS) table of (-i lam)^k / k!, column 0 zero: the
    d-independent factors of the LM polylogarithm series past its constant
    term.  lam^k / k! is a running product along k, and (-i)^k is taken
    exactly from its period of four."""
    k = np.arange(1, _LM_SERIES_TERMS)
    table = np.zeros((lam.size, _LM_SERIES_TERMS), dtype=complex)
    table[:, 1:] = np.cumprod(lam[:, np.newaxis] / k, axis=1) * np.array([1, -1j, -1, 1j])[k % 4]
    return table


def _lm_head(d: float, log_lam: np.ndarray) -> np.ndarray:
    """Gamma(-d) (i lam)^d = Gamma(-d) e^(i pi d / 2) lam^d, the singular term
    of the LM polylogarithm series."""
    return gamma_fn(-d) * cmath.exp(0.5j * math.pi * d) * np.exp(d * log_lam)


def _lm_transfer(d: float, log_lam: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """1 - Li_s(e^(-i lam)) / zeta(s), s = 1 + d, lam in (0, pi], by the series
    Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!, |mu| < 2 pi
    (Wood 1992), with log_lam = log(lam) and powers = _lm_powers(lam).  Its
    k = 0 term is the normalizing zeta(s) and cancels exactly; against mpmath
    it is within 1e-15 relative for d in [0.011, 0.489]."""
    if not 0.0 < d < 1.0:
        raise ValueError(f"LM transfer function requires d in (0, 1), got {d}")
    z = zeta(1.0 + d - np.arange(_LM_SERIES_TERMS))
    return -(_lm_head(d, log_lam) + powers @ z) / z[0]


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


def _spectral_shape(family: Family, gamma, lam: np.ndarray) -> np.ndarray:
    """h_gamma(lam) on one grid, for lam in (0, pi]."""
    return _shape_function(family, lam)(gamma)


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
    h = _spectral_shape(Family(spec.family), spec.gamma, lam_arr)
    f = spec.sigma2 * h / (2.0 * math.pi)
    return f if np.ndim(lam) else float(f[0])


def fit_whittle(
    series: Series,
    family: Family,
    bounds: tuple[tuple[float, float], ...] | None = None,
    with_stderr: bool = False,
) -> FitResult:
    """Whittle fit: gamma_hat minimizes the profiled periodogram contrast
    m log(sigma2_hat(gamma)) + sum_j log h_gamma(lambda_j), where
    sigma2_hat(gamma) = (2 pi / m) sum_j I(lambda_j) / h_gamma(lambda_j)."""
    family = Family(family)
    n = series.n
    if n < 4:
        raise ValueError(f"need n >= 4 observations, got {n}")
    if n < 30:
        warnings.warn(f"n={n} is small; Whittle asymptotics are unreliable", stacklevel=2)
    pgram = periodogram(series)
    if not pgram.any():
        raise ValueError(
            "the periodogram is zero at every Fourier frequency (a constant series?), "
            "so the Whittle contrast is undefined"
        )
    m = pgram.size
    shape = _whittle_shape(family, n)

    def profiled(gamma) -> float:
        h = shape(gamma)
        s2 = (2.0 * math.pi / m) * float(np.sum(pgram / h))
        return m * math.log(s2) + float(np.sum(np.log(h)))

    opt_bounds = _fit_bounds(family, bounds)

    def contrast(d):
        if family is not Family.FARIMA10:
            return profiled((d,)), (d,), 1, True
        res = _bounded_search(lambda a: profiled((d, a)), opt_bounds[1])
        return float(res.fun), (d, float(res.x)), int(res.nfev), bool(res.success)

    gamma_hat, _, nfev, ok = _minimize_gamma(contrast, opt_bounds)
    h_hat = shape(gamma_hat)
    sigma2_hat = (2.0 * math.pi / m) * float(np.sum(pgram / h_hat))
    f_hat = sigma2_hat * h_hat / (2.0 * math.pi)
    contrast = float(np.sum(np.log(f_hat) + pgram / f_hat))
    result = FitResult(
        estimator="whittle",
        family=family,
        gamma_hat=gamma_hat,
        sigma2_hat=sigma2_hat,
        objective=contrast,
        iterations=nfev,
        converged=ok,
        boundary_pinned=_pinned(gamma_hat, opt_bounds),
    )
    if with_stderr:
        result.stderr = standard_errors(family, gamma_hat, sigma2_hat, n)
    return result


# estimator name -> fit function; campaigns and the CLI read names from here
ESTIMATORS = {"qmle": fit_qmle, "whittle": fit_whittle}


# ---------------------------------------------------------------------------
# Asymptotic covariance and location estimators
# ---------------------------------------------------------------------------


def _lm_score(d: float, log_lam: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """-d/dd log h for LM at lam in (0, pi], with log_lam = log(lam) and
    powers = _lm_powers(lam).

    log h = -2 Re log T with T = 1 - Li_s(e^(-i lam)) / zeta(s), s = 1 + d.
    The series of _lm_transfer differentiated in s gives
    d/dd log T = L'/L - zeta'(s)/zeta(s), with L = Li_s - zeta(s) and
    L' = Gamma(1-s) (i lam)^(s-1) (log(i lam) - psi(1-s))
         + sum_(k>=1) zeta'(s-k) (-i lam)^k / k!.
    """
    s = 1.0 + d
    k = np.arange(_LM_SERIES_TERMS)
    z, dz = zeta(s - k), riemann_zeta(s - k, order=1)
    head = _lm_head(d, log_lam)
    li = head + powers @ z
    dli = head * (log_lam + 0.5j * math.pi - digamma(1.0 - s)) + powers @ dz
    return 2.0 * (dli / li).real - 2.0 * dz[0] / z[0]


@lru_cache(maxsize=1)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log(lam) at the nodes lam = pi e^(-v), the weights, and the LM power
    table at the nodes."""
    v, w = roots_laguerre(_INFO_NODES)
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
    var_sigma2 = sigma2^2 (mu4 - 1).
    """
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


def blue_weights(autocov: np.ndarray) -> np.ndarray:
    """Weights of the best linear unbiased mean estimator for the Toeplitz
    covariance with first column ``autocov``; normalized to sum to 1."""
    ones = np.ones(autocov.size)
    try:
        w = solve_toeplitz(autocov, ones)
    except np.linalg.LinAlgError as exc:
        raise ToeplitzError(f"Toeplitz solve failed: {exc}") from exc
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


def blue_efficiency(d: float) -> float:
    """Limit of Var(sample mean) / Var(BLUE): pi d (2d+1) / (B(1-d,1-d) sin(pi d))."""
    if not 0.0 < d < 0.5:
        raise ValueError(f"d must lie in (0, 1/2), got {d}")
    return math.pi * d * (2.0 * d + 1.0) / (beta_fn(1.0 - d, 1.0 - d) * math.sin(math.pi * d))


def mean_clt_scale(n: int, d: float) -> float:
    """Normalization n^(1/2 - d) of the mean estimators' convergence rate."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= d < 0.5:
        raise ValueError(f"d must lie in [0, 1/2), got {d}")
    return float(n) ** (0.5 - d)
