"""Model catalogue and coefficient engines for long-memory causal linear processes.

Families
--------
FARIMA00   fractional noise, gamma = (d,)
FARIMA10   fractional noise with one AR root, gamma = (d, alpha)
LM         hyperbolic autoregression u_k = k^(-1-d) / zeta(1+d), gamma = (d,)

Every family is parameterized on the unit-noise scale: the moving-average
weights a_0, a_1, ... have a_0 = 1 and the innovation standard deviation
sigma enters only through simulation and the likelihood.  The autoregressive
weights u_1, u_2, ... satisfy sum(u_k) = 1 and never depend on sigma2.

All coefficient engines run in O(K) by multiplicative recursion, except two
O(K log K) power-series products by real FFT: the LM moving-average weights
come from Newton series inversion, the FARIMA10 ones are psi times the
geometric series alpha^k.  Every table is returned read-only.  The module
holds no state and every call computes afresh; the library's caches live in
simulate and estimate, whose campaigns reuse them.

Autocovariances have one exact route per family: the FARIMA00 closed form,
that form filtered by the FARIMA10 AR(1) factor, and for LM the FFT
autocorrelation of the MA weights plus the tail of their known expansion.
Every transform goes through scipy.fft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import rgamma, zeta

from .specfun import gauss_rule, log_gamma, riemann_zeta

__all__ = [
    "Family",
    "ModelSpec",
    "ma_coeffs",
    "ar_coeffs",
    "ar_coeffs_gamma",
    "ar_coeffs_batch",
    "dar_coeffs",
    "dar_coeffs_gamma",
    "invert_series",
    "autocovariance",
    "default_gamma_bounds",
    "GAMMA_NAMES",
]


class Family(str, Enum):
    FARIMA00 = "farima00"
    FARIMA10 = "farima10"
    LM = "lm"


GAMMA_NAMES = {
    Family.FARIMA00: ("d",),
    Family.FARIMA10: ("d", "alpha"),
    Family.LM: ("d",),
}

_DEFAULT_D_BOUNDS = (0.01, 0.49)
_DEFAULT_ALPHA_BOUNDS = (-0.99, 0.99)


def default_gamma_bounds(family: Family) -> tuple[tuple[float, float], ...]:
    if Family(family) is Family.FARIMA10:
        return (_DEFAULT_D_BOUNDS, _DEFAULT_ALPHA_BOUNDS)
    return (_DEFAULT_D_BOUNDS,)


@dataclass(frozen=True)
class ModelSpec:
    """A parametric long-memory family with parameter vector (gamma, sigma2).

    gamma_bounds are the per-coordinate closed intervals of the compact
    estimation domain; the true gamma must lie inside them.
    """

    family: Family
    gamma: tuple[float, ...]
    sigma2: float = 1.0
    mu: float = 0.0
    gamma_bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        gamma = tuple(float(g) for g in np.atleast_1d(self.gamma))
        object.__setattr__(self, "gamma", gamma)
        if len(gamma) != len(GAMMA_NAMES[family]):
            raise ValueError(
                f"{family.value} expects gamma of length {len(GAMMA_NAMES[family])}, "
                f"got {len(gamma)}"
            )
        bounds = self.gamma_bounds
        if bounds is None:
            bounds = default_gamma_bounds(family)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        object.__setattr__(self, "gamma_bounds", bounds)
        if len(bounds) != len(gamma):
            raise ValueError("gamma_bounds must match gamma length")

        d = gamma[0]
        if not 0.0 < d < 0.5:
            raise ValueError(f"memory parameter d must lie strictly in (0, 1/2), got {d}")
        if family is Family.FARIMA10:
            alpha = gamma[1]
            if not -1.0 < alpha < 1.0:
                raise ValueError(f"AR parameter alpha must lie strictly in (-1, 1), got {alpha}")
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        for g, (lo, hi) in zip(gamma, bounds):
            if not lo <= g <= hi:
                raise ValueError(f"gamma value {g} outside bounds [{lo}, {hi}]")

    @property
    def d(self) -> float:
        return self.gamma[0]

    @property
    def alpha(self) -> float:
        if Family(self.family) is not Family.FARIMA10:
            raise AttributeError(f"{self.family} has no AR parameter")
        return self.gamma[1]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frac_diff_coeffs(d, K: int) -> np.ndarray:
    """Power-series coefficients of (1 - z)^d, indices 0..K; d is a scalar,
    or a column of values with one row of coefficients each."""
    pi = np.empty(np.broadcast_shapes(np.shape(d), (K + 1,)))
    pi[..., 0] = 1.0
    if K >= 1:
        i = np.arange(1.0, K + 1)
        pi[..., 1:] = np.cumprod((i - 1.0 - d) / i, axis=-1)
    return pi


def _one_parameter_ar(family: Family, d, K: int) -> np.ndarray:
    """u_1..u_K of FARIMA00 or LM; d is a scalar, or a column of values with
    one row of weights each."""
    if family is Family.LM:
        k = np.arange(1.0, K + 1)
        return k ** (-1.0 - d) / zeta(1.0 + d)
    return -_frac_diff_coeffs(d, K)[..., 1:]


def _checked(family, gamma, K: int) -> tuple[Family, tuple[float, ...], int]:
    family, gamma, K = Family(family), tuple(float(g) for g in gamma), int(K)
    if len(gamma) != len(GAMMA_NAMES[family]):
        raise ValueError(f"{family.value} expects gamma of length {len(GAMMA_NAMES[family])}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    # relaxed domain: estimation may evaluate candidates outside (0, 1/2);
    # fractional-differencing weights are valid on (-1/2, 1), the LM weights
    # need 1 + d > 1
    d = gamma[0]
    if family is Family.LM:
        if not 0.0 < d < 1.0:
            raise ValueError(f"LM coefficients require d in (0, 1), got {d}")
    elif not -0.5 < d < 1.0:
        raise ValueError(f"coefficient engines require d in (-1/2, 1), got {d}")
    if family is Family.FARIMA10 and not -1.0 < gamma[1] < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {gamma[1]}")
    return family, gamma, K


def ar_coeffs_gamma(family: Family, gamma, K: int) -> np.ndarray:
    """AR(inf) weights u_1..u_K at any gamma the estimators may try (K >= 0).

    The domain is relaxed against ModelSpec: d in (-1/2, 1) for the FARIMA
    families and (0, 1) for LM, so fits may evaluate iterates outside
    (0, 1/2).  ar_coeffs is the ModelSpec form.
    """
    family, gamma, K = _checked(family, gamma, K)
    d = gamma[0]
    if family is not Family.FARIMA10:
        return _readonly(_one_parameter_ar(family, d, K))
    # FARIMA10: AR polynomial (1 - z)^d (1 - alpha z)
    pi = _frac_diff_coeffs(d, K)
    pi[1:] -= gamma[1] * pi[:-1]
    return _readonly(-pi[1:])


def ar_coeffs_batch(family: Family, ds, K: int) -> np.ndarray:
    """AR(inf) weights of a one-parameter family (FARIMA00 or LM) at each d
    of ds, shape (len(ds), K): row j holds the values of
    ar_coeffs_gamma(family, (ds[j],), K), built in one array operation."""
    family = Family(family)
    if family is Family.FARIMA10:
        raise ValueError("ar_coeffs_batch takes a one-parameter family, not farima10")
    ds = np.asarray(ds, dtype=float)
    # the domain of d is an interval, so its extremes decide (NaN fails both)
    for d in (ds.min(), ds.max()):
        _checked(family, (d,), K)
    return _readonly(_one_parameter_ar(family, ds[:, np.newaxis], K))


def _ma_coeffs_gamma(family: Family, gamma: tuple[float, ...], K: int) -> np.ndarray:
    family, gamma, K = _checked(family, gamma, K)
    d = gamma[0]
    if family is Family.FARIMA00:
        a = _frac_diff_coeffs(-d, K)
    elif family is Family.FARIMA10:
        # a = psi / (1 - alpha z), a product with the series alpha^k
        a = _series_product(_frac_diff_coeffs(-d, K), gamma[1] ** np.arange(K + 1.0), K + 1)
    else:  # LM: invert the AR polynomial 1 - sum_k u_k z^k
        a = invert_series(np.r_[1.0, -ar_coeffs_gamma(family, gamma, K)])
    return _readonly(a)


def ma_coeffs(spec: ModelSpec, K: int) -> np.ndarray:
    """MA(inf) weights a_0..a_K on the unit-noise scale (a_0 = 1)."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return _ma_coeffs_gamma(spec.family, spec.gamma, K)


def ar_coeffs(spec: ModelSpec, K: int) -> np.ndarray:
    """AR(inf) weights u_1..u_K; u[k-1] multiplies X_{t-k}."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return ar_coeffs_gamma(spec.family, spec.gamma, K)


def dar_coeffs_gamma(family: Family, gamma, K: int) -> np.ndarray:
    """Derivatives of the AR weights in gamma, shape (len(gamma), K), at any
    gamma in the relaxed domain of ar_coeffs_gamma (K >= 0).

    Every family is exact.  LM:
    du_n/dd = -n^(-1-d) zeta(1+d)^(-2) (zeta(1+d) log n + zeta'(1+d)).
    FARIMA: with pi_i = -d q_i the coefficients of (1 - z)^d,
    dpi_i/dd = -q_i (1 - d sum_(j=2..i) 1/(j-1-d)), which is finite at d = 0;
    FARIMA10 adds du_i/dalpha = pi_(i-1).  dar_coeffs is the ModelSpec form.
    """
    family, gamma, K = _checked(family, gamma, K)
    d = gamma[0]
    if family is Family.LM:
        z = zeta(1.0 + d)
        zp = riemann_zeta(1.0 + d, order=1)
        n = np.arange(1.0, K + 1)
        du = -(n ** (-1.0 - d)) / z**2 * (z * np.log(n) + zp)
        return _readonly(du[np.newaxis, :])
    # pi_i = -d q_i with q_1 = 1, q_i = q_(i-1) (i-1-d)/i, so FARIMA00's
    # du_i/dd = -dpi_i/dd = q_i (1 - d sum_(j=2..i) 1/(j-1-d)), finite at d = 0
    i = np.arange(1.0, K)
    q = np.cumprod(np.r_[1.0, (i - d) / (i + 1.0)])
    du = q * (1.0 - d * np.cumsum(np.r_[0.0, 1.0 / (i - d)]))
    if family is Family.FARIMA00:
        return _readonly(du[np.newaxis, :K])
    # FARIMA10: u_i = -(pi_i - alpha pi_(i-1)), with pi_0 = 1
    ddu = du[:K] - gamma[1] * np.r_[0.0, du[: K - 1]]
    return _readonly(np.array([ddu, np.r_[1.0, -d * q][:K]]))


def dar_coeffs(spec: ModelSpec, K: int) -> np.ndarray:
    """Derivatives of the AR weights in gamma, shape (len(gamma), K); see
    dar_coeffs_gamma."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return dar_coeffs_gamma(spec.family, spec.gamma, K)


def _series_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """First size coefficients of the power-series product a(z) b(z), by one
    real-FFT product at a length where the circular product is the linear one."""
    N = next_fast_len(a.size + b.size - 1, real=True)
    return irfft(rfft(a, N) * rfft(b, N), N)[:size]


def invert_series(c) -> np.ndarray:
    """Multiplicative inverse of a power series, truncated at the same order.

    Returns b with (sum b_j z^j)(sum c_j z^j) = 1 + O(z^(K+1)).

    Newton iteration b <- b (2 - c b) doubles the number of correct
    coefficients per step (Brent & Kung 1978), each step taking two
    truncated real-FFT products, so the cost is O(K log K): about 15 ms at
    K = 30,000, where the O(K^2) recursion
    b_k = -sum_{j=1..k} c_j b_(k-j) / c_0 takes about 0.6 s.  FFT products
    round relative to the largest coefficients: on the LM AR polynomials at
    K = 12,000, the largest relative error against that recursion run in
    long double was 3.5e-11 at d = 0.011 and 9.4e-13 at d = 0.15.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("invert_series expects a nonempty 1-D coefficient array")
    if c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    b = np.array([1.0 / c[0]])
    m = 1
    while m < c.size:
        # b holds the first m coefficients, so c b = 1 + z^m e; the Newton
        # step b (2 - c b) = b - z^m b e fixes the next m of them
        m2 = min(2 * m, c.size)
        e = _series_product(c[:m2], b, m2)[m:]
        b = np.concatenate([b, -_series_product(b, e, m2 - m)])
        m = m2
    return b


# nodes per tail rule: within 3e-13 of r(0) of per-lag quadrature for d <= 0.489
_TAIL_NODES = 16


def _power_weight_rules(c) -> tuple[np.ndarray, np.ndarray]:
    """_TAIL_NODES-point Gauss rules of the weights t^c on (0, 1), c > -1, one
    row per exponent of c: the recurrence of the Jacobi polynomials
    P^(0, c) moved from (-1, 1) to (0, 1), where the smallest nodes keep
    their relative accuracy."""
    c = np.asarray(c, dtype=float)[:, np.newaxis]
    k = np.arange(1.0, _TAIL_NODES)
    s = 2.0 * k + c
    diagonal = np.hstack([(c + 1.0) / (c + 2.0), 0.5 + 0.5 * c * c / (s * (s + 2.0))])
    offdiagonal = k * (k + c) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    return gauss_rule(diagonal, offdiagonal, 1.0 / (c[:, 0] + 1.0))


def _tail_corrections(C, beta, Ka: int, maxlag: int) -> np.ndarray:
    """Tail sum_{i > Ka - k} psi_i psi_(i+k) of psi_i = sum_j C_j i^beta_j for
    every lag k = 0..maxlag, by the midpoint rule as an integral from
    L = Ka - k + 1/2.  On x = L/t the pair (p, q) is t^(-beta_p-beta_q-2) times
    the smooth L^(beta_p+beta_q+1) (1 + kt/L)^beta_q; beta steps evenly, so the
    pairs with equal p + q share one Gauss rule of the weight t^(-2-e),
    e = beta_p + beta_q, for all lags; the rules are built together."""
    k = np.arange(maxlag + 1.0)
    L = Ka - k + 0.5
    n, out = len(C), np.zeros(maxlag + 1)
    pairs = [range(max(0, s - n + 1), min(s, n - 1) + 1) for s in range(2 * n - 1)]
    e = np.array([beta[s - qs[0]] + beta[qs[0]] for s, qs in enumerate(pairs)])
    for s, (qs, t, w) in enumerate(zip(pairs, *_power_weight_rules(-2.0 - e))):
        rho = np.log(1.0 + (k / L)[:, np.newaxis] * t)
        out += L ** (e[s] + 1.0) * sum(C[s - q] * C[q] * (np.exp(beta[q] * rho) @ w) for q in qs)
    return out


def _weight_expansion(family: Family, d: float) -> tuple[np.ndarray, np.ndarray]:
    """(C_j, beta_j) of the MA weights' expansion psi_i ~ sum_j C_j i^beta_j."""
    if family is Family.FARIMA00:
        # Gamma(i+d) / (Gamma(d) Gamma(i+1)) = i^(d-1) (1 + d(d-1)/(2i) + ...) / Gamma(d)
        return np.array([1.0, 0.5 * d * (d - 1.0)]) * rgamma(d), np.array([d - 1.0, d - 2.0])
    # LM, with w = -log z: T(z) = a w^d + b w + O(w^2), so 1/T has the singular
    # terms (-b)^(j-1) a^(-j) w^(j(1-d)-1), whose coefficients are exactly
    # C_j i^(j(d-1)) (Flajolet & Odlyzko 1990); no i^(d-2) term arises
    a, b = math.exp(log_gamma(1.0 - d)) / (d * zeta(1.0 + d)), zeta(d) / zeta(1.0 + d)
    j = np.arange(1.0, 4.0)
    return (-b) ** (j - 1.0) / a**j * rgamma(j * (d - 1.0) + 1.0), j * (d - 1.0)


def _autocov_by_convolution(
    family: Family, gamma: tuple[float, ...], maxlag: int, K: int | None = None
) -> np.ndarray:
    """r(k) = sum_i a_i a_{i+k} truncated at K, plus the tail of the weights'
    expansion (unit-noise scale): the LM route, and the reference that tests
    hold the FARIMA00 closed form to."""
    Ka = max(K or 0, maxlag + 10_000)
    # autocorrelation by |rfft|^2; N > Ka + maxlag keeps lags 0..maxlag unaliased
    N = next_fast_len(Ka + 1 + maxlag, real=True)
    A = rfft(_ma_coeffs_gamma(family, gamma, Ka), N)
    r = irfft(A.real**2 + A.imag**2, N)[: maxlag + 1]
    return r + _tail_corrections(*_weight_expansion(family, gamma[0]), Ka, maxlag)


def _farima00_autocov(d: float, maxlag: int) -> np.ndarray:
    """Closed form r(0) = Gamma(1-2d) / Gamma(1-d)^2, r(k) = r(k-1) (k-1+d)/(k-d)."""
    r0 = math.exp(log_gamma(1.0 - 2.0 * d) - 2.0 * log_gamma(1.0 - d))
    k = np.arange(1.0, maxlag + 1)
    return r0 * np.r_[1.0, np.cumprod((k - 1.0 + d) / (k - d))]


def _farima10_autocov(d: float, alpha: float, maxlag: int) -> np.ndarray:
    """X = Y / (1 - alpha B) with Y fractional noise: r_X(k) is the real-FFT
    product sum_m alpha^|m| r_Y(k+m) / (1 - alpha^2), to |alpha|^M <= 1e-18."""
    M = math.ceil(math.log(1e-18) / math.log(abs(alpha))) if alpha else 0
    if M > 10**6:
        raise ValueError(f"alpha={alpha}: FARIMA10 autocovariance needs over 10^6 AR(1) terms")
    y = _farima00_autocov(d, maxlag + M)[np.abs(np.arange(-M, maxlag + M + 1))]
    g = alpha ** np.abs(np.arange(-M, M + 1.0))
    return _series_product(y, g, maxlag + 2 * M + 1)[2 * M :] / (1.0 - alpha**2)


def autocovariance(spec: ModelSpec, maxlag: int) -> np.ndarray:
    """Autocovariances r_X(0..maxlag), including the sigma2 scale.

    FARIMA00 is the closed-form recursion.  FARIMA10 filters it through the
    AR(1) factor; |alpha| above about 0.99996 (custom gamma_bounds only) would
    need over 10^6 terms and raises ValueError.  LM is the FFT autocorrelation
    of the MA weights to K = maxlag + 10000 plus the tail of their three-term
    expansion.  Against quadrature of the exact spectral density, FARIMA10 is
    within 3e-14 of r(0) and LM within 5e-11 for d <= 0.489.
    """
    if maxlag < 0:
        raise ValueError(f"maxlag must be >= 0, got {maxlag}")
    maxlag = int(maxlag)
    if spec.family is Family.FARIMA00:
        r = _farima00_autocov(spec.d, maxlag)
    elif spec.family is Family.FARIMA10:
        r = _farima10_autocov(spec.d, spec.alpha, maxlag)
    else:
        r = _autocov_by_convolution(spec.family, spec.gamma, maxlag)
    return _readonly(spec.sigma2 * r)
