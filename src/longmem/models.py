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

gamma_domain, wider than ModelSpec's, is where the engines are defined:
every engine call checks its gamma, and every fit its search box, against
it.  ar_coeffs_gamma is the one AR-weight engine, for one d or many.

All coefficient engines run in O(K) by multiplicative recursion or closed
form, except the FARIMA10 moving-average weights, psi times the geometric
series alpha^k, one O(K log K) power-series product by real FFT.  The LM
moving-average weights a_0..a_256 come from Newton series inversion of the
AR polynomial, every later one from the complete singular expansion of its
inverse (_weight_expansion).  Every table is returned read-only.  Every call
computes its coefficients afresh: the module caches only FFT lengths, and
the library's other caches live in specfun (the zeta table), simulate and
estimate, whose campaigns reuse them.

Autocovariances have one exact route per family: the FARIMA00 closed form,
that form filtered by the FARIMA10 AR(1) factor, and for LM the FFT
autocorrelation of the MA weights plus the tail of the same expansion,
integrated by Gauss rules at 32 Chebyshev lags and interpolated to the rest.
Every transform goes through numpy.fft, at 5-smooth lengths from fast_length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .specfun import gauss_rule, rgamma, riemann_zeta, zeta_series

__all__ = [
    "Family",
    "ModelSpec",
    "ma_coeffs",
    "ar_coeffs",
    "ar_coeffs_gamma",
    "dar_coeffs",
    "dar_coeffs_gamma",
    "invert_series",
    "autocovariance",
    "default_gamma_bounds",
    "gamma_domain",
    "fast_length",
    "GAMMA_NAMES",
]


class Family(str, Enum):
    FARIMA00 = "farima00"
    FARIMA10 = "farima10"
    LM = "lm"


# each family's gamma coordinates, with the open interval of each where the
# AR weights exist (see gamma_domain)
_GAMMA_DOMAIN = {
    Family.FARIMA00: {"d": (-0.5, 1.0)},
    Family.FARIMA10: {"d": (-0.5, 1.0), "alpha": (-1.0, 1.0)},
    Family.LM: {"d": (0.0, 1.0)},
}
GAMMA_NAMES = {family: tuple(coords) for family, coords in _GAMMA_DOMAIN.items()}
_DEFAULT_BOUNDS = {"d": (0.01, 0.49), "alpha": (-0.99, 0.99)}


def default_gamma_bounds(family: Family) -> tuple[tuple[float, float], ...]:
    return tuple(_DEFAULT_BOUNDS[name] for name in GAMMA_NAMES[Family(family)])


def gamma_domain(family: Family) -> tuple[tuple[float, float], ...]:
    """The coefficient domain, the open interval of each gamma coordinate
    where the AR weights exist: fractional differencing needs d in (-1/2, 1),
    the LM weights k^(-1-d) / zeta(1+d) need d in (0, 1), and 1 - alpha z
    alpha in (-1, 1).  Fits may try d <= 0, which ModelSpec rejects."""
    return tuple(_GAMMA_DOMAIN[Family(family)].values())


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
        if gamma and not 0.0 < gamma[0] < 0.5:
            raise ValueError(f"memory parameter d must lie strictly in (0, 1/2), got {gamma[0]}")
        # gamma's length, and past d the model's domain is the coefficient one
        _checked(family, gamma, 0)
        bounds = self.gamma_bounds
        if bounds is None:
            bounds = default_gamma_bounds(family)
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        object.__setattr__(self, "gamma_bounds", bounds)
        if len(bounds) != len(gamma):
            raise ValueError("gamma_bounds must match gamma length")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
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


def _checked(family, gamma, K: int, rows: bool = False) -> tuple[Family, tuple, int]:
    """(family, gamma as floats, K) once gamma lies in gamma_domain; with
    rows, gamma[0] may be a 1-D array of d, returned as a column."""
    family, K = Family(family), int(K)
    domain = _GAMMA_DOMAIN[family]
    if len(gamma) != len(domain):
        raise ValueError(f"{family.value} expects gamma of length {len(domain)}, got {len(gamma)}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    # isinstance, not np.ndim, keeps the one-d call cheap
    if rows and isinstance(gamma[0], np.ndarray):
        d = np.asarray(gamma[0], dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError(f"d must be a number or a nonempty 1-D array, got shape {d.shape}")
        # the domain is an interval, so the extremes of d decide (NaN fails both)
        for end in (d.min(), d.max()):
            _checked(family, (end, *gamma[1:]), K)
        return family, (d[:, np.newaxis], *map(float, gamma[1:])), K
    gamma = tuple(map(float, gamma))
    for (name, (a, b)), g in zip(domain.items(), gamma):
        if not a < g < b:
            raise ValueError(f"{family.value} coefficients require {name} in ({a:g}, {b:g}), got {g}")
    return family, gamma, K


def ar_coeffs_gamma(family: Family, gamma, K: int) -> np.ndarray:
    """AR(inf) weights u_1..u_K at any gamma of gamma_domain (K >= 0);
    ar_coeffs is the ModelSpec form.  A 1-D array of d gives one row per d,
    shape (len(d), K), built in one array operation, and each row equals its
    one-d call bit for bit."""
    family, gamma, K = _checked(family, gamma, K, rows=True)
    d = gamma[0]
    if family is Family.LM:
        k = np.arange(1.0, K + 1)
        return _readonly(k ** (-1.0 - d) / zeta_series(d, 0))
    pi = _frac_diff_coeffs(d, K)
    if family is Family.FARIMA10:  # AR polynomial (1 - z)^d (1 - alpha z)
        pi[..., 1:] -= gamma[1] * pi[..., :-1]
    return _readonly(-pi[..., 1:])


# LM MA weights a_0.._LM_HEAD come from series inversion, later ones from
# the singular expansion of 1/T through w^_LM_ORDER (see _weight_expansion)
_LM_HEAD = 256
_LM_ORDER = 4


def _ma_coeffs_gamma(family: Family, gamma: tuple[float, ...], K: int) -> np.ndarray:
    family, gamma, K = _checked(family, gamma, K)
    d = gamma[0]
    if family is Family.FARIMA00:
        a = _frac_diff_coeffs(-d, K)
    elif family is Family.FARIMA10:
        # a = psi / (1 - alpha z), a product with the series alpha^k
        a = _series_product(_frac_diff_coeffs(-d, K), gamma[1] ** np.arange(K + 1.0), K + 1)
    else:  # LM: invert the AR polynomial 1 - sum_k u_k z^k for a short head
        head = min(K, _LM_HEAD)
        a = np.empty(K + 1)
        a[: head + 1] = invert_series(np.r_[1.0, -ar_coeffs_gamma(family, gamma, head)])
        a[head + 1 :] = _expansion_values(_weight_expansion(family, d), d, np.arange(head + 1.0, K + 1))
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
    gamma of gamma_domain (K >= 0).

    Every family is exact.  LM:
    du_n/dd = -n^(-1-d) zeta(1+d)^(-2) (zeta(1+d) log n + zeta'(1+d)).
    FARIMA: with pi_i = -d q_i the coefficients of (1 - z)^d,
    dpi_i/dd = -q_i (1 - d sum_(j=2..i) 1/(j-1-d)), which is finite at d = 0;
    FARIMA10 adds du_i/dalpha = pi_(i-1).  dar_coeffs is the ModelSpec form.
    """
    family, gamma, K = _checked(family, gamma, K)
    d = gamma[0]
    if family is Family.LM:
        z = zeta_series(d, 0)
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


@lru_cache(maxsize=256)
def fast_length(n: int) -> int:
    """The least 5-smooth integer 2^a 3^b 5^c >= n (n >= 1): the FFT
    length scipy.fft.next_fast_len(n, real=True) gives."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _series_product(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """First size coefficients of the power-series product a(z) b(z), by one
    real-FFT product at a length where the circular product is the linear one."""
    N = fast_length(a.size + b.size - 1)
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
    long double was 3.5e-11 at d = 0.011 and 9.4e-13 at d = 0.15.  The LM
    moving-average weights therefore invert only a_0..a_256, within 2.3e-16
    of the long-double recursion; past those, their singular expansion is
    within 6.2e-15 relative at d = 0.011, 0.25 and 0.489.
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


# nodes per tail rule, and lags at which the tail is evaluated and then
# interpolated: more of either moves the tail by no more than its rounding,
# 4e-14 of r(0) at d = 0.489
_TAIL_NODES = 16
_TAIL_LAGS = 32


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


def _tail_corrections(C: np.ndarray, d: float, Ka: int, maxlag: int) -> np.ndarray:
    """Tail sum_{i > Ka - k} psi_i psi_(i+k) of the weights
    psi_i = sum_(m,q) C[m, q] i^((d-1)(m+1) - q) for every lag k = 0..maxlag:
    by Euler-Maclaurin, the integral of f(x) = psi_x psi_(x+k) from
    L = Ka - k + 1/2 plus f'(L)/24, the midpoint rule's first correction;
    the next one is below 1e-14 of r(0) once L >= 1000.

    On x = L/t, with y = t/L and P_m(y) = sum_q C[m, q] y^q, the integrand is
    L^(e_s+1) t^(-2-e_s) P_m(y) P_n(y/g) g^((d-1)(n+1)), g = 1 + k y, for each
    pair of rows (m, n) with m + n = s and e_s = (d-1)(s+2): one Gauss rule of
    the weight t^(-2-e_s) per s, as the powers y^q are smooth.  The tail is
    analytic in k up to its singularity at k = Ka + 1/2, at least maxlag/2
    beyond the last lag, so it is evaluated at _TAIL_LAGS Chebyshev lags and
    interpolated to the others."""
    M = C.shape[0]
    e = (d - 1.0) * np.arange(2.0, 2 * M + 1)
    t, w = _power_weight_rules(-2.0 - e)
    rows = np.arange(M)
    # C times its exponents: the expansion of x psi'(x)
    dC = C * ((d - 1.0) * (rows[:, np.newaxis] + 1.0) - np.arange(C.shape[1]))

    # the lags k = maxlag (1 + cos theta) / 2 at the Chebyshev points of the first kind
    theta = math.pi * (np.arange(_TAIL_LAGS) + 0.5) / _TAIL_LAGS
    k = 0.5 * maxlag * (1.0 + np.cos(theta))[:, np.newaxis]
    L = Ka - k + 0.5
    y = t[:, np.newaxis, :] / L  # (s, lag, node)
    g = 1.0 + k * y
    P = _row_values(C, y)
    Q = _row_values(C, y / g) * _powers(g ** (d - 1.0), M + 1)[1:]
    f = np.zeros(y.shape)
    for m in rows:
        f[m + rows] += P[m, m + rows] * Q[rows, m + rows]
    tail = (L[:, 0] ** (e[:, np.newaxis] + 1.0) * (f @ w[..., np.newaxis])[..., 0]).sum(axis=0)
    ends = np.hstack([L, L + k])
    psi, dpsi = _expansion_values(C, d, ends), _expansion_values(dC, d, ends) / ends
    tail += (dpsi[:, 0] * psi[:, 1] + psi[:, 0] * dpsi[:, 1]) / 24.0
    # its Chebyshev series, summed at every lag by Clenshaw's recurrence
    # (numpy.polynomial would cost every process that imports longmem 5 ms
    # and 0.75 MB)
    coef = np.cos(np.outer(np.arange(_TAIL_LAGS), theta)) @ tail * (2.0 / _TAIL_LAGS)
    x = np.linspace(-1.0, 1.0, maxlag + 1)
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return 0.5 * coef[0] + x * b1 - b2


def _weight_expansion(family: Family, d: float) -> np.ndarray:
    """C[m, q] of the MA weights' expansion psi_i ~ sum C[m, q] i^((d-1)(m+1) - q).

    FARIMA00: Gamma(i+d) / (Gamma(d) Gamma(i+1)) = i^(d-1) (1 + d(d-1)/(2i)
    + d(d-1)(d-2)(3d-1)/(24 i^2) + ...) / Gamma(d), three terms.  LM,
    complete through w^4 (Flajolet & Odlyzko 1990):
    with w = -log z, T(z) = 1 - sum u_k z^k = a w^d + sum_(j>=1) t_j w^j,
    a = -Gamma(-d) / zeta(1+d), t_j = (-1)^(j+1) zeta(1+d-j) / (j! zeta(1+d)),
    so 1/T = sum_m (-1)^m w^(gamma_mq) [y^q] S(y)^m / a, S(y) = sum_j t_j
    y^(j-1) / a, gamma_mq = m + q - (m+1) d, and each w^gamma has the exact
    coefficients i^(-gamma-1) / Gamma(-gamma) of the polylogarithm
    Li_(gamma+1)(z) less a part analytic at z = 1.  The terms with
    gamma_mq <= 4 are kept, those with integer gamma_mq vanish; from
    i = 256 on, they give the weights within 1e-14 relative."""
    if family is Family.FARIMA00:
        return np.array([[1.0, d * (d - 1.0) / 2.0, d * (d - 1.0) * (d - 2.0) * (3.0 * d - 1.0) / 24.0]]) * rgamma(d)
    z = zeta_series(d)
    a = math.gamma(1.0 - d) / (d * z[0])
    j = np.arange(1, _LM_ORDER + 2)
    S = (-1.0) ** (j + 1) * z[j] / (np.cumprod(j) * z[0] * a)
    # rows m while gamma_m0 <= _LM_ORDER, columns q <= _LM_ORDER
    m = np.arange(int((_LM_ORDER + d) / (1.0 - d)) + 1)[:, np.newaxis]
    gamma = m + np.arange(_LM_ORDER + 1.0) - (m + 1) * d
    # row m is (-S)^m / a, truncated after y^_LM_ORDER
    C = np.empty(gamma.shape)
    C[0] = np.r_[1.0 / a, np.zeros(_LM_ORDER)]
    for row in range(1, C.shape[0]):
        C[row] = np.convolve(C[row - 1], -S)[: _LM_ORDER + 1]
    keep = gamma <= _LM_ORDER
    C[keep] *= rgamma(-gamma[keep])
    C[~keep] = 0.0
    return C


def _powers(y: np.ndarray, n: int) -> np.ndarray:
    """y^0 .. y^(n-1) along a new first axis."""
    out = np.empty((n,) + y.shape)
    out[0] = 1.0
    for j in range(1, n):
        np.multiply(out[j - 1], y, out=out[j])
    return out


def _row_values(C: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P_m(y) = sum_q C[m, q] y^q for each row m, along a new first axis."""
    return (C @ _powers(y, C.shape[1]).reshape(C.shape[1], -1)).reshape(C.shape[:1] + y.shape)


def _expansion_values(C: np.ndarray, d: float, i: np.ndarray) -> np.ndarray:
    """sum_(m,q) C[m, q] i^((d-1)(m+1) - q) at each i >= 1, by Horner's rule
    in i^(d-1) over the rows."""
    x = i ** (d - 1.0)
    rows = _row_values(C, 1.0 / i)
    out = rows[-1]
    for row in rows[-2::-1]:
        out = out * x + row
    return x * out


def _autocov_by_convolution(
    family: Family, gamma: tuple[float, ...], maxlag: int, K: int | None = None
) -> np.ndarray:
    """r(k) = sum_i a_i a_{i+k} truncated at K, plus the tail of the weights'
    expansion (unit-noise scale): the LM route, and the reference that tests
    hold the FARIMA00 closed form to."""
    # each lag's tail starts past i = 1000, where the expansion and the first
    # Euler-Maclaurin term hold to rounding, and its singularity in the lag,
    # at Ka + 1/2, stays maxlag/2 or more past the last lag
    Ka = max(K or 0, maxlag + max(1_000, maxlag // 2))
    # autocorrelation by |rfft|^2; N > Ka + maxlag keeps lags 0..maxlag unaliased
    N = fast_length(Ka + 1 + maxlag)
    A = rfft(_ma_coeffs_gamma(family, gamma, Ka), N)
    r = irfft(A.real**2 + A.imag**2, N)[: maxlag + 1]
    return r + _tail_corrections(_weight_expansion(family, gamma[0]), gamma[0], Ka, maxlag)


def _farima00_autocov(d: float, maxlag: int) -> np.ndarray:
    """Closed form r(0) = Gamma(1-2d) / Gamma(1-d)^2, r(k) = r(k-1) (k-1+d)/(k-d)."""
    r0 = math.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d))
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
    of the MA weights to K = maxlag + max(1000, maxlag // 2) plus the tail of
    their complete expansion, with the Euler-Maclaurin term of its midpoint
    rule.  Against quadrature of the exact spectral density, FARIMA10 is
    within 3e-14 of r(0) and LM within 5e-13, the quadrature's own tolerance,
    for d <= 0.489; the LM tail at lag 0 is within 1e-14 of r(0) of its exact
    sum in Hurwitz zeta values.
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
