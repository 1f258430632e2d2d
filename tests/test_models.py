import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from longmem import models
from longmem.estimate import _shape_function
from longmem.models import (
    Family,
    ModelSpec,
    ar_coeffs,
    ar_coeffs_gamma,
    autocovariance,
    dar_coeffs,
    dar_coeffs_gamma,
    invert_series,
    ma_coeffs,
)
from longmem.models import (
    _autocov_by_convolution,
    _ma_coeffs_gamma,
    _power_weight_rules,
    _tail_corrections,
    _weight_expansion,
)
from longmem.specfun import riemann_zeta

# ln Gamma element by element, as an oracle for the gamma-ratio coefficients
lgamma = np.vectorize(math.lgamma)


def spec_of(family, *gamma, sigma2=1.0, **kw):
    return ModelSpec(family=family, gamma=tuple(gamma), sigma2=sigma2, **kw)


# ---------------------------------------------------------------------------
# ModelSpec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        spec_of("farima00", 0.0)
    with pytest.raises(ValueError):
        spec_of("farima00", 0.5)
    with pytest.raises(ValueError):
        spec_of("farima10", 0.2, 1.0)
    with pytest.raises(ValueError):
        spec_of("farima00", 0.2, sigma2=0.0)
    with pytest.raises(ValueError):
        spec_of("farima00", 0.2, gamma_bounds=((0.3, 0.49),))  # gamma outside bounds
    with pytest.raises(ValueError):
        spec_of("farima10", 0.2)  # wrong gamma length
    with pytest.raises(ValueError):
        ModelSpec(family="nosuch", gamma=(0.2,))


@pytest.mark.parametrize("field", ["sigma2", "mu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_a_non_finite_sigma2_or_mu(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        spec_of("farima00", 0.2, **{field: value})


def test_operations_reject_invalid_sizes():
    s = spec_of("farima00", 0.3)
    with pytest.raises(ValueError):
        ma_coeffs(s, 0)
    with pytest.raises(ValueError):
        ar_coeffs(s, -1)
    with pytest.raises(ValueError):
        autocovariance(s, -1)


# ---------------------------------------------------------------------------
# MA coefficients
# ---------------------------------------------------------------------------


def test_ma_farima00_leading_terms():
    a = ma_coeffs(spec_of("farima00", 0.3), 4)
    assert a[0] == 1.0
    assert a[1] == pytest.approx(0.3, abs=1e-15)
    # gamma-formula oracle: a_2 = Gamma(2+d) / (Gamma(3) Gamma(d))
    oracle = math.exp(math.lgamma(2.3) - math.lgamma(3.0) - math.lgamma(0.3))
    assert a[2] == pytest.approx(oracle, rel=1e-14)
    assert a[2] == pytest.approx(0.195, abs=1e-15)


def test_ma_farima00_matches_gamma_formula():
    d = 0.27
    a = ma_coeffs(spec_of("farima00", d), 300)
    k = np.arange(1, 301)
    oracle = np.exp(lgamma(k + d) - lgamma(k + 1.0) - lgamma(d))
    assert np.allclose(a[1:], oracle, rtol=1e-12, atol=0)


def test_ma_farima10_first_order_convolution():
    a = ma_coeffs(spec_of("farima10", 0.2, 0.5), 6)
    assert a[1] == pytest.approx(0.7, abs=1e-14)  # d + alpha
    # direct polynomial multiplication oracle
    psi = ma_coeffs(spec_of("farima00", 0.2), 6)
    geo = 0.5 ** np.arange(7)
    direct = np.convolve(psi, geo)[:7]
    assert np.allclose(a, direct, rtol=1e-13, atol=1e-15)


def test_ma_lm_is_inverse_of_ar_polynomial():
    s = spec_of("lm", 0.25)
    a = ma_coeffs(s, 50)
    c = np.r_[1.0, -ar_coeffs(s, 50)]
    prod = np.convolve(a, c)[:51]
    expect = np.zeros(51)
    expect[0] = 1.0
    assert np.allclose(prod, expect, atol=1e-13)


# ---------------------------------------------------------------------------
# AR coefficients
# ---------------------------------------------------------------------------


def test_ar_farima00_u1_is_d():
    u = ar_coeffs(spec_of("farima00", 0.3), 3)
    assert u[0] == pytest.approx(0.3, abs=1e-15)


def test_ar_farima00_matches_log_gamma_closed_form():
    d = 0.3
    u = ar_coeffs(spec_of("farima00", d), 200)
    k = np.arange(1, 201)
    oracle = d * np.exp(lgamma(k - d) - lgamma(1.0 - d) - lgamma(k + 1.0))
    assert np.max(np.abs(u - oracle) / oracle) < 1e-12


def test_ar_lm_partial_sum_against_tail_bound():
    # sum_{k<=K} u_k = 1 - tail; bracket the tail by integrals of x^(-1.2)
    d, K = 0.2, 10**6
    u = ar_coeffs(spec_of("lm", d), K)
    partial = float(u.sum())
    z = riemann_zeta(1.0 + d)
    tail_hi = (K ** (-d) / d) / z  # integral from K
    tail_lo = ((K + 1) ** (-d) / d) / z
    assert 1.0 - tail_hi - 1e-9 <= partial <= 1.0 - tail_lo + 1e-9


def test_ar_farima10_alpha_zero_degenerates():
    u10 = ar_coeffs(spec_of("farima10", 0.2, 0.0), 100)
    u00 = ar_coeffs(spec_of("farima00", 0.2), 100)
    assert np.array_equal(u10, u00)


@pytest.mark.parametrize(
    "family,gamma", [("farima00", (0.3,)), ("farima10", (0.3, 0.5)), ("lm", (0.3,))]
)
def test_spec_wrappers_equal_the_gamma_entry_points(family, gamma):
    spec = spec_of(family, *gamma)
    assert np.array_equal(ar_coeffs(spec, 300), ar_coeffs_gamma(family, gamma, 300))
    assert np.array_equal(dar_coeffs(spec, 300), dar_coeffs_gamma(family, gamma, 300))
    # a 1-D array of d gives one row per d, each its one-d call bit for bit
    ds = np.array([gamma[0], 0.011, 0.489, 0.9] + ([-0.4] if family != "lm" else []))
    rows = ar_coeffs_gamma(family, (ds, *gamma[1:]), 300)
    assert rows.shape == (ds.size, 300) and not rows.flags.writeable
    for d, row in zip(ds, rows):
        assert np.array_equal(row, ar_coeffs_gamma(family, (d, *gamma[1:]), 300))


def test_gamma_entry_points_keep_the_relaxed_domain():
    # fits may try d < 0, which ModelSpec rejects
    assert ar_coeffs_gamma("farima10", (-0.2, 0.5), 10).shape == (10,)
    assert dar_coeffs_gamma("farima00", (-0.2,), 10).shape == (1, 10)
    assert models.gamma_domain("farima10") == ((-0.5, 1.0), (-1.0, 1.0))
    assert models.gamma_domain("lm") == ((0.0, 1.0),)
    for ds, message in [
        (np.array([0.2, 0.0]), "d in \\(0, 1\\), got 0.0"),
        (np.array([0.2, np.nan]), "d in \\(0, 1\\), got nan"),
        (np.array([[0.2]]), "1-D"),
        (np.array([]), "1-D"),
    ]:
        with pytest.raises(ValueError, match=message):
            ar_coeffs_gamma("lm", (ds,), 10)
    with pytest.raises(ValueError, match="alpha in \\(-1, 1\\), got 1.0"):
        ar_coeffs_gamma("farima10", (np.array([0.2, 0.3]), 1.0), 10)
    # only the AR-weight engine takes many d at once
    with pytest.raises(TypeError):
        dar_coeffs_gamma("lm", (np.array([0.2, 0.3]),), 10)
    bad_args = [
        ("lm", (-0.2,), 10),
        ("farima00", (1.0,), 10),
        ("farima10", (0.2,), 10),  # wrong gamma length
        ("farima00", (0.2,), -1),
    ]
    for bad in bad_args:
        with pytest.raises(ValueError):
            ar_coeffs_gamma(*bad)
        with pytest.raises(ValueError):
            dar_coeffs_gamma(*bad)


def test_coeffs_do_not_depend_on_sigma2():
    a1 = ma_coeffs(spec_of("farima00", 0.2, sigma2=1.0), 64)
    a2 = ma_coeffs(spec_of("farima00", 0.2, sigma2=400.0), 64)
    u1 = ar_coeffs(spec_of("lm", 0.2, sigma2=1.0), 64)
    u2 = ar_coeffs(spec_of("lm", 0.2, sigma2=25.0), 64)
    assert np.array_equal(a1, a2)
    assert np.array_equal(u1, u2)


# ---------------------------------------------------------------------------
# Derivatives of the AR coefficients
# ---------------------------------------------------------------------------


def test_dar_lm_analytic_values():
    d = 0.2
    du = dar_coeffs(spec_of("lm", d), 10)
    z = riemann_zeta(1.0 + d)
    zp = riemann_zeta(1.0 + d, order=1)
    # n = 1: log term vanishes
    assert du[0, 0] == pytest.approx(-zp / z**2, rel=1e-12)


def test_dar_lm_matches_finite_difference():
    d, h = 0.2, 1e-6
    du = dar_coeffs(spec_of("lm", d), 10)
    up = ar_coeffs(spec_of("lm", d + h), 10)
    um = ar_coeffs(spec_of("lm", d - h), 10)
    fd = (up - um) / (2.0 * h)
    assert np.allclose(du[0], fd, atol=1e-6)


def test_dar_farima00_u1_derivative_is_one():
    du = dar_coeffs(spec_of("farima00", 0.3), 5)
    assert du[0, 0] == pytest.approx(1.0, abs=1e-9)  # u_1 = d


@pytest.mark.parametrize("family,gamma", [("farima00", (0.35,)), ("farima10", (0.15, 0.6))])
def test_dar_matches_finite_difference_grid(family, gamma):
    h = 1e-6
    du = dar_coeffs(spec_of(family, *gamma), 50)
    for j in range(len(gamma)):
        gp = list(gamma)
        gm = list(gamma)
        gp[j] += h
        gm[j] -= h
        fd = (ar_coeffs(spec_of(family, *gp), 50) - ar_coeffs(spec_of(family, *gm), 50)) / (2 * h)
        assert np.allclose(du[j], fd, atol=2e-5)


@pytest.mark.parametrize("alpha", [None, 0.5, -0.9])
@pytest.mark.parametrize("d", [-0.249, 0.0, 0.3, 0.749])
def test_dar_farima_matches_complex_step(d, alpha):
    K, h = 2000, 1e-30
    gamma = (d,) if alpha is None else (d, alpha)
    family = Family.FARIMA00 if alpha is None else Family.FARIMA10
    du = dar_coeffs_gamma(family, gamma, K)
    i = np.arange(1.0, K + 1)
    for j in range(len(gamma)):
        # u = -(coefficients of (1 - z)^d (1 - alpha z))[1:], in complex arithmetic
        g = [complex(v) for v in gamma]
        g[j] += 1j * h
        pi = np.concatenate([[1.0 + 0j], np.cumprod((i - 1.0 - g[0]) / i)])
        if alpha is not None:
            pi[1:] = pi[1:] - g[1] * pi[:-1]
        ref = -pi[1:].imag / h
        # the derivative in d changes sign once, so scale the absolute floor
        np.testing.assert_allclose(du[j], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# Series inversion
# ---------------------------------------------------------------------------


def test_invert_identity_series():
    assert np.array_equal(invert_series([1.0, 0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])


def test_invert_geometric_series():
    alpha = 0.37
    b = invert_series([1.0, -alpha, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(b, alpha ** np.arange(6), rtol=1e-14)


def test_invert_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        invert_series([0.0, 1.0])


@pytest.mark.parametrize("alpha", [-0.9, 0.5, 0.95])
def test_farima10_ma_weights_match_ar1_filter(alpha):
    # reference: psi filtered by 1 / (1 - alpha z) as a recursion
    from scipy.signal import lfilter

    K = 30_000
    psi = ma_coeffs(spec_of("farima00", 0.3), K)
    ref = lfilter([1.0], [1.0, -alpha], psi)
    assert np.max(np.abs(ma_coeffs(spec_of("farima10", 0.3, alpha), K) - ref)) <= 2e-15


@pytest.mark.parametrize(
    "family,gamma",
    [("farima00", (0.3,)), ("farima10", (0.2, 0.5)), ("farima10", (0.4, -0.7)), ("lm", (0.15,))],
)
def test_ar_polynomial_times_ma_is_identity(family, gamma):
    s = spec_of(family, *gamma)
    prod = np.convolve(np.r_[1.0, -ar_coeffs(s, 200)], ma_coeffs(s, 200))[:201]
    expect = np.zeros(201)
    expect[0] = 1.0
    assert np.max(np.abs(prod - expect)) < 1e-10


@given(
    st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=1, max_size=12),
    st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_invert_series_round_trip_property(tail, c0):
    c = np.array([c0] + tail)
    b = invert_series(c)
    prod = np.convolve(c, b)[: c.size]
    expect = np.zeros(c.size)
    expect[0] = 1.0
    # the inverse can grow geometrically when c has roots inside the unit
    # disk; scale the tolerance by the cancellation actually involved
    scale = 1.0 + np.max(np.abs(c)) * float(np.sum(np.abs(b)))
    assert np.allclose(prod, expect, atol=1e-12 * scale)


def _invert_series_reference(c):
    # O(K^2) recursion b_k = -sum_{j=1..k} c_j b_{k-j} / c_0
    c = np.asarray(c, dtype=float)
    b = np.empty(c.size)
    b[0] = 1.0 / c[0]
    for k in range(1, c.size):
        b[k] = -np.dot(c[1 : k + 1], b[k - 1 :: -1]) / c[0]
    return b


@pytest.mark.parametrize("d", [0.011, 0.25, 0.489, 0.9])
def test_invert_series_matches_recursion_on_lm_polynomials(d):
    # built inline: d = 0.9 lies outside the ModelSpec domain
    k = np.arange(1.0, 12_001)
    c = np.concatenate([[1.0], -(k ** (-1.0 - d)) / riemann_zeta(1.0 + d)])
    ref = _invert_series_reference(c)
    assert np.all(ref > 0.0)  # renewal sequence: relative error is well defined
    assert np.max(np.abs(invert_series(c) / ref - 1.0)) <= 1e-9


@pytest.mark.parametrize(
    "c",
    [
        [2.5],
        [1.0, 0.4],
        [1.0, -0.3, 0.2],
        [1.0, 0.5, -0.25, 0.125, 0.3, -0.1, 0.05],  # length 7, not a power of two
        [-3.0, 1.2, 0.7, -0.4, 0.9],  # c_0 != 1
    ],
)
def test_invert_series_edge_cases_match_recursion(c):
    b = invert_series(c)
    assert b.shape == (len(c),)
    assert np.allclose(b, _invert_series_reference(c), rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# Convolution identity (the AR/MA correspondence)
# ---------------------------------------------------------------------------


def conv_identity_gap(spec, K=500):
    a = ma_coeffs(spec, K)
    u = ar_coeffs(spec, K)
    # sum_{j=0}^{k-1} u_{k-j} a_j - a_k for k = 1..K
    lhs = np.convolve(np.concatenate([[0.0], u]), a)[1 : K + 1]
    return float(np.max(np.abs(lhs - a[1:])))


@pytest.mark.parametrize("family,gamma", [("farima00", (0.2,)), ("farima10", (0.3, 0.9)), ("lm", (0.4,))])
def test_convolution_identity_spot_checks(family, gamma):
    assert conv_identity_gap(spec_of(family, *gamma)) < 1e-10


@given(st.floats(min_value=0.02, max_value=0.48), st.floats(min_value=-0.95, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_convolution_identity_property(d, alpha):
    assert conv_identity_gap(spec_of("farima10", d, alpha), K=120) < 1e-10


# ---------------------------------------------------------------------------
# Partial sums and tail exponents
# ---------------------------------------------------------------------------


def test_partial_sums_increase_to_one():
    for family, gamma in [("farima00", (0.3,)), ("lm", (0.2,))]:
        u = ar_coeffs(spec_of(family, *gamma), 10**5)
        assert np.all(u > 0)
        partial = np.cumsum(u)
        assert np.all(np.diff(partial) > 0)
        assert partial[-1] < 1.0
        assert partial[-1] > 0.9 * (1.0 - partial.size ** -gamma[0])


def test_partial_sum_decay_rate():
    # |U_K - 1| <= C K^(-d + 0.05) with C fitted at K = 100
    d = 0.3
    u = ar_coeffs(spec_of("farima00", d), 10**5)
    gap = np.abs(1.0 - np.cumsum(u))
    ks = 10 ** np.arange(2, 6)
    C = gap[ks[0] - 1] / ks[0] ** (-d + 0.05)
    assert np.all(gap[ks - 1] <= C * ks ** (-d + 0.05))


def test_farima10_partial_sums_converge():
    # |U_K - 1| -> 0 like K^(-d): gap shrinks by ~10^(-d) per decade of K
    d = 0.2
    u = ar_coeffs(spec_of("farima10", d, 0.5), 10**5)
    gap = np.abs(1.0 - np.cumsum(u))
    for K in (10**3, 10**4):
        assert gap[10 * K - 1] / gap[K - 1] == pytest.approx(10.0**-d, rel=0.05)
    assert gap[-1] < 0.05


@pytest.mark.parametrize("family,gamma", [("farima00", (0.2,)), ("lm", (0.35,)), ("farima10", (0.25, 0.5))])
def test_u_tail_exponent(family, gamma):
    u = ar_coeffs(spec_of(family, *gamma), 10**4)
    k = np.arange(100, 10**4 + 1)
    slope = np.polyfit(np.log(k), np.log(u[99:]), 1)[0]
    assert slope == pytest.approx(-(1.0 + gamma[0]), abs=0.02)


@pytest.mark.parametrize(
    "family,gamma",
    [
        ("farima00", (0.2,)),
        ("farima00", (0.45,)),
        ("farima10", (0.2, 0.5)),
        ("farima10", (0.3, -0.6)),
        ("lm", (0.1,)),
        ("lm", (0.3,)),
    ],
)
def test_ar_and_ma_constants_multiply_to_d_sin_pi_d_over_pi(family, gamma):
    # the paper's first result: u_k ~ c_u k^(-1-d) and a_k ~ c_a k^(d-1)
    # with c_u c_a = d sin(pi d) / pi, read here at k = 200,000; LM at
    # d = 0.3 is the slowest, at 3.3e-5
    k = 200_000
    d = gamma[0]
    spec = spec_of(family, *gamma)
    c_u = ar_coeffs(spec, k)[k - 1] * k ** (1.0 + d)
    c_a = ma_coeffs(spec, k)[k] * k ** (1.0 - d)
    assert c_u * c_a == pytest.approx(d * math.sin(math.pi * d) / math.pi, rel=1e-4)


# ---------------------------------------------------------------------------
# Autocovariance
# ---------------------------------------------------------------------------


def test_autocov_variance_is_positive_and_matches_ma_sum():
    for family, gamma in [("farima00", (0.3,)), ("farima10", (0.2, 0.5)), ("lm", (0.25,))]:
        s = spec_of(family, *gamma, sigma2=4.0)
        r0 = autocovariance(s, 0)[0]
        assert r0 > 0
        a = ma_coeffs(s, 2000)
        assert r0 > 4.0 * float(np.dot(a, a)) - 1e-9  # truncated sum is a lower bound


def test_autocov_farima00_lag_one_ratio():
    s = spec_of("farima00", 0.3)
    r = autocovariance(s, 1)
    assert r[1] / r[0] == pytest.approx(3.0 / 7.0, rel=1e-12)
    # cross-check against the truncated-convolution route
    conv = _autocov_by_convolution(Family.FARIMA00, (0.3,), 1, K=20_000)
    assert conv[1] / conv[0] == pytest.approx(3.0 / 7.0, rel=1e-8)


def test_autocov_scales_with_sigma2():
    r1 = autocovariance(spec_of("farima00", 0.2, sigma2=1.0), 10)
    r4 = autocovariance(spec_of("farima00", 0.2, sigma2=4.0), 10)
    assert np.allclose(r4, 4.0 * r1, rtol=1e-14)


def test_autocov_hyperbolic_decay_constant():
    # r(k) k^(1-2d) approaches a positive constant over k in [1e3, 1e4]
    s = spec_of("farima00", 0.2)
    r = autocovariance(s, 10**4)
    k = np.arange(10**3, 10**4 + 1)
    scaled = r[k] * k ** (1.0 - 2.0 * 0.2)
    assert np.all(scaled > 0)
    assert np.ptp(scaled) / np.mean(scaled) < 0.01
    slope = np.polyfit(np.log(k), np.log(r[k]), 1)[0]
    assert slope == pytest.approx(2.0 * 0.2 - 1.0, abs=0.01)


def test_autocov_convolution_route_matches_closed_form():
    # small desk version of the full validation in the acceptance suite
    for d in (0.1, 0.45):
        conv = _autocov_by_convolution(Family.FARIMA00, (d,), 50, K=20_000)
        closed = autocovariance(spec_of("farima00", d), 50)
        assert np.max(np.abs(conv - closed)) / closed[0] < 1e-8
    # the size asymptotic_covariance asks for: the tail correction must hold
    # between lags too, not only at a few nodes
    for d in (0.1, 0.45, 0.489):
        conv = _autocov_by_convolution(Family.FARIMA00, (d,), 19_999)
        closed = autocovariance(spec_of("farima00", d), 19_999)
        assert np.max(np.abs(conv - closed)) / closed[0] < 1e-9, d


def _exponents(table, d):
    # beta[m, q] = (d - 1)(m + 1) - q, the power of i that table[m, q] multiplies
    m, q = np.indices(table.shape)
    return (d - 1.0) * (m + 1) - q


@pytest.mark.parametrize("family", ["farima00", "lm"])
@pytest.mark.parametrize("d", [0.011, 0.2, 0.489])
def test_tail_rules_match_scipy_and_mpmath(family, d):
    # every rule _tail_corrections builds: weight t^(-2-e) on (0, 1) for each
    # exponent sum e = (d - 1)(s + 2) of two rows s apart.  scipy's
    # roots_sh_jacobi maps its nodes from (-1, 1) and so loses up to 5e-13
    # relative at the smallest of them; the exact zeros come from mpmath
    from scipy.special import roots_sh_jacobi

    mp = pytest.importorskip("mpmath")
    rows = _weight_expansion(Family(family), d).shape[0]
    exponents = (d - 1.0) * np.arange(2.0, 2 * rows + 1)
    for e, t, w in zip(exponents, *_power_weight_rules(-2.0 - exponents)):
        ref_t, ref_w = roots_sh_jacobi(models._TAIL_NODES, -1.0 - e, -1.0 - e)
        assert np.all(np.abs(w - ref_w) <= 1e-10 * ref_w), e
        assert np.all(np.abs(t - ref_t) <= 1e-12 * ref_t), e
        with mp.workdps(30):
            c = mp.mpf(-2.0 - e)
            exact = [mp.findroot(lambda x: mp.jacobi(t.size, 0, c, 2 * x - 1), v) for v in ref_t]
        exact = np.array(exact, dtype=float)
        assert np.all(np.abs(t - exact) <= 1e-13 * exact), e


@pytest.mark.parametrize("family, gamma", [("lm", (0.489,)), ("farima00", (0.489,))])
def test_tail_corrections_match_per_lag_quadrature(family, gamma):
    # reference: adaptive quadrature of the tail integral of the multi-term
    # expansion psi_i = sum C[m, q] i^beta[m, q] at each lag, on x = L/t with
    # L = Ka - k + 1/2, plus the Euler-Maclaurin term f'(L)/24 of the
    # midpoint rule for the sum over i > Ka - k
    maxlag = 4096
    Ka = maxlag + 10_000
    table = _weight_expansion(Family(family), gamma[0])
    C, beta = table.ravel(), _exponents(table, gamma[0]).ravel()
    tail = _tail_corrections(table, gamma[0], Ka, maxlag)
    a = _ma_coeffs_gamma(Family(family), gamma, Ka)
    r0 = float(a @ a) + tail[0]
    for k in (0, 1, 8, 3940, 4096):
        L = Ka - k + 0.5

        def integrand(t):
            x = L / t
            psi_x = sum(c * x**b for c, b in zip(C, beta))
            psi_xk = sum(c * (x + k) ** b for c, b in zip(C, beta))
            return psi_x * psi_xk * L / t**2

        ref, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=400)
        psi = [np.sum(C * x**beta) for x in (L, L + k)]
        dpsi = [np.sum(C * beta * x ** (beta - 1.0)) for x in (L, L + k)]
        ref += (dpsi[0] * psi[1] + psi[0] * dpsi[1]) / 24.0
        assert abs(tail[k] - ref) <= 1e-10 * r0, k


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45, 0.489])
def test_lm_ma_weights_match_singular_expansion(d):
    # the three leading terms (q = 0, m <= 2) of the LM weights' expansion
    # against the weights far out; the first term alone is 3e-6 to 1.2e-4
    # off at i = 10^5
    i = 100_000
    psi = ma_coeffs(spec_of("lm", d), 2**17)[i]
    C, beta = _weight_expansion(Family.LM, d)[:3, 0], (d - 1.0) * np.arange(1.0, 4.0)
    assert np.sum(C * float(i) ** beta) == pytest.approx(psi, rel=1e-9)


def _lm_ma_reference(d, K):
    # the O(K^2) recursion a_n = sum_(k=1..n) u_k a_(n-k) in long double, on
    # u_k = k^(-1-d) / zeta(1+d) with zeta from mpmath: the weights' rounding
    # to double alone moves the far a_n by up to 3e-14 relative
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        zeta = np.longdouble(str(mp.zeta(1 + mp.mpf(d))))
    k = np.arange(1, K + 1, dtype=np.longdouble)
    u = k ** (-1 - np.longdouble(d)) / zeta
    a = np.empty(K + 1, dtype=np.longdouble)
    a[0] = 1.0
    for n in range(1, K + 1):
        a[n] = np.dot(u[:n], a[n - 1 :: -1])
    return a.astype(float)


@pytest.mark.parametrize("d", [0.011, 0.25, 0.489])
def test_lm_far_weights_match_long_double_recursion(d):
    # past the inverted head, every weight comes from the complete singular
    # expansion; its largest relative error was 6e-15, at d = 0.25 next to
    # the head, where full Newton inversion was 4e-11 off at d = 0.011
    K = 12_000
    head = models._LM_HEAD
    a = ma_coeffs(spec_of("lm", d), K)
    ref = _lm_ma_reference(d, K)
    assert np.max(np.abs(a[head + 1 :] / ref[head + 1 :] - 1.0)) <= 1e-14
    # the head is series inversion, which rounds relative to a_0 = 1
    assert np.max(np.abs(a[: head + 1] - ref[: head + 1])) <= 1e-15


@pytest.mark.parametrize("d", [0.011, 0.1, 0.25, 1.0 / 3.0, 0.45, 0.489])
def test_lm_expansion_leading_constant_is_the_paper_result(d):
    # the paper's first result in closed form: u_k = c_u k^(-1-d) with
    # c_u = 1/zeta(1+d), and a_k ~ C[0, 0] k^(d-1), so c_u C[0, 0] = d sin(pi d)/pi
    C00 = _weight_expansion(Family.LM, d)[0, 0]
    assert C00 / riemann_zeta(1.0 + d) == pytest.approx(d * math.sin(math.pi * d) / math.pi, rel=1e-14)


def _lm_autocovariance_reference(d, maxlag, lags):
    # the route before the expansion took over: the MA weights Newton-inverted
    # to K = maxlag + 10,000, FFT autocorrelation, and the tail of the same
    # expansion at each lag, with one Gauss rule per pair of terms
    Ka = maxlag + 10_000
    a = invert_series(np.r_[1.0, -ar_coeffs_gamma(Family.LM, (d,), Ka)])
    N = models.fast_length(Ka + 1 + maxlag)
    A = np.fft.rfft(a, N)
    r = np.fft.irfft(np.abs(A) ** 2, N)[lags]
    table = _weight_expansion(Family.LM, d)
    m, q = np.nonzero(table)
    C, beta = table[m, q], (d - 1.0) * (m + 1) - q
    p, s = (v.ravel() for v in np.meshgrid(np.arange(C.size), np.arange(C.size)))
    e = beta[p] + beta[s]
    L = Ka - lags + 0.5
    tail = np.zeros(lags.size)
    for j, (t, w) in enumerate(zip(*_power_weight_rules(-2.0 - e))):
        tail += C[p[j]] * C[s[j]] * L ** (e[j] + 1.0) * ((1.0 + np.outer(lags / L, t)) ** beta[s[j]] @ w)

    def psi(x, order):
        return (C * beta**order * x[:, np.newaxis] ** (beta - order)).sum(axis=1)

    tail += (psi(L, 1) * psi(L + lags, 0) + psi(L, 0) * psi(L + lags, 1)) / 24.0
    return r + tail


@pytest.mark.parametrize("maxlag, tol", [(999, 1e-13), (2048, 1e-13), (4096, 1e-13), (19_999, 1e-12)])
@pytest.mark.parametrize("d", [0.011, 0.25, 1.0 / 3.0, 0.489])
def test_lm_autocovariance_matches_full_inversion_and_per_lag_tail(d, maxlag, tol):
    # the head-plus-expansion weights, the shorter sum and the tail
    # interpolated from Chebyshev lags against the full inversion with a
    # per-lag tail: within 7e-15 of r(0) when written
    lags = np.unique(np.r_[np.linspace(0, maxlag, 97).round(), 1, maxlag - 1]).astype(int)
    r = autocovariance(spec_of("lm", d), maxlag)
    ref = _lm_autocovariance_reference(d, maxlag, lags)
    assert np.max(np.abs(r[lags] - ref)) <= tol * r[0]


@pytest.mark.parametrize("d", [0.011, 0.25, 0.489])
def test_lm_tail_matches_hurwitz_zeta_sums(d):
    # at lag 0 the tail is sum_(p,q) C_p C_q zeta(-beta_p - beta_q, Ka + 1)
    # exactly (Hurwitz zeta); the midpoint rule alone was 4e-11 of r(0) off
    mp = pytest.importorskip("mpmath")
    table = _weight_expansion(Family.LM, d)
    beta = _exponents(table, d)
    sums = {}
    for cp, bp in zip(table.ravel(), beta.ravel()):
        for cq, bq in zip(table.ravel(), beta.ravel()):
            sums[bp + bq] = sums.get(bp + bq, 0.0) + cp * cq
    r0 = autocovariance(spec_of("lm", d), 0)[0]
    for Ka in (1_000, 12_000):
        with mp.workdps(20):
            exact = float(sum(c * mp.zeta(-e, Ka + 1) for e, c in sums.items() if c != 0.0))
        assert abs(_tail_corrections(table, d, Ka, 0)[0] - exact) <= 1e-13 * r0, Ka


def test_lm_autocovariance_where_rgamma_has_a_pole():
    # at d = 1/3 every term with an integer exponent gamma = m + q - (m+1) d
    # holds 1/Gamma(-gamma) = 0, the third leading one among them; at d = 1/2
    # the second leading one
    from scipy.special import gamma, rgamma, zeta

    d, maxlag = 1.0 / 3.0, 2048
    r = autocovariance(spec_of("lm", d), maxlag)
    assert np.all(np.isfinite(r))
    table = _weight_expansion(Family.LM, d)
    g = -1.0 - _exponents(table, d)
    integer = np.abs(g - np.round(g)) < 1e-9
    assert integer.sum() >= 3 and np.all(table[integer] == 0.0)
    # the three leading terms from scipy's special functions
    a, b = gamma(1.0 - d) / (d * zeta(1.0 + d)), zeta(d) / zeta(1.0 + d)
    j = np.arange(1.0, 4.0)
    C_ref = (-b) ** (j - 1.0) / a**j * rgamma(j * (d - 1.0) + 1.0)
    C = table[:3, 0]
    assert C[2] == 0.0 and np.all(np.abs(C - C_ref) <= 1e-13 * np.abs(C_ref))
    swapped = table.copy()
    swapped[:3, 0] = C_ref
    Ka = maxlag + 1_000
    ref = r - _tail_corrections(table, d, Ka, maxlag) + _tail_corrections(swapped, d, Ka, maxlag)
    assert np.all(np.abs(r - ref) <= 1e-13 * r[0])
    assert _weight_expansion(Family.LM, 0.5)[1, 0] == 0.0


def test_fast_length_is_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    n = range(1, 60_000)
    assert [models.fast_length.__wrapped__(m) for m in n] == [next_fast_len(m, real=True) for m in n]


def test_coefficient_tables_are_readonly():
    for spec in (spec_of("farima00", 0.2), spec_of("farima10", 0.2, 0.5), spec_of("lm", 0.2)):
        for table in (
            ma_coeffs(spec, 32),
            ar_coeffs(spec, 32),
            dar_coeffs(spec, 32),
            autocovariance(spec, 32),
        ):
            with pytest.raises(ValueError):
                table[0] = 2.0


def _autocovariance_by_quadrature(family, gamma, k: int) -> float:
    """r(k) = (1/pi) int_0^pi h(lambda) cos(k lambda) d lambda on the exact
    spectral shape, with the lambda^(-2d) pole taken into the QAWS weight."""
    d = gamma[0]

    def smooth(lam):
        lam = max(lam, 1e-300)  # QAWS may sample the endpoint; h lam^(2d) is finite there
        h = _shape_function(Family(family), np.array([lam]))(gamma)[0]
        return h * lam ** (2.0 * d) * math.cos(k * lam)

    val, _ = quad(
        smooth, 0.0, math.pi, weight="alg", wvar=(-2.0 * d, 0.0), epsabs=1e-13, epsrel=1e-12, limit=400
    )
    return val / math.pi


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45, 0.489])
def test_lm_autocovariance_matches_spectral_quadrature(d):
    # the error is the same fraction of r(0) at lags 0, 1, 10 and 100, so
    # two lags stand for all of them
    r = autocovariance(spec_of("lm", d), 2048)
    for k in (0, 10):
        assert abs(r[k] - _autocovariance_by_quadrature("lm", (d,), k)) <= 1e-10 * r[0], k


@pytest.mark.parametrize("d, alpha", [(0.45, 0.95), (0.3, 0.99), (0.489, -0.9)])
def test_farima10_autocovariance_matches_spectral_quadrature(d, alpha):
    r = autocovariance(spec_of("farima10", d, alpha), 64)
    for k in (0, 1, 64):
        ref = _autocovariance_by_quadrature("farima10", (d, alpha), k)
        assert abs(r[k] - ref) <= 1e-10 * r[0], k


@pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
def test_farima10_autocovariance_at_alpha_zero_is_farima00(d):
    r10 = autocovariance(spec_of("farima10", d, 0.0), 4096)
    r00 = autocovariance(spec_of("farima00", d), 4096)
    assert np.max(np.abs(r10 - r00)) <= 1e-14 * r00[0]


def test_farima10_autocovariance_rejects_alpha_too_close_to_one():
    spec = spec_of("farima10", 0.3, 0.99999, gamma_bounds=((0.01, 0.49), (-0.999999, 0.999999)))
    with pytest.raises(ValueError, match="alpha"):
        autocovariance(spec, 16)


def test_farima10_autocovariance_builds_no_ma_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("FARIMA10 autocovariance built an MA table")

    monkeypatch.setattr(models, "_ma_coeffs_gamma", forbidden)
    r = autocovariance(spec_of("farima10", 0.3, 0.95), 4096)
    assert np.all(np.isfinite(r))
