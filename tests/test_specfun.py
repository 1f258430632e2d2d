import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.specfun import (
    ZETA_SERIES_TERMS,
    digamma,
    gauss_rule,
    rgamma,
    riemann_zeta,
    zeta_series,
)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.7, 50.0])
def test_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    assert rgamma(x) / rgamma(x + 1.0) == pytest.approx(x, rel=1e-10)


# rgamma's domain ends below 171, where Gamma overflows
@given(st.floats(min_value=1e-3, max_value=169.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence_property(x):
    assert rgamma(x) / rgamma(x + 1.0) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("d", np.linspace(0.02, 0.48, 12).tolist())
def test_gamma_reflection(d):
    # Gamma(d) Gamma(1-d) = pi / sin(pi d)
    lhs = rgamma(d) * rgamma(1.0 - d)
    assert lhs == pytest.approx(math.sin(math.pi * d) / math.pi, rel=1e-10)


def test_zeta_basel():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_zeta_direct_summation_oracle():
    # Brute-force partial sum S(N) of n^(-1.5) up to N = 1e8, computed once by
    # chunked summation and frozen here.  The tail sum_{n>N} n^(-1.5) is
    # bracketed by the integrals over [N, inf) and [N+1, inf), so zeta(1.5)
    # must land inside [S + 2/sqrt(N+1), S + 2/sqrt(N)].
    S = 2.6121753486859904
    N = 10**8
    val = riemann_zeta(1.5)
    assert S + 2.0 / math.sqrt(N + 1) - 1e-11 <= val <= S + 2.0 / math.sqrt(N) + 1e-11


def test_zeta_partial_sum_live():
    # same oracle at a size that is cheap to recompute on every run
    N = 10**6
    n = np.arange(1, N + 1, dtype=float)
    S = float((1.0 / (n * np.sqrt(n))).sum())
    val = riemann_zeta(1.5)
    assert S + 2.0 / math.sqrt(N + 1) - 1e-9 <= val <= S + 2.0 / math.sqrt(N) + 1e-9


def test_zeta_first_derivative_finite_difference():
    h = 1e-6
    fd = (riemann_zeta(1.3 + h) - riemann_zeta(1.3 - h)) / (2.0 * h)
    assert riemann_zeta(1.3, order=1) == pytest.approx(fd, abs=5e-8)


def test_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in [1.001, 1.01, 1.1, 1.25, 1.5, 1.75, 2.0]:
        for order in (0, 1):
            ref = float(mp.zeta(s, derivative=order))
            # 1e-10 absolute, loosened by a few ulps where the value blows up
            tol = max(1e-10, 5e-13 * abs(ref))
            assert abs(riemann_zeta(s, order) - ref) <= tol, (s, order)


def test_zeta_monotone_and_limit():
    grid = np.linspace(1.05, 2.0, 40)
    vals = [riemann_zeta(s) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)


@pytest.mark.parametrize("s", [0.011, 0.3, 0.489, -3.7, -47.7])
def test_zeta_derivative_below_one_against_mpmath(s):
    # the strip 0 < s < 1 by Euler-Maclaurin, s < 0 by the functional equation
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = float(mp.zeta(s, derivative=1))
    assert riemann_zeta(s, order=1) == pytest.approx(ref, rel=1e-12)


def test_zeta_trivial_zeros_are_exact():
    assert np.array_equal(riemann_zeta(np.array([-2.0, -4.0, -46.0])), [0.0, 0.0, 0.0])
    # zeta'(-2) = -zeta(3) / (4 pi^2)
    zeta3 = 1.2020569031595942
    assert riemann_zeta(-2.0, order=1) == pytest.approx(-zeta3 / (4.0 * math.pi**2), rel=1e-13)


def test_zeta_vectorized_matches_scalar():
    s = 1.3 - np.arange(50.0)
    for order in (0, 1):
        vec = riemann_zeta(s, order)
        assert vec.shape == s.shape
        np.testing.assert_allclose(vec, [riemann_zeta(float(x), order) for x in s], rtol=1e-15)


def test_zeta_domain_errors():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        riemann_zeta(float("nan"))
    with pytest.raises(ValueError):
        riemann_zeta(1.5, order=2)


def test_zeta_table_against_mpmath():
    # every row k < 50 of the table, whole or one row at a time, on a grid
    # that reaches both ends of [0, 1] and the default bounds of d
    mp = pytest.importorskip("mpmath")
    grid = np.r_[0.001, 0.011, np.linspace(0.02, 0.98, 25), 0.489, 0.999]
    with mp.workdps(30):
        for d in grid:
            ref = np.array([float(mp.zeta(1 + mp.mpf(d) - k)) for k in range(ZETA_SERIES_TERMS)])
            rows = zeta_series(d)
            assert np.all(np.abs(rows - ref) <= 1e-13 * np.abs(ref)), d
            one = [zeta_series(d, k) for k in range(ZETA_SERIES_TERMS)]
            assert np.all(np.abs(np.array(one) - ref) <= 1e-13 * np.abs(ref)), d


def test_zeta_table_rows_take_arrays_of_d():
    d = np.array([[0.011], [0.3], [0.489]])
    for k in (0, 1, 2, 3, 48):
        row = zeta_series(d, k)
        assert row.shape == d.shape
        np.testing.assert_array_equal(row.ravel(), [zeta_series(float(v), k) for v in d.ravel()])


def test_zeta_below_the_table_against_mpmath():
    # s < -48 and s >= 2 are summed, not read from the table
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s in (-48.5, -49.0 + 1e-3, 2.0, 2.5, 7.0, 50.0):
            ref = float(mp.zeta(s))
            assert riemann_zeta(s) == pytest.approx(ref, rel=1e-13), s


def _library_digamma_arguments() -> np.ndarray:
    # psi(-d) in the LM score, and psi(1 - t) in zeta' below s = -1/2, at
    # t = 1 + d - k for the polylogarithm series
    d = np.linspace(0.001, 0.999, 61)
    t = (1.0 + d[:, np.newaxis] - np.arange(ZETA_SERIES_TERMS)).ravel()
    return np.r_[-d, 1.0 - t[t < -0.5]]


def test_digamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    x = _library_digamma_arguments()
    ours = digamma(x)
    with mp.workdps(30):
        ref = np.array([float(mp.digamma(v)) for v in x])
    assert np.all(np.abs(ours - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    assert digamma(float(x[0])) == ours[0]


def test_digamma_domain_errors():
    for x in (0.0, -1.0, -1.5, [0.5, 0.0]):
        with pytest.raises(ValueError):
            digamma(x)


def test_rgamma_and_log_gamma_match_scipy_poles_included():
    from scipy.special import gammaln
    from scipy.special import rgamma as scipy_rgamma

    x = np.r_[np.arange(-6.0, 6.01, 0.25), -2.0 / 3.0, -1.0 + 1e-9, 1e-12, 40.5]
    ours = rgamma(x)
    ref = scipy_rgamma(x)
    poles = (x <= 0.0) & (x == np.round(x))
    assert poles.sum() == 7 and np.all(ours[poles] == 0.0)
    assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref))
    assert rgamma(-3.0) == 0.0 and rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    positive = x[x > 0.0]
    log_gamma = -np.log(rgamma(positive))
    assert np.all(np.abs(log_gamma - gammaln(positive)) <= 1e-14 * np.maximum(1.0, np.abs(gammaln(positive))))


# ---------------------------------------------------------------------------
# Gauss rules from a three-term recurrence
# ---------------------------------------------------------------------------


def test_gauss_rule_matches_scipy_laguerre_rule():
    # the 80-node rule of the LM information matrix: orthonormal Laguerre
    # polynomials have diagonal 2k + 1 and off-diagonal k
    from scipy.special import roots_laguerre

    k = np.arange(80.0)
    x, w = gauss_rule(2.0 * k + 1.0, k[1:], 1.0)
    ref_x, ref_w = roots_laguerre(80)
    assert np.all(np.abs(x - ref_x) <= 1e-13 * ref_x)
    # the weights fall to 2e-128; their relative accuracy holds above 1e-100
    big = ref_w > 1e-100
    assert np.all(np.abs(w - ref_w)[big] <= 1e-10 * ref_w[big])
    assert np.all(w > 0.0)


def test_gauss_rule_integrates_polynomials_exactly():
    # n Legendre nodes on (-1, 1) integrate x^j exactly for j < 2n
    n = 6
    k = np.arange(1.0, n)
    x, w = gauss_rule(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    for j in range(2 * n):
        assert np.dot(w, x**j) == pytest.approx((1 + (-1) ** j) / (j + 1.0), abs=1e-14)
    assert gauss_rule([0.5], [], 3.0) == (pytest.approx([0.5]), pytest.approx([3.0]))


def test_gauss_rule_rejects_mismatched_coefficients():
    for diagonal, offdiagonal in [([], []), ([1.0, 2.0], []), ([1.0], [0.5])]:
        with pytest.raises(ValueError, match="off-diagonal"):
            gauss_rule(diagonal, offdiagonal, 1.0)
