import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.specfun import beta_fn, gauss_rule, log_gamma, riemann_zeta


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_matches_scipy_across_range():
    from scipy.special import gammaln

    x = np.geomspace(1e-3, 1e6, 400)
    ours = log_gamma(x)
    ref = gammaln(x)
    assert np.all(np.abs(ours - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_gamma_domain_error():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.2)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.7, 50.0])
def test_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    assert math.exp(log_gamma(x + 1.0) - log_gamma(x)) == pytest.approx(x, rel=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence_property(x):
    assert math.exp(log_gamma(x + 1.0) - log_gamma(x)) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("d", np.linspace(0.02, 0.48, 12).tolist())
def test_gamma_reflection(d):
    # Gamma(d) Gamma(1-d) = pi / sin(pi d)
    lhs = math.exp(log_gamma(d) + log_gamma(1.0 - d))
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * d), rel=1e-10)


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


def test_beta_known_values():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_log_gamma_identity():
    expected = math.exp(2.0 * log_gamma(0.7) - log_gamma(1.4))
    assert beta_fn(0.7, 0.7) == pytest.approx(expected, rel=1e-14)


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, -2.0)


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
