import importlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve, solve_toeplitz
from scipy.signal import fftconvolve

import longmem.estimate as estimate
from longmem.estimate import (
    asymptotic_covariance,
    blue_efficiency,
    blue_mean,
    blue_weights,
    fit_batch,
    fit_qmle,
    fit_whittle,
    fourier_frequencies,
    mean_clt_scale,
    periodogram,
    predictors,
    qmle_gradient,
    qmle_objective,
    quasi_loglik,
    spectral_density,
    standard_errors,
    truncated_predictor,
)
from longmem.models import ModelSpec, ar_coeffs, autocovariance, dar_coeffs, ma_coeffs
from longmem.simulate import GenConfig, Series, simulate, white_noise


def spec_of(family, *gamma, sigma2=1.0, **kw):
    return ModelSpec(family=family, gamma=tuple(gamma), sigma2=sigma2, **kw)


def sim(family, gamma, sigma2, n, seed, mu=0.0):
    return simulate(
        ModelSpec(family=family, gamma=gamma, sigma2=sigma2, mu=mu), n, GenConfig(seed=seed)
    )


# ---------------------------------------------------------------------------
# Truncated predictor and objective
# ---------------------------------------------------------------------------


def test_predictor_conventions():
    series = Series(values=white_noise(50, seed=2))
    assert truncated_predictor(series, "farima00", (0.3,), 1) == 0.0
    u1 = ar_coeffs(spec_of("farima00", 0.3), 1)[0]
    expected = u1 * series.values[0]
    assert truncated_predictor(series, "farima00", (0.3,), 2) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(IndexError):
        truncated_predictor(series, "farima00", (0.3,), 0)
    with pytest.raises(IndexError):
        truncated_predictor(series, "farima00", (0.3,), 51)


def test_predictor_brute_force_oracle():
    series = Series(values=white_noise(50, seed=11))
    u = ar_coeffs(spec_of("farima00", 0.3), 49)
    t = 50
    brute = 0.0
    for i in range(1, t):
        brute += u[i - 1] * series.values[t - i - 1]
    assert truncated_predictor(series, "farima00", (0.3,), t) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 257, 1000])
@pytest.mark.parametrize(
    "family,gamma",
    [("farima00", (0.3,)), ("farima10", (0.3, -0.6)), ("lm", (0.3,))],
    ids=["farima00", "farima10", "lm"],
)
def test_predictors_match_direct_sum(family, gamma, n):
    # the FFT product against the direct sum at every t; mhat_1 is exactly 0
    # in the sum, so FFT rounding there needs the absolute floor
    series = Series(values=white_noise(n, seed=n))
    fast = predictors(series.values, family, gamma)
    direct = np.array([truncated_predictor(series, family, gamma, t) for t in range(1, n + 1)])
    np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=1e-13 * np.max(np.abs(direct)))


def test_objective_zero_series():
    zeros = Series(values=np.zeros(40))
    for g in [(0.1,), (0.3,), (0.45,)]:
        assert qmle_objective(zeros, "farima00", g) == 0.0


def test_objective_scaling_homogeneity():
    series = sim("farima00", (0.25,), 2.0, 400, seed=5)
    scaled = Series(values=3.0 * series.values)
    for g in [(0.1,), (0.25,), (0.4,)]:
        s1 = qmle_objective(series, "farima00", g)
        s9 = qmle_objective(scaled, "farima00", g)
        assert s9 == pytest.approx(9.0 * s1, rel=1e-12)


def naive_objective(series, family, gamma):
    # independent evaluation: per-t coefficient lookup and explicit loops
    values = series.values
    n = values.size
    u = ar_coeffs(spec_of(family, *gamma), n - 1)
    total = 0.0
    for t in range(1, n + 1):
        mhat = 0.0
        for i in range(1, t):
            mhat += u[i - 1] * values[t - i - 1]
        total += (values[t - 1] - mhat) ** 2
    return total


def test_objective_matches_naive_reimplementation():
    series = sim("farima00", (0.3,), 4.0, 200, seed=9)
    for d in np.linspace(0.05, 0.45, 21):
        fast = qmle_objective(series, "farima00", (d,))
        slow = naive_objective(series, "farima00", (d,))
        assert abs(fast - slow) <= 1e-10 * max(1.0, slow)


# ---------------------------------------------------------------------------
# fit_qmle
# ---------------------------------------------------------------------------


def test_fit_qmle_recovers_d():
    series = sim("farima00", (0.2,), 4.0, 3000, seed=31)
    fit = fit_qmle(series, "farima00")
    assert fit.converged
    assert abs(fit.gamma_hat[0] - 0.2) < 0.05  # ~3x the n=3000 sqrt-MSE scale
    assert abs(fit.sigma2_hat - 4.0) < 0.5


def test_fit_qmle_location_robustness():
    # The infinite-past autoregression is exactly location-free; the truncated
    # predictor leaks mu * (1 - sum_{i<t} u_i) ~ mu t^(-d) into the residuals,
    # so the robustness band only holds for offsets that are small relative to
    # sigma (a 5-sigma offset moves d-hat by ~0.2 at n = 3000).
    series = sim("farima00", (0.2,), 4.0, 3000, seed=37)
    shifted = Series(values=series.values + 0.5)
    d0 = fit_qmle(series, "farima00").gamma_hat[0]
    d_off = fit_qmle(shifted, "farima00").gamma_hat[0]
    assert abs(d_off - d0) <= 0.02


def test_fit_qmle_sigma2_identity():
    series = sim("lm", (0.2,), 4.0, 500, seed=41)
    fit = fit_qmle(series, "lm")
    s = qmle_objective(series, "lm", fit.gamma_hat)
    assert fit.sigma2_hat == pytest.approx(s / series.n, rel=1e-12)
    assert fit.objective == pytest.approx(s, rel=1e-12)


def test_fit_qmle_scale_invariance():
    series = sim("farima00", (0.25,), 1.0, 800, seed=43)
    c = 5.0
    fit1 = fit_qmle(series, "farima00")
    fit2 = fit_qmle(Series(values=c * series.values), "farima00")
    assert fit2.gamma_hat[0] == pytest.approx(fit1.gamma_hat[0], abs=1e-10)
    assert fit2.sigma2_hat == pytest.approx(c**2 * fit1.sigma2_hat, rel=1e-10)


def test_fit_qmle_beats_grid_competitors_in_quasi_loglik():
    series = sim("farima00", (0.3,), 2.0, 600, seed=47)
    fit = fit_qmle(series, "farima00")
    best = quasi_loglik(series, "farima00", fit.gamma_hat, fit.sigma2_hat)
    for d in np.linspace(0.011, 0.489, 40):
        s2 = qmle_objective(series, "farima00", (d,)) / series.n
        assert best >= quasi_loglik(series, "farima00", (d,), s2) - 1e-9


def test_fit_qmle_small_n_warns():
    series = Series(values=white_noise(20, seed=3))
    with pytest.warns(UserWarning):
        fit_qmle(series, "farima00")


def test_fit_qmle_farima10_two_dimensional():
    series = sim("farima10", (0.2, 0.5), 4.0, 2000, seed=53)
    fit = fit_qmle(series, "farima10")
    assert fit.converged
    assert abs(fit.gamma_hat[0] - 0.2) < 0.15
    assert abs(fit.gamma_hat[1] - 0.5) < 0.15


@pytest.mark.parametrize(
    "fit,failing", [(fit_qmle, "d"), (fit_whittle, "d"), (fit_whittle, "alpha")]
)
def test_fit_farima10_converged_follows_scalar_search(monkeypatch, fit, failing):
    real = estimate._bounded_search
    d_bounds, alpha_bounds = estimate._fit_bounds("farima10", None)

    def failing_search(bounds, **kwargs):
        # the same search, reported as failed on the chosen coordinate only
        x, fun, nfev, success = yield from real(bounds, **kwargs)
        if tuple(bounds) == {"d": d_bounds, "alpha": alpha_bounds}[failing]:
            success = False
        return x, fun, nfev, success

    series = sim("farima10", (0.2, 0.5), 1.0, 500, seed=53)
    assert fit(series, "farima10").converged
    monkeypatch.setattr(estimate, "_bounded_search", failing_search)
    assert not fit(series, "farima10").converged


def _drive(fun, bounds, **options):
    # one port of the bounded search, driven serially
    search = estimate._bounded_search(bounds, **options)
    x = next(search)
    try:
        while True:
            x = search.send(fun(x))
    except StopIteration as stop:
        return stop.value


_SEARCH_CASES = {
    "interior": (lambda x: (x - 0.3) ** 2, (0.011, 0.489), {}),
    "lower-bound": (lambda x: x, (0.011, 0.489), {}),
    "upper-bound": (lambda x: -x, (0.011, 0.489), {}),
    "flat": (lambda x: 1.0, (0.011, 0.489), {}),
    "nan": (lambda x: math.nan, (0.011, 0.489), {}),
    "nan-beyond": (lambda x: math.nan if x > 0.6 else (x - 0.7) ** 2, (0.0, 1.0), {}),
    "maxiter": (lambda x: math.cos(10.0 * x), (-1.0, 2.0), {"maxiter": 5}),
    "quartic": (lambda x: (x - 0.25) ** 4, (0.011, 0.489), {}),
    "kink": (lambda x: abs(x - 0.4), (0.0, 1.0), {}),
    "multimodal": (lambda x: math.sin(20.0 * x) + x, (-1.0, 2.0), {}),
    "steps": (lambda x: math.floor(10.0 * x), (0.0, 1.0), {}),
    "tiny-scale": (lambda x: 1.0 + 1e-12 * (x - 0.5) ** 2, (0.0, 1.0), {}),
    "skewed": (lambda x: math.exp(x) * (x - 0.1) ** 2, (-1.0, 2.0), {}),
    "one-point": (lambda x: x * x, (0.3, 0.3), {}),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_bounded_search_matches_scipy(case):
    # scipy.optimize is imported by this test only; the library never loads it
    from scipy.optimize import minimize_scalar

    fun, bounds, options = _SEARCH_CASES[case]
    x, f, nfev, success = _drive(fun, bounds, **options)
    res = minimize_scalar(
        fun, bounds=bounds, method="bounded", options={"xatol": 1e-6, **options}
    )
    assert x == res.x
    assert f == res.fun or (math.isnan(f) and math.isnan(res.fun))
    assert nfev == res.nfev
    assert success == res.success
    if case in ("nan", "maxiter"):
        assert not success
    if case == "maxiter":
        assert nfev == 5


def test_fit_batch_isolates_a_series_that_cannot_be_fitted():
    # a constant series has no Whittle contrast; its row holds the error and
    # the other rows are the standalone fits
    good = [sim("lm", (0.3,), 1.0, 400, seed=s) for s in (71, 72)]
    constant = Series(values=np.full(400, 2.5))
    out = fit_batch([good[0], constant, good[1]], "lm", "whittle")
    assert isinstance(out[1], ValueError) and "periodogram is zero" in str(out[1])
    for fit, series in zip((out[0], out[2]), good):
        assert fit == fit_whittle(series, "lm")
    with pytest.raises(ValueError, match="one length"):
        fit_batch([good[0], Series(values=good[1].values[:300])], "lm")


def test_fit_whittle_farima10_two_dimensional():
    series = sim("farima10", (0.2, 0.5), 4.0, 2000, seed=53)
    fit = fit_whittle(series, "farima10")
    assert fit.converged and not fit.boundary_pinned
    assert abs(fit.gamma_hat[0] - 0.2) < 0.15
    assert abs(fit.gamma_hat[1] - 0.5) < 0.15
    assert abs(fit.sigma2_hat - 4.0) < 0.5
    # every evaluation of the inner search over alpha is counted
    assert fit.iterations > 20


def _whittle_profiled(series, gamma, family="farima10"):
    # m log sigma2_hat(gamma) + sum_j log h_gamma(lambda_j), from the public
    # spectral_density alone (sigma2 = 2 pi makes f = h)
    pgram = periodogram(series)
    spec = spec_of(family, *gamma, sigma2=2.0 * math.pi)
    h = spectral_density(spec, fourier_frequencies(series.n))
    return pgram.size * math.log(2.0 * math.pi * np.mean(pgram / h)) + np.sum(np.log(h))


@pytest.mark.parametrize(
    "family,gamma",
    [("farima00", (0.3,)), ("farima10", (0.25, 0.4)), ("lm", (0.3,))],
    ids=["farima00", "farima10", "lm"],
)
def test_whittle_fit_minimizes_public_contrast(family, gamma):
    # the fit's own spectral shape must be the public one: a per-fit shape
    # that drifts from spectral_density moves gamma_hat off this minimum
    series = sim(family, gamma, 1.0, 1000, seed=83)
    fit = fit_whittle(series, family)
    assert fit.converged and not fit.boundary_pinned
    at_fit = _whittle_profiled(series, fit.gamma_hat, family)
    for j in range(len(gamma)):
        for step in (-1e-3, 1e-3):
            moved = np.add(fit.gamma_hat, step * np.eye(len(gamma))[j])
            assert at_fit <= _whittle_profiled(series, tuple(moved), family), (j, step)


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_fit_farima10_reaches_two_dimensional_minimum(seed):
    from scipy.optimize import minimize

    gamma = (0.25, 0.4)
    series = sim("farima10", gamma, 1.0, 1000, seed=seed)
    bounds = ((0.011, 0.489), (-0.989, 0.989))
    for fit, contrast in [
        (fit_qmle, lambda g: qmle_objective(series, "farima10", g)),
        (fit_whittle, lambda g: _whittle_profiled(series, g)),
    ]:
        ref = minimize(
            lambda g: contrast(tuple(g)),
            x0=np.asarray(gamma),
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
        )
        assert ref.success
        value = contrast(fit(series, "farima10").gamma_hat)
        assert value == pytest.approx(ref.fun, rel=1e-9)


def test_fit_qmle_farima10_profile_is_the_objective():
    series = sim("farima10", (0.3, -0.6), 2.0, 800, seed=61)
    fit = fit_qmle(series, "farima10")
    direct = qmle_objective(series, "farima10", fit.gamma_hat)
    assert fit.objective == pytest.approx(direct, rel=1e-12)
    assert fit.sigma2_hat == pytest.approx(direct / 800, rel=1e-12)


def test_fit_qmle_farima10_all_zero_series():
    # e.g. a detrended, exactly linear input: the alpha profile has no data
    fit = fit_qmle(Series(values=np.zeros(200)), "farima10")
    assert fit.objective == 0.0
    assert np.all(np.isfinite(fit.gamma_hat))
    assert fit.gamma_hat[1] == 0.0


def test_fit_qmle_stderr():
    series = sim("farima00", (0.2,), 4.0, 2000, seed=59)
    fit = fit_qmle(series, "farima00", with_stderr=True)
    se_d, se_s2 = fit.stderr
    # theory: sqrt(6/pi^2 / n) and sqrt(2 sigma^4 / n)
    assert se_d == pytest.approx(math.sqrt(6.0 / math.pi**2 / 2000), rel=0.05)
    assert se_s2 == pytest.approx(math.sqrt(2.0 * fit.sigma2_hat**2 / 2000), rel=1e-9)


def test_standard_errors_out_of_domain_logs_reason(caplog):
    with caplog.at_level("WARNING", logger="longmem.estimate"):
        assert standard_errors("farima00", (0.6,), 1.0, 1000) is None
    assert len(caplog.records) == 1
    assert "d must lie strictly in (0, 1/2), got 0.6" in caplog.records[0].getMessage()


def test_gradient_matches_finite_difference():
    series = sim("farima00", (0.3,), 1.0, 400, seed=61)
    h = 1e-6
    for family, gamma in [("farima00", (0.22,)), ("farima10", (0.27, -0.4)), ("lm", (0.31,))]:
        grad = qmle_gradient(series, family, gamma)
        assert grad.shape == (len(gamma),)
        for j in range(len(gamma)):
            step = np.eye(len(gamma))[j] * h
            fd = (
                qmle_objective(series, family, tuple(np.add(gamma, step)))
                - qmle_objective(series, family, tuple(np.subtract(gamma, step)))
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd)), (family, j)


def test_gradient_farima10_at_zero_memory():
    # d = 0 lies inside the criterion-6 bounds; the exact derivative has no 1/d
    series = sim("farima10", (0.1, 0.5), 1.0, 400, seed=67)
    gamma, h = (0.0, 0.5), 1e-6
    grad = qmle_gradient(series, "farima10", gamma)
    assert grad.shape == (2,) and np.all(np.isfinite(grad))
    for j in range(2):
        step = np.eye(2)[j] * h
        fd = (
            qmle_objective(series, "farima10", tuple(np.add(gamma, step)))
            - qmle_objective(series, "farima10", tuple(np.subtract(gamma, step)))
        ) / (2 * h)
        assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# Periodogram and spectral density
# ---------------------------------------------------------------------------


def test_periodogram_constant_series_is_zero():
    series = Series(values=np.full(64, 3.7))
    assert np.max(np.abs(periodogram(series))) < 1e-25


def test_periodogram_parseval():
    for n in (128, 129, 500):
        series = Series(values=white_noise(n, seed=n))
        pgram = periodogram(series)
        # sum over all nonzero DFT frequencies: double j <= (n-1)/2, plus the
        # Nyquist term when n is even
        total = 2.0 * pgram.sum()
        if n % 2 == 0:
            centered = series.values - series.values.mean()
            nyq = abs(np.fft.rfft(centered)[n // 2]) ** 2 / (2.0 * math.pi * n)
            total += nyq
        sample_var = float(np.mean((series.values - series.values.mean()) ** 2))
        assert (2.0 * math.pi / n) * total == pytest.approx(sample_var, abs=1e-10)


def test_periodogram_cosine_concentration():
    n, k = 256, 19
    t = np.arange(1, n + 1)
    lam_k = 2.0 * math.pi * k / n
    series = Series(values=np.cos(lam_k * t))
    pgram = periodogram(series)
    # direct DFT oracle at the peak
    dft = np.sum(np.cos(lam_k * t) * np.exp(-1j * t * lam_k))
    oracle = abs(dft) ** 2 / (2.0 * math.pi * n)
    assert pgram[k - 1] == pytest.approx(oracle, rel=1e-10)
    others = np.delete(pgram, k - 1)
    assert pgram[k - 1] > 1e6 * np.max(others)


def test_spectral_density_white_noise_limit():
    spec = spec_of("farima00", 1e-12, sigma2=4.0, gamma_bounds=((1e-13, 0.49),))
    lam = np.linspace(0.1, math.pi, 7)
    f = spectral_density(spec, lam)
    assert np.allclose(f, 4.0 / (2.0 * math.pi), rtol=1e-9)


@pytest.mark.parametrize("family,gamma", [("farima00", (0.3,)), ("farima10", (0.2, 0.5))])
def test_spectral_density_integrates_to_variance(family, gamma):
    spec = spec_of(family, *gamma, sigma2=4.0)
    val, _ = quad(lambda x: spectral_density(spec, x), 0.0, math.pi, limit=300)
    r0 = autocovariance(spec, 0)[0]
    assert 2.0 * val == pytest.approx(r0, rel=1e-4)


def test_spectral_density_low_frequency_expansion():
    spec = spec_of("farima00", 0.3, sigma2=4.0)
    lam = 1e-4
    val = spectral_density(spec, lam) * lam ** (2.0 * 0.3)
    assert val == pytest.approx(4.0 / (2.0 * math.pi), rel=0.01)


def test_spectral_density_lm_polylog_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for d in (0.011, 0.25, 0.489):
        spec = spec_of("lm", d, sigma2=4.0)
        s = 1.0 + d
        # from the lowest Fourier frequency at n = 1000 up to pi
        for lam in (2.0 * math.pi / 1000, 0.1, 1.0, 3.0, math.pi):
            transfer = 1.0 - mp.polylog(s, mp.exp(-1j * mp.mpf(lam))) / mp.zeta(s)
            oracle = 4.0 / (2.0 * math.pi) * float(abs(transfer)) ** -2
            assert spectral_density(spec, lam) == pytest.approx(oracle, rel=1e-12)


def test_lm_power_table_matches_complex_powers():
    from longmem.estimate import _LM_SERIES_TERMS, _lm_powers

    lam = np.concatenate([fourier_frequencies(1000), [1e-3, 3.0, math.pi]])
    k = np.arange(_LM_SERIES_TERMS)
    ref = (-1j * lam[:, np.newaxis]) ** k / np.array([math.factorial(i) for i in k], dtype=float)
    ref[:, 0] = 0.0
    re, im = _lm_powers(lam)
    # even k are real, odd k imaginary: each half is a contiguous real table
    for half, part in ((re, ref[:, 0::2].real), (im, ref[:, 1::2].imag)):
        assert half.dtype == np.float64 and half.flags.c_contiguous
        assert half.shape == (lam.size, _LM_SERIES_TERMS // 2)
        assert np.all(np.abs(half - part) <= 1e-14 * np.abs(part))
    assert not ref[:, 0::2].imag.any() and not ref[:, 1::2].real.any()


def _complex_power_table(lam: np.ndarray) -> np.ndarray:
    """The LM power table in one complex (m, _LM_SERIES_TERMS) array, column 0
    zero: the oracle for the real halves."""
    k = np.arange(1, estimate._LM_SERIES_TERMS)
    table = np.zeros((lam.size, estimate._LM_SERIES_TERMS), dtype=complex)
    table[:, 1:] = np.cumprod(lam[:, np.newaxis] / k, axis=1) * np.array([1, -1j, -1, 1j])[k % 4]
    return table


@pytest.mark.parametrize("d", [0.011, 0.2, 0.3, 0.489])
def test_lm_series_products_match_a_complex_product(d):
    from scipy.special import digamma, gamma, zeta

    from longmem.estimate import _LM_SERIES_TERMS, _lm_powers, _lm_score, _lm_transfer
    from longmem.specfun import riemann_zeta

    lam = np.concatenate([fourier_frequencies(1000), [1e-6, 3.0, math.pi]])
    log_lam, table = np.log(lam), _complex_power_table(lam)
    s = 1.0 + d
    k = np.arange(_LM_SERIES_TERMS)
    z, dz = zeta(s - k), riemann_zeta(s - k, order=1)
    head = gamma(-d) * np.exp(0.5j * math.pi * d) * np.exp(d * log_lam)
    transfer = -(head + table @ z) / z[0]
    li = head + table @ z
    dli = head * (log_lam + 0.5j * math.pi - digamma(1.0 - s)) + table @ dz
    score = 2.0 * (dli / li).real - 2.0 * dz[0] / z[0]
    powers = _lm_powers(lam)
    assert np.all(np.abs(_lm_transfer(d, log_lam, powers) - transfer) <= 1e-14 * np.abs(transfer))
    # the score crosses zero near lam = 1 as a difference of two terms near
    # 2 zeta'(s) / zeta(s), which sets its scale there
    scale = np.abs(score) + abs(2.0 * dz[0] / z[0])
    assert np.all(np.abs(_lm_score(d, log_lam, powers) - score) <= 1e-14 * scale)


def test_spectral_density_rejects_zero():
    for family in ("farima00", "lm"):
        for lam in (0.0, -0.1, math.pi + 1e-9, [0.5, 4.0]):
            with pytest.raises(ValueError):
                spectral_density(spec_of(family, 0.2), lam)


# ---------------------------------------------------------------------------
# Whittle estimator
# ---------------------------------------------------------------------------


def test_whittle_white_noise_pins_at_lower_bound():
    series = Series(values=white_noise(2000, seed=71))
    fit = fit_whittle(series, "farima00")
    assert fit.gamma_hat[0] < 0.02
    assert fit.boundary_pinned


def test_whittle_recovers_d_and_sigma2():
    series = sim("farima00", (0.3,), 4.0, 3000, seed=73)
    fit = fit_whittle(series, "farima00")
    assert abs(fit.gamma_hat[0] - 0.3) < 0.05
    assert abs(fit.sigma2_hat - 4.0) < 0.5


def test_whittle_lm_family():
    series = sim("lm", (0.3,), 4.0, 2000, seed=79)
    fit = fit_whittle(series, "lm")
    assert fit.converged
    assert abs(fit.gamma_hat[0] - 0.3) < 0.1
    with pytest.raises(ValueError, match="d in \\(0, 1\\)"):
        fit_whittle(series, "lm", bounds=((-0.3, -0.1),))


def test_lm_whittle_fits_of_one_length_build_the_power_table_once(monkeypatch):
    estimate = importlib.import_module("longmem.estimate")
    estimate._whittle_shape.cache_clear()
    calls = []
    lm_powers = estimate._lm_powers

    def counting(lam):
        calls.append(lam.size)
        return lm_powers(lam)

    monkeypatch.setattr(estimate, "_lm_powers", counting)
    fits = [fit_whittle(sim("lm", (0.25,), 1.0, 500, seed=seed), "lm") for seed in (3, 4)]
    assert calls == [249]
    assert fits[0].gamma_hat != fits[1].gamma_hat


@pytest.mark.parametrize("family", ["farima00", "farima10", "lm"])
def test_whittle_constant_series_says_periodogram_is_zero(family):
    series = Series(values=np.full(200, 2.5))
    with pytest.raises(ValueError, match="periodogram is zero"):
        fit_whittle(series, family)


@pytest.fixture(scope="module")
def qmle_whittle_pairs():
    # common paths, both estimators, at two sample sizes
    out = {}
    for n in (300, 3000):
        diffs = np.empty(200)
        for r in range(200):
            series = sim("farima00", (0.2,), 4.0, n, seed=900000 + 7 * r + n)
            dq = fit_qmle(series, "farima00").gamma_hat[0]
            dw = fit_whittle(series, "farima00").gamma_hat[0]
            diffs[r] = abs(dq - dw)
        out[n] = diffs
    return out


def test_qmle_whittle_agree_on_common_paths(qmle_whittle_pairs):
    diffs = qmle_whittle_pairs[3000]
    assert np.mean(diffs <= 0.02) >= 0.95


def test_qmle_whittle_agreement_improves_with_n(qmle_whittle_pairs):
    assert qmle_whittle_pairs[3000].mean() < qmle_whittle_pairs[300].mean()


# ---------------------------------------------------------------------------
# Asymptotic covariance
# ---------------------------------------------------------------------------


def whittle_information_quadrature(spec, h=1e-5):
    """(4 pi)^(-1) int (d/dgamma log f)^2 over (-pi, pi), by central finite
    differences in gamma and adaptive quadrature (independent of the
    coefficient-domain double sum)."""
    d = spec.gamma[0]
    up = spec_of(spec.family, d + h, sigma2=spec.sigma2)
    dn = spec_of(spec.family, d - h, sigma2=spec.sigma2)

    def integrand(lam):
        return (
            (math.log(spectral_density(up, lam)) - math.log(spectral_density(dn, lam)))
            / (2.0 * h)
        ) ** 2

    val, _ = quad(integrand, 0.0, math.pi, limit=400)
    return 2.0 * val / (4.0 * math.pi)


@pytest.mark.parametrize("d,sigma2", [(0.2, 4.0), (0.35, 1.0)])
def test_asymptotic_covariance_matches_whittle_information(d, sigma2):
    spec = spec_of("farima00", d, sigma2=sigma2)
    info = asymptotic_covariance(spec)
    oracle = whittle_information_quadrature(spec)
    assert info.M[0, 0] == pytest.approx(oracle, rel=1e-2)


def test_asymptotic_covariance_sigma2_block():
    info = asymptotic_covariance(spec_of("farima00", 0.2, sigma2=2.0))
    assert info.var_sigma2 == pytest.approx(2.0 * 2.0**2, rel=1e-14)  # 2 sigma^4 (Gaussian)
    assert info.mu4 == 3.0


def test_asymptotic_covariance_positive_definite_catalogue():
    for family, gamma in [("farima00", (0.1,)), ("farima10", (0.3, 0.5)), ("lm", (0.4,))]:
        info = asymptotic_covariance(spec_of(family, *gamma, sigma2=4.0))
        eigvals = np.linalg.eigvalsh(info.M)
        assert np.all(eigvals > 0)


def test_asymptotic_covariance_farima_closed_forms():
    assert asymptotic_covariance(spec_of("farima00", 0.3)).M[0, 0] == pytest.approx(
        math.pi**2 / 6.0, rel=1e-14
    )
    for d, alpha in [(0.2, 0.5), (0.3, -0.7), (0.4, 0.9)]:
        M = asymptotic_covariance(spec_of("farima10", d, alpha)).M
        cross = -math.log(1.0 - alpha) / alpha
        expected = [[math.pi**2 / 6.0, cross], [cross, 1.0 / (1.0 - alpha**2)]]
        np.testing.assert_allclose(M, expected, rtol=1e-14, atol=0.0)
    for alpha in (0.0, 1e-12, -1e-12):
        # -log(1 - alpha)/alpha = 1 + alpha/2 + alpha^2/3 + ...
        M = asymptotic_covariance(spec_of("farima10", 0.2, alpha)).M
        cross = 1.0 + alpha / 2.0
        expected = [[math.pi**2 / 6.0, cross], [cross, 1.0 / (1.0 - alpha**2)]]
        np.testing.assert_allclose(M, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("gamma", [(0.2, 0.5), (0.3, -0.7), (0.4, 0.9)])
def test_asymptotic_covariance_farima10_matches_spectral_quadrature(gamma):
    # (4 pi)^(-1) int_(-pi)^pi grad log h grad log h^T, with the log-derivatives
    # in closed form and adaptive quadrature over (0, pi]
    d, alpha = gamma

    def score(lam):
        return (
            -2.0 * math.log(2.0 * math.sin(lam / 2.0)),
            2.0 * (math.cos(lam) - alpha) / (1.0 - 2.0 * alpha * math.cos(lam) + alpha**2),
        )

    ref = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            val = quad(lambda lam: score(lam)[i] * score(lam)[j], 0.0, math.pi, limit=400)[0]
            ref[i, j] = val / (2.0 * math.pi)
    M = asymptotic_covariance(spec_of("farima10", *gamma)).M
    np.testing.assert_allclose(M, ref, rtol=1e-12)


# M for LM by the mpmath program below (mp.dps = 20, d given as the double
# nearest each value); a live integral takes 20-40 s per d, so the values
# are frozen here and the integrand is checked live at a few frequencies:
#   def logh(dd, lam):
#       s = 1 + dd
#       return -2 * mp.log(abs(1 - mp.polylog(s, mp.expj(-lam)) / mp.zeta(s)))
#   f = lambda lam: mp.diff(lambda dd: logh(dd, lam), mp.mpf(d)) ** 2
#   M = mp.quad(f, [0, mp.pi]) / (2 * mp.pi)
_LM_INFORMATION_MPMATH = {
    0.011: 1.6150509800661163106,
    0.1: 1.3908130960940341876,
    0.3: 0.98167339429461971715,
    0.45: 0.74311095672477728616,
    0.489: 0.68915336572903687954,
}


@pytest.mark.parametrize("d", sorted(_LM_INFORMATION_MPMATH))
def test_asymptotic_covariance_lm_matches_mpmath(d):
    mp = pytest.importorskip("mpmath")
    from longmem.estimate import _lm_powers, _lm_score

    M = asymptotic_covariance(spec_of("lm", d)).M[0, 0]
    assert M == pytest.approx(_LM_INFORMATION_MPMATH[d], rel=1e-9)
    with mp.workdps(15):
        for lam in (1e-6, 0.7, math.pi):

            def logh(dd):
                s = 1 + dd
                return -2 * mp.log(abs(1 - mp.polylog(s, mp.expj(-lam)) / mp.zeta(s)))

            ref = -float(mp.diff(logh, mp.mpf(d)))
            nodes = np.array([lam])
            score = _lm_score(d, np.log(nodes), _lm_powers(nodes))[0]
            assert score == pytest.approx(ref, rel=1e-10), lam


@pytest.mark.parametrize("family,d", [("farima00", 0.05), ("lm", 0.1)])
def test_asymptotic_covariance_matches_time_domain_sum(family, d):
    # the paper's M = sigma2^(-1) sum_(k,l <= K) du_k du_l r(l - k) at
    # K = 20,000, grouped by lag; its truncation error grows as d -> 1/2
    K = 20_000
    spec = spec_of(family, d, sigma2=2.0)
    du = dar_coeffs(spec, K)[0]
    r = autocovariance(spec, K - 1)
    corr = fftconvolve(du, du[::-1])  # corr[K-1+lag] = sum_k du[k] du[k+lag]
    M = (corr[K - 1] * r[0] + 2.0 * np.dot(corr[K:], r[1:])) / spec.sigma2
    assert asymptotic_covariance(spec).M[0, 0] == pytest.approx(M, rel=5e-5)


def test_standard_errors_build_no_autocovariance(monkeypatch):
    import longmem.estimate as estimate
    import longmem.models as models

    def forbidden(*args, **kwargs):
        raise AssertionError("standard errors must not build coefficient tables")

    for module, name in [
        (estimate, "autocovariance"),
        (models, "autocovariance"),
        (models, "ma_coeffs"),
        (models, "_ma_coeffs_gamma"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    for family, gamma in [("farima00", (0.3,)), ("farima10", (0.3, 0.5)), ("lm", (0.3,))]:
        se = standard_errors(family, gamma, 2.0, 1000)
        assert se is not None and len(se) == len(gamma) + 1
        assert all(math.isfinite(v) and v > 0.0 for v in se)


def test_nvar_matches_inverse_information_mc():
    # 500 replications at n = 3000
    spec = spec_of("farima00", 0.2, sigma2=4.0)
    n, reps = 3000, 500
    d_hats = np.empty(reps)
    for r in range(reps):
        series = simulate(spec, n, GenConfig(seed=550000 + r))
        d_hats[r] = fit_qmle(series, "farima00").gamma_hat[0]
    nvar = n * np.var(d_hats, ddof=1)
    target = 1.0 / asymptotic_covariance(spec).M[0, 0]
    assert abs(nvar - target) / target < 0.25


# ---------------------------------------------------------------------------
# BLUE and mean scales
# ---------------------------------------------------------------------------


def test_blue_weights_sum_to_one_exactly():
    r = autocovariance(spec_of("farima00", 0.3), 199)
    w = blue_weights(r)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def refined_dense_blue(r: np.ndarray) -> np.ndarray:
    """BLUE weights from a dense LU solve of Gamma w = 1, refined three times
    with residuals taken in long double; normalized to sum to 1."""
    n = r.size
    gamma = r[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    lu = lu_factor(gamma)
    w = lu_solve(lu, np.ones(n)).astype(np.longdouble)
    gamma_ld = gamma.astype(np.longdouble)
    for _ in range(3):
        w += lu_solve(lu, (1.0 - gamma_ld @ w).astype(float))
    return w / w.sum()


BLUE_GRID = [
    ("farima00", (0.011,)),
    ("farima00", (0.3,)),
    ("farima00", (0.49,)),
    ("farima10", (0.3, 0.9)),
    ("farima10", (0.3, 0.99)),
    ("farima10", (0.45, -0.9)),
    ("lm", (0.15,)),
    ("lm", (0.489,)),
]


@pytest.mark.parametrize("n", [2, 500, 2000])
@pytest.mark.parametrize("family,gamma", BLUE_GRID)
def test_blue_weights_match_refined_dense_solve(family, gamma, n):
    # the error is max |w - w_ref| relative to sum |w_ref|: weights of
    # mass 1 concentrate at the two ends as alpha -> 1, with negative ones
    # between.  Levinson's O(n^2) recursion (scipy's solve_toeplitz) on the
    # same system is the yardstick
    r = np.array(autocovariance(spec_of(family, *gamma), n - 1))
    ref = refined_dense_blue(r)
    scale = float(np.abs(ref).sum())
    w = blue_weights(r)
    levinson = solve_toeplitz(r, np.ones(n))
    error = float(np.max(np.abs(w - ref))) / scale
    levinson_error = float(np.max(np.abs(levinson / levinson.sum() - ref))) / scale
    assert error <= 1e-12
    assert error <= max(levinson_error, 1e-15)
    # Gamma commutes with the reversal, so w is persymmetric
    assert np.max(np.abs(w - w[::-1])) <= 1e-12 * scale


def test_blue_weights_of_one_variance_is_one():
    assert blue_weights(np.array([2.5])).tolist() == [1.0]


@pytest.mark.parametrize(
    "column,error,message",
    [
        ([1.0, 2.0], estimate.ToeplitzError, "preconditioner"),
        ([-1.0], estimate.ToeplitzError, "preconditioner"),
        ([1.0, 0.9, -0.9], estimate.ToeplitzError, "curvature"),
        ([], estimate.ToeplitzError, "empty"),
        ([1.0, np.nan], ValueError, "finite"),
        ([np.inf, 0.5], ValueError, "finite"),
    ],
    ids=["indefinite", "negative-variance", "negative-curvature", "empty", "nan", "inf"],
)
def test_blue_weights_reject_a_column_that_is_not_a_covariance(column, error, message):
    # [1, 2] and [1, 0.9, -0.9] are indefinite; an exact solve of either
    # gives weights, [0.5, 0.5] and some negative ones
    with pytest.raises(error, match=message):
        blue_weights(np.array(column, dtype=float))


def test_blue_weights_iteration_cap_raises(monkeypatch):
    # lm at d = 0.45, n = 500 needs about 10 steps from its start
    monkeypatch.setattr(estimate, "_CG_MAXITER", 2)
    r = autocovariance(spec_of("lm", 0.45), 499)
    with pytest.raises(estimate.ToeplitzError, match="after 2 iterations at relative residual"):
        blue_weights(r)


@pytest.mark.parametrize("n", [2, 3, 10, 25])
@pytest.mark.parametrize("d", [0.011, 0.2, 0.489])
def test_fractional_noise_start_is_the_exact_blue(d, n):
    # Adenstedt's closed form against a 50-digit solve of Gamma w = 1
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        dd = mp.mpf(d)
        r = [mp.gamma(1 - 2 * dd) / mp.gamma(1 - dd) ** 2]
        for k in range(1, n):
            r.append(r[-1] * (k - 1 + dd) / (k - dd))
        gamma = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gamma[i, j] = r[abs(i - j)]
        exact = mp.lu_solve(gamma, mp.ones(n, 1))
        exact = np.array([float(v / sum(exact)) for v in exact])
    start = estimate._fractional_noise_blue(d, n)
    assert np.max(np.abs(start / start.sum() - exact)) <= 1e-15


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("d", [0.011, 0.2, 0.3, 0.489])
def test_blue_weights_of_fractional_noise_take_at_most_three_steps(monkeypatch, d, n):
    monkeypatch.setattr(estimate, "_CG_MAXITER", 3)
    w = blue_weights(autocovariance(spec_of("farima00", d), n - 1))
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_blue_weights_near_unit_root_end_by_the_residual_test():
    # alpha = 0.9999 needs custom bounds and makes Gamma nearly singular
    # (condition number 2.6e10 already at n = 2000); the solve takes
    # about 110 steps, and the cap would raise
    spec = spec_of("farima10", 0.3, 0.9999, gamma_bounds=((0.01, 0.49), (-0.99999, 0.99999)))
    w = blue_weights(autocovariance(spec, 9999))
    assert np.isfinite(w).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(w - w[::-1])) <= 1e-8 * np.abs(w).sum()


def test_blue_mean_white_noise_limit_is_sample_mean():
    series = Series(values=white_noise(200, seed=83) + 1.5)
    spec = spec_of("farima00", 1e-9, gamma_bounds=((1e-10, 0.49),))
    assert blue_mean(series, spec) == pytest.approx(series.values.mean(), rel=1e-8)


def test_blue_mean_matches_dense_solve():
    n = 500
    spec = spec_of("farima00", 0.3, sigma2=4.0)
    series = sim("farima00", (0.3,), 4.0, n, seed=89, mu=2.0)
    r = autocovariance(spec, n - 1)
    sigma = np.empty((n, n))
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    sigma[:] = r[idx]
    w_dense = np.linalg.solve(sigma, np.ones(n))
    mu_dense = float(w_dense @ series.values / w_dense.sum())
    assert blue_mean(series, spec) == pytest.approx(mu_dense, abs=1e-8)


def test_blue_efficiency_examples():
    assert 0.98 <= blue_efficiency(0.25) <= 1.0
    assert blue_efficiency(1e-9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        blue_efficiency(0.0)
    with pytest.raises(ValueError):
        blue_efficiency(0.5)


def test_mean_clt_scale_values():
    assert mean_clt_scale(100, 0.0) == pytest.approx(10.0)
    assert mean_clt_scale(100, 0.3) == pytest.approx(100.0**0.2)
    with pytest.raises(ValueError):
        mean_clt_scale(0, 0.2)
    with pytest.raises(ValueError):
        mean_clt_scale(10, 0.5)


# ---------------------------------------------------------------------------
# Truncated predictor consistency
# ---------------------------------------------------------------------------


def test_predictor_truncation_error_decays():
    # Build paths with a stored presample, compare the windowed predictor to
    # the (nearly) full-past predictor at the true parameter; the squared gap
    # should decay roughly like t^(-2d).
    from scipy.signal import fftconvolve

    from longmem.simulate import rng_from_seed

    d = 0.3
    spec = spec_of("farima00", d)
    n, presample, K, reps = 1000, 9000, 20_000, 40
    a = ma_coeffs(spec, K)
    total = presample + n
    u_full = np.concatenate([[0.0], ar_coeffs(spec, total - 1)])
    gaps = np.zeros(n)
    for rep in range(reps):
        eps = rng_from_seed(123400 + rep).standard_normal(total + K)
        x_full = fftconvolve(eps, a, mode="valid")  # length total
        x_obs = x_full[presample:]
        m_full = fftconvolve(x_full, u_full)[:total][presample:]
        m_trunc = fftconvolve(x_obs, u_full[: n + 1])[:n]
        gaps += (m_full - m_trunc) ** 2 / reps
    # average the squared gap in dyadic blocks of t and regress on log t;
    # the squared gap is bounded by C t^(-2d) (its true decay is faster, near
    # t^(-1), because of cancellation), so assert compatibility with the bound
    edges = [(50, 100), (100, 200), (200, 400), (400, 800)]
    ts = np.array([math.sqrt(lo * hi) for lo, hi in edges])
    block_means = np.array([gaps[lo:hi].mean() for lo, hi in edges])
    slope = np.polyfit(np.log(ts), np.log(block_means), 1)[0]
    assert slope < -2.0 * d + 0.15  # decays at least as fast as the bound
    assert slope > -3.0
    C = block_means[0] * ts[0] ** (2.0 * d)
    assert np.all(block_means <= 1.05 * C * ts ** (-2.0 * d))
