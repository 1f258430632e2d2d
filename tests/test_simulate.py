import numpy as np
import pytest
from scipy.stats import ks_2samp

from longmem.models import ModelSpec, autocovariance, ma_coeffs
from longmem.simulate import (
    GenConfig,
    Series,
    rng_from_seed,
    series_from_csv,
    series_to_csv,
    simulate,
    white_noise,
)


def test_white_noise_moments():
    eps = white_noise(10**6, seed=123)
    assert abs(eps.mean()) < 3.1 / np.sqrt(10**6)  # CLT band
    assert abs(eps.var() - 1.0) < 3.1 * np.sqrt(2.0 / 10**6)


def test_white_noise_deterministic():
    assert np.array_equal(white_noise(1000, seed=5), white_noise(1000, seed=5))
    assert not np.array_equal(white_noise(1000, seed=5), white_noise(1000, seed=6))


def test_white_noise_rejects_bad_n():
    with pytest.raises(ValueError):
        white_noise(0, seed=1)


def test_series_validation():
    with pytest.raises(ValueError):
        Series(values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Series(values=np.empty(0))
    s = Series(values=[1.0, 2.0])
    assert s.n == 2


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(generator="bogus")


def test_simulate_deterministic():
    spec = ModelSpec(family="farima00", gamma=(0.2,), sigma2=4.0)
    cfg = GenConfig(generator="exact-gaussian", seed=99)
    s1 = simulate(spec, 500, cfg)
    s2 = simulate(spec, 500, cfg)
    assert np.array_equal(s1.values, s2.values)
    s3 = simulate(spec, 500, GenConfig(generator="exact-gaussian", seed=100))
    assert not np.array_equal(s1.values, s3.values)


def test_simulate_truncated_ma_deterministic_and_k_check():
    spec = ModelSpec(family="farima00", gamma=(0.2,))
    cfg = GenConfig(generator="truncated-ma", seed=3, K=2000)
    s1 = simulate(spec, 200, cfg)
    s2 = simulate(spec, 200, cfg)
    assert np.array_equal(s1.values, s2.values)
    with pytest.raises(ValueError):
        simulate(spec, 200, GenConfig(generator="truncated-ma", seed=3, K=100))


@pytest.mark.parametrize(
    "family,gamma", [("farima00", (0.3,)), ("farima10", (0.2, 0.5)), ("lm", (0.3,))]
)
def test_truncated_ma_matches_valid_convolution(family, gamma):
    # reference: the valid window of a direct convolution of the same draws
    from scipy.signal import fftconvolve

    spec = ModelSpec(family=family, gamma=gamma, sigma2=2.0, mu=1.5)
    n, K = 400, 4000
    x = simulate(spec, n, GenConfig(generator="truncated-ma", seed=8, K=K)).values
    eps = rng_from_seed(8).standard_normal(n + K)
    ref = spec.sigma * fftconvolve(eps, ma_coeffs(spec, K), mode="valid") + spec.mu
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(x))


def _hermitian_circulant_sample(spec, n, seed):
    # the exact-Gaussian sampler written out: a full Hermitian vector of
    # sqrt-eigenvalues times complex normals, and one complex FFT
    M = 1 << max(int(np.ceil(np.log2(4 * n))), 3)
    half = M // 2
    r = autocovariance(spec, half)
    ev = np.clip(np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real, 0.0, None)
    rng = rng_from_seed(seed)
    g1 = rng.standard_normal(half + 1)
    g2 = rng.standard_normal(half + 1)
    w = np.empty(M, dtype=complex)
    w[0] = np.sqrt(ev[0] / M) * g1[0]
    w[half] = np.sqrt(ev[half] / M) * g1[half]
    w[1:half] = np.sqrt(ev[1:half] / (2.0 * M)) * (g1[1:half] + 1j * g2[1:half])
    w[half + 1 :] = np.conj(w[half - 1 : 0 : -1])
    return np.fft.fft(w)[:n].real + spec.mu


@pytest.mark.parametrize("n", [100, 1000])
def test_exact_gaussian_matches_hermitian_construction(n):
    spec = ModelSpec(family="farima00", gamma=(0.3,), sigma2=2.0, mu=-0.5)
    x = simulate(spec, n, GenConfig(seed=21)).values
    ref = _hermitian_circulant_sample(spec, n, 21)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(x))


def test_alpha_zero_matches_farima00_exactly():
    cfg = GenConfig(generator="exact-gaussian", seed=17)
    s00 = simulate(ModelSpec(family="farima00", gamma=(0.2,), sigma2=4.0), 400, cfg)
    s10 = simulate(ModelSpec(family="farima10", gamma=(0.2, 0.0), sigma2=4.0), 400, cfg)
    assert np.max(np.abs(s00.values - s10.values)) < 1e-10


def test_small_d_variance_close_to_target():
    spec = ModelSpec(family="farima00", gamma=(0.01,), sigma2=1.0, gamma_bounds=((0.005, 0.49),))
    x = simulate(spec, 10**4, GenConfig(seed=8)).values
    r0 = autocovariance(spec, 0)[0]
    assert abs(x.var() - r0) / r0 < 0.05


def test_mean_offset_added():
    spec = ModelSpec(family="farima00", gamma=(0.2,), sigma2=1.0, mu=7.5)
    base = ModelSpec(family="farima00", gamma=(0.2,), sigma2=1.0)
    cfg = GenConfig(seed=21)
    assert np.allclose(simulate(spec, 300, cfg).values, simulate(base, 300, cfg).values + 7.5)


@pytest.fixture(scope="module")
def exact_gaussian_batch():
    spec = ModelSpec(family="farima00", gamma=(0.3,), sigma2=4.0)
    n, reps = 2000, 200
    paths = np.empty((reps, n))
    for r in range(reps):
        paths[r] = simulate(spec, n, GenConfig(seed=42420000 + r)).values
    return spec, paths


def test_sample_autocovariance_matches_target(exact_gaussian_batch):
    # covariances about the known mean (mu = 0): demeaning each path would
    # bias r-hat down by O(n^(2d-1)), which is not a generator defect
    spec, paths = exact_gaussian_batch
    reps, n = paths.shape
    r_target = autocovariance(spec, 5)
    for lag in range(6):
        per_rep = np.sum(paths[:, : n - lag] * paths[:, lag:], axis=1) / n
        est = per_rep.mean()
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        assert abs(est - r_target[lag]) < 3.0 * se, f"lag {lag}"


def test_empirical_lag_decay_slope(exact_gaussian_batch):
    spec, paths = exact_gaussian_batch
    reps, n = paths.shape
    d = spec.gamma[0]
    lags = np.arange(20, 201)
    mean_cov = np.array(
        [np.mean(np.sum(paths[:, : n - k] * paths[:, k:], axis=1) / (n - k)) for k in lags]
    )
    slope = np.polyfit(np.log(lags), np.log(mean_cov), 1)[0]
    assert abs(slope - (2.0 * d - 1.0)) < 0.1


def test_truncated_ma_distribution_matches_exact_gaussian():
    spec = ModelSpec(family="farima00", gamma=(0.25,), sigma2=1.0)
    n, reps = 100, 500
    exact = np.empty(reps)
    approx = np.empty(reps)
    for r in range(reps):
        exact[r] = simulate(spec, n, GenConfig(seed=70000 + r)).values[-1]
        cfg = GenConfig(generator="truncated-ma", seed=80000 + r, K=10 * n)
        approx[r] = simulate(spec, n, cfg).values[-1]
    assert ks_2samp(exact, approx).pvalue > 0.01


def test_series_csv_round_trip(tmp_path):
    spec = ModelSpec(family="farima00", gamma=(0.2,), sigma2=2.0)
    s = simulate(spec, 50, GenConfig(seed=1))
    path = tmp_path / "series.csv"
    series_to_csv(s, path)
    back = series_from_csv(path)
    assert np.array_equal(back.values, s.values)


def test_series_csv_two_column_sorted(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("time,value\n3,30\n1,10\n2,20\n")
    s = series_from_csv(path)
    assert np.array_equal(s.values, [10.0, 20.0, 30.0])


def test_series_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5\n-2.0\n0.25\n")
    assert np.array_equal(series_from_csv(path).values, [1.5, -2.0, 0.25])


def test_series_csv_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        series_from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        series_from_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("x\n")
    with pytest.raises(ValueError):
        series_from_csv(header_only)
