import csv
import warnings

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
)


def test_white_noise_moments():
    # the innovations every generator draws: rng_from_seed's standard normals
    eps = rng_from_seed(123).standard_normal(10**6)
    assert abs(eps.mean()) < 3.1 / np.sqrt(10**6)  # CLT band
    assert abs(eps.var() - 1.0) < 3.1 * np.sqrt(2.0 / 10**6)


def test_white_noise_deterministic():
    draw = lambda seed: rng_from_seed(seed).standard_normal(1000)
    assert np.array_equal(draw(5), draw(5))
    assert np.array_equal(draw(np.random.SeedSequence(5)), draw(5))
    assert not np.array_equal(draw(5), draw(6))


def test_series_validation():
    with pytest.raises(ValueError):
        Series(values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Series(values=np.empty(0))
    s = Series(values=[1.0, 2.0])
    assert s.n == 2


def test_series_leaves_the_callers_array_writable():
    x = np.array([1.0, 2.0, 3.0])
    s = Series(values=x)
    assert x.flags.writeable and not s.values.flags.writeable
    x[0] = 9.0
    assert s.values.tolist() == [1.0, 2.0, 3.0]


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(generator="bogus")


@pytest.mark.parametrize("seed", [-1, True, False, np.bool_(True), 1.5, "3", None])
def test_genconfig_rejects_a_bad_seed(seed):
    # True would pass operator.index as seed 1, and numpy's own message for
    # a negative seed names neither the field nor the value
    with pytest.raises(ValueError, match="seed: expected a non-negative integer"):
        GenConfig(seed=seed)


@pytest.mark.parametrize("K", [-1, 2500.7, "3000", True, np.bool_(True), [3000]])
def test_genconfig_rejects_a_bad_truncation(K):
    # a float failed inside numpy, a string at the K >= n comparison, and
    # True was taken as K = 1
    with pytest.raises(ValueError, match="K: expected None or a non-negative integer"):
        GenConfig(generator="truncated-ma", K=K)


def test_genconfig_accepts_integer_truncations():
    spec = ModelSpec(family="farima00", gamma=(0.2,))
    x = simulate(spec, 200, GenConfig(generator="truncated-ma", seed=3, K=2000)).values
    y = simulate(spec, 200, GenConfig(generator="truncated-ma", seed=3, K=np.int64(2000))).values
    assert np.array_equal(x, y)
    assert GenConfig(K=None).K is None


def test_genconfig_accepts_integer_seeds_and_seed_sequences():
    spec = ModelSpec(family="farima00", gamma=(0.2,))
    for seed in (0, 7, np.int64(7), np.uint8(7), np.random.SeedSequence(7)):
        assert simulate(spec, 20, GenConfig(seed=seed)).n == 20
    assert np.array_equal(
        simulate(spec, 20, GenConfig(seed=np.int64(7))).values, simulate(spec, 20, GenConfig(seed=7)).values
    )


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


@pytest.mark.parametrize("text", ["1.5\n2.5\n3.5\n4.5\n", "x\n1.5\n2.5\n3.5\n4.5\n"])
def test_series_csv_byte_order_mark(tmp_path, text):
    # float() rejects "\ufeff1.5": a BOM left in the text would make the first
    # value of a headerless file pass for a header
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert np.array_equal(series_from_csv(path).values, [1.5, 2.5, 3.5, 4.5])


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


def _csv_loop_reader(path) -> Series:
    """The csv-module reader that series_from_csv replaced, kept as the
    reference for the grammar the loadtxt reader must accept."""
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.reader(fh):
            cells = [c.strip() for c in raw if c.strip() != ""]
            if cells:
                rows.append(cells)
    if not rows:
        raise ValueError(f"no data found in {path}")
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        start = 1  # header row
    if not rows[start:]:
        raise ValueError(f"no numeric rows found in {path}")
    width = len(rows[start])
    if any(len(r) != width for r in rows[start:]):
        raise ValueError(f"inconsistent column count in {path}")
    if width == 1:
        values = np.array([float(r[0]) for r in rows[start:]])
    elif width == 2:
        pairs = sorted((float(t), float(v)) for t, v in rows[start:])
        values = np.array([v for _, v in pairs])
    else:
        raise ValueError(f"expected 1 or 2 columns, got {width}")
    return Series(values=values)


_ACCEPTED_CSV = {
    "header": "x\n1.5\n-2\n0.25\n",
    "no-header": "1.5\n-2\n0.25\n",
    "no-final-newline": "x\n1.5\n-2",
    "header-with-space": "my series\n1.5\n-2\n",
    "crlf": "x\r\n1.5\r\n-2\r\n",
    "crlf-two-column": "time,value\r\n2,20\r\n1,10\r\n",
    "cr": "x\r1.5\r-2\r",
    "blank-lines": "\n\nx\n\n1.5\n\n-2\n\n",
    "whitespace-only-lines": " \n\t\nx\n  \n1.5\n\t\n-2\n \t \n",
    "whitespace-only-lines-crlf": "x\r\n \r\n1.5\r\n\t\r\n-2\r\n",
    "comma-only-lines": "x\n,\n1.5\n , ,\n-2\n",
    "spaces-and-tabs": " x \n  1.5 \n\t-2\t\n \t0.25\t \n",
    "two-column-spaces-and-tabs": "t , v\n 2 ,\t20 \n1\t,  10\n",
    "quoted": '"x"\n"1.5"\n" -2 "\n0.25\n',
    "quoted-two-column": '"time","value"\n"2","20"\n"1",10\n',
    "trailing-comma": "x,\n1.5,\n-2,\n",
    "trailing-comma-no-header": "1.5,\n-2,\n",
    "trailing-comma-two-column": "t,v,\n2,20,\n1,10,\n",
    "trailing-commas-and-spaces": "1.5 , \n-2,,\n0.25,\t\n",
    "trailing-comma-some-rows": "t,v\n2,20,\n1,10\n",
    "crlf-quoted-trailing-comma": 'time,value,\r\n"2","20",\r\n"1","10",\r\n',
    "exponents": "x\n1e5\n-2.5E-3\n+.5\n5.\n1e+02\n-0.0\n7E0\n",
    "seventeen-digits": "x\n0.10000000000000001\n-1.2345678901234567e-300\n2.2250738585072014e-308\n",
    "two-column-unsorted": "t,v\n3,30\n1,10\n2,20\n",
    "two-column-tied-times": "t,v\n1,30\n1,10\n0,5\n1,20\n-1.5,7\n",
    "two-column-infinite-time": "t,v\ninf,1\n0,2\n-inf,3\n",
}

_REJECTED_CSV = {
    "empty": "",
    "blank": "\n \n\t\n",
    "header-only": "x\n",
    "header-and-blank-lines": "x\n\n  \n,\n",
    "three-columns": "a,b,c\n1,2,3\n",
    "three-columns-no-header": "1,2,3\n4,5,6\n",
    "mixed-widths": "1\n2,3\n",
    "mixed-widths-two-first": "t,v\n1,2\n3\n",
    "non-numeric-body-row": "x\n1\nabc\n",
    "nan": "x\n1\nnan\n",
    "nan-first-row": "nan\n1\n",
    "inf": "x\ninf\n",
    "two-column-minus-inf": "t,v\n1,-inf\n2,3\n",
}

# spellings the csv-module reader accepted and series_from_csv rejects
_EXOTIC_CSV = {
    "underscore-digits": "x\n1_000\n2\n",
    "empty-middle-cell": "1,,2\n3,,4\n",
    "leading-empty-cell": ",1\n,2\n",
    "form-feed-line": "x\n1\n\f\n2\n",
    "quoted-comma-header": '"1,5"\n2\n',
}


def _write_bytes(path, text: str):
    path.write_bytes(text.encode())  # no newline translation
    return path


@pytest.mark.parametrize("text", _ACCEPTED_CSV.values(), ids=_ACCEPTED_CSV.keys())
def test_series_csv_reads_what_the_csv_loop_reader_read(tmp_path, text):
    path = _write_bytes(tmp_path / "in.csv", text)
    expected = _csv_loop_reader(path).values
    assert np.array_equal(series_from_csv(path).values, expected)


@pytest.mark.parametrize("text", _REJECTED_CSV.values(), ids=_REJECTED_CSV.keys())
def test_series_csv_rejects_what_the_csv_loop_reader_rejected(tmp_path, text):
    path = _write_bytes(tmp_path / "in.csv", text)
    with pytest.raises(ValueError):
        _csv_loop_reader(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data" among them
        with pytest.raises(ValueError):
            series_from_csv(path)


@pytest.mark.parametrize("text", _EXOTIC_CSV.values(), ids=_EXOTIC_CSV.keys())
def test_series_csv_rejects_exotic_spellings(tmp_path, text):
    path = _write_bytes(tmp_path / "in.csv", text)
    _csv_loop_reader(path)
    with pytest.raises(ValueError):
        series_from_csv(path)


def test_series_csv_round_trip_n2000_matches_csv_loop_reader(tmp_path):
    spec = ModelSpec(family="lm", gamma=(0.3,), sigma2=2.0)
    s = simulate(spec, 2000, GenConfig(seed=11))
    path = tmp_path / "series.csv"
    series_to_csv(s, path)
    back = series_from_csv(path).values
    assert np.array_equal(back, s.values)
    assert np.array_equal(back, _csv_loop_reader(path).values)
