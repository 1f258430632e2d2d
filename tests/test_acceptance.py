"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; always printed
on failure).  The Monte Carlo runs are desk-scale (R = 200..300) with bands
sized for that replication count.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from longmem.estimate import (
    asymptotic_covariance,
    blue_weights,
    fit_qmle,
    periodogram,
    qmle_gradient,
    qmle_objective,
    spectral_density,
)
from longmem.models import (
    Family,
    ModelSpec,
    ar_coeffs,
    autocovariance,
    ma_coeffs,
)
from longmem.models import _autocov_by_convolution
from longmem.montecarlo import MCCell, MCConfig, run_mc
from longmem.simulate import GenConfig, Series, rng_from_seed, simulate


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def spec_of(family, *gamma, sigma2=1.0, **kw):
    return ModelSpec(family=family, gamma=tuple(gamma), sigma2=sigma2, **kw)


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1_cell_run():
    config = MCConfig(
        family="farima00",
        cells=(MCCell(gamma=(0.2,), sigma2=4.0),),
        n_grid=(1000,),
        replications=300,
        estimators=("qmle",),
        base_seed=1001,
    )
    return run_mc(config, workers=2)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_coefficient_identity_suite():
    worst = 0.0
    cases = []
    for d in (0.1, 0.2, 0.3, 0.4, 0.49):
        cases.append(("farima00", (d,)))
        cases.append(("lm", (d,)))
        for alpha in (0.0, 0.5, 0.9):
            cases.append(("farima10", (d, alpha)))
    for family, gamma in cases:
        s = spec_of(family, *gamma)
        a = ma_coeffs(s, 500)
        u = ar_coeffs(s, 500)
        lhs = np.convolve(np.concatenate([[0.0], u]), a)[1:501]
        worst = max(worst, float(np.max(np.abs(lhs - a[1:]))))
    report(1, worst <= 1e-10, f"max |sum u_(k-j) a_j - a_k| = {worst:.2e} (<= 1e-10)")


def test_criterion_2_farima00_autocovariance_validation():
    worst = 0.0
    for d in (0.1, 0.3, 0.45):
        closed = autocovariance(spec_of("farima00", d), 100)
        conv = _autocov_by_convolution(Family.FARIMA00, (d,), 100, K=100_000)
        rel = np.max(np.abs(conv - closed) / np.abs(closed))
        worst = max(worst, float(rel))
    report(2, worst <= 1e-4, f"closed form vs convolution: max rel err = {worst:.2e} (<= 1e-4)")


def test_criterion_3_tail_exponents():
    details = []
    ok = True
    k = np.arange(100, 10_001)
    for family, gamma in [("farima00", (0.2,)), ("farima00", (0.4,)), ("lm", (0.3,)), ("farima10", (0.2, 0.5))]:
        u = ar_coeffs(spec_of(family, *gamma), 10_000)
        slope = np.polyfit(np.log(k), np.log(u[99:]), 1)[0]
        gap = abs(slope + 1.0 + gamma[0])
        ok &= gap <= 0.02
        details.append(f"u[{family},d={gamma[0]}]: {slope:+.4f} vs {-(1 + gamma[0]):+.2f}")
    for d in (0.1, 0.3):
        r = autocovariance(spec_of("farima00", d), 10_000)
        slope = np.polyfit(np.log(k), np.log(r[k]), 1)[0]
        gap = abs(slope - (2.0 * d - 1.0))
        ok &= gap <= 0.05
        details.append(f"r[d={d}]: {slope:+.4f} vs {2 * d - 1:+.2f}")
    report(3, ok, "; ".join(details))


def test_criterion_4_table1_cell(table1_cell_run):
    rec_d = table1_cell_run.lookup(0, 1000, "qmle", "d")
    rec_s = table1_cell_run.lookup(0, 1000, "qmle", "sigma2")
    ok = 0.018 <= rec_d.sqrt_mse <= 0.032 and 0.13 <= rec_s.sqrt_mse <= 0.23
    report(
        4,
        ok,
        f"sqrt-MSE(d)={rec_d.sqrt_mse:.4f} in [0.018,0.032] (reference 0.024); "
        f"sqrt-MSE(s2)={rec_s.sqrt_mse:.4f} in [0.13,0.23] (reference 0.179)",
    )


def test_criterion_5_table2_lm_cell():
    config = MCConfig(
        family="lm",
        cells=(MCCell(gamma=(0.2,), sigma2=4.0),),
        n_grid=(1000,),
        replications=300,
        estimators=("qmle",),
        base_seed=1005,
    )
    rec = run_mc(config, workers=2).lookup(0, 1000, "qmle", "d")
    ok = 0.022 <= rec.sqrt_mse <= 0.043
    report(5, ok, f"LM sqrt-MSE(d)={rec.sqrt_mse:.4f} in [0.022,0.043] (reference 0.032)")


def test_criterion_6_table7_farima10_cell():
    # the d domain extends below 0 so that the flat (d, alpha) ridge does not
    # pin a material share of fits at the lower boundary; ~1% of replications
    # still minimize beyond d = -0.25 and are excluded as pinned
    config = MCConfig(
        family="farima10",
        cells=(MCCell(gamma=(0.1, 0.5), sigma2=4.0, gamma_bounds=((-0.25, 0.75), (-0.99, 0.99))),),
        n_grid=(1000,),
        replications=200,
        estimators=("qmle",),
        base_seed=2006,
    )
    rec = run_mc(config, workers=2).lookup(0, 1000, "qmle", "d")
    rate = rec.failures / 200.0
    ok = 0.04 <= rec.sqrt_mse <= 0.09 and rate < 0.02
    report(
        6,
        ok,
        f"FARIMA10 sqrt-MSE(d)={rec.sqrt_mse:.4f} in [0.04,0.09] (reference 0.063); "
        f"failure rate {100 * rate:.1f}% < 2%",
    )


def test_criterion_7_sqrt_n_rate():
    config = MCConfig(
        family="farima00",
        cells=(MCCell(gamma=(0.2,), sigma2=4.0),),
        n_grid=(300, 3000),
        replications=300,
        estimators=("qmle",),
        base_seed=1007,
    )
    rep = run_mc(config, workers=2)
    ratio = rep.lookup(0, 3000, "qmle", "d").sqrt_mse / rep.lookup(0, 300, "qmle", "d").sqrt_mse
    ok = 0.2 <= ratio <= 0.45
    report(7, ok, f"sqrt-MSE(d) ratio n=3000/n=300 = {ratio:.3f} in [0.2,0.45] (target 0.316)")


def test_criterion_8_theorem2_asymptotics(table1_cell_run):
    spec = spec_of("farima00", 0.2, sigma2=4.0)
    raw = table1_cell_run.raw[(0, 1000, "qmle")]
    d_hats = raw[~np.isnan(raw[:, 0]), 0]
    nvar = 1000 * np.var(d_hats, ddof=1)
    info = asymptotic_covariance(spec)
    target = 1.0 / info.M[0, 0]
    mc_gap = abs(nvar - target) / target

    # independent quadrature of the spectral log-derivative
    h = 1e-5
    up = spec_of("farima00", 0.2 + h, sigma2=4.0)
    dn = spec_of("farima00", 0.2 - h, sigma2=4.0)

    def integrand(lam):
        return (
            (math.log(spectral_density(up, lam)) - math.log(spectral_density(dn, lam)))
            / (2.0 * h)
        ) ** 2

    quad_info = 2.0 * quad(integrand, 0.0, math.pi, limit=400)[0] / (4.0 * math.pi)
    quad_gap = abs(info.M[0, 0] - quad_info) / quad_info
    ok = mc_gap <= 0.25 and quad_gap <= 0.01
    report(
        8,
        ok,
        f"n Var(d-hat)={nvar:.3f} vs 1/M={target:.3f} (gap {100 * mc_gap:.1f}% <= 25%); "
        f"M={info.M[0, 0]:.5f} vs quadrature {quad_info:.5f} (gap {100 * quad_gap:.2f}% <= 1%)",
    )


def test_criterion_9_degradation_near_half():
    wide = ((0.01, 0.75),)
    config = MCConfig(
        family="farima00",
        cells=(
            MCCell(gamma=(0.49,), sigma2=4.0, gamma_bounds=wide),
            MCCell(gamma=(0.3,), sigma2=4.0, gamma_bounds=wide),
        ),
        n_grid=(300,),
        replications=200,
        estimators=("qmle",),
        base_seed=1009,
    )
    rep = run_mc(config, workers=2)
    near = rep.lookup(0, 300, "qmle", "sigma2").sqrt_mse
    mid = rep.lookup(1, 300, "qmle", "sigma2").sqrt_mse
    ratio = near / mid
    ok = ratio >= 1.5
    report(
        9,
        ok,
        f"sqrt-MSE(s2) at d=0.49: {near:.3f} vs d=0.3: {mid:.3f}, ratio {ratio:.2f} >= 1.5 "
        f"(reference full-scale 0.633 vs 0.318)",
    )


def blue_efficiency(d: float) -> float:
    """Limit of Var(BLUE) / Var(sample mean) for fractional noise, d in
    (0, 1/2): pi d (2d+1) / (B(1-d, 1-d) sin(pi d))."""
    a = 1.0 - d
    beta = math.exp(math.lgamma(a) + math.lgamma(a) - math.lgamma(a + a))
    return math.pi * d * (2.0 * d + 1.0) / (beta * math.sin(math.pi * d))


def test_criterion_10_blue():
    # efficiency formula stays inside the target band
    grid = np.arange(0.05, 0.46, 0.05)
    effs = np.array([blue_efficiency(d) for d in grid])
    eff_ok = np.all((effs >= 0.98) & (effs <= 1.0001))

    # Toeplitz weights match a dense symmetric solve
    n = 500
    spec = spec_of("farima00", 0.3, sigma2=4.0)
    r = autocovariance(spec, n - 1)
    w = blue_weights(r)
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dense = np.linalg.solve(r[idx], np.ones(n))
    dense /= dense.sum()
    series = simulate(spec, n, GenConfig(seed=1010))
    dense_gap = abs(float(w @ series.values) - float(dense @ series.values))
    dense_ok = dense_gap <= 1e-8

    # MC stability of sd(mu_blue) * n^(1/2-d)
    d = 0.3
    scaled = {}
    for ni, length in enumerate((300, 1000, 3000)):
        weights = blue_weights(autocovariance(spec, length - 1))
        mus = np.empty(200)
        for rep in range(200):
            mus[rep] = weights @ simulate(spec, length, GenConfig(seed=900 + 97 * ni + 3 * rep)).values
        scaled[length] = np.std(mus, ddof=1) * length ** (0.5 - d)
    vals = np.array(list(scaled.values()))
    mc_ok = (vals.max() - vals.min()) / vals.min() <= 0.25

    ok = bool(eff_ok and dense_ok and mc_ok)
    report(
        10,
        ok,
        f"efficiency in [{effs.min():.4f},{effs.max():.4f}] within [0.98,1.0001]; "
        f"dense-solve gap {dense_gap:.1e} <= 1e-8; "
        f"sd(mu_blue) n^(1/2-d) = {np.round(vals, 3).tolist()} spread "
        f"{100 * (vals.max() - vals.min()) / vals.min():.1f}% <= 25%",
    )


def test_criterion_11_property_suite():
    details = []

    # QMLE scale invariance and the sigma2 identity
    series = simulate(spec_of("farima00", 0.25, sigma2=1.0), 800, GenConfig(seed=1111))
    fit1 = fit_qmle(series, "farima00")
    fit2 = fit_qmle(Series(values=4.0 * series.values), "farima00")
    scale_ok = (
        abs(fit2.gamma_hat[0] - fit1.gamma_hat[0]) <= 1e-10
        and abs(fit2.sigma2_hat - 16.0 * fit1.sigma2_hat) <= 1e-8 * fit2.sigma2_hat
    )
    details.append(f"scale invariance {'ok' if scale_ok else 'BROKEN'}")

    ident_gap = abs(fit1.sigma2_hat - qmle_objective(series, "farima00", fit1.gamma_hat) / series.n)
    ident_ok = ident_gap <= 1e-12 * fit1.sigma2_hat
    details.append(f"sigma2 identity gap {ident_gap:.1e}")

    # gradient vs finite differences
    h = 1e-6
    grad = qmle_gradient(series, "farima00", (0.3,))[0]
    fd = (
        qmle_objective(series, "farima00", (0.3 + h,))
        - qmle_objective(series, "farima00", (0.3 - h,))
    ) / (2 * h)
    grad_ok = abs(grad - fd) <= 1e-5 * max(1.0, abs(fd))
    details.append(f"gradient rel gap {abs(grad - fd) / max(1.0, abs(fd)):.1e}")

    # Parseval at 1e-10
    x = Series(values=rng_from_seed(1112).standard_normal(501))
    pgram = periodogram(x)
    sample_var = float(np.mean((x.values - x.values.mean()) ** 2))
    parseval_gap = abs((2.0 * math.pi / 501) * 2.0 * pgram.sum() - sample_var)
    parseval_ok = parseval_gap <= 1e-10
    details.append(f"Parseval gap {parseval_gap:.1e}")

    # run_mc determinism across worker counts
    config = MCConfig(
        family="farima00",
        cells=(MCCell(gamma=(0.2,), sigma2=4.0),),
        n_grid=(200,),
        replications=10,
        estimators=("qmle",),
        base_seed=1113,
    )
    r1 = run_mc(config, workers=1)
    r2 = run_mc(config, workers=4)
    det_ok = all(vars(a) == vars(b) for a, b in zip(r1.records, r2.records))
    details.append(f"worker determinism {'ok' if det_ok else 'BROKEN'}")

    ok = bool(scale_ok and ident_ok and grad_ok and parseval_ok and det_ok)
    report(11, ok, "; ".join(details))
