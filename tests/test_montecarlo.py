import csv
import importlib
import io
import json

import logging
import math

import numpy as np
import pytest

import longmem.estimate as estimate
import longmem.montecarlo as montecarlo
from longmem.estimate import ESTIMATORS
from longmem.montecarlo import MCCell, MCConfig, emit_table, run_mc
from longmem.simulate import GenConfig, derive_seed, simulate


def small_config(**overrides):
    base = dict(
        family="farima00",
        cells=(MCCell(gamma=(0.2,), sigma2=4.0),),
        n_grid=(200,),
        replications=8,
        estimators=("qmle",),
        base_seed=314,
    )
    base.update(overrides)
    return MCConfig(**base)


def test_single_replication_sqrt_mse_is_absolute_error():
    config = small_config(replications=1, n_grid=(500,))
    report = run_mc(config)
    raw = report.raw[(0, 500, "qmle")]
    rec_d = report.lookup(0, 500, "qmle", "d")
    assert rec_d.sqrt_mse == pytest.approx(abs(raw[0, 0] - 0.2), rel=1e-14)
    rec_s = report.lookup(0, 500, "qmle", "sigma2")
    assert rec_s.sqrt_mse == pytest.approx(abs(raw[0, 1] - 4.0), rel=1e-14)


def test_run_mc_deterministic_and_worker_independent():
    config = small_config(replications=12)
    r1 = run_mc(config, workers=1)
    r2 = run_mc(config, workers=1)
    r3 = run_mc(config, workers=3)
    for other in (r2, r3):
        assert len(other.records) == len(r1.records)
        for a, b in zip(r1.records, other.records):
            assert vars(a) == vars(b)
        for key in r1.raw:
            assert np.array_equal(r1.raw[key], other.raw[key], equal_nan=True)


@pytest.mark.parametrize("replications", [1, 3, 7, montecarlo._BLOCK + 1])
@pytest.mark.parametrize(
    "family,gamma",
    [("farima00", (0.45,)), ("farima10", (0.2, 0.5)), ("lm", (0.45,))],
    ids=["farima00", "farima10", "lm"],
)
def test_run_mc_replication_matches_direct_fit(family, gamma, replications):
    # every row of a campaign, fitted in lockstep with its block, is the
    # standalone fit of replication r's series, bit for bit; the cells pin or
    # fail a share of fits, so NaN rows are compared as well
    config = MCConfig(
        family=family,
        cells=(MCCell(gamma=gamma, sigma2=1.0),),
        n_grid=(100, 300),
        replications=replications,
        estimators=("qmle", "whittle"),
        base_seed=314,
    )
    report = run_mc(config)
    spec = config.cells[0].spec(config.family)
    excluded = 0
    for i, n in enumerate(config.n_grid):
        for r in range(replications):
            series = simulate(spec, n, GenConfig(seed=derive_seed(314, 0, i, r)))
            for est in config.estimators:
                fit = ESTIMATORS[est](series, family, bounds=spec.gamma_bounds)
                if fit.converged and not fit.boundary_pinned:
                    expected = list(fit.gamma_hat) + [fit.sigma2_hat]
                else:
                    expected = [np.nan] * (len(gamma) + 1)
                    excluded += 1
                row = report.raw[(0, n, est)][r]
                assert np.array_equal(row, expected, equal_nan=True), (n, est, r)
    if replications > 3:
        assert excluded > 0


@pytest.mark.parametrize(
    "family,gamma",
    [("farima00", (0.45,)), ("farima10", (0.2, 0.5)), ("lm", (0.45,))],
    ids=["farima00", "farima10", "lm"],
)
def test_block_size_leaves_raw_tables_unchanged(monkeypatch, family, gamma):
    # rows equal their one-row fits, so the row cap and the byte budget
    # change no bit of a table; the last budget allows 9 rows at n = 100 and
    # 3 at n = 300
    config = MCConfig(
        family=family,
        cells=(MCCell(gamma=gamma, sigma2=1.0),),
        n_grid=(100, 300),
        replications=11,
        estimators=("qmle", "whittle"),
        base_seed=314,
    )
    fit_batch = montecarlo.fit_batch
    sizes = []

    def recording(series, *args, **kwargs):
        sizes.append((series[0].n, len(series)))
        return fit_batch(series, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "fit_batch", recording)
    tables = []
    for cap, budget in [(1, None), (5, None), (64, None), (64, 3 * 80 * 300)]:
        monkeypatch.setattr(montecarlo, "_BLOCK", cap)
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", budget)
        sizes.clear()
        tables.append(run_mc(config).raw)
        largest = {n: max(k for m, k in sizes if m == n) for n in config.n_grid}
        expected = {100: 9, 300: 3} if budget else dict.fromkeys(config.n_grid, min(cap, 11))
        assert largest == expected
    for other in tables[1:]:
        assert other.keys() == tables[0].keys()
        for key in tables[0]:
            assert np.array_equal(other[key], tables[0][key], equal_nan=True), key


@pytest.mark.parametrize("estimator", ["qmle", "whittle"])
def test_fit_that_raises_is_excluded_alone(monkeypatch, caplog, estimator):
    # replication 2's contrast raises inside its block: it alone is excluded
    # and logged, and every other row is the one the clean run gives
    config = small_config(replications=6, estimators=(estimator,))
    clean = run_mc(config)
    rows = {"qmle": estimate._QmleRows, "whittle": estimate._WhittleRows}[estimator]
    contrasts = rows.contrasts

    def failing(self, pending, ds):
        if 2 in pending:
            raise RuntimeError("contrast failed")
        return contrasts(self, pending, ds)

    monkeypatch.setattr(rows, "contrasts", failing)
    with caplog.at_level(logging.ERROR, logger="longmem.montecarlo"):
        report = run_mc(config)
    raw, ref = report.raw[(0, 200, estimator)], clean.raw[(0, 200, estimator)]
    assert np.isnan(raw[2]).all() and not np.isnan(ref).any()
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(raw[others], ref[others])
    assert report.lookup(0, 200, estimator, "d").failures == 1
    (record,) = caplog.records
    assert f"fit {estimator} failed: cell 0, n 200, replication 2" in record.getMessage()
    assert record.exc_info[0] is RuntimeError


def test_run_mc_fits_the_series_less_its_known_mean():
    # a cell's mu is the known mean, subtracted before the fit: the fits at
    # mu = 5 are those at mu = 0 up to the rounding of x - mu
    reports = [
        run_mc(
            MCConfig(
                family="farima00",
                cells=(MCCell(gamma=(0.2,), sigma2=1.0, mu=mu),),
                n_grid=(1000,),
                replications=50,
                estimators=("qmle",),
                base_seed=11,
            )
        )
        for mu in (0.0, 5.0)
    ]
    at0, at5 = (r.lookup(0, 1000, "qmle", "d") for r in reports)
    assert at0.replications_used == 50
    assert (at5.replications_used, at5.failures) == (at0.replications_used, at0.failures)
    d0, d5 = (r.raw[(0, 1000, "qmle")][:, 0] for r in reports)
    np.testing.assert_allclose(d5, d0, rtol=0.0, atol=1e-6)


def test_failures_are_counted_and_excluded():
    # true d sits 0.002 under the bound, so many fits pin at the upper edge
    config = MCConfig(
        family="farima00",
        cells=(MCCell(gamma=(0.488,), sigma2=4.0),),
        n_grid=(300,),
        replications=30,
        estimators=("qmle",),
        base_seed=77,
    )
    report = run_mc(config)
    rec = report.lookup(0, 300, "qmle", "d")
    assert rec.failures > 0
    assert rec.replications_used + rec.failures == 30
    raw = report.raw[(0, 300, "qmle")]
    assert int(np.isnan(raw[:, 0]).sum()) == rec.failures


def test_truncated_ma_generator_campaign():
    config = small_config(generator="truncated-ma")
    report = run_mc(config)
    rec = report.lookup(0, 200, "qmle", "d")
    assert rec.replications_used > 0
    assert np.isfinite(rec.sqrt_mse)


def test_truncated_ma_campaign_builds_the_weights_once(monkeypatch):
    # the package attribute longmem.simulate is the function, not the module
    simulate = importlib.import_module("longmem.simulate")
    # start from empty simulate caches, so an earlier test's entry cannot hit
    for obj in vars(simulate).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    calls = []
    ma_coeffs = simulate.ma_coeffs

    def counting(spec, K):
        calls.append((spec, K))
        return ma_coeffs(spec, K)

    monkeypatch.setattr(simulate, "ma_coeffs", counting)
    config = small_config(
        family="lm", cells=(MCCell(gamma=(0.3,), sigma2=2.0),), generator="truncated-ma", replications=5
    )
    run_mc(config)
    spec = config.cells[0].spec(config.family)
    assert calls == [(spec, 10 * 200)]


def test_mc_se_and_bias_consistency():
    config = small_config(replications=50, n_grid=(400,))
    report = run_mc(config)
    rec = report.lookup(0, 400, "qmle", "d")
    raw = report.raw[(0, 400, "qmle")]
    err = raw[~np.isnan(raw[:, 0]), 0] - 0.2
    assert rec.sqrt_mse >= abs(rec.bias)
    assert rec.bias == pytest.approx(err.mean(), rel=1e-12)
    assert rec.mc_se > 0


@pytest.mark.parametrize("estimator", ["qmle", "whittle"])
def test_campaign_whose_bounds_leave_the_domain_fails_up_front(monkeypatch, estimator):
    # LM weights need d in (0, 1): a cell whose search box reaches below 0
    # is a bad config, rejected before any fit is evaluated, rather than
    # reporting a sqrt-MSE over the fits that stayed inside
    rows = {"qmle": estimate._QmleRows, "whittle": estimate._WhittleRows}[estimator]
    monkeypatch.setattr(rows, "contrasts", lambda *args: pytest.fail("evaluated"))
    with pytest.raises(ValueError, match="d in \\(0, 1\\)"):
        MCConfig(
            family="lm",
            cells=(MCCell(gamma=(0.2,), sigma2=1.0, gamma_bounds=((-0.25, 0.75),)),),
            n_grid=(300,),
            replications=4,
            estimators=(estimator,),
            base_seed=5,
        )


def test_whittle_campaign_at_n_3_fails_with_the_reason():
    with pytest.raises(ValueError, match="need n >= 4"):
        small_config(n_grid=(3,), estimators=("whittle",), replications=2)


def test_whittle_estimator_campaign():
    config = small_config(estimators=("qmle", "whittle"), replications=6)
    report = run_mc(config)
    assert np.isfinite(report.lookup(0, 200, "whittle", "d").sqrt_mse)


def test_emit_table_shapes_and_round_trip():
    config = MCConfig(
        family="farima00",
        cells=(
            MCCell(gamma=(0.1,), sigma2=4.0),
            MCCell(gamma=(0.3,), sigma2=4.0),
            # :g alone writes 0.3 for this cell too
            MCCell(gamma=(0.3000001,), sigma2=4.0),
        ),
        n_grid=(200, 400),
        replications=4,
        estimators=("qmle", "whittle"),
        base_seed=11,
    )
    report = run_mc(config)

    table_csv = emit_table(report, format="csv")
    rows = list(csv.reader(io.StringIO(table_csv)))
    assert len(set(rows[0])) == len(rows[0])
    assert len(rows) == 1 + len(config.n_grid) * len(config.estimators)
    # two key columns (n, estimator) plus cells x coordinates data columns
    assert len(rows[0]) == 2 + len(config.cells) * 2
    for row in rows[1:]:
        for cell_value, header in zip(row[2:], rows[0][2:]):
            rec = None
            n, est = int(row[0]), row[1]
            parsed = float(cell_value)
            for candidate in report.records:
                if (
                    candidate.n == n
                    and candidate.estimator == est
                    and f"{candidate.cell_label} {candidate.coord}" == header
                ):
                    rec = candidate
            assert rec is not None
            assert parsed == pytest.approx(rec.sqrt_mse, abs=1e-12)

    table_md = emit_table(report, format="markdown")
    lines = table_md.strip().splitlines()
    assert len(lines) == 2 + len(config.n_grid) * len(config.estimators)
    assert lines[0].count("|") == 2 + len(config.cells) * 2 + 2 - 1  # pipes = columns + 1

    single = run_mc(small_config(replications=2))
    assert len(emit_table(single, format="csv").strip().splitlines()) == 2

    with pytest.raises(ValueError):
        emit_table(report, format="html")


def test_cell_labels_keep_short_text_unless_it_rounds():
    assert MCCell(gamma=(0.2,), sigma2=1e160).label() == "g=(0.2) s2=1e+160"
    assert MCCell(gamma=(0.1, 0.9), sigma2=1e-170).label() == "g=(0.1,0.9) s2=1e-170"
    assert MCCell(gamma=(0.2000001,), sigma2=4.0).label() == "g=(0.2000001) s2=4"
    assert MCCell(gamma=(0.2,), sigma2=1.0 / 3.0).label() == "g=(0.2) s2=0.3333333333333333"


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "mc.json"
    path.write_text(
        json.dumps(
            {
                "family": "farima10",
                "cells": [
                    {"gamma": [0.1, 0.5], "sigma2": 4.0},
                    {"gamma": [0.3, 0.9], "sigma2": 1.0, "gamma_bounds": [[-0.2, 0.75], [-0.99, 0.99]]},
                ],
                "n_grid": [300, 1000],
                "replications": 25,
                "estimators": ["qmle"],
                "base_seed": 2024,
                "generator": "exact-gaussian",
            }
        )
    )
    config = MCConfig.from_json(path)
    assert config.family.value == "farima10"
    assert config.cells[1].gamma_bounds == ((-0.2, 0.75), (-0.99, 0.99))
    assert config.n_grid == (300, 1000)
    assert config.replications == 25


def test_config_json_equals_python_config(tmp_path):
    # the dataclasses own the defaults and normalise lists to tuples, so a
    # JSON config and the same config built in Python with lists are equal
    cell = {"gamma": [0.3], "sigma2": 2, "gamma_bounds": [[0.01, 0.49]]}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"family": "lm", "cells": [cell]}))
    built = MCConfig(family="lm", cells=[MCCell(**cell)])
    assert MCConfig.from_json(path) == built
    assert built == MCConfig(family="lm", cells=[cell])


def test_report_json_export(tmp_path):
    report = run_mc(small_config(replications=3))
    out = tmp_path / "report.json"
    report.to_json(out)
    data = json.loads(out.read_text())
    assert data["family"] == "farima00"
    assert len(data["records"]) == 2  # one cell, one n, qmle, coords d and sigma2
    assert len(data["raw"]) == 1
    assert len(data["raw"][0]["estimates"]) == 3


def test_report_json_is_strict_for_single_replication(tmp_path):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    report = run_mc(small_config(replications=1))
    assert np.isnan(report.lookup(0, 200, "qmle", "d").mc_se)
    out = tmp_path / "report.json"
    report.to_json(out)
    data = json.loads(out.read_text(), parse_constant=reject)
    assert [rec["mc_se"] for rec in data["records"]] == [None, None]
    assert data["records"][0]["sqrt_mse"] == report.lookup(0, 200, "qmle", "d").sqrt_mse


def test_report_is_its_raw_tables(tmp_path):
    # records are computed from raw on request, so a report rebuilt from the
    # config and raw tables alone writes the same JSON
    report = run_mc(small_config(replications=3, estimators=("qmle", "whittle")))
    rebuilt = montecarlo.MCReport(config=report.config, raw=report.raw)
    assert rebuilt.as_dict() == report.as_dict()
    report.to_json(tmp_path / "a.json")
    rebuilt.to_json(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


@pytest.mark.parametrize(
    "key",
    [(1, 200, "qmle", "d"), (0, 300, "qmle", "d"), (0, 200, "whittle", "d"), (0, 200, "qmle", "alpha")],
    ids=["cell", "n", "estimator", "coord"],
)
def test_lookup_of_an_absent_record_raises_key_error(key):
    report = run_mc(small_config(replications=2))
    with pytest.raises(KeyError) as info:
        report.lookup(*key)
    assert info.value.args == (key,)


def test_emit_table_of_a_report_without_raw_tables_fails():
    with pytest.raises(ValueError, match="empty report"):
        emit_table(montecarlo.MCReport(config=small_config()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [532, -564])
def test_records_at_any_noise_scale(k):
    # a sigma2 of 2**k scales every QMLE sigma2 error by exactly 2**k, whose
    # square overflows (k = 532) or underflows (k = -564) in plain units
    def run(sigma2):
        config = small_config(
            cells=(MCCell(gamma=(0.2,), sigma2=sigma2),),
            n_grid=(300,),
            replications=16,
            estimators=("qmle", "whittle"),
            base_seed=5,
        )
        return run_mc(config)

    unit, scaled = run(1.0), run(2.0**k)
    fields = ("sqrt_mse", "bias", "mc_se", "replications_used", "failures")
    a, b = (r.lookup(0, 300, "qmle", "d") for r in (unit, scaled))
    assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields]
    a, b = (r.lookup(0, 300, "qmle", "sigma2") for r in (unit, scaled))
    for f in ("sqrt_mse", "bias", "mc_se"):
        assert getattr(b, f) == math.ldexp(getattr(a, f), k)
    for coord in ("d", "sigma2"):
        rec = scaled.lookup(0, 300, "whittle", coord)
        assert all(0 < value < math.inf for value in (rec.sqrt_mse, rec.mc_se))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(estimators=("bogus",))
    with pytest.raises(ValueError):
        small_config(cells=(MCCell(gamma=(0.7,), sigma2=1.0),))
    with pytest.raises(ValueError):
        small_config(n_grid=(200, 1))  # simulate needs n >= 2
    with pytest.raises(ValueError):
        small_config(generator="bogus")
    # a repeated n or estimator would be fitted twice with different seeds
    # and the report would keep one run; True would pass for the integer 1
    for overrides, message in [
        ({"n_grid": (100, 100)}, "n_grid: entries must be distinct"),
        ({"estimators": ("qmle", "qmle")}, "estimators: entries must be distinct"),
        ({"base_seed": -1}, "base_seed: must be >= 0"),
        ({"replications": True}, "replications: expected an integer, got True"),
        ({"n_grid": (True, 200)}, "n_grid: expected an integer, got True"),
        ({"base_seed": False}, "base_seed: expected an integer, got False"),
    ]:
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


def test_d_insensitivity_away_from_half():
    # sqrt-MSE(d-hat) at n=1000 varies by < 30% across d in 0.1..0.4
    config = MCConfig(
        family="farima00",
        cells=tuple(MCCell(gamma=(d,), sigma2=4.0) for d in (0.1, 0.2, 0.3, 0.4)),
        n_grid=(1000,),
        replications=200,
        estimators=("qmle",),
        base_seed=515,
    )
    report = run_mc(config, workers=2)
    vals = [report.lookup(i, 1000, "qmle", "d").sqrt_mse for i in range(4)]
    assert (max(vals) - min(vals)) / min(vals) < 0.30


def test_whittle_reference_cell_n300():
    # full-replication check of one reference Whittle cell: d = 0.1,
    # sigma2 = 4, n = 300, sqrt-MSE targets 0.050 (d) and 0.327 (sigma2)
    config = MCConfig(
        family="farima00",
        cells=(MCCell(gamma=(0.1,), sigma2=4.0),),
        n_grid=(300,),
        replications=1000,
        estimators=("whittle",),
        base_seed=616,
    )
    report = run_mc(config, workers=2)
    rec_d = report.lookup(0, 300, "whittle", "d")
    rec_s = report.lookup(0, 300, "whittle", "sigma2")
    assert 0.050 * 0.8 <= rec_d.sqrt_mse <= 0.050 * 1.2
    assert 0.327 * 0.8 <= rec_s.sqrt_mse <= 0.327 * 1.2
