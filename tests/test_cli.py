import contextlib
import importlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import longmem
import longmem.estimate as estimate
from longmem.cli import _residual_mu4, build_parser, detrend_linear, main
from longmem.estimate import ESTIMATORS, blue_mean, fit_qmle, predictors, standard_errors
from longmem.models import ModelSpec
from longmem.montecarlo import MCConfig, emit_table, run_mc
from longmem.simulate import (
    EmbeddingError,
    GenConfig,
    Series,
    rng_from_seed,
    series_from_csv,
    series_to_csv,
    simulate,
)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# detrend_linear
# ---------------------------------------------------------------------------


def test_detrend_exact_linear_input():
    t = np.arange(1, 101)
    series = Series(values=2.5 + 0.03 * t)
    resid, intercept, slope = detrend_linear(series)
    assert np.max(np.abs(resid.values)) < 1e-10
    assert intercept == pytest.approx(2.5, abs=1e-10)
    assert slope == pytest.approx(0.03, abs=1e-12)


def test_detrend_constant_input():
    series = Series(values=np.full(50, 7.0))
    resid, intercept, slope = detrend_linear(series)
    assert np.max(np.abs(resid.values)) < 1e-12
    assert slope == pytest.approx(0.0, abs=1e-14)
    assert intercept == pytest.approx(7.0, abs=1e-10)


def test_detrend_residual_mean_is_zero():
    spec = ModelSpec(family="farima00", gamma=(0.3,), sigma2=4.0)
    x = simulate(spec, 500, GenConfig(seed=1)).values
    series = Series(values=x + 1.0 + 0.01 * np.arange(1, 501))
    resid, _, _ = detrend_linear(series)
    assert abs(resid.values.mean()) < 1e-10


def test_detrend_slope_recovery_with_long_memory_noise():
    # pilot band: OLS point recovery under FARIMA00 noise, fixed seed
    spec = ModelSpec(family="farima00", gamma=(0.3,), sigma2=4.0)
    n = 2000
    x = simulate(spec, n, GenConfig(seed=12)).values
    b = 0.005
    series = Series(values=x + b * np.arange(1, n + 1))
    _, _, slope = detrend_linear(series)
    assert abs(slope - b) < 0.002


def test_detrend_needs_three_points():
    with pytest.raises(ValueError):
        detrend_linear(Series(values=np.array([1.0, 2.0])))


# ---------------------------------------------------------------------------
# simulate / fit round trip
# ---------------------------------------------------------------------------


def test_cli_simulate_then_fit_round_trip(tmp_path):
    data = tmp_path / "sim.csv"
    out = tmp_path / "fit.json"
    code = run_cli(
        "simulate", "--family", "farima00", "--n", "3000", "--d", "0.3",
        "--sigma2", "4.0", "--seed", "77", "--out", str(data),
    )
    assert code == 0
    code = run_cli("fit", str(data), "--family", "farima00", "--out", str(out))
    assert code == 0
    fit = json.loads(out.read_text())
    assert abs(fit["gamma_hat"][0] - 0.3) < 0.05
    assert fit["estimator"] == "qmle"
    assert fit["converged"] is True


def test_cli_fit_equals_library_fit(tmp_path):
    data = tmp_path / "sim.csv"
    out = tmp_path / "fit.json"
    spec = ModelSpec(family="lm", gamma=(0.25,), sigma2=2.0)
    series = simulate(spec, 800, GenConfig(seed=5))
    series_to_csv(series, data)
    assert run_cli("fit", str(data), "--family", "lm", "--out", str(out)) == 0
    cli_fields = json.loads(out.read_text())
    lib_fields = fit_qmle(series_from_csv(data), "lm").as_dict()
    assert cli_fields == lib_fields


@pytest.mark.parametrize("estimator", ["qmle", "whittle"])
@pytest.mark.parametrize("family,gamma", [("lm", (0.25,)), ("farima10", (0.25, 0.4))])
def test_cli_fit_stderr_is_standard_errors(tmp_path, family, gamma, estimator):
    # --stderr prints standard_errors at the library fit, with the Gaussian
    # mu4 = 3, exactly after the JSON round trip
    data, out = tmp_path / "sim.csv", tmp_path / "fit.json"
    spec = ModelSpec(family=family, gamma=gamma, sigma2=2.0)
    series_to_csv(simulate(spec, 800, GenConfig(seed=9)), data)
    argv = ["fit", str(data), "--family", family, "--estimator", estimator, "--stderr"]
    assert run_cli(*argv, "--out", str(out)) == 0
    fields = json.loads(out.read_text())
    fit = ESTIMATORS[estimator](series_from_csv(data), family)
    expected = standard_errors(family, fit.gamma_hat, fit.sigma2_hat, 800)
    assert expected is not None
    assert fields == fit.as_dict() | {"stderr": list(expected)}


def test_cli_fit_reads_a_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    spec = ModelSpec(family="lm", gamma=(0.25,), sigma2=2.0)
    values = simulate(spec, 500, GenConfig(seed=6)).values
    plain.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        assert run_cli("fit", str(path), "--family", "lm") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_fit_whittle_estimator(tmp_path):
    data = tmp_path / "sim.csv"
    out = tmp_path / "fit.json"
    spec = ModelSpec(family="farima00", gamma=(0.2,), sigma2=4.0)
    series_to_csv(simulate(spec, 1000, GenConfig(seed=8)), data)
    assert run_cli("fit", str(data), "--estimator", "whittle", "--out", str(out)) == 0
    assert json.loads(out.read_text())["estimator"] == "whittle"


def test_cli_fit_whittle_constant_series_exits_with_message(tmp_path, capsys):
    data = tmp_path / "const.csv"
    data.write_text("2.5\n" * 200)
    assert run_cli("fit", str(data), "--estimator", "whittle") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "periodogram is zero" in err


# ---------------------------------------------------------------------------
# blue
# ---------------------------------------------------------------------------


def test_cli_blue_matches_library(tmp_path):
    data = tmp_path / "sim.csv"
    out = tmp_path / "blue.json"
    spec = ModelSpec(family="farima00", gamma=(0.3,), sigma2=4.0, mu=3.0)
    series = simulate(spec, 400, GenConfig(seed=10))
    series_to_csv(series, data)
    code = run_cli(
        "blue", str(data), "--family", "farima00", "--d", "0.3", "--sigma2", "4.0",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    target = blue_mean(series, ModelSpec(family="farima00", gamma=(0.3,), sigma2=4.0))
    assert payload["mu_blue"] == pytest.approx(target, rel=1e-14)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_cli_mc_runs_config(tmp_path, capsys):
    config = tmp_path / "mc.json"
    report = tmp_path / "report.json"
    config.write_text(
        json.dumps(
            {
                "family": "farima00",
                "cells": [{"gamma": [0.2], "sigma2": 4.0}],
                "n_grid": [200],
                "replications": 5,
                "estimators": ["qmle"],
                "base_seed": 99,
            }
        )
    )
    code = run_cli("mc", "--config", str(config), "--out", str(report), "--table", "markdown")
    assert code == 0
    printed = capsys.readouterr().out
    assert "| n | estimator |" in printed
    data = json.loads(report.read_text())
    assert data["records"][0]["n"] == 200


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_cli_mc_prints_the_table_as_emitted(tmp_path, capsys, fmt):
    # one trailing newline: a CSV reader sees no empty last record
    config = _write_mc_config(tmp_path / "mc.json", replications=3)
    assert run_cli("mc", "--config", str(config), "--table", fmt) == 0
    assert capsys.readouterr().out == emit_table(run_mc(MCConfig.from_json(config)), fmt)


def test_cli_mc_bad_config(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{\"family\": \"farima00\"}")
    assert run_cli("mc", "--config", str(config)) == 1
    assert run_cli("mc", "--config", str(tmp_path / "missing.json")) == 1


_GOOD_MC = {
    "family": "farima00",
    "cells": [{"gamma": [0.2], "sigma2": 4.0}],
    "n_grid": [200],
    "replications": 2,
}


@pytest.mark.parametrize(
    "raw,names",
    [
        (_GOOD_MC | {"cells": 5}, "cells: "),
        ([_GOOD_MC], None),
        (_GOOD_MC | {"cells": [{"gamma": 0.2, "sigma2": 4.0}]}, "cells: gamma: "),
        (
            _GOOD_MC | {"cells": [{"gamma": [0.2], "sigma2": 4.0, "gamma_bounds": [0.1, 0.4]}]},
            "cells: gamma_bounds: ",
        ),
        (_GOOD_MC | {"family": "farima01"}, "family: "),
        (_GOOD_MC | {"n_grid": 200}, "n_grid: "),
        (_GOOD_MC | {"replication": 9}, "'replication'"),
        (_GOOD_MC | {"gen_K_mult": 10}, "'gen_K_mult'"),
        (_GOOD_MC | {"cells": []}, "cells: "),
        (_GOOD_MC | {"n_grid": []}, "n_grid: "),
        (_GOOD_MC | {"estimators": []}, "estimators: "),
        (_GOOD_MC | {"estimators": "qmle"}, "estimators: "),
        (_GOOD_MC | {"replications": 2.5}, "replications: "),
        (_GOOD_MC | {"replications": True}, "replications: "),
        (_GOOD_MC | {"n_grid": [200, True]}, "n_grid: "),
        (_GOOD_MC | {"base_seed": False}, "base_seed: "),
        (_GOOD_MC | {"base_seed": -1}, "base_seed: "),
        (_GOOD_MC | {"n_grid": [100, 100]}, "n_grid: "),
        (_GOOD_MC | {"estimators": ["qmle", "whittle", "qmle"]}, "estimators: "),
        # json.dumps writes these floats as the NaN and Infinity tokens
        (_GOOD_MC | {"cells": [{"gamma": [0.2], "sigma2": 4.0, "mu": math.nan}]}, "NaN"),
        (_GOOD_MC | {"cells": [{"gamma": [0.2], "sigma2": math.inf}]}, "Infinity"),
    ],
    ids=[
        "cells-not-a-list",
        "top-level-list",
        "gamma-not-a-list",
        "gamma_bounds-not-pairs",
        "unknown-family",
        "n_grid-not-a-list",
        "unknown-key",
        "removed-gen_K_mult",
        "no-cells",
        "empty-n_grid",
        "no-estimators",
        "estimators-a-string",
        "replications-not-an-integer",
        "replications-true",
        "n_grid-entry-true",
        "base_seed-false",
        "negative-base_seed",
        "duplicate-n_grid",
        "duplicate-estimators",
        "mu-nan-token",
        "sigma2-infinity-token",
    ],
)
def test_cli_mc_malformed_config_exits_with_message(tmp_path, capsys, raw, names):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps(raw))
    assert run_cli("mc", "--config", str(config), "--table", "markdown") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad MC config: ")
    assert "Traceback" not in err
    if names is not None:  # the field at fault, with the cell field after "cells: "
        assert names in err


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _write_mc_config(path, replications):
    path.write_text(
        json.dumps(
            {
                "family": "farima00",
                "cells": [{"gamma": [0.2], "sigma2": 4.0}],
                "n_grid": [200],
                "replications": replications,
                "estimators": ["qmle"],
                "base_seed": 99,
            }
        )
    )
    return path


def test_cli_mc_output_is_strict_json(tmp_path, capsys):
    # one replication leaves mc_se undefined; it must come out as null
    config = _write_mc_config(tmp_path / "mc.json", replications=1)
    assert run_cli("mc", "--config", str(config)) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert all(rec["mc_se"] is None for rec in data["records"])
    assert all(rec["sqrt_mse"] is not None for rec in data["records"])


@pytest.mark.parametrize(
    "exc", [EmbeddingError(-1.0, 512), ValueError("bad autocovariance")], ids=["embedding", "value"]
)
def test_cli_mc_campaign_failure_exits_with_message(tmp_path, capsys, monkeypatch, exc):
    def broken_embedding(spec, n):
        raise exc

    # the package re-exports the function simulate, which shadows the module
    monkeypatch.setattr(importlib.import_module("longmem.simulate"), "_embedding", broken_embedding)
    config = _write_mc_config(tmp_path / "mc.json", replications=2)
    assert run_cli("mc", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(exc) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trended_series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("analyze") / "series.csv"
    spec = ModelSpec(family="farima00", gamma=(0.35,), sigma2=0.04)
    n = 1632
    x = simulate(spec, n, GenConfig(seed=4242)).values
    trended = x + 0.2 + 2e-4 * np.arange(1, n + 1)
    series_to_csv(Series(values=trended), path)
    return path


def test_cli_analyze_detrended_workflow(trended_series_csv, tmp_path):
    out = tmp_path / "analysis.json"
    code = run_cli("analyze", str(trended_series_csv), "--detrend", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["trend"] is not None
    assert len(payload["fits"]) == 2  # farima00 and lm by default
    families = {fit["family"] for fit in payload["fits"]}
    assert families == {"farima00", "lm"}
    d_hat = [f["gamma_hat"][0] for f in payload["fits"] if f["family"] == "farima00"][0]
    assert abs(d_hat - 0.35) < 0.06
    assert payload["residual_mu4"] == pytest.approx(3.0, abs=0.7)
    assert np.isfinite(payload["mu_blue"])
    for fit in payload["fits"]:
        assert fit["stderr"] is not None


def test_cli_analyze_stderr_uses_the_residual_mu4(trended_series_csv, tmp_path):
    # each fit's stderr is standard_errors at that fit of the detrended
    # series, with the fourth moment of its own standardized residuals,
    # exactly after the JSON round trip
    out = tmp_path / "a.json"
    argv = ["analyze", str(trended_series_csv), "--detrend"]
    assert run_cli(*argv, "--estimator", "qmle", "--estimator", "whittle", "--out", str(out)) == 0
    work, _, _ = detrend_linear(series_from_csv(trended_series_csv))
    payload = json.loads(out.read_text())
    assert len(payload["fits"]) == 4
    for fields in payload["fits"]:
        fit = ESTIMATORS[fields["estimator"]](work, fields["family"])
        mu4 = _residual_mu4(work, fit)
        expected = standard_errors(fit.family, fit.gamma_hat, fit.sigma2_hat, work.n, mu4)
        assert expected is not None
        assert fields == fit.as_dict() | {"stderr": list(expected)}


def test_cli_analyze_offset_invariance_with_detrend(trended_series_csv, tmp_path):
    # a constant offset is absorbed by the OLS detrend, so d-hat moves by
    # far less than the 0.02 band
    series = series_from_csv(trended_series_csv)
    shifted = tmp_path / "shifted.csv"
    series_to_csv(Series(values=series.values + 5.0), shifted)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli("analyze", str(trended_series_csv), "--detrend", "--family", "farima00",
                   "--out", str(out_a)) == 0
    assert run_cli("analyze", str(shifted), "--detrend", "--family", "farima00",
                   "--out", str(out_b)) == 0
    d_a = json.loads(out_a.read_text())["fits"][0]["gamma_hat"][0]
    d_b = json.loads(out_b.read_text())["fits"][0]["gamma_hat"][0]
    assert abs(d_a - d_b) <= 0.02


def test_cli_analyze_whittle_agrees(trended_series_csv, tmp_path):
    out = tmp_path / "w.json"
    code = run_cli(
        "analyze", str(trended_series_csv), "--detrend", "--family", "farima00",
        "--estimator", "qmle", "--estimator", "whittle", "--out", str(out),
    )
    assert code == 0
    fits = json.loads(out.read_text())["fits"]
    d_q = [f["gamma_hat"][0] for f in fits if f["estimator"] == "qmle"][0]
    d_w = [f["gamma_hat"][0] for f in fits if f["estimator"] == "whittle"][0]
    assert abs(d_q - d_w) < 0.05


def test_cli_analyze_keeps_whittle_fits_that_have_no_stderr(tmp_path, capsys):
    # on a ramp the residual mu4 of both Whittle fits is below 1, so neither
    # has standard errors; both fits stay, converged, with stderr null
    path = tmp_path / "ramp.csv"
    series_to_csv(Series(values=np.arange(1.0, 301.0)), path)
    out = tmp_path / "ramp.json"
    assert run_cli("analyze", str(path), "--estimator", "whittle", "--out", str(out)) == 0
    fits = json.loads(out.read_text())["fits"]
    assert [(f["family"], f["converged"], f["stderr"]) for f in fits] == [
        ("farima00", True, None),
        ("lm", True, None),
    ]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("warning: no standard errors") and "mu4" in line for line in err)


# ---------------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------------


def test_cli_fit_of_an_all_zero_series_exits_2(tmp_path, capsys):
    # sigma2_hat = 0 is no fit of the model: not converged, and said so
    path = tmp_path / "zero.csv"
    path.write_text("0.0\n" * 300)
    assert run_cli("fit", str(path)) == 2
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["sigma2_hat"] == 0.0 and not out["converged"]
    assert captured.err == "warning: the fit did not converge: sigma2_hat is 0.0\n"
    # Whittle has no contrast at all there, and says why
    assert run_cli("fit", str(path), "--estimator", "whittle") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the periodogram is zero") and "constant" in err


def test_cli_fit_whose_search_fails_says_so(tmp_path, capsys, monkeypatch):
    real = estimate._bounded_search

    def failing_search(bounds, **kwargs):
        x, fun, nfev, success = yield from real(bounds, **kwargs)
        return x, fun, nfev, False

    monkeypatch.setattr(estimate, "_bounded_search", failing_search)
    path = tmp_path / "x.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 300, GenConfig(seed=1)), path)
    for est in ESTIMATORS:
        assert run_cli("fit", str(path), "--estimator", est) == 2
        err = capsys.readouterr().err
        assert err == "warning: the fit did not converge: the search over d did not converge\n"


def test_cli_fit_whittle_of_an_underflowing_series_names_the_cause(tmp_path, capsys):
    # the squares of a 1e-200-scaled series underflow: the periodogram is
    # zero although the series is not constant
    path = tmp_path / "tiny.csv"
    series_to_csv(Series(values=1e-200 * rng_from_seed(4).standard_normal(300)), path)
    assert run_cli("fit", str(path), "--estimator", "whittle") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the periodogram is zero") and "squares underflow" in err


def test_cli_analyze_of_an_all_zero_series_prints_no_traceback(tmp_path):
    # the residual mu4 is not computed at sigma2_hat = 0, so no 0/0 reaches
    # numpy, even with RuntimeWarning as an error
    path = tmp_path / "zero.csv"
    path.write_text("0.0\n" * 300)
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "longmem.cli", "analyze", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_subprocess_env(), timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith(("warning:", "error:")) for line in lines), lines
    assert lines[-1].startswith("error: BLUE mean under the best fit failed")


def test_cli_mc_whose_bounds_leave_the_domain_exits_1(tmp_path, capsys):
    config = tmp_path / "mc-lm-domain.json"
    config.write_text(
        json.dumps(
            {
                "family": "lm",
                "cells": [{"gamma": [0.2], "sigma2": 1.0, "gamma_bounds": [[-0.25, 0.75]]}],
                "n_grid": [300],
                "replications": 4,
                "estimators": ["qmle", "whittle"],
                "base_seed": 5,
            }
        )
    )
    assert run_cli("mc", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad MC config: ") and "d in (0, 1)" in err


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run_cli("fit", str(missing)) == 1
    assert run_cli("blue", str(missing)) == 1
    assert run_cli("analyze", str(missing)) == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run_cli("fit", str(bad)) == 1

    good = tmp_path / "good.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 100, GenConfig(seed=1)), good)
    assert run_cli("fit", str(good), "--family", "nosuch") == 1
    assert run_cli("analyze", str(good), "--family", "nosuch") == 1
    assert run_cli("simulate", "--n", "100", "--d", "0.7") == 1
    assert run_cli("simulate", "--n", "100", "--d", "0.2", "--sigma2", "-1") == 1


@pytest.mark.parametrize("exc", [RuntimeError, ValueError], ids=["runtime", "value"])
@pytest.mark.parametrize(
    "target, argv",
    [
        ("simulate", ["simulate", "--n", "10"]),
        ("fit", ["fit", "{csv}"]),
        ("blue_mean", ["blue", "{csv}"]),
        ("detrend_linear", ["fit", "{csv}", "--detrend"]),
    ],
    ids=["simulate", "fit", "blue", "detrend"],
)
def test_cli_turns_a_library_failure_into_one_error_line(
    tmp_path, capsys, monkeypatch, exc, target, argv
):
    # main alone turns a ValueError or RuntimeError from the library into
    # exit 1 and one error: line, whichever command raised it
    def broken(*args, **kwargs):
        raise exc(f"{target} broke")

    if target == "fit":
        monkeypatch.setitem(ESTIMATORS, "qmle", broken)
    else:
        monkeypatch.setattr(importlib.import_module("longmem.cli"), target, broken)
    good = tmp_path / "good.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 100, GenConfig(seed=1)), good)
    assert run_cli(*(a.format(csv=good) for a in argv)) == 1
    assert capsys.readouterr().err == f"error: {target} broke\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "10", "--mu", "nan"],
        ["simulate", "--n", "10", "--sigma2", "inf"],
        ["blue", "{csv}", "--mu", "nan"],
        ["blue", "{csv}", "--sigma2", "nan"],
    ],
    ids=["simulate-mu", "simulate-sigma2", "blue-mu", "blue-sigma2"],
)
def test_cli_non_finite_mu_or_sigma2_exits_1_naming_the_field(tmp_path, capsys, argv):
    good = tmp_path / "good.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 50, GenConfig(seed=1)), good)
    assert run_cli(*(a.format(csv=good) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2].lstrip('-')} must be"), err


@pytest.mark.parametrize(
    "lag1,message",
    [(2.0, "not a covariance"), (np.nan, "must be finite")],
    ids=["indefinite", "nan"],
)
def test_cli_blue_failure_exits_with_message(tmp_path, capsys, monkeypatch, lag1, message):
    # a column blue_weights rejects: blue exits 1, analyze 2, each with an
    # error: line and no traceback
    def broken(spec, maxlag):
        r = np.zeros(maxlag + 1)
        r[:2] = 1.0, lag1
        return r

    monkeypatch.setattr(importlib.import_module("longmem.estimate"), "autocovariance", broken)
    good = tmp_path / "good.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 200, GenConfig(seed=1)), good)
    assert run_cli("blue", str(good)) == 1
    assert run_cli("analyze", str(good), "--family", "farima00") == 2
    blue_err, analyze_err = capsys.readouterr().err.splitlines()
    assert blue_err.startswith("error: ") and message in blue_err
    assert analyze_err.startswith("error: BLUE mean under the best fit failed: ")
    assert message in analyze_err


@pytest.mark.parametrize("command", ["fit", "analyze"])
def test_cli_detrend_of_a_too_short_series_exits_with_message(tmp_path, capsys, command):
    two = tmp_path / "two.csv"
    two.write_text("x\n1.0\n2.0\n")
    assert run_cli(command, str(two), "--detrend") == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


def _subprocess_env() -> dict:
    """The environment under which a child Python imports this longmem."""
    path = [str(Path(longmem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


@pytest.mark.parametrize("extra", [[], ["--stderr"]], ids=["plain", "stderr"])
@pytest.mark.parametrize("estimator", ["qmle", "whittle"])
def test_cli_fit_of_an_overflowing_series_exits_2_with_strict_json(tmp_path, estimator, extra):
    # S_n and the periodogram overflow: a fit that is not converged, with no
    # traceback and no NaN or Infinity token
    path = tmp_path / "big.csv"
    series = simulate(ModelSpec(family="farima00", gamma=(0.2,)), 300, GenConfig(seed=1))
    series_to_csv(Series(values=1e200 * series.values), path)
    cmd = [sys.executable, "-m", "longmem.cli", "fit", str(path), "--estimator", estimator]
    proc = subprocess.run(
        cmd + extra, capture_output=True, text=True, env=_subprocess_env(), timeout=300
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    out = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert not out["converged"] and out["sigma2_hat"] is None


def test_cli_logged_reasons_are_warning_lines(tmp_path):
    # standard_errors logs why it has none; main prints that as a warning:
    # line on the stderr it finds then, and leaves no handler behind
    path = tmp_path / "big.csv"
    series = simulate(ModelSpec(family="farima00", gamma=(0.2,)), 300, GenConfig(seed=1))
    series_to_csv(Series(values=1e200 * series.values), path)
    logger = logging.getLogger("longmem")
    handlers = list(logger.handlers)
    err = io.StringIO()
    # the overflow warnings reach main's own warning: lines under any -W flag
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert main(["fit", str(path), "--stderr"]) == 2
    lines = err.getvalue().splitlines()
    assert any(line.startswith("warning: overflow") for line in lines)
    assert any(line.startswith("warning: no standard errors for farima00") for line in lines)
    assert all(line.startswith(("warning:", "error:")) for line in lines), lines
    assert logger.handlers == handlers


def test_lm_work_loads_no_further_module():
    # the first LM autocovariance and LM standard error build their Gauss
    # rules and the zeta table with numpy alone; scipy.special's roots_*
    # would load scipy.linalg, and numpy.polynomial is never needed
    code = (
        "import sys, longmem.cli; "
        "from longmem.estimate import standard_errors; "
        "from longmem.models import ModelSpec, autocovariance; "
        "before = set(sys.modules); "
        "autocovariance(ModelSpec('lm', (0.3,)), 2048); "
        "assert standard_errors('lm', (0.3,), 1.0, 1000) is not None; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _modules_loaded_by_cli_import(prefixes: tuple[str, ...]) -> str:
    """The modules starting with one of prefixes that a fresh
    `import longmem.cli` loads, as the repr of a sorted list."""
    code = (
        "import sys, longmem.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_neither_scipy_signal_nor_scipy_stats():
    # scipy.signal pulls in scipy.stats, which every fresh process would pay
    # for at start-up
    assert _modules_loaded_by_cli_import(("scipy.signal", "scipy.stats")) == "[]"


def test_cli_import_loads_no_scipy_optimize():
    # the fits run their own port of the bounded scalar search; importing
    # scipy.optimize would cost start-up time and load scipy.sparse
    assert _modules_loaded_by_cli_import(("scipy.optimize", "scipy.sparse")) == "[]"


def test_cli_import_loads_no_scipy_linalg():
    # the BLUE weights come from an in-package conjugate-gradient solve
    assert _modules_loaded_by_cli_import(("scipy.linalg",)) == "[]"


_NO_SCIPY_RUN = """
import contextlib, io, json, sys
from longmem.cli import main
from longmem.models import ModelSpec
from longmem.simulate import GenConfig, series_to_csv, simulate

tmp = sys.argv[1]
for family, gamma in (("farima00", (0.2,)), ("farima10", (0.2, 0.5)), ("lm", (0.3,))):
    data, config = f"{tmp}/{family}.csv", f"{tmp}/{family}.json"
    series_to_csv(simulate(ModelSpec(family=family, gamma=gamma), 300, GenConfig(seed=1)), data)
    cell = {"gamma": list(gamma), "sigma2": 1.0}
    with open(config, "w") as fh:
        json.dump({"family": family, "cells": [cell], "n_grid": [100], "replications": 2,
                   "estimators": ["qmle", "whittle"]}, fh)
    alpha = ["--alpha", str(gamma[1])] if family == "farima10" else []
    for argv in (
        ["fit", data, "--family", family, "--stderr"],
        ["fit", data, "--family", family, "--estimator", "whittle", "--stderr"],
        ["analyze", data, "--family", family, "--estimator", "qmle", "--estimator", "whittle"],
        ["blue", data, "--family", family, "--d", str(gamma[0])] + alpha,
        ["mc", "--config", config, "--table", "csv"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_work_loads_no_scipy(tmp_path):
    # scipy is a test oracle only: a fresh process that imports longmem.cli
    # and runs fit, analyze, blue and mc on every family loads no scipy module
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
        env=_subprocess_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "fit", "blue", "analyze", "mc"])
def test_cli_unwritable_out_exits_with_message(tmp_path, capsys, command):
    good = tmp_path / "good.csv"
    series_to_csv(simulate(ModelSpec(family="farima00", gamma=(0.2,)), 200, GenConfig(seed=1)), good)
    config = _write_mc_config(tmp_path / "mc.json", replications=2)
    args = {
        "simulate": ["simulate", "--n", "100"],
        "fit": ["fit", str(good)],
        "blue": ["blue", str(good)],
        "analyze": ["analyze", str(good), "--family", "farima00"],
        "mc": ["mc", "--config", str(config)],
    }[command]
    out = tmp_path / "missing" / "dir" / "out.x"
    assert run_cli(*args, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err


def test_cli_mc_checks_out_before_the_campaign(tmp_path, capsys, monkeypatch):
    calls = []

    def failing_run_mc(config, workers=1):
        calls.append(config)
        raise ValueError("campaign stopped")

    monkeypatch.setattr(importlib.import_module("longmem.cli"), "run_mc", failing_run_mc)
    config = _write_mc_config(tmp_path / "mc.json", replications=2)
    out = tmp_path / "missing" / "r.json"
    assert run_cli("mc", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert calls == []

    # a writable path reaches the campaign, and an existing file keeps its content
    existing = tmp_path / "old.json"
    existing.write_text("old report\n")
    assert run_cli("mc", "--config", str(config), "--out", str(existing)) == 1
    assert len(calls) == 1
    assert existing.read_text() == "old report\n"


def test_cli_mc_failed_campaign_leaves_no_new_out_file(tmp_path, capsys, monkeypatch):
    def failing_run_mc(config, workers=1):
        raise ValueError("campaign stopped")

    monkeypatch.setattr(importlib.import_module("longmem.cli"), "run_mc", failing_run_mc)
    config = _write_mc_config(tmp_path / "mc.json", replications=2)
    new = tmp_path / "new.json"
    assert run_cli("mc", "--config", str(config), "--out", str(new)) == 1
    assert capsys.readouterr().err.startswith("error: Monte Carlo campaign failed")
    assert not new.exists()
    # a file that was there before the command keeps its bytes
    existing = tmp_path / "old.json"
    existing.write_bytes(b"old report\n")
    assert run_cli("mc", "--config", str(config), "--out", str(existing)) == 1
    assert existing.read_bytes() == b"old report\n"


@pytest.mark.parametrize(
    "argv, messages",
    [
        (["fit"], ["QMLE"]),
        (["fit", "--estimator", "whittle"], ["Whittle"]),
        (["analyze", "--estimator", "qmle", "--estimator", "whittle"], ["QMLE", "Whittle"]),
    ],
    ids=["fit-qmle", "fit-whittle", "analyze"],
)
def test_cli_prints_library_warnings_as_warning_lines(tmp_path, capsys, argv, messages):
    path = tmp_path / "ten.csv"
    series_to_csv(Series(values=rng_from_seed(5).standard_normal(10)), path)
    code = run_cli(argv[0], str(path), *argv[1:])
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout still holds the JSON result alone
    assert code in (0, 2)
    lines = captured.err.splitlines()
    expected = {f"warning: n=10 is small; {m} asymptotics are unreliable" for m in messages}
    assert set(lines) == expected, captured.err


@pytest.mark.parametrize("seed", ["-1", "-20"])
def test_cli_simulate_rejects_a_negative_seed(capsys, seed):
    assert run_cli("simulate", "--n", "10", "--seed", seed) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed: expected a non-negative integer")
    assert seed in err and "Traceback" not in err


def test_cli_simulate_stdout(capsys):
    assert run_cli("simulate", "--n", "5", "--d", "0.2", "--seed", "3") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x"
    assert len(out) == 6
    float(out[1])


def test_cli_simulate_stdout_equals_out_file(tmp_path, capsysbinary):
    args = ["simulate", "--family", "lm", "--n", "500"]
    out = tmp_path / "x.csv"
    assert run_cli(*args, "--out", str(out)) == 0
    assert run_cli(*args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_cli_mc_out_file_equals_stdout(tmp_path, capsysbinary):
    # the --out file, MCReport.to_json and stdout hold the same bytes
    config = _write_mc_config(tmp_path / "mc.json", replications=4)
    out, lib = tmp_path / "r.json", tmp_path / "lib.json"
    assert run_cli("mc", "--config", str(config), "--out", str(out)) == 0
    assert run_cli("mc", "--config", str(config)) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    run_mc(MCConfig.from_json(config)).to_json(lib)
    assert lib.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{csv}", "--detrend"], ["simulate", "--family", "lm", "--n", "500"]],
    ids=["analyze", "simulate"],
)
def test_cli_closed_stdout_exits_1_without_traceback(trended_series_csv, argv):
    cmd = [sys.executable, "-m", "longmem.cli", *(a.format(csv=trended_series_csv) for a in argv)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(), text=True
    )
    proc.stdout.close()  # before the child writes, so its first write meets a closed pipe
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: stdout was closed before the output was written"
    ]


def test_cli_stdout_closed_part_way_through_exits_1():
    # the first writes reach the pipe and the reader then closes it: the
    # write that meets the closed pipe returns short, which must not pass
    # as success
    cmd = [sys.executable, "-m", "longmem.cli", "simulate", "--n", "200000"]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env()
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    err = err.decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: stdout was closed before the output was written"
    ]


def _fit_names(stdout: str) -> list[tuple[str, str]]:
    return [(fit["family"], fit["estimator"]) for fit in json.loads(stdout)["fits"]]


def test_cli_calls_share_one_parser_and_no_state(trended_series_csv, capsys):
    path = str(trended_series_csv)
    assert build_parser() is build_parser()
    assert run_cli("analyze", path, "--family", "lm", "--estimator", "whittle") == 0
    assert _fit_names(capsys.readouterr().out) == [("lm", "whittle")]
    # no --family or --estimator list survives from the call before
    assert run_cli("analyze", path) == 0
    assert _fit_names(capsys.readouterr().out) == [("farima00", "qmle"), ("lm", "qmle")]

    # a parse error reports to the stderr of its own call and breaks no later call
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli("analyze", path, "--estimator", "nosuch")
    assert exc.value.code == 2
    assert "usage: longmem analyze" in err.getvalue()
    assert "invalid choice: 'nosuch'" in err.getvalue()
    assert capsys.readouterr().err == ""
    assert run_cli("analyze", path, "--family", "farima00") == 0
    assert _fit_names(capsys.readouterr().out) == [("farima00", "qmle")]


def test_residual_mu4_matches_the_fourth_power():
    series = simulate(ModelSpec(family="lm", gamma=(0.3,)), 2000, GenConfig(seed=21))
    for family in ("farima00", "lm"):
        for estimator in ("qmle", "whittle"):
            fit = ESTIMATORS[estimator](series, family)
            resid = series.values - predictors(series.values, fit.family, fit.gamma_hat)
            std = resid / np.sqrt(fit.sigma2_hat)
            expected = np.mean(std**4)
            assert _residual_mu4(series, fit) == pytest.approx(expected, rel=1e-15, abs=0)
