"""Command-line surface: simulate, fit, mc, blue, analyze.

Exit codes: 0 success, 1 I/O or validation error, 2 fit failure.  main is
the one place that turns a library failure, a ValueError or RuntimeError,
into one `error: <message>` line on stderr and exit code 1; a command keeps
only the failures that carry their own prefix or exit code.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .estimate import ESTIMATORS, FitResult, blue_mean, predictors, standard_errors
from .models import Family, ModelSpec
from .montecarlo import MCConfig, emit_table, run_mc
from .simulate import (
    GENERATORS,
    GenConfig,
    Series,
    series_from_csv,
    series_to_csv,
    simulate,
)

__all__ = ["detrend_linear", "main"]


def detrend_linear(series: Series) -> tuple[Series, float, float]:
    """OLS regression of X_t on t = 1..n; returns (residuals, intercept, slope)."""
    n = series.n
    if n < 3:
        raise ValueError("detrend_linear needs n >= 3")
    t = np.arange(1.0, n + 1)
    slope, intercept = np.polyfit(t, series.values, 1)
    resid = series.values - (intercept + slope * t)
    resid = resid - resid.mean()  # shrinks the fit's roundoff mean, which stays nonzero
    return Series(values=resid), float(intercept), float(slope)


def _residual_mu4(series: Series, fit: FitResult) -> float:
    if not 0.0 < fit.sigma2_hat < np.inf:  # no residual to standardize
        return np.nan
    resid = series.values - predictors(series.values, fit.family, fit.gamma_hat)
    std = resid / np.sqrt(fit.sigma2_hat)
    square = std * std  # numpy has no fast path for ** 4: it calls pow per element
    return float(np.mean(square * square))


def _load_series(path: str) -> Series:
    try:
        return series_from_csv(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read series from {path}: {exc}") from exc


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _WarningLines(logging.Handler):
    """Each record of the longmem logger as one warning: line on the stderr
    of the moment it is emitted, so a caller that redirects stderr sees it."""

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if record.exc_info:
            message += f": {record.exc_info[1]}"
        try:
            print(f"warning: {message}", file=sys.stderr)
        except Exception:
            self.handleError(record)


def _write(path: str, write) -> None:
    """Run write(path); an unwritable path raises ValueError naming it."""
    try:
        write(path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _stdout(text: str) -> None:
    """Write text to stdout.  Through its byte buffer when it has one, in a
    loop that checks each count: a write that meets a pipe closed part-way
    through returns short, and the next one raises BrokenPipeError into
    main.  A stream without a buffer, such as an in-process caller's
    StringIO, takes the text as it is."""
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding))
    while data:
        data = data[buffer.write(data) :]


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out:
        _write(out, lambda path: Path(path).write_text(text))
    else:
        _stdout(text)


def _spec_from_args(args) -> ModelSpec:
    family = Family(args.family)
    gamma = (args.d,) if family is not Family.FARIMA10 else (args.d, args.alpha)
    return ModelSpec(family=family, gamma=gamma, sigma2=args.sigma2, mu=args.mu)


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    cfg = GenConfig(generator=args.generator, seed=args.seed, K=args.K)
    series = simulate(spec, args.n, cfg)
    if args.out:
        _write(args.out, lambda path: series_to_csv(series, path))
    else:
        text = io.StringIO()
        series_to_csv(series, text)
        _stdout(text.getvalue())
    return 0


def cmd_fit(args) -> int:
    series = _load_series(args.input)
    family = Family(args.family)
    if args.detrend:
        series, _, _ = detrend_linear(series)
    fit = ESTIMATORS[args.estimator](series, family)
    if args.stderr:
        fit.stderr = standard_errors(family, fit.gamma_hat, fit.sigma2_hat, series.n)
    if not fit.converged:
        bad = not 0.0 < fit.sigma2_hat < np.inf
        cause = f"sigma2_hat is {fit.sigma2_hat!r}" if bad else "the search over d did not converge"
        print(f"warning: the fit did not converge: {cause}", file=sys.stderr)
    _emit(fit.as_dict(), args.out)
    return 0 if fit.converged else 2


def cmd_mc(args) -> int:
    try:
        config = MCConfig.from_json(args.config)
    except (OSError, ValueError) as exc:
        return _fail(f"bad MC config: {exc}")
    created = bool(args.out) and not Path(args.out).exists()
    if args.out:
        # fail before the campaign, not after it; "a" keeps an existing file
        _write(args.out, lambda path: open(path, "a").close())
    try:
        report = run_mc(config)
    except (ValueError, RuntimeError) as exc:
        if created:  # leave no empty report behind
            Path(args.out).unlink(missing_ok=True)
        return _fail(f"Monte Carlo campaign failed: {exc}")
    if args.out or not args.table:
        _emit(report.as_dict(), args.out)
    if args.table:
        _stdout(emit_table(report, format=args.table))
    return 0


def cmd_blue(args) -> int:
    series = _load_series(args.input)
    spec = _spec_from_args(args)
    mu = blue_mean(series, spec)
    _emit({"mu_blue": mu, "n": series.n, "family": spec.family.value}, args.out)
    return 0


def cmd_analyze(args) -> int:
    series = _load_series(args.input)
    trend = None  # [intercept, slope] of the OLS detrend
    work = series
    families = [Family(f) for f in (args.family or ["farima00", "lm"])]
    if args.detrend:
        work, intercept, slope = detrend_linear(series)
        trend = [intercept, slope]
    estimators = args.estimator or ["qmle"]
    fits: list[FitResult] = []
    mu4: list[float] = []  # mu4[i] belongs to fits[i]
    failed = False
    for family in families:
        for est in estimators:
            try:
                fit = ESTIMATORS[est](work, family)
                # sigma2 standard error uses the fourth moment estimated from
                # this fit's standardized residuals (noise-distribution-dependent)
                fit_mu4 = _residual_mu4(work, fit)
                fit.stderr = standard_errors(
                    fit.family, fit.gamma_hat, fit.sigma2_hat, work.n, fit_mu4
                )
            except (ValueError, RuntimeError) as exc:
                print(f"warning: {family.value}/{est} fit failed: {exc}", file=sys.stderr)
                failed = True
                continue
            failed = failed or not fit.converged
            fits.append(fit)
            mu4.append(fit_mu4)
    if not fits:
        return _fail("all fits failed", code=2)

    qmle = [i for i, f in enumerate(fits) if f.estimator == "qmle"] or range(len(fits))
    i_best = min(qmle, key=lambda i: fits[i].sigma2_hat)
    best = fits[i_best]
    try:
        best_spec = ModelSpec(family=best.family, gamma=best.gamma_hat, sigma2=best.sigma2_hat)
        mu_blue = blue_mean(series, best_spec)  # mean of the raw, non-detrended series
    except (ValueError, RuntimeError) as exc:
        return _fail(f"BLUE mean under the best fit failed: {exc}", code=2)
    report = {
        "trend": trend,
        "fits": [fit.as_dict() for fit in fits],
        "mu_blue": mu_blue,
        "residual_mu4": mu4[i_best],
    }
    _emit(report, args.out)
    return 2 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and argparse looks up sys.stderr when it reports."""
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Long-memory linear processes: simulation, QMLE/Whittle fitting, "
        "BLUE means, Monte Carlo sqrt-MSE tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, need_n=False):
        p.add_argument("--family", default="farima00", help="farima00 | farima10 | lm")
        p.add_argument("--d", type=float, default=0.2, help="memory parameter")
        p.add_argument("--alpha", type=float, default=0.0, help="AR parameter (farima10)")
        p.add_argument("--sigma2", type=float, default=1.0, help="innovation variance")
        p.add_argument("--mu", type=float, default=0.0, help="location parameter")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="trajectory length")

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    add_model_flags(p, need_n=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generator", default="exact-gaussian", choices=GENERATORS)
    p.add_argument("--K", type=int, default=None, help="truncated-ma MA truncation")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one family to a CSV series")
    p.add_argument("input", help="CSV series path")
    p.add_argument("--family", default="farima00")
    p.add_argument("--estimator", default="qmle", choices=ESTIMATORS)
    p.add_argument("--detrend", action="store_true")
    p.add_argument("--stderr", action="store_true", help="include asymptotic standard errors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mc", help="run a Monte Carlo campaign from a JSON config")
    p.add_argument("--config", required=True, help="MCConfig JSON path")
    p.add_argument("--out", default=None, help="write the full report JSON here")
    p.add_argument("--table", default=None, choices=["csv", "markdown"])
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("blue", help="BLUE mean of a CSV series under a fixed model")
    p.add_argument("input", help="CSV series path")
    add_model_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_blue)

    p = sub.add_parser("analyze", help="detrend, fit families, report JSON summary")
    p.add_argument("input", help="CSV series path")
    p.add_argument("--family", action="append", help="repeatable; default farima00 and lm")
    p.add_argument("--estimator", action="append", choices=ESTIMATORS)
    p.add_argument("--detrend", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    return parser


def _silence_stdout() -> None:
    """Point stdout's descriptor at devnull, so that the interpreter's last
    flush does not fail on a closed pipe again.  A stream without a
    descriptor, such as an in-process caller's StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # library warnings and logged reasons become one line each, like the
    # error: lines
    log, handler = logging.getLogger("longmem"), _WarningLines()
    log.addHandler(handler)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
            return code
        except BrokenPipeError:
            _silence_stdout()
            return _fail("stdout was closed before the output was written")
        except (ValueError, RuntimeError) as exc:
            return _fail(str(exc))
        finally:
            log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
