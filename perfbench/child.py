#!/usr/bin/env python3
"""One role of the benchmark in a fresh interpreter.

    python3 perfbench/child.py JOB.json

The job names a role, the workload, the seed and where to write the result:

setup     import longmem (and, for campaigns, one cold simulate per cell)
stream    set-up, then run_mc chunks with the given workers, or one closed-loop
          client of in-process `analyze` requests, in slices on command
replay    set-up, then the traced replay of a finished serial run through the
          public functions of each module, then the cold per-layer probes

Only the standard library is imported before set-up is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def _setup(job: dict, tracer: "Tracer | None" = None) -> float:
    """Fresh-process set-up: import, plus one cold simulate per campaign cell,
    which fills that cell's circulant embedding."""
    t = time.perf_counter()
    if job["workload"] == "analyze":
        import longmem.cli  # noqa: F401
    else:
        from longmem import GenConfig, simulate

        for cell in wl.CAMPAIGNS[job["workload"]]["cells"]:
            spec = wl.cell_spec(cell)
            with tracer.span(f"simulate.simulate_cold.{cell['family']}") if tracer else contextlib.nullcontext():
                simulate(spec, wl.N_CAMPAIGN, GenConfig(seed=0))
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is [name, start, end, parent index, op id]; children inherit the
    op id (replication or request) of their parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def children_total(self, index: int) -> float:
        return sum(s[2] - s[1] for s in self.spans[index + 1 :] if s[3] == index)

    def root(self, index: int) -> str:
        while self.spans[index][3] >= 0:
            index = self.spans[index][3]
        return self.spans[index][0]

    def durations(self, name: str, root: str) -> list[float]:
        """Durations of the spans called `name` or `name.<family>` under a
        root span called `root`."""
        return [
            s[2] - s[1]
            for i, s in enumerate(self.spans)
            if (s[0] == name or s[0].startswith(name + ".")) and self.root(i) == root
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its
        children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]  # children of one span never overlap
        totals: dict[str, float] = {}
        for s, c in zip(self.spans, covered):
            totals[s[0]] = totals.get(s[0], 0.0) + (s[2] - s[1]) - c
        return totals

    def summary(self) -> dict:
        by_name: dict[str, list[float]] = {}
        for s in self.spans:
            by_name.setdefault(s[0], []).append(s[2] - s[1])
        selfs = self.self_times()
        return {
            name: {
                "count": len(v),
                "total_ms": 1e3 * sum(v),
                "median_ms": 1e3 * _median(v),
                "self_total_ms": 1e3 * selfs[name],
            }
            for name, v in sorted(by_name.items())
        }

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": a - t0, "end_s": b - t0, "parent": p, "op": op}
            for n, a, b, p, op in self.spans
        ]


def _mean(values):
    return sum(values) / len(values)


def _median(values):
    v = sorted(values)
    if not v:
        return None
    m = len(v) // 2
    return v[m] if len(v) % 2 else 0.5 * (v[m - 1] + v[m])


# ---------------------------------------------------------------------------
# untraced roles
# ---------------------------------------------------------------------------


class _ErrorCounter(logging.Handler):
    """Counts fits that raised inside run_mc, which logs each one."""

    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.count = 0

    def emit(self, record):
        self.count += 1


def role_setup(job: dict) -> dict:
    return {"setup_s": _setup(job)}


class _CampaignStream:
    """run_mc chunks: one run_mc call per cell, each with its own base seed."""

    def __init__(self, job: dict):
        from longmem import run_mc

        self.run_mc = run_mc
        self.job = job
        self.workload = wl.CAMPAIGNS[job["workload"]]
        self.errors = _ErrorCounter()
        logging.getLogger("longmem.montecarlo").addHandler(self.errors)
        self.tables = {}
        self.latencies: list[float] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def has_next(self) -> bool:
        return True

    def step(self) -> None:
        k = len(self.latencies)
        reps = self.workload["chunk_reps"]
        t = time.perf_counter()
        for c, cell in enumerate(self.workload["cells"]):
            config = wl.cell_config(cell, self.job["seed"], k, c, reps)
            report = self.run_mc(config, workers=self.job["workers"])
            for est in cell["estimators"]:
                self.tables[f"{k}/{c}/{est}"] = report.raw[(0, wl.N_CAMPAIGN, est)]
        self.latencies.append(time.perf_counter() - t)

    def result(self) -> dict:
        import numpy as np

        np.savez(self.job["tables"], **self.tables)
        cells = self.workload["cells"]
        reps = self.ops * self.workload["chunk_reps"]
        return {
            "latencies_s": self.latencies,
            "ops": reps * len(cells),
            "fits": reps * sum(len(c["estimators"]) for c in cells),
            "fit_exceptions": self.errors.count,
        }


def _analyze_request(main, path: str) -> dict:
    """One in-process `analyze` request, timed, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", path, *wl.ANALYZE_ARGS])
    return {"latency_s": time.perf_counter() - t, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


class _AnalyzeStream:
    """One closed-loop client: the next request is sent when the reply is in."""

    def __init__(self, job: dict):
        from longmem.cli import main

        self.main = main
        self.inputs = job["inputs"]
        self.requests: list[dict] = []

    @property
    def ops(self) -> int:
        return len(self.requests)

    def has_next(self) -> bool:
        return len(self.requests) < len(self.inputs)

    def step(self) -> None:
        index, path = self.inputs[len(self.requests)]
        self.requests.append(dict(_analyze_request(self.main, path), index=index))

    def result(self) -> dict:
        return {"requests": self.requests, "ops": len(self.requests)}


def _reply(message: dict) -> None:
    sys.__stdout__.write(json.dumps(message) + "\n")
    sys.__stdout__.flush()


def role_stream(job: dict) -> dict:
    """A timed stream that runs in slices on command from the orchestrator.

    Each line on stdin is {"cmd": "run", "seconds": s, "last": bool} or
    {"cmd": "finish"}.  A slice runs whole operations until s seconds have
    passed; the last slice also runs until RSS_OPS operations are done.  Only
    the time inside slices counts.
    """
    setup_s = _setup(job)
    stream = (_AnalyzeStream if job["workload"] == "analyze" else _CampaignStream)(job)
    rss_ops = wl.RSS_OPS[job["workload"]]
    rss_mb = None
    active = 0.0
    _reply({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] != "run":
            break
        start = time.perf_counter()
        end = start + cmd["seconds"]
        while stream.has_next() and (
            time.perf_counter() < end or (cmd["last"] and stream.ops < rss_ops)
        ):
            stream.step()
            if stream.ops == rss_ops:
                rss_mb = _peak_rss_mb()
        active += time.perf_counter() - start
        _reply({"ops": stream.ops})
    result = stream.result()
    result.update(setup_s=setup_s, wall_s=active, rss_mb=rss_mb, rss_ops=rss_ops)
    return result


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------


def _replay_campaign(job: dict, tracer: Tracer) -> dict:
    import numpy as np

    from longmem import (
        GenConfig,
        asymptotic_covariance,
        autocovariance,
        blue_weights,
        derive_seed,
        fit_qmle,
        fit_whittle,
        qmle_gradient,
        qmle_objective,
        run_mc,
        series_from_csv,
        series_to_csv,
        simulate,
    )

    fitters = {"qmle": fit_qmle, "whittle": fit_whittle}
    workload = wl.CAMPAIGNS[job["workload"]]
    reps = workload["chunk_reps"]
    n = wl.N_CAMPAIGN
    tables = {}
    nfev = {}
    excluded = {"exception": 0, "nonconverged": 0, "pinned": 0}
    first_series = []
    lib_total = 0.0
    untraced = 0.0
    for k in range(job["chunks"]):
        # the chunk untraced through run_mc, then traced, each from empty
        # coefficient caches, so that the engine's self time is measured in
        # one process (the circulant embeddings stay warm, as in a campaign)
        _clear_coefficient_caches()
        t = time.perf_counter()
        for c, cell in enumerate(workload["cells"]):
            run_mc(wl.cell_config(cell, job["seed"], k, c, reps))
        untraced += time.perf_counter() - t
        _clear_coefficient_caches()
        for c, cell in enumerate(workload["cells"]):
            config = wl.cell_config(cell, job["seed"], k, c, reps)
            spec = config.cells[0].spec(config.family)
            p = len(spec.gamma) + 1
            for est in cell["estimators"]:
                tables[f"{k}/{c}/{est}"] = np.full((reps, p), np.nan)
            for r in range(reps):
                with tracer.span("replication", op=f"{k}/{c}/{r}") as span:
                    with tracer.span(f"simulate.simulate.{cell['family']}"):
                        series = simulate(
                            spec, n, GenConfig(seed=derive_seed(config.base_seed, 0, 0, r))
                        )
                    fits = {}
                    for est in cell["estimators"]:
                        with tracer.span(f"estimate.fit_{est}.{cell['family']}"):
                            try:
                                fit = fitters[est](series, config.family, bounds=spec.gamma_bounds)
                            except Exception:
                                fit = None
                        fits[est] = fit
                lib_total += tracer.children_total(span)
                for est, fit in fits.items():
                    if fit is None:
                        excluded["exception"] += 1
                        continue
                    nfev.setdefault(f"{est}.{cell['family']}", []).append(fit.iterations)
                    if not fit.converged:
                        excluded["nonconverged"] += 1
                    elif fit.boundary_pinned:
                        excluded["pinned"] += 1
                    else:
                        tables[f"{k}/{c}/{est}"][r] = list(fit.gamma_hat) + [fit.sigma2_hat]
                if len(first_series) < 3 and c == 0:
                    first_series.append(series)
                if fits.get("qmle") is not None:
                    # one objective and one gradient at an iterate-like point the
                    # fit did not evaluate, so the coefficient arrays are cold
                    g = tuple(v + 1e-4 for v in fits["qmle"].gamma_hat)
                    with tracer.span("probe", op=f"{k}/{c}/{r}"):
                        with tracer.span(f"estimate.qmle_objective.{cell['family']}"):
                            qmle_objective(series, config.family, g)
                        with tracer.span(f"estimate.qmle_gradient.{cell['family']}"):
                            qmle_gradient(series, config.family, g)
    replay_wall = sum(tracer.durations("replication", "replication"))
    np.savez(job["tables"], **tables)

    # layers the campaign itself does not reach, measured on its own inputs
    with tracer.span("probe", op="layers"):
        for i, series in enumerate(first_series):
            path = Path(job["run_dir"]) / f"replay-{i}.csv"
            series_to_csv(series, path)
            with tracer.span("simulate.series_from_csv"):
                series_from_csv(path)
        for c, cell in enumerate(workload["cells"]):
            spec = wl.cell_spec(cell)
            with tracer.span(f"estimate.asymptotic_covariance.{cell['family']}"):
                asymptotic_covariance(spec)
            r = autocovariance(spec, n - 1)
            with tracer.span(f"estimate.blue_weights.{cell['family']}"):
                blue_weights(r)
    return {
        "nfev": nfev,
        "excluded": excluded,
        "replay_wall_s": replay_wall,
        "lib_total_s": lib_total,
        "untraced_s": untraced,
        "ops": job["chunks"] * reps * len(workload["cells"]),
        "fits": job["chunks"] * reps * sum(len(c["estimators"]) for c in workload["cells"]),
    }


def _clear_coefficient_caches() -> None:
    import longmem.models

    for obj in vars(longmem.models).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _replay_analyze(job: dict, tracer: Tracer) -> dict:
    import numpy as np

    from longmem import (
        GenConfig,
        IdentifiabilityError,
        ModelSpec,
        asymptotic_covariance,
        autocovariance,
        blue_weights,
        fit_qmle,
        fit_whittle,
        qmle_gradient,
        qmle_objective,
        series_from_csv,
        simulate,
    )
    from longmem.cli import detrend_linear
    from longmem.cli import main as cli_main
    from longmem.estimate import predictors

    fitters = {"qmle": fit_qmle, "whittle": fit_whittle}
    specs = wl.analyze_specs(job["seed"])
    results = []
    nfev = {}
    excluded = {"exception": 0, "nonconverged": 0, "pinned": 0}
    with tracer.span("input", op="embedding"):
        for spec in specs:
            with tracer.span(f"simulate.simulate_cold.{spec.family.value}"):
                simulate(spec, wl.N_ANALYZE, GenConfig(seed=0))
    for index, path in job["inputs"]:
        # regenerate the input the way the orchestrator made it
        spec, cfg, slope = wl.analyze_input(job["seed"], index, specs)
        with tracer.span("input", op=index):
            with tracer.span(f"simulate.simulate.{spec.family.value}"):
                generated = simulate(spec, wl.N_ANALYZE, cfg)
        expected = wl.analyze_values(generated, slope)

        # the same request untraced, then traced, each from empty coefficient
        # caches, so that the CLI's self time is measured in one process
        _clear_coefficient_caches()
        untraced = _analyze_request(cli_main, path)["latency_s"]
        _clear_coefficient_caches()
        fits = []
        with tracer.span("request", op=index) as span:
            with tracer.span("simulate.series_from_csv"):
                series = series_from_csv(path)
            with tracer.span("cli.detrend_linear"):
                work, _, _ = detrend_linear(series)
            for family in wl.ANALYZE_FIT_FAMILIES:
                for est in wl.ANALYZE_ESTIMATORS:
                    with tracer.span(f"estimate.fit_{est}.{family}"):
                        try:
                            fit = fitters[est](work, family)
                        except (ValueError, RuntimeError):
                            excluded["exception"] += 1
                            continue
                    nfev.setdefault(f"{est}.{family}", []).append(fit.iterations)
                    excluded["nonconverged"] += not fit.converged
                    excluded["pinned"] += fit.converged and fit.boundary_pinned
                    with tracer.span(f"estimate.predictors.{family}"):
                        resid = work.values - predictors(work.values, fit.family, fit.gamma_hat)
                    mu4 = float(np.mean((resid / np.sqrt(fit.sigma2_hat)) ** 4))
                    stderr = None
                    with tracer.span(f"estimate.asymptotic_covariance.{family}"):
                        try:
                            info = asymptotic_covariance(
                                ModelSpec(family=family, gamma=fit.gamma_hat, sigma2=fit.sigma2_hat),
                                mu4=mu4,
                            )
                        except (ValueError, IdentifiabilityError):
                            info = None
                    if info is not None:
                        se = [math.sqrt(v / work.n) for v in np.diag(np.linalg.inv(info.M))]
                        stderr = se + [math.sqrt(info.var_sigma2 / work.n)]
                    fits.append((fit, stderr))
            qmle = [f for f, _ in fits if f.estimator == "qmle"] or [f for f, _ in fits]
            best = min(qmle, key=lambda f: f.sigma2_hat)
            best_spec = ModelSpec(family=best.family, gamma=best.gamma_hat, sigma2=best.sigma2_hat)
            best_family = best.family.value
            with tracer.span(f"models.autocovariance.{best_family}"):
                r = autocovariance(best_spec, series.n - 1)
            with tracer.span(f"estimate.blue_weights.{best_family}"):
                w = blue_weights(r)
            mu_blue = float(np.dot(w, series.values))
            with tracer.span(f"estimate.predictors.{best_family}"):
                predictors(work.values, best.family, best.gamma_hat)
        for fit, _ in fits:
            if fit.estimator == "qmle":
                g = tuple(v + 1e-4 for v in fit.gamma_hat)
                with tracer.span("probe", op=index):
                    with tracer.span(f"estimate.qmle_objective.{fit.family.value}"):
                        qmle_objective(work, fit.family, g)
                    with tracer.span(f"estimate.qmle_gradient.{fit.family.value}"):
                        qmle_gradient(work, fit.family, g)
        results.append(
            {
                "index": index,
                "input_matches": bool(np.array_equal(expected, series.values)),
                "lib_total_s": tracer.children_total(span),
                "untraced_s": untraced,
                "fits": [
                    {
                        "family": f.family.value,
                        "estimator": f.estimator,
                        "gamma_hat": list(f.gamma_hat),
                        "sigma2_hat": f.sigma2_hat,
                        "stderr": se,
                    }
                    for f, se in fits
                ],
                "mu_blue": mu_blue,
            }
        )
    return {
        "requests": results,
        "nfev": nfev,
        "excluded": excluded,
        "replay_wall_s": sum(tracer.durations("request", "request")),
        "lib_total_s": sum(r["lib_total_s"] for r in results),
        "ops": len(results),
    }


def _probes(job: dict, tracer: Tracer) -> dict:
    """Cold calls of the coefficient engines at fixed sizes, each at a fresh
    memory parameter so no cache can hit, and 2-D fits on the FARIMA10 ridge
    cell; identical for every workload.  Returns the ridge fits' nfev."""
    import numpy as np

    from longmem import (
        GenConfig,
        ModelSpec,
        ar_coeffs,
        autocovariance,
        dar_coeffs,
        derive_seed,
        fit_qmle,
        fit_whittle,
        ma_coeffs,
        riemann_zeta,
        simulate,
    )

    rng = np.random.default_rng([job["seed"], 31])
    fresh = iter(rng.uniform(0.12, 0.38, size=64))
    ridge = wl.cell_spec(wl.RIDGE_CELL)
    ridge_nfev = {"qmle": [], "whittle": []}
    with tracer.span("probe", op="cold"):
        for _ in range(5):
            s_values = 1.0 + rng.uniform(0.01, 0.49, size=100)
            with tracer.span("specfun.riemann_zeta_x100"):
                for s in s_values:
                    riemann_zeta(float(s))
        for _ in range(5):
            with tracer.span("models.ar_coeffs"):
                ar_coeffs(ModelSpec(family="lm", gamma=(float(next(fresh)),)), 100_000)
        for _ in range(3):
            with tracer.span("models.ma_coeffs"):
                ma_coeffs(ModelSpec(family="lm", gamma=(float(next(fresh)),)), 29_999)
        for _ in range(5):
            with tracer.span("models.dar_coeffs"):
                dar_coeffs(ModelSpec(family="lm", gamma=(float(next(fresh)),)), 20_000)
        for _ in range(3):
            with tracer.span("models.autocovariance"):
                autocovariance(ModelSpec(family="lm", gamma=(float(next(fresh)),)), 2048)
    with tracer.span("probe", op="ridge"):
        for i in range(wl.RIDGE_FITS):
            series = simulate(ridge, wl.N_CAMPAIGN, GenConfig(seed=derive_seed(job["seed"], 41, i)))
            for est, fit_fn in (("qmle", fit_qmle), ("whittle", fit_whittle)):
                with tracer.span(f"estimate.fit_{est}_2d"):
                    fit = fit_fn(series, ridge.family, bounds=ridge.gamma_bounds)
                ridge_nfev[est].append(fit.iterations)
    return ridge_nfev


def role_replay(job: dict) -> dict:
    tracer = Tracer()
    with tracer.span("setup", op="setup"):
        setup_s = _setup(job, tracer)
    if job["workload"] == "analyze":
        result = _replay_analyze(job, tracer)
    else:
        result = _replay_campaign(job, tracer)
    result["ridge_nfev"] = _probes(job, tracer)
    result["setup_s"] = setup_s
    result["layers"] = _layer_values(job, tracer, result)
    result["spans"] = tracer.summary()
    Path(job["spans"]).write_text(json.dumps({"spans": tracer.dump()}, allow_nan=False))
    return result


def _layer_values(job: dict, tracer: Tracer, result: dict) -> dict:
    """Per-layer metrics that come from this process's spans alone.

    Calls the workload makes itself are averaged (the mean keeps a fixed mix
    of families stable, where a median would jump between their clusters);
    the cold probes run one family at fixed sizes and take the median.
    """
    analyze = job["workload"] == "analyze"
    main_root = "request" if analyze else "replication"
    sim_root = "input" if analyze else "replication"

    def mean_ms(name, root=main_root):
        # the workload's own calls when it makes them, else the layer probe's
        return 1e3 * _mean(tracer.durations(name, root) or tracer.durations(name, "probe"))

    def probe_ms(name, calls=1):
        return 1e3 * _median(tracer.durations(name, "probe")) / calls

    def mean_nfev(estimator):
        return _mean([v for k, vs in result["nfev"].items() if k.startswith(estimator + ".") for v in vs])

    fit_s = [d for e in ("qmle", "whittle") for d in tracer.durations(f"estimate.fit_{e}", main_root)]
    layers = {
        "specfun.riemann_zeta_us": 1e3 * probe_ms("specfun.riemann_zeta_x100", calls=100),
        "models.ar_coeffs_cold_ms": probe_ms("models.ar_coeffs"),
        "models.ma_coeffs_cold_ms": probe_ms("models.ma_coeffs"),
        "models.dar_coeffs_cold_ms": probe_ms("models.dar_coeffs"),
        "models.autocovariance_cold_ms": probe_ms("models.autocovariance"),
        "simulate.embedding_cold_ms": 1e3
        * sum(tracer.durations("simulate.simulate_cold", "input" if analyze else "setup")),
        "simulate.sample_ms": mean_ms("simulate.simulate", sim_root),
        "simulate.series_from_csv_ms": mean_ms("simulate.series_from_csv"),
        "estimate.qmle_objective_ms": mean_ms("estimate.qmle_objective", "probe"),
        "estimate.qmle_gradient_ms": mean_ms("estimate.qmle_gradient", "probe"),
        "estimate.qmle_fit_ms": mean_ms("estimate.fit_qmle"),
        "estimate.qmle_fit_nfev": mean_nfev("qmle"),
        "estimate.whittle_fit_ms": mean_ms("estimate.fit_whittle"),
        "estimate.whittle_fit_nfev": mean_nfev("whittle"),
        "estimate.qmle_fit_2d_ms": mean_ms("estimate.fit_qmle_2d", "probe"),
        "estimate.qmle_fit_2d_nfev": _mean(result["ridge_nfev"]["qmle"]),
        "estimate.whittle_fit_2d_ms": mean_ms("estimate.fit_whittle_2d", "probe"),
        "estimate.whittle_fit_2d_nfev": _mean(result["ridge_nfev"]["whittle"]),
        "estimate.asymptotic_covariance_ms": mean_ms("estimate.asymptotic_covariance"),
        "estimate.blue_weights_ms": mean_ms("estimate.blue_weights"),
        "replay.simulate_s": sum(tracer.durations("simulate.simulate", sim_root)),
        "replay.fit_s": sum(fit_s),
    }
    for key, value in result["excluded"].items():
        layers[f"excluded.{key}"] = value
    return layers


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


ROLES = {
    "setup": role_setup,
    "stream": role_stream,
    "replay": role_replay,
}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    result = ROLES[job["role"]](job)
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(job["out"]).write_text(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
