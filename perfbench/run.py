#!/usr/bin/env python3
"""longmem benchmark.

    python3 perfbench/run.py --workload mc-desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ./src.  Every
timed campaign, request stream and set-up runs in its own fresh interpreter
(perfbench/child.py).  Workloads:

mc-desk   back-to-back FARIMA00 and LM campaigns, QMLE + Whittle, n = 1000
analyze   one closed-loop client of in-process `analyze` requests, n = 2000

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
a traced replay of the same inputs (see perfbench/README.md).  The last line
of standard output is one strict-JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it carries the
details (sample counts, percentiles, gates, machine facts).  The exit code is
0 only when every correctness gate passed.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, here and in every child, so that no run
# starts more threads than the cores it was given
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up time enters setup_s
SLICES = 4  # alternating slices per timed stream
# at most this many parallel workers or clients, whatever the core count: each
# analyze client is a process of about 200 MB
MAX_PARALLEL = 8
TIME_LIMIT_S = 170.0  # the whole invocation, children included


class GateError(Exception):
    """A correctness gate failed."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": usable_cores(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Children:
    """Starts child.py jobs and makes sure every one of them has ended."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["PYTHONHASHSEED"] = "0"

    def _start(self, job: dict, pipes: bool = False):
        self.count += 1
        tag = f"{self.count:02d}-{job['role']}"
        job = dict(job, out=str(self.run_dir / f"{tag}.out.json"))
        job.setdefault("tables", str(self.run_dir / f"{tag}.tables.npz"))
        path = self.run_dir / f"{tag}.job.json"
        path.write_text(json.dumps(job))
        cmd = [sys.executable, str(HERE / "child.py"), str(path)]
        stdin, stdout = (subprocess.PIPE, subprocess.PIPE) if pipes else (None, subprocess.DEVNULL)
        proc = subprocess.Popen(cmd, env=self.env, stdin=stdin, stdout=stdout, text=True)
        return job, proc

    def _remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def _finish(self, job: dict, proc) -> dict:
        try:
            code = proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{job['role']} child exceeded the time limit") from None
        if code != 0:
            raise RuntimeError(f"{job['role']} child exited with code {code}")
        result = json.loads(Path(job["out"]).read_text())
        result["tables_path"] = job["tables"]
        return result

    @staticmethod
    def _kill(procs) -> None:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def run(self, jobs: list[dict]) -> list[dict]:
        """Run the jobs concurrently and return their results in order."""
        procs = []
        try:
            for job in jobs:
                procs.append(self._start(job))
            return [self._finish(job, proc) for job, proc in procs]
        finally:
            self._kill(procs)

    def run_each(self, jobs: list[dict]) -> list[dict]:
        """Run the jobs one after another."""
        return [self.run([job])[0] for job in jobs]

    def _read(self, proc) -> dict:
        ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("stream child stopped answering")
        return json.loads(line)

    def streams(self, serial: dict, par: list[dict], seconds: float) -> tuple[dict, list[dict]]:
        """Run the serial stream and the parallel streams in alternating
        slices, SLICES per stream and seconds / SLICES each, so that both
        sample the same stretch of machine time.  Each stream is a fresh
        process, set up while no other stream runs."""
        procs = []
        try:
            for job in [dict(serial, role="stream")] + [dict(j, role="stream") for j in par]:
                procs.append(self._start(job, pipes=True))
                self._read(procs[-1][1])  # ready: set-up done
            for i in range(SLICES):
                for group in (procs[:1], procs[1:]):
                    command = {"cmd": "run", "seconds": seconds / SLICES, "last": i == SLICES - 1}
                    for _, proc in group:
                        proc.stdin.write(json.dumps(command) + "\n")
                        proc.stdin.flush()
                    for _, proc in group:
                        self._read(proc)
            for _, proc in procs:
                proc.stdin.write(json.dumps({"cmd": "finish"}) + "\n")
                proc.stdin.close()
            results = [self._finish(job, proc) for job, proc in procs]
        finally:
            self._kill(procs)
        return results[0], results[1:]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def latency_summary(samples_s: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(samples_s)
    n = len(v)
    if n >= 11:
        tail, pct = v[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = v[-1], 100.0  # too few samples for ten beyond: the maximum
    return {
        "p50_ms": 1e3 * statistics.median(v),
        "tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "samples": n,
    }


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


def load_tables(path: str) -> dict:
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def gate_tables_equal(a: dict, b: dict, what: str, keys=None) -> None:
    """Raw estimate tables must agree bit for bit (NaN rows included)."""
    keys = sorted(a) if keys is None else keys
    for key in keys:
        if key not in a or key not in b:
            raise GateError(f"{what}: table {key} missing")
        if a[key].shape != b[key].shape or a[key].tobytes() != b[key].tobytes():
            raise GateError(f"{what}: table {key} differs")


def gate_sqrt_mse(tables: dict, workload: str) -> list[dict]:
    """Each cell's QMLE sqrt-MSE(d) lies in its acceptance band, widened by
    GATE_Z Monte Carlo standard errors for the replications made."""
    import numpy as np

    checks = []
    for c, cell in enumerate(wl.CAMPAIGNS[workload]["cells"]):
        rows = np.concatenate([t for k, t in sorted(tables.items()) if k.endswith(f"/{c}/qmle")])
        used = rows[~np.isnan(rows[:, 0])]
        if used.shape[0] == 0:
            raise GateError(f"cell {c}: no usable QMLE replication")
        sqrt_mse = float(np.sqrt(np.mean((used[:, 0] - cell["gamma"][0]) ** 2)))
        rel = wl.GATE_Z / math.sqrt(2.0 * used.shape[0])
        lo, hi = cell["band"][0] * (1.0 - rel), cell["band"][1] * (1.0 + rel)
        check = {
            "cell": f"{cell['family']} gamma={cell['gamma']}",
            "sqrt_mse_d": sqrt_mse,
            "reference": cell["reference"],
            "allowed": [lo, hi],
            "replications": int(used.shape[0]),
        }
        checks.append(check)
        if not lo <= sqrt_mse <= hi:
            raise GateError(f"sqrt-MSE(d) outside its allowed range: {check}")
        for key, table in tables.items():
            if not np.all(np.isfinite(table) | np.isnan(table[:, :1])):
                raise GateError(f"table {key} holds a non-finite estimate in a used row")
    return checks


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def parse_analyze(stdout: str) -> dict:
    """An analyze output: strict JSON with finite fitted values."""
    out = json.loads(stdout, parse_constant=_reject_constant)
    values = [out["mu_blue"], out["residual_mu4"]]
    if not out["fits"]:
        raise ValueError("no fits")
    for fit in out["fits"]:
        values += list(fit["gamma_hat"]) + [fit["sigma2_hat"]]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise ValueError("non-finite fitted value")
    return out


def gate_replay_analyze(replayed: list[dict], outputs: dict) -> None:
    """The replay through the library's public functions reproduces every
    request's fits and BLUE mean bit for bit, and reads the inputs the
    orchestrator generated."""
    for rep in replayed:
        out = outputs[rep["index"]]
        if not rep["input_matches"]:
            raise GateError(f"request {rep['index']}: regenerated input differs from its CSV")
        if rep["mu_blue"] != out["mu_blue"] or len(rep["fits"]) != len(out["fits"]):
            raise GateError(f"request {rep['index']}: replay differs from the CLI output")
        for a, b in zip(rep["fits"], out["fits"]):
            same = all(a[k] == b[k] for k in ("family", "estimator", "gamma_hat", "sigma2_hat"))
            if a["stderr"] is None or b["stderr"] is None:
                same = same and a["stderr"] == b["stderr"]
            else:
                same = same and all(
                    math.isclose(x, y, rel_tol=1e-12) for x, y in zip(a["stderr"], b["stderr"])
                )
            if not same:
                raise GateError(f"request {rep['index']}: replayed fit differs: {a} vs {b}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def replayed_share(ops: int) -> int:
    """The traced replay covers the first half of the serial stream's
    operations (at least one): enough spans per layer, at half the time."""
    return max(1, (ops + 1) // 2)


def run_campaign(args, children: Children, cores: int) -> dict:
    job = {"workload": args.workload, "seed": args.seed}
    serial, (par,) = children.streams(dict(job, workers=1), [dict(job, workers=cores)], args.seconds)
    setups = [] if args.trace else children.run_each(
        [{"role": "setup", "workload": args.workload}] * (SETUP_SAMPLES - 2)
    )
    serial_tables = load_tables(serial["tables_path"])
    par_tables = load_tables(par["tables_path"])
    both = min(len(serial["latencies_s"]), len(par["latencies_s"]))
    common = [k for k in serial_tables if int(k.split("/")[0]) < both]
    gate_tables_equal(serial_tables, par_tables, "serial vs parallel", common)
    gates = {
        "serial_equals_parallel": f"{len(common)} tables",
        "sqrt_mse": gate_sqrt_mse(serial_tables, args.workload),
    }
    excluded = sum(int(math.isnan(row[0])) for t in serial_tables.values() for row in t)

    out = {
        "serial": serial,
        "par": [par],
        "setups": [serial["setup_s"], par["setup_s"]] + [s["setup_s"] for s in setups],
        "latencies_s": serial["latencies_s"],
        "ops_per_s": serial["ops"] / serial["wall_s"],
        "ops_per_s_par": par["ops"] / par["wall_s"],
        "attempted": serial["fits"] + par["fits"],
        "failed": serial["fit_exceptions"] + par["fit_exceptions"],
        "excluded_share": excluded / serial["fits"],
        "gates": gates,
    }
    if args.trace:
        chunks = replayed_share(len(serial["latencies_s"]))
        (replay,) = children.run(
            [dict(job, role="replay", chunks=chunks, run_dir=str(children.run_dir),
                  spans=str(args.out_dir / f"{args.workload}-spans.json"))]
        )
        replay_tables = load_tables(replay["tables_path"])
        gate_tables_equal(replay_tables, serial_tables, "traced replay vs run_mc")
        gates["replay_equals_run_mc"] = f"{len(replay_tables)} tables"
        out["replay"] = replay
        out["attempted"] += replay["fits"]
        out["failed"] += replay["excluded"]["exception"]
        out["entry_self_ms"] = 1e3 * (replay["untraced_s"] - replay["lib_total_s"]) / replay["ops"]
        out["trace_overhead_s"] = replay["replay_wall_s"] - replay["untraced_s"]
    return out


def generate_analyze_inputs(args, run_dir: Path) -> list:
    """CSV inputs of the analyze stream (not timed)."""
    from longmem import Series, series_to_csv, simulate

    specs = wl.analyze_specs(args.seed)
    inputs = []
    for index in range(wl.analyze_input_count(args.seconds)):
        spec, cfg, slope = wl.analyze_input(args.seed, index, specs)
        series = simulate(spec, wl.N_ANALYZE, cfg)
        path = run_dir / f"input-{index:04d}.csv"
        series_to_csv(Series(values=wl.analyze_values(series, slope)), path)
        inputs.append([index, str(path)])
    return inputs


def run_analyze(args, children: Children, cores: int) -> dict:
    t = time.monotonic()
    inputs = generate_analyze_inputs(args, children.run_dir)
    generation_s = time.monotonic() - t
    job = {"workload": "analyze", "seed": args.seed}
    serial, par = children.streams(
        dict(job, inputs=inputs), [dict(job, inputs=inputs[j::cores]) for j in range(cores)], args.seconds
    )
    setups = [] if args.trace else children.run_each(
        [{"role": "setup", "workload": "analyze"}] * max(0, SETUP_SAMPLES - 1 - cores)
    )

    outputs, failed, attempted = {}, 0, 0
    by_index = {}
    for client in [serial] + par:
        for req in client["requests"]:
            attempted += 1
            try:
                if req["code"] != 0:
                    raise ValueError(f"exit code {req['code']}: {req['stderr']}")
                parsed = parse_analyze(req["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                failed += 1
                print(f"analyze request {req['index']} failed: {exc}", file=sys.stderr)
                continue
            if by_index.setdefault(req["index"], req["stdout"]) != req["stdout"]:
                raise GateError(f"request {req['index']}: output differs between clients")
            outputs[req["index"]] = parsed
    gates = {"strict_json_outputs": f"{len(outputs)} requests", "serial_equals_parallel": "checked"}
    latencies = [r["latency_s"] for c in [serial] + par for r in c["requests"]]
    out = {
        "serial": serial,
        "par": par,
        "setups": [c["setup_s"] for c in [serial] + par] + [s["setup_s"] for s in setups],
        "latencies_s": latencies,
        "ops_per_s": serial["ops"] / serial["wall_s"],
        "ops_per_s_par": sum(c["ops"] / c["wall_s"] for c in par),
        "attempted": attempted,
        "failed": failed,
        "excluded_share": failed / attempted,
        "gates": gates,
        "input_generation_s": generation_s,
    }
    if args.trace:
        done = [[r["index"], inputs[r["index"]][1]] for r in serial["requests"] if r["index"] in outputs]
        done = done[: replayed_share(len(done))]
        (replay,) = children.run(
            [dict(job, role="replay", inputs=done, run_dir=str(children.run_dir),
                  spans=str(args.out_dir / "analyze-spans.json"))]
        )
        gate_replay_analyze(replay["requests"], outputs)
        gates["replay_equals_cli"] = f"{len(replay['requests'])} requests"
        out["attempted"] += replay["ops"]
        out["replay"] = replay
        out["entry_self_ms"] = 1e3 * statistics.median(
            r["untraced_s"] - r["lib_total_s"] for r in replay["requests"]
        )
        out["trace_overhead_s"] = replay["replay_wall_s"] - sum(r["untraced_s"] for r in replay["requests"])
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    lat = latency_summary(run["latencies_s"])
    return {
        "ops_per_s": (run["ops_per_s"], run["serial"]["ops"]),
        "ops_per_s_par": (run["ops_per_s_par"], sum(c["ops"] for c in run["par"])),
        "latency_p50_ms": (lat["p50_ms"], lat["samples"]),
        "latency_tail_ms": (lat["tail_ms"], lat["samples"]),
        "setup_s": (statistics.median(run["setups"]), len(run["setups"])),
        "peak_rss_mb": (run["serial"]["rss_mb"], run["serial"]["rss_ops"]),
    }, lat


def per_layer(run: dict) -> dict:
    replay = run["replay"]
    layers = {k: (v, None) for k, v in replay["layers"].items()}
    layers["entry.self_ms"] = (run["entry_self_ms"], replay["ops"])
    layers["entry.ops_per_s_par"] = (run["ops_per_s_par"], sum(c["ops"] for c in run["par"]))
    layers["entry.parallel_speedup"] = (run["ops_per_s_par"] / run["ops_per_s"], None)
    layers["trace.overhead_s"] = (run["trace_overhead_s"], replay["ops"])
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="longmem benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "longmem" / "__init__.py").is_file():
        print(f"error: no longmem sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    args.out_dir = ROOT / ".perfbench_out"
    args.out_dir.mkdir(exist_ok=True)
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    cores = min(usable_cores(), MAX_PARALLEL)
    children = Children(run_dir, started + TIME_LIMIT_S)
    problems = []
    try:
        runner = run_analyze if args.workload == "analyze" else run_campaign
        run = runner(args, children, cores)
    except GateError as exc:
        problems.append(f"correctness gate failed: {exc}")
        run = None
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    metrics, detail = {}, {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                           "trace": args.trace, "machine": machine_facts(), "workers_parallel": cores}
    if run is not None:
        values, lat = end_to_end(run)
        detail["latency"] = lat
        detail["setup_samples_s"] = run["setups"]
        detail["latency_samples_s"] = run["latencies_s"]
        detail["excluded_share"] = run["excluded_share"]
        detail["input_generation_s"] = run.get("input_generation_s", 0.0)
        detail["gates"] = run["gates"]
        detail["end_to_end"] = {k: {"value": v, "samples": n} for k, (v, n) in values.items()}
        if args.trace:
            values = per_layer(run)
            detail["per_layer"] = {k: {"value": v, "samples": n} for k, (v, n) in values.items()}
            detail["spans"] = run["replay"]["spans"]
            detail["nfev"] = {k: statistics.median(v) for k, v in run["replay"]["nfev"].items()}
        for m in wanted:
            value = values.get(m["name"], (None, None))[0]
            if value is None or not math.isfinite(value):
                problems.append(f"metric {m['name']} has no finite value")
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    detail["problems"] = problems
    detail["wall_s"] = time.monotonic() - started
    correct = not problems
    result = {
        "correct": correct,
        "attempted": run["attempted"] if run else 1,
        "failed": run["failed"] if run else 1,
        "metrics": metrics,
    }
    (args.out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, allow_nan=False)
    )
    print(json.dumps(detail, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
