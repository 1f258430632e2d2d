#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny run (--seconds 1) of every workload, untraced and traced.  The last
   line must hold exactly the keys correct, attempted, failed and metrics,
   with every metric BENCHMARK.json names for that mode, its unit and a
   finite value; the detail line must give each metric's sample count.
2. Deliberately corrupted estimate tables and analyze outputs must trip the
   correctness gates.
3. Run from a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            name = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and len(lines) >= 2, f"{name}: exit 0 with two output lines")
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr[-3000:])
                continue
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{name}: result keys")
            check(result["correct"] is True and result["failed"] == 0, f"{name}: correct, none failed")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{name}: attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted), f"{name}: metric names")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                ok = (
                    got.get("unit") == m["unit"]
                    and isinstance(got.get("value"), (int, float))
                    and math.isfinite(got["value"])
                )
                check(ok, f"{name}: {m['name']} has unit {m['unit']} and a finite value")
            samples = detail["per_layer" if trace else "end_to_end"]
            check(all("samples" in samples[m["name"]] for m in wanted), f"{name}: sample counts")
            check("samples" in detail["latency"] and "tail_percentile" in detail["latency"],
                  f"{name}: latency percentile and sample count")
            for key in ("usable_cores", "cpu_model", "python", "numpy", "scipy"):
                check(key in detail["machine"], f"{name}: machine fact {key}")


def trips(fn, *args) -> bool:
    try:
        fn(*args)
    except (bench.GateError, ValueError):
        return True
    return False


def corrupted_gates() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    cells = wl.CAMPAIGNS["mc-desk"]["cells"]
    tables = {
        f"0/{c}/qmle": np.column_stack(
            [cell["gamma"][0] + rng.normal(0.0, cell["reference"], 200), 4.0 + rng.normal(0.0, 0.2, 200)]
        )
        for c, cell in enumerate(cells)
    }
    good = tables["0/0/qmle"]
    check(not trips(bench.gate_sqrt_mse, tables, "mc-desk"), "a plausible table passes the sqrt-MSE gate")
    check(not trips(bench.gate_tables_equal, tables, {k: t.copy() for k, t in tables.items()}, "copy"),
          "identical tables pass the equality gate")

    flipped = good.copy()
    flipped[17, 1] = np.nextafter(flipped[17, 1], 10.0)
    check(trips(bench.gate_tables_equal, tables, dict(tables, **{"0/0/qmle": flipped}), "one ulp"),
          "a table one ulp off trips the equality gate")
    check(trips(bench.gate_sqrt_mse, dict(tables, **{"0/0/qmle": good + [0.1, 0.0]}), "mc-desk"),
          "shifted d estimates trip the sqrt-MSE gate")
    holed = good.copy()
    holed[3, 1] = np.inf
    check(trips(bench.gate_sqrt_mse, dict(tables, **{"0/0/qmle": holed}), "mc-desk"),
          "a non-finite estimate in a used row trips the gate")

    out = {"trend": [0.0, 0.0], "mu_blue": 0.5, "residual_mu4": 3.0,
           "fits": [{"gamma_hat": [0.2], "sigma2_hat": 1.0}]}
    check(not trips(bench.parse_analyze, json.dumps(out)), "a valid analyze output parses")
    check(trips(bench.parse_analyze, json.dumps(out).replace("0.5", "NaN")),
          "a NaN token in an analyze output trips the gate")
    out["fits"][0]["sigma2_hat"] = 1e400
    check(trips(bench.parse_analyze, json.dumps(out)), "an infinite fitted value trips the gate")


def bare_directory() -> None:
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-desk", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    corrupted_gates()
    bare_directory()
    tiny_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
