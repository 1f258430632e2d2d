#!/usr/bin/env python3
"""Check that LM Whittle fits do not stall when two processes run at once.

Each run is a fresh process that fits 60 simulated LM series of length 3000
by Whittle and prints the seconds the fits took.  The check runs one alone,
then two at the same time, in the environment it was given (no BLAS thread
pin), and fails when either of the pair takes more than RATIO times the
time alone.  The bound is loose because the fits take under 0.15 s, and a
shared machine moves such timings by tens of percent.  A threaded BLAS
kernel on the Whittle path shows up here: two processes then contend for
every core, and each slows several times over.

    python scripts/check_concurrent_whittle.py
"""

import argparse
import subprocess
import sys
import time

FITS = 60
N = 3000
RATIO = 3.0


def time_fits() -> float:
    from longmem.estimate import fit_whittle
    from longmem.models import ModelSpec
    from longmem.simulate import GenConfig, simulate

    spec = ModelSpec(family="lm", gamma=(0.3,))
    series = [simulate(spec, N, GenConfig(seed=seed)) for seed in range(FITS)]
    fit_whittle(series[0], "lm")  # builds the cached power table
    start = time.perf_counter()
    for s in series:
        fit_whittle(s, "lm")
    return time.perf_counter() - start


def run_together(count: int) -> list[float]:
    cmd = [sys.executable, __file__, "--fits-only"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(count)]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise SystemExit("a timing process failed")
    return [float(out) for out in outs]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fits-only", action="store_true", help="time the fits once and print")
    args = ap.parse_args()
    if args.fits_only:
        print(f"{time_fits():.6f}")
        return 0
    (alone,) = run_together(1)
    pair = run_together(2)
    print(f"{FITS} LM Whittle fits at n = {N}: alone {alone:.3f} s, "
          f"in a pair {pair[0]:.3f} s and {pair[1]:.3f} s")
    if max(pair) > RATIO * alone:
        print(f"error: a concurrent run took over {RATIO:g}x its time alone", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
