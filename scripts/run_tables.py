#!/usr/bin/env python3
"""Reproduce the sqrt-MSE benchmark tables.

Desk scale (default): R = 300 replications, n in {300, 1000, 3000}.
Full scale (--full):  R = 1000 replications, n up to 10000; slow.

Tables:
  farima     FARIMA(0,d,0), QMLE and Whittle, d in 0.1..0.4, sigma2 = 4
  lm         LM process, QMLE, d in 0.1..0.4, sigma2 = 4
  farima10   FARIMA(1,d,0), QMLE, d in 0.1..0.4 x alpha in {0.5, 0.9}
  near-half  FARIMA(0,d,0), QMLE, d in {0.43, 0.46, 0.49}
"""

import argparse
import sys
import time

from longmem.montecarlo import MCCell, MCConfig, emit_table, run_mc

D_GRID = (0.1, 0.2, 0.3, 0.4)
# estimation domain for the FARIMA10 ridge: keep anti-persistent candidates
# interior so hard cells do not pin at the boundary
FARIMA10_BOUNDS = ((-0.25, 0.75), (-0.99, 0.99))
NEAR_HALF_BOUNDS = ((0.01, 0.75),)


def build_config(table: str, full: bool, base_seed: int, reps_override=None) -> MCConfig:
    n_grid = (300, 1000, 3000, 10000) if full else (300, 1000, 3000)
    reps = reps_override if reps_override is not None else (1000 if full else 300)
    if table == "farima":
        return MCConfig(
            family="farima00",
            cells=tuple(MCCell(gamma=(d,), sigma2=4.0) for d in D_GRID),
            n_grid=n_grid,
            replications=reps,
            estimators=("qmle", "whittle"),
            base_seed=base_seed,
        )
    if table == "lm":
        return MCConfig(
            family="lm",
            cells=tuple(MCCell(gamma=(d,), sigma2=4.0) for d in D_GRID),
            n_grid=n_grid,
            replications=reps,
            estimators=("qmle",),
            base_seed=base_seed,
        )
    if table == "farima10":
        return MCConfig(
            family="farima10",
            cells=tuple(
                MCCell(gamma=(d, alpha), sigma2=4.0, gamma_bounds=FARIMA10_BOUNDS)
                for d in D_GRID
                for alpha in (0.5, 0.9)
            ),
            n_grid=n_grid,
            replications=reps,
            estimators=("qmle",),
            base_seed=base_seed,
        )
    if table == "near-half":
        return MCConfig(
            family="farima00",
            cells=tuple(
                MCCell(gamma=(d,), sigma2=4.0, gamma_bounds=NEAR_HALF_BOUNDS)
                for d in (0.43, 0.46, 0.49)
            ),
            n_grid=n_grid,
            replications=reps,
            estimators=("qmle",),
            base_seed=base_seed,
        )
    raise ValueError(f"unknown table {table!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", choices=["farima", "lm", "farima10", "near-half"], action="append",
                        help="repeatable; default: all")
    parser.add_argument("--full", action="store_true", help="full scale: R=1000, n up to 10000")
    parser.add_argument("--reps", type=int, default=None, help="override the replication count")
    parser.add_argument("--seed", type=int, default=20240915)
    parser.add_argument("--out-prefix", default=None, help="write <prefix>_<table>.json reports")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")

    for table in args.table or ["farima", "lm", "farima10", "near-half"]:
        config = build_config(table, args.full, args.seed, args.reps)
        t0 = time.time()
        report = run_mc(config)
        print(f"\n## Table {table} ({'full' if args.full else 'desk'} scale, "
              f"R={config.replications}, {time.time() - t0:.0f}s)\n")
        print(emit_table(report, format="markdown"))
        d_records = [rec for rec in report.records if rec.coord == "d"]
        excluded = sum(rec.failures for rec in d_records)
        print(f"excluded fits: {excluded} of {len(d_records) * config.replications}")
        if args.out_prefix:
            path = f"{args.out_prefix}_{table.replace('-', '_')}.json"
            report.to_json(path)
            print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
