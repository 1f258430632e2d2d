#!/usr/bin/env python3
"""Empirical checks of the estimator asymptotics.

For each family: compare n Var(gamma-hat) and n Var(sigma2-hat) from a Monte
Carlo run against the limit covariance (inverse information matrix for gamma,
sigma^4 (mu4 - 1) for sigma2), and check that sd(mu_blue) n^(1/2-d) and
sd(mean) n^(1/2-d) are stable in n with BLUE at least as efficient.
"""

import argparse
import sys

import numpy as np

from longmem.estimate import asymptotic_covariance, blue_weights
from longmem.models import ModelSpec, autocovariance
from longmem.montecarlo import MCCell, MCConfig, run_mc
from longmem.simulate import GenConfig, simulate


def clt_check(family, gamma, sigma2, n, reps, seed):
    config = MCConfig(
        family=family,
        cells=(MCCell(gamma=gamma, sigma2=sigma2),),
        n_grid=(n,),
        replications=reps,
        estimators=("qmle",),
        base_seed=seed,
    )
    report = run_mc(config)
    raw = report.raw[(0, n, "qmle")]
    ok = ~np.isnan(raw[:, 0])
    spec = ModelSpec(family=family, gamma=gamma, sigma2=sigma2)
    info = asymptotic_covariance(spec)
    limit = np.diag(np.linalg.inv(info.M)).tolist() + [info.var_sigma2]
    print(f"\n{family} gamma={gamma} sigma2={sigma2} n={n} R={ok.sum()}")
    names = (["d"] if len(gamma) == 1 else ["d", "alpha"]) + ["sigma2"]
    for j, name in enumerate(names):
        nvar = n * np.var(raw[ok, j], ddof=1)
        print(f"  n Var({name}) = {nvar:8.4f}   limit = {limit[j]:8.4f}   "
              f"ratio = {nvar / limit[j]:.3f}")


def mean_scaling_check(d, sigma2, reps, seed):
    spec = ModelSpec(family="farima00", gamma=(d,), sigma2=sigma2)
    print(f"\nBLUE vs sample mean scaling, FARIMA00 d={d}:")
    for ni, n in enumerate((300, 1000, 3000)):
        w = blue_weights(autocovariance(spec, n - 1))
        mu_blue = np.empty(reps)
        mu_bar = np.empty(reps)
        for r in range(reps):
            x = simulate(spec, n, GenConfig(seed=seed + 1000 * ni + r)).values
            mu_blue[r] = w @ x
            mu_bar[r] = x.mean()
        scale = n ** (0.5 - d)
        print(f"  n={n:5d}: sd(mu_blue) n^(1/2-d) = {np.std(mu_blue, ddof=1) * scale:.4f}   "
              f"sd(mean) n^(1/2-d) = {np.std(mu_bar, ddof=1) * scale:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=400)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7171)
    args = parser.parse_args(argv)

    clt_check("farima00", (0.2,), 4.0, args.n, args.reps, args.seed)
    clt_check("lm", (0.3,), 4.0, args.n, args.reps, args.seed + 1)
    clt_check("farima10", (0.2, 0.5), 4.0, args.n, max(100, args.reps // 4), args.seed + 2)
    mean_scaling_check(0.3, 4.0, args.reps, args.seed + 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
