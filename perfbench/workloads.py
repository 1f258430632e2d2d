"""Workload definitions shared by the orchestrator (run.py) and its child
processes (child.py).

Nothing here imports numpy or longmem at module level, because each child
times its own ``import longmem`` as part of set-up.
"""

from __future__ import annotations

import math

N_CAMPAIGN = 1000
N_ANALYZE = 2000

# A campaign workload runs "chunks" back to back until --seconds have
# passed.  One chunk is one run_mc call per cell, each over `chunk_reps`
# replications with its own base seed, so every chunk draws new data (no
# coefficient cached by an identical earlier run can hit) and the chunk wall
# time is the latency a user of run_mc sees for a small campaign.
#
# `band` is the acceptance band of the cell's QMLE sqrt-MSE(d) at desk scale
# (tests/test_acceptance.py, criteria 4 and 5) and `reference` the paper's
# value; the correctness gate widens the band by the Monte Carlo error of the
# replications the run actually made.
CAMPAIGNS = {
    "mc-desk": {
        "chunk_reps": 4,
        "cells": [
            {
                "family": "farima00",
                "gamma": [0.2],
                "sigma2": 4.0,
                "gamma_bounds": None,
                "estimators": ["qmle", "whittle"],
                "reference": 0.024,
                "band": [0.018, 0.032],
            },
            {
                "family": "lm",
                "gamma": [0.2],
                "sigma2": 4.0,
                "gamma_bounds": None,
                "estimators": ["qmle", "whittle"],
                "reference": 0.032,
                "band": [0.022, 0.043],
            },
        ],
    },
}

# The acceptance criterion-6 cell: the FARIMA10 (d, alpha) ridge, where each
# QMLE fit takes about 600-650 objective evaluations.  Its fits are pure
# Python and scipy wrapper overhead, whose speed swings up to 2x with the host
# load of a shared VM for minutes at a time, so it is not an end-to-end
# workload; every traced run fits RIDGE_FITS of its replications as a probe.
RIDGE_CELL = {
    "family": "farima10",
    "gamma": [0.1, 0.5],
    "sigma2": 4.0,
    "gamma_bounds": [[-0.25, 0.75], [-0.99, 0.99]],
    "estimators": ["qmle", "whittle"],
}
RIDGE_FITS = 3

ANALYZE_ESTIMATORS = ("qmle", "whittle")
ANALYZE_ARGS = ["--detrend"] + [a for est in ANALYZE_ESTIMATORS for a in ("--estimator", est)]
# the families `analyze` fits when none is named
ANALYZE_FIT_FAMILIES = ("farima00", "lm")
# requests generated per second of --seconds: a ceiling of this many requests
# per second per client, 8x the rate measured when the benchmark was defined
ANALYZE_INPUTS_PER_S = 8
# the generating models of the analyze inputs: two per family, drawn from the
# seed.  The ranges keep every farima00 and lm fit off the estimation
# boundary: a pinned fit returns the same boundary gamma for every input that
# pins, whose coefficients are then cached, and `analyze` is meant to run cold.
ANALYZE_SPECS_PER_FAMILY = 2
ANALYZE_FAMILIES = ("farima00", "farima10", "lm")
ANALYZE_D_RANGE = (0.15, 0.3)
ANALYZE_ALPHA_RANGE = (-0.15, 0.2)

# peak_rss_mb is read when the serial stream has completed this many
# operations (chunks or requests), and every stream runs at least this many,
# so the memory figure covers the same work on a fast and a slow machine
RSS_OPS = {"mc-desk": 32, "analyze": 6}

WORKLOADS = tuple(CAMPAIGNS) + ("analyze",)

# MC error of sqrt-MSE from R replications is about sqrt-MSE / sqrt(2R) for
# Gaussian errors; the gate allows this many of those beyond the band
GATE_Z = 4.0


def chunk_base_seed(seed: int, chunk: int, cell: int) -> int:
    """Base seed of one run_mc call; distinct for every (seed, chunk, cell)."""
    return seed * 1_000_000 + chunk * 10 + cell


def cell_config(cell: dict, seed: int, chunk: int, cell_index: int, reps: int):
    from longmem import MCCell, MCConfig

    bounds = cell["gamma_bounds"]
    return MCConfig(
        family=cell["family"],
        cells=(
            MCCell(
                gamma=tuple(cell["gamma"]),
                sigma2=cell["sigma2"],
                gamma_bounds=tuple(tuple(b) for b in bounds) if bounds else None,
            ),
        ),
        n_grid=(N_CAMPAIGN,),
        replications=reps,
        estimators=tuple(cell["estimators"]),
        base_seed=chunk_base_seed(seed, chunk, cell_index),
    )


def cell_spec(cell: dict):
    return cell_config(cell, 0, 0, 0, 1).cells[0].spec(cell["family"])


def analyze_input_count(seconds: float) -> int:
    return int(math.ceil(ANALYZE_INPUTS_PER_S * seconds)) + 24


def analyze_specs(seed: int) -> list:
    """Generating models of the analyze inputs, drawn from the seed."""
    import numpy as np

    from longmem import ModelSpec

    rng = np.random.default_rng([seed, 17])
    specs = []
    for family in ANALYZE_FAMILIES:
        for _ in range(ANALYZE_SPECS_PER_FAMILY):
            d = float(rng.uniform(*ANALYZE_D_RANGE))
            alpha = float(rng.uniform(*ANALYZE_ALPHA_RANGE))
            gamma = (d, alpha) if family == "farima10" else (d,)
            specs.append(
                ModelSpec(
                    family=family,
                    gamma=gamma,
                    sigma2=float(rng.uniform(0.5, 4.0)),
                    mu=float(rng.uniform(-5.0, 5.0)),
                )
            )
    return specs


def analyze_input(seed: int, index: int, specs: list):
    """(spec, GenConfig, slope) of request `index`: families take turns, and
    every request has its own noise stream and a linear trend to detrend."""
    from longmem import GenConfig, derive_seed

    spec = specs[index % len(specs)]
    slope = ((index * 7919) % 201 - 100) * 1e-4
    return spec, GenConfig(seed=derive_seed(seed, 23, index)), slope


def analyze_values(series, slope: float):
    import numpy as np

    return series.values + slope * np.arange(1.0, series.n + 1)
