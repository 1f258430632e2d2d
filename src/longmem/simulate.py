"""Trajectory generation: exact Gaussian sampling via circulant embedding and
an approximate truncated moving-average generator, both deterministically seeded.

The RNG is numpy's Philox counter-based generator.  A campaign derives one
independent stream per replication through ``np.random.SeedSequence(base,
spawn_key=...)``, so any replication can be drawn alone and gives the same
numbers as in its campaign.

Replications reuse two caches of 64 entries each: the circulant embedding
per (spec, n) and the truncated-ma weights per (spec, K).  Every transform
goes through numpy.fft.
"""

from __future__ import annotations

import io
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.fft import hfft, irfft, rfft

from .models import ModelSpec, autocovariance, fast_length, ma_coeffs

__all__ = [
    "Series",
    "GenConfig",
    "EmbeddingError",
    "simulate",
    "rng_from_seed",
    "derive_seed",
    "series_to_csv",
    "series_from_csv",
    "GENERATORS",
]

GENERATORS = ("exact-gaussian", "truncated-ma")

# relative threshold below which negative circulant eigenvalues are treated
# as roundoff and clamped to zero; anything lower aborts
_EV_TOL = 1e-8

# spaces, tabs and commas at a line end, so whitespace-only lines become empty
_LINE_END_BLANKS = re.compile(r"[ \t,]+$", re.MULTILINE)


class EmbeddingError(RuntimeError):
    """Circulant embedding produced materially negative eigenvalues."""

    def __init__(self, min_eigenvalue: float, size: int):
        self.min_eigenvalue = min_eigenvalue
        self.size = size
        super().__init__(
            f"circulant embedding of size {size} is not nonnegative definite "
            f"(min eigenvalue {min_eigenvalue:.3e})"
        )


@dataclass(frozen=True)
class Series:
    """An observed or simulated trajectory X_1..X_n."""

    values: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("Series requires a 1-D array with n >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("Series values must all be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class GenConfig:
    """Generator choice plus seed; K, the MA truncation (default 10 n),
    applies to truncated-ma only.

    seed is an integer or a ``np.random.SeedSequence``, such as the
    per-replication stream a campaign derives with ``derive_seed``.
    """

    generator: str = "exact-gaussian"
    seed: int | np.random.SeedSequence = 0
    K: int | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}, expected one of {GENERATORS}")
        if not isinstance(self.seed, np.random.SeedSequence) and not _count(self.seed):
            raise ValueError(
                f"seed: expected a non-negative integer or a SeedSequence, got {self.seed!r}"
            )
        if self.K is not None and not _count(self.K):
            raise ValueError(f"K: expected None or a non-negative integer, got {self.K!r}")


def _count(value) -> bool:
    """Whether value is a non-negative integer; operator.index(True) is 1, so
    a bool is rejected by name."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


def rng_from_seed(seed) -> np.random.Generator:
    """Philox generator from an integer seed or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Stable per-task seed derivation: (base, key) -> independent stream."""
    return np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))


def _next_pow2(m: int) -> int:
    return 1 << max(int(math.ceil(math.log2(m))), 3)


@lru_cache(maxsize=64)
def _embedding(spec: ModelSpec, n: int) -> tuple[np.ndarray, int]:
    """Sqrt-eigenvalue weights of the covariance circulant of size M, cached
    per (spec, n): the M/2 + 1 weights of the half spectrum, each scaled so
    that one hfft of the weights times complex normals is a sample path."""
    M = _next_pow2(4 * n)
    r = autocovariance(spec, M // 2)
    ring = np.concatenate([r, r[-2:0:-1]])
    # the ring is symmetric, so its spectrum is real and even: the half
    # spectrum holds every eigenvalue
    ev = rfft(ring).real
    ev_max = ev.max()
    ev_min = ev.min()
    if ev_min < -_EV_TOL * ev_max:
        raise EmbeddingError(float(ev_min), M)
    ev = np.clip(ev, 0.0, None) / (2.0 * M)
    # the real frequencies 0 and M/2 take the whole variance on one normal
    ev[[0, -1]] *= 2.0
    weights = np.sqrt(ev)
    weights.flags.writeable = False
    return weights, M


@lru_cache(maxsize=64)
def _ma_weights(spec: ModelSpec, K: int) -> np.ndarray:
    """MA weights a_0..a_K of the truncated-ma generator, cached per (spec, K)."""
    return ma_coeffs(spec, K)


def _sample_exact_gaussian(spec: ModelSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    weights, M = _embedding(spec, n)
    g1 = rng.standard_normal(weights.size)
    g2 = rng.standard_normal(weights.size)
    # hfft reads the half spectrum as Hermitian and drops the imaginary parts
    # at frequencies 0 and M/2
    z = hfft(weights * (g1 + 1j * g2), M)
    return z[:n] + spec.mu


def _sample_truncated_ma(spec: ModelSpec, n: int, cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    K = cfg.K if cfg.K is not None else 10 * n
    if K < n:
        raise ValueError(f"truncated-ma requires K >= n, got K={K}, n={n}")
    a = _ma_weights(spec, K)
    eps = rng.standard_normal(n + K)
    # x[t] = sum_i a_i eps_{t-i}: the window [K, K + n) of the product holds
    # the outputs with all K + 1 terms
    N = fast_length(eps.size + a.size - 1)
    x = irfft(rfft(eps, N) * rfft(a, N), N)[K : K + n]
    return spec.sigma * x + spec.mu


def simulate(spec: ModelSpec, n: int, cfg: GenConfig) -> Series:
    """Simulate a trajectory of length n from the given model.

    exact-gaussian embeds the autocovariance ring in a circulant of size
    M = next_pow2(4n) and synthesizes a stationary Gaussian path with exactly
    the target covariance, as one hfft of M/2 + 1 complex normals scaled by
    the square-root eigenvalues; truncated-ma filters n + K white-noise draws
    through the first K + 1 moving-average weights by one real-FFT product,
    so every output value is a full window of K + 1 terms and no burn-in is
    needed.  Identical (spec, n, cfg) always yields bit-identical output.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = rng_from_seed(cfg.seed)
    if cfg.generator == "exact-gaussian":
        values = _sample_exact_gaussian(spec, n, rng)
    else:
        values = _sample_truncated_ma(spec, n, cfg, rng)
    return Series(values=values)


def series_to_csv(series: Series, path) -> None:
    """One value per line under a single header row ``x``, LF line ends.
    ``path`` is a file path or an open text stream such as ``sys.stdout``."""
    text = "x\n" + "".join(f"{v:.17g}\n" for v in series.values)
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def _read_rows(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, quotechar='"', ndmin=2)


def series_from_csv(path) -> Series:
    """Read a series: one value per line, or two columns time,value where rows
    are sorted by (time, value) and the time column dropped.

    The accepted grammar: UTF-8, with or without a byte-order mark; LF, CRLF or
    CR line ends; an optional header, which is the first non-empty line when one
    of its cells is not a number; cells separated by ``,``, each a Python float
    literal without ``_``, optionally quoted with ``"`` and surrounded by spaces
    or tabs; one trailing ``,`` or more on a line; blank and whitespace-only
    lines anywhere.  Every data row has the same number of cells, 1 or 2, and
    no cell is empty.  Raises ``ValueError`` on anything else, on an empty file
    or a header alone, and (through ``Series``) on a non-finite value.
    """
    with open(path, encoding="utf-8-sig") as fh:  # drops a BOM; CRLF, CR arrive as LF
        for first in fh:
            cells = [c.strip().strip('"') for c in first.split(",")]
            if any(cells):
                break
        else:
            raise ValueError(f"no data found in {path}")
        body = fh.read()
    try:
        [float(c) for c in cells if c]
        body = first + body
    except ValueError:
        pass  # the first non-empty line is a header
    if not body.strip(" \t\n,"):
        raise ValueError(f"no numeric rows found in {path}")
    try:
        rows = _read_rows(body)
    except ValueError:
        # loadtxt rejects whitespace-only lines and trailing commas; trimming
        # them from every file would cost more than the read itself
        rows = _read_rows(_LINE_END_BLANKS.sub("", body))
    width = rows.shape[1]
    if width == 1:
        values = rows[:, 0]
    elif width == 2:
        values = rows[np.lexsort((rows[:, 1], rows[:, 0])), 1]
    else:
        raise ValueError(f"expected 1 or 2 columns, got {width}")
    return Series(values=values)
