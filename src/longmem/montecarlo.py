"""Replication engine for the sqrt-MSE benchmark tables.

A campaign is a grid of (parameter cell) x (trajectory length) x
(replication).  Replication r of cell c at length n always uses the seed
stream derived from (base_seed, c, n_index, r), so the report depends on
the config alone.  Replications run in one process (a thread pool ran slower
on two cores), in blocks of at most _BLOCK per (cell, n), fewer when n is so
large that a block's arrays would pass _BLOCK_BYTES: a block's series are
drawn one by one, less the cell's mu (the mean is known), and fitted by
estimate.fit_batch, whose searches over d run in lockstep and share one QMLE
transform per step; each row equals the standalone fit of its series bit for
bit.  A failed fit (an exception, non-convergence or a boundary-pinned gamma)
leaves a NaN row; an exception is logged with its cell, n and replication.
MCReport computes each record from the raw tables on request, over the rows
that hold a fit, in power-of-two units that no finite sigma2 overflows.

``MCConfig`` and ``MCCell`` alone define a campaign: a JSON config uses
their field names, defaults and normalisation, so it equals the same config
built in Python.  ``MCConfig`` makes estimate.check_fit's checks for every
cell and estimator at the smallest n, the ones fit_batch makes of a block:
a campaign that cannot run is a bad config and fails before its first draw.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .estimate import check_fit, fit_batch
from .models import GAMMA_NAMES, Family, ModelSpec
from .simulate import GENERATORS, GenConfig, Series, derive_seed, simulate

logger = logging.getLogger(__name__)

__all__ = ["MCCell", "MCConfig", "MCRecord", "MCReport", "run_mc", "emit_table"]

# replications of one (cell, n) whose fits run in lockstep and share their
# transforms: at most _BLOCK, and fewer where their fit arrays, about 80 n
# bytes a replication, would pass _BLOCK_BYTES (n above 3,276)
_BLOCK = 64
_BLOCK_BYTES = 16 << 20


def _coerce(obj, name: str, convert) -> None:
    """Set field ``name`` of a frozen dataclass to convert(value); a value
    that convert rejects raises ValueError naming the field."""
    try:
        object.__setattr__(obj, name, convert(getattr(obj, name)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _integer(value) -> int:
    # operator.index(True) is 1, so a JSON true would pass for a count
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _names(value) -> tuple[str, ...]:
    # tuple("qmle") would be four one-letter names
    if isinstance(value, str):
        raise TypeError(f"expected a list of names, got the string {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class MCCell:
    """One true-parameter cell (gamma*, sigma2*), with optional overrides."""

    gamma: tuple[float, ...]
    sigma2: float
    mu: float = 0.0
    gamma_bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        _coerce(self, "gamma", lambda gamma: tuple(float(g) for g in gamma))
        _coerce(self, "sigma2", float)
        _coerce(self, "mu", float)
        if self.gamma_bounds is not None:
            _coerce(
                self, "gamma_bounds", lambda b: tuple((float(lo), float(hi)) for lo, hi in b)
            )

    def label(self) -> str:
        parts = [f"{v:g}" for v in self.gamma]
        return "g=(" + ",".join(parts) + f") s2={self.sigma2:g}"

    def spec(self, family: Family) -> ModelSpec:
        return ModelSpec(
            family=family,
            gamma=self.gamma,
            sigma2=self.sigma2,
            mu=self.mu,
            gamma_bounds=self.gamma_bounds,
        )


@dataclass(frozen=True)
class MCConfig:
    family: Family
    cells: tuple[MCCell, ...]
    n_grid: tuple[int, ...] = (300, 1000, 3000)  # desk scale; go bigger explicitly
    replications: int = 300
    estimators: tuple[str, ...] = ("qmle",)
    base_seed: int = 20240915
    generator: str = "exact-gaussian"

    def __post_init__(self):
        _coerce(self, "family", Family)
        _coerce(
            self, "cells", lambda cs: tuple(c if isinstance(c, MCCell) else MCCell(**c) for c in cs)
        )
        _coerce(self, "n_grid", lambda ns: tuple(_integer(n) for n in ns))
        _coerce(self, "estimators", _names)
        for name in ("replications", "base_seed"):
            _coerce(self, name, _integer)
        for name in ("cells", "n_grid", "estimators"):
            if not getattr(self, name):
                raise ValueError(f"{name}: must not be empty")
        # a repeated n or estimator would be run twice, and its tables would
        # keep one run or the other
        for name in ("n_grid", "estimators"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name}: entries must be distinct, got {list(values)}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed: must be >= 0, got {self.base_seed}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        # every cell eagerly, and the checks fit_batch makes of a block, so
        # that a campaign that cannot run fails before its first draw
        for cell in self.cells:
            cell.spec(self.family)
            for est in self.estimators:
                check_fit(self.family, est, min(self.n_grid), cell.gamma_bounds)

    @classmethod
    def from_json(cls, path) -> "MCConfig":
        """Read a JSON object keyed by the MCConfig fields (each cell keyed by
        the MCCell fields); any malformed config, NaN and Infinity tokens
        included, raises ValueError."""
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


@dataclass
class MCRecord:
    cell_index: int
    cell_label: str
    gamma_star: tuple[float, ...]
    sigma2_star: float
    n: int
    estimator: str
    coord: str
    sqrt_mse: float
    bias: float
    mc_se: float
    replications_used: int
    failures: int


@dataclass
class MCReport:
    """A campaign's raw tables; each record is computed from them on request."""

    config: MCConfig
    # raw per-replication estimates: (cell_index, n, estimator) ->
    # array of shape (R, p) with columns gamma..., sigma2; failed rows hold NaN
    raw: dict[tuple[int, int, str], np.ndarray] = field(default_factory=dict)

    @property
    def records(self) -> list[MCRecord]:
        coords = GAMMA_NAMES[self.config.family] + ("sigma2",)
        return [self.lookup(*key, coord) for key in self.raw for coord in coords]

    def lookup(self, cell_index: int, n: int, estimator: str, coord: str) -> MCRecord:
        """sqrt-MSE, bias and MC error of one coordinate over the fits that did
        not fail, in units of the largest power of two at most the largest
        error, so its squares neither overflow nor underflow; that is exact."""
        try:
            table = self.raw[(cell_index, n, estimator)]
            j = (GAMMA_NAMES[self.config.family] + ("sigma2",)).index(coord)
        except (KeyError, ValueError):
            raise KeyError((cell_index, n, estimator, coord)) from None
        cell = self.config.cells[cell_index]
        ok = ~np.isnan(table[:, 0])
        used = int(ok.sum())
        sqrt_mse = bias = mc_se = float("nan")
        if used:
            err = table[ok, j] - (cell.gamma + (cell.sigma2,))[j]
            # 2.0 ** e is at most the largest |err|, so it cannot overflow
            unit = 2.0 ** (math.frexp(np.max(np.abs(err)))[1] - 1)
            err = err / unit
            mse = float(np.mean(err**2))
            sqrt_mse = float(np.sqrt(mse))
            bias = float(np.mean(err))
            # delta method: se(sqrt(MSE)) = se(MSE) / (2 sqrt(MSE))
            se_mse = float(np.std(err**2, ddof=1)) / math.sqrt(used) if used > 1 else float("nan")
            mc_se = se_mse / (2.0 * sqrt_mse) if sqrt_mse > 0 else float("nan")
            sqrt_mse, bias, mc_se = sqrt_mse * unit, bias * unit, mc_se * unit
        return MCRecord(
            cell_index=cell_index,
            cell_label=cell.label(),
            gamma_star=cell.gamma,
            sigma2_star=cell.sigma2,
            n=n,
            estimator=estimator,
            coord=coord,
            sqrt_mse=sqrt_mse,
            bias=bias,
            mc_se=mc_se,
            replications_used=used,
            failures=len(table) - used,
        )

    def as_dict(self) -> dict:
        return {
            "family": self.config.family.value,
            "replications": self.config.replications,
            "base_seed": self.config.base_seed,
            "records": [
                {k: _null_nan(v) for k, v in vars(rec).items()}
                | {"gamma_star": list(rec.gamma_star)}
                for rec in self.records
            ],
            "raw": [
                {
                    "cell_index": key[0],
                    "n": key[1],
                    "estimator": key[2],
                    "estimates": [[_null_nan(v) for v in row] for row in val],
                }
                for key, val in self.raw.items()
            ],
        }

    def to_json(self, path) -> None:
        """Write as_dict() as strict JSON, the text `longmem mc` prints."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.as_dict(), indent=2, allow_nan=False) + "\n")


def _null_nan(value):
    """NaN (an empty or one-replication aggregate, a failed fit) as JSON null."""
    return None if isinstance(value, float) and np.isnan(value) else value


def _run_replications(config, spec, n, n_index, cell_index) -> dict[str, np.ndarray]:
    R = config.replications
    estimates = {est: np.full((R, len(spec.gamma) + 1), np.nan) for est in config.estimators}
    rows = min(_BLOCK, max(1, _BLOCK_BYTES // (80 * n)))
    for start in range(0, R, rows):
        block = range(start, min(start + rows, R))
        draws = (
            simulate(
                spec,
                n,
                GenConfig(
                    generator=config.generator,
                    seed=derive_seed(config.base_seed, cell_index, n_index, r),
                ),
            )
            for r in block
        )
        series = [Series(values=x.values - spec.mu) for x in draws]
        for est in config.estimators:
            fits = fit_batch(series, config.family, est, bounds=spec.gamma_bounds)
            for r, fit in zip(block, fits):
                if isinstance(fit, Exception):
                    logger.error(
                        "fit %s failed: cell %d, n %d, replication %d",
                        est, cell_index, n, r, exc_info=fit,
                    )
                elif fit.converged and not fit.boundary_pinned:
                    estimates[est][r] = list(fit.gamma_hat) + [fit.sigma2_hat]
    return estimates


def run_mc(config: MCConfig, workers: int = 1) -> MCReport:
    """Simulate and fit the campaign into the report's raw tables, from which
    it computes its records on request; ``workers`` is accepted for
    compatibility and ignored.  MCConfig made the checks fit_batch makes of a
    block, such as Whittle at n < 4, so none of them stops a campaign part way."""
    raw: dict[tuple[int, int, str], np.ndarray] = {}
    for cell_index, cell in enumerate(config.cells):
        spec = cell.spec(config.family)
        for n_index, n in enumerate(config.n_grid):
            tables = _run_replications(config, spec, n, n_index, cell_index)
            raw.update({(cell_index, n, est): table for est, table in tables.items()})
    return MCReport(config=config, raw=raw)


def emit_table(report: MCReport, format: str = "markdown") -> str:
    """sqrt-MSE table: one row per (n, estimator), one column per
    (cell, coordinate)."""
    if not report.raw:
        raise ValueError("empty report")
    config = report.config
    coord_names = GAMMA_NAMES[config.family] + ("sigma2",)
    columns = [
        (cell_index, cell.label(), coord)
        for cell_index, cell in enumerate(config.cells)
        for coord in coord_names
    ]
    header = ["n", "estimator"] + [f"{label} {coord}" for _, label, coord in columns]
    rows = []
    for n in config.n_grid:
        for est in config.estimators:
            row = [str(n), est]
            for cell_index, _, coord in columns:
                rec = report.lookup(cell_index, n, est, coord)
                row.append(f"{rec.sqrt_mse:.17g}")
            rows.append(row)

    if format == "csv":
        import csv as _csv

        buf = StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if format == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
