"""Long-memory causal linear processes: simulation, quasi-maximum likelihood
and Whittle estimation, BLUE location estimation, and Monte Carlo sqrt-MSE
benchmarking."""

from .estimate import (
    AsymptoticInfo,
    FitResult,
    IdentifiabilityError,
    ToeplitzError,
    asymptotic_covariance,
    blue_mean,
    blue_weights,
    fit_batch,
    fit_qmle,
    fit_whittle,
    fourier_frequencies,
    periodogram,
    qmle_gradient,
    qmle_objective,
    spectral_density,
    standard_errors,
)
from .models import (
    Family,
    ModelSpec,
    ar_coeffs,
    ar_coeffs_gamma,
    autocovariance,
    dar_coeffs,
    dar_coeffs_gamma,
    default_gamma_bounds,
    invert_series,
    ma_coeffs,
)
from .montecarlo import MCCell, MCConfig, MCReport, emit_table, run_mc
from .simulate import (
    EmbeddingError,
    GenConfig,
    Series,
    derive_seed,
    series_from_csv,
    series_to_csv,
    simulate,
)
from .specfun import riemann_zeta

__version__ = "0.1.0"

__all__ = [
    "AsymptoticInfo",
    "EmbeddingError",
    "Family",
    "FitResult",
    "GenConfig",
    "IdentifiabilityError",
    "MCCell",
    "MCConfig",
    "MCReport",
    "ModelSpec",
    "Series",
    "ToeplitzError",
    "ar_coeffs",
    "ar_coeffs_gamma",
    "asymptotic_covariance",
    "autocovariance",
    "blue_mean",
    "blue_weights",
    "dar_coeffs",
    "dar_coeffs_gamma",
    "default_gamma_bounds",
    "derive_seed",
    "emit_table",
    "fit_batch",
    "fit_qmle",
    "fit_whittle",
    "fourier_frequencies",
    "invert_series",
    "ma_coeffs",
    "periodogram",
    "qmle_gradient",
    "qmle_objective",
    "riemann_zeta",
    "run_mc",
    "series_from_csv",
    "series_to_csv",
    "simulate",
    "spectral_density",
    "standard_errors",
]
