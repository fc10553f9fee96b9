"""Modeling, simulation and reconstruction of two-photon polarization
density matrices for pulsed entangled-pair sources."""

__version__ = "0.1.0"

from .states import (
    BASIS_LABELS,
    StateMetrics,
    bell_state,
    compute_metrics,
    concurrence,
    fidelity,
    format_density_matrix,
    ideal_bell,
    linear_entropy,
    parse_density_matrix,
    purity,
    tangle,
    totally_mixed,
    validate,
    werner,
    werner_fit,
    werner_metrics,
)
from .tomography import (
    CANONICAL_LABELS,
    CountVector,
    expected_probabilities,
    linear_reconstruct,
    mle_reconstruct,
    simulate_counts,
)
from .multipair import (
    PowerCalibration,
    RateTriple,
    SourceParams,
    background_g,
    effective_g,
    g_vs_power_curve,
    rates_primed,
)
from . import errors, pipeline

__all__ = [
    "BASIS_LABELS",
    "CANONICAL_LABELS",
    "CountVector",
    "PowerCalibration",
    "RateTriple",
    "SourceParams",
    "StateMetrics",
    "background_g",
    "bell_state",
    "compute_metrics",
    "concurrence",
    "effective_g",
    "errors",
    "expected_probabilities",
    "fidelity",
    "format_density_matrix",
    "g_vs_power_curve",
    "ideal_bell",
    "linear_entropy",
    "linear_reconstruct",
    "mle_reconstruct",
    "parse_density_matrix",
    "pipeline",
    "purity",
    "rates_primed",
    "simulate_counts",
    "tangle",
    "totally_mixed",
    "validate",
    "werner",
    "werner_fit",
    "werner_metrics",
]
