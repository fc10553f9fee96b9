"""The public API of the package: every name it exports, and no more."""

import biphoton

PUBLIC = [
    "BASIS_LABELS", "CANONICAL_LABELS", "CountVector", "PowerCalibration", "RateTriple",
    "SourceParams", "StateMetrics", "background_g", "bell_state", "compute_metrics",
    "concurrence", "effective_g", "errors", "expected_probabilities", "fidelity",
    "format_density_matrix", "g_vs_power_curve", "ideal_bell", "linear_entropy",
    "linear_reconstruct", "mle_reconstruct", "parse_density_matrix", "pipeline", "purity",
    "rates_primed", "simulate_counts", "tangle", "totally_mixed", "validate", "werner",
    "werner_fit", "werner_metrics",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(biphoton.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(biphoton, name) is not None
