"""The public API of the package: every name it exports, and no more, and
its value types, which are read-only tuples."""

import numpy as np
import pytest

import biphoton
from biphoton import multipair, pipeline, tomography

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


# Each value type, an instance and the attributes it reads out, listed here
# rather than taken from the type.
def value_instances():
    metrics = multipair.werner_metrics(0.5)
    return {
        "SourceParams": (multipair.SourceParams(0.5, 0.1), ("mu", "alpha", "eta")),
        "RateTriple": (multipair.rates_primed(multipair.SourceParams(0.5, 0.1)),
                       ("r_hh", "r_hv", "r_hr")),
        "PowerCalibration": (multipair.PowerCalibration(0.01), ("pairs_per_power", "power_unit")),
        "StateMetrics": (metrics, ("fidelity", "tangle", "linear_entropy", "purity", "werner_g",
                                   "min_eigenvalue")),
        "RunConfig": (pipeline.build_config({}), ("seed", "source", "calibration", "eta_list",
                                                 "sweep_grid", "simulate_grid", "scale",
                                                 "config_hash")),
        "AnalysisRecord": (pipeline.AnalysisRecord("x", np.eye(4) / 4, metrics, 1, 0.25),
                           ("label", "rho", "metrics", "optimizer_evals", "hr_consistency")),
        "CountVector": (tomography.CountVector(np.ones(16)), ("counts", "total_scale")),
    }


@pytest.mark.parametrize("name", sorted(value_instances()))
def test_value_types_are_read_only(name):
    value, names = value_instances()[name]
    assert type(value).__name__ == name
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(value, attr, getattr(value, attr))


def test_value_types_are_tuples():
    params = multipair.SourceParams(0.5, 0.1)
    mu, alpha, eta = params
    assert (mu, alpha, eta, params[2]) == (0.5, 0.1, 1.0, 1.0)
    assert params == (0.5, 0.1, 1.0)
    assert params._replace(eta=0.3) == multipair.SourceParams(0.5, 0.1, 0.3)
    assert multipair.werner_metrics(0.0) == (1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
