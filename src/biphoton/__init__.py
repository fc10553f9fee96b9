"""Modeling, simulation and reconstruction of two-photon polarization
density matrices for pulsed entangled-pair sources."""

__version__ = "0.1.0"

from . import errors, multipair, pipeline, states, tomography

# Each public name under the submodule that defines it. The other public
# names are the submodules imported above that this table does not list.
_PUBLIC = {
    "multipair": ("PowerCalibration", "RateTriple", "SourceParams", "background_g",
                  "effective_g", "g_vs_power_curve", "rates_primed"),
    "states": ("BASIS_LABELS", "StateMetrics", "bell_state", "compute_metrics", "concurrence",
               "fidelity", "format_density_matrix", "ideal_bell", "linear_entropy",
               "parse_density_matrix", "purity", "tangle", "totally_mixed", "validate",
               "werner", "werner_fit", "werner_metrics"),
    "tomography": ("CANONICAL_LABELS", "CountVector", "expected_probabilities",
                   "linear_reconstruct", "mle_reconstruct", "simulate_counts"),
}

globals().update({name: getattr(globals()[module], name)
                  for module, names in _PUBLIC.items() for name in names})
__all__ = sorted(name for name in globals() if not name.startswith("_") and name not in _PUBLIC)
