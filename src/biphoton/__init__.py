"""Modeling, simulation and reconstruction of two-photon polarization
density matrices for pulsed entangled-pair sources.

Importing the package loads none of its submodules: each loads on first use
of a name it defines (PEP 562), so code that uses only the multi-pair model
never imports numpy."""

import importlib

__version__ = "0.1.0"

# Each public name under the submodule that defines it.
_PUBLIC = {
    "multipair": ("CANONICAL_LABELS", "PowerCalibration", "RateTriple", "SourceParams",
                  "StateMetrics", "background_g", "effective_g", "g_vs_power_curve",
                  "rates_primed", "werner_metrics"),
    "states": ("BASIS_LABELS", "bell_state", "compute_metrics", "concurrence", "fidelity",
               "format_density_matrix", "ideal_bell", "linear_entropy", "parse_density_matrix",
               "purity", "tangle", "totally_mixed", "validate", "werner", "werner_fit"),
    "tomography": ("CountVector", "expected_probabilities", "linear_reconstruct",
                   "mle_reconstruct", "simulate_counts"),
}
# The submodules that are public names themselves; the table's are reached as attributes.
_MODULES = ("errors", "pipeline")
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted((*_MODULES, *_HOME))


def __getattr__(name):
    """The submodule called name, or the public name from the submodule that defines it."""
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _MODULES or name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
