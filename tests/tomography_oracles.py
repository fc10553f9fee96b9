"""Reference likelihood fit for the tomography tests.

The derivative-free route the package took before its analytic-gradient
L-BFGS fit: an adaptive Nelder-Mead simplex search over the same 16
triangular parameters and the same objective, started from the clamped
linear reconstruction and restarted once from the maximally mixed state if
the first run exhausts its budget. Slow (thousands of evaluations per fit)
and kept only as an independent check on the optimum the package reaches.
"""

import numpy as np
from scipy.optimize import minimize

from biphoton import states, tomography


def objective(rho, raw_counts, scale):
    """Gaussian-approximated Poisson negative log-likelihood of the counts
    under rho, each setting's variance its model count clamped below at
    1e-9 * scale."""
    model = scale * tomography.expected_probabilities(rho)
    var = np.maximum(model, 1e-9 * scale)
    return float(np.sum((model - raw_counts) ** 2 / (2 * var)))


def _neg_log_likelihood(params, raw_counts, scale):
    return objective(tomography._rho_from_params(params), raw_counts, scale)


def nelder_mead_fit(cv, max_evals=200_000):
    """(rho, converged) from the restarted simplex search on a CountVector."""
    raw, scale = cv.counts, cv.total_scale
    start = tomography._params_from_rho(tomography.linear_reconstruct(cv))
    best = None
    for x0 in (start, tomography._params_from_rho(states.totally_mixed())):
        res = minimize(
            _neg_log_likelihood,
            x0,
            args=(raw, scale),
            method="Nelder-Mead",
            options={
                "maxfev": max_evals,
                "fatol": 1e-10,
                "xatol": 1e-10,
                "adaptive": True,
            },
        )
        if best is None or res.fun < best.fun:
            best = res
        if res.success:
            break
    return tomography._rho_from_params(best.x), bool(best.success)
