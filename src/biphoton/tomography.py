"""16-projection polarization tomography: count simulation, linear
inversion, and maximum-likelihood reconstruction.

Analyzer convention: R = (1, -i)/sqrt(2), L = (1, i)/sqrt(2). Flipping the
convention only flips the sign of imaginary parts of reconstructed
off-diagonals; all shipped tests use this convention.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
)
from . import states

_INV_SQRT2 = 1 / np.sqrt(2)

ANALYZER_STATES = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) * _INV_SQRT2,
    "A": np.array([1, -1], dtype=complex) * _INV_SQRT2,
    "R": np.array([1, -1j], dtype=complex) * _INV_SQRT2,
    "L": np.array([1, 1j], dtype=complex) * _INV_SQRT2,
}

# Standard two-photon tomography settings, in fixed order.
CANONICAL_LABELS = (
    "HH", "HV", "VV", "VH",
    "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD",
    "VD", "VL", "HL", "RL",
)


def _projector(label):
    ket = np.kron(ANALYZER_STATES[label[0]], ANALYZER_STATES[label[1]])
    return np.outer(ket, ket.conj())


# Rank-1 projectors |ab><ab| for the canonical settings, shape (16, 4, 4).
PROJECTORS = np.stack([_projector(lab) for lab in CANONICAL_LABELS])

# Dual basis M_nu with Tr(P_u M_v) = delta_uv, via the real 16x16 Gram
# matrix G[u,v] = Tr(P_u P_v) of the (informationally complete) set.
DUAL_BASIS = np.einsum(
    "vu,uij->vij",
    np.linalg.inv(np.einsum("uij,vji->uv", PROJECTORS, PROJECTORS).real),
    PROJECTORS,
)


def expected_probabilities(rho):
    """Born-rule probabilities p_nu = Re Tr(rho P_nu) for each setting."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("nij,ji->n", PROJECTORS, rho).real


@dataclass
class CountVector:
    """Coincidence counts per projector plus the unit-probability scale."""

    counts: np.ndarray
    total_scale: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (16,):
            raise ValidationError(f"expected 16 counts, got shape {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be non-negative")
        if not self.total_scale > 0:
            raise ValidationError("total_scale must be positive")


def default_total_scale(counts):
    """Counts expected for a unit-probability projector: the sum over the
    computational-basis settings, whose Born probabilities sum to 1 for
    any state. Summed as HH, HV, VH, VV."""
    return float(np.sum(np.asarray(counts, dtype=float)[[0, 1, 3, 2]]))


def simulate_counts(rho, total_scale, seed):
    """Poisson-sample coincidence counts for every setting.

    Deterministic in (rho, total_scale, seed).
    """
    if not total_scale > 0:
        raise ValidationError("total_scale must be positive")
    probs = expected_probabilities(rho)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(total_scale * np.clip(probs, 0, None)).astype(float)
    return CountVector(counts, float(total_scale))


def linear_reconstruct(counts):
    """Linear-inversion estimate rho = sum_nu r_nu M_nu.

    Hermitian and unit-trace by construction, but may carry negative
    eigenvalues for noisy counts.
    """
    if isinstance(counts, CountVector):
        raw = counts.counts
    else:
        raw = np.asarray(counts, dtype=float)
    if np.all(raw == 0):
        raise DegenerateInputError("all counts are zero")
    norm = default_total_scale(raw)
    if norm <= 0:
        raise DegenerateInputError("computational-basis counts are all zero")
    r = raw / norm
    rho = np.einsum("v,vij->ij", r, DUAL_BASIS)
    return (rho + rho.conj().T) / 2


# --- maximum likelihood --------------------------------------------------------
# rho(t) = T T^dag / Tr(T T^dag) with T lower triangular (James, Kwiat, Munro
# & White, PRA 64, 052312 (2001)): 4 real diagonal parameters followed by
# (re, im) pairs for the 6 strictly-lower entries in row-major order.

_LOWER = np.tril_indices(4, -1)

# Evaluation (and iteration) budget of one fit.
_MAX_EVALS = 200_000


def _t_matrix(params):
    t = np.diag(params[:4]).astype(complex)
    t[_LOWER] = params[4::2] + 1j * params[5::2]
    return t


def _rho_from_params(params):
    t = _t_matrix(params)
    rho = t @ t.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        return states.totally_mixed()
    return rho / tr


def _params_from_rho(rho):
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0, None)
    rho_psd = (v * w) @ v.conj().T
    rho_psd /= np.trace(rho_psd).real
    t = np.linalg.cholesky(rho_psd + 1e-10 * np.eye(4))
    params = np.empty(16)
    params[:4] = np.diag(t).real
    params[4::2] = t[_LOWER].real
    params[5::2] = t[_LOWER].imag
    return params


def _neg_log_likelihood(params, raw_counts, scale):
    """Gaussian-approximated Poisson negative log-likelihood and its gradient
    in the 16 parameters.

    Each setting's variance is its model count m, clamped below at
    floor = 1e-9 * scale. With g_nu = df/dp_nu and G = sum_nu g_nu P_nu, the
    gradient in T is 2 (G - Tr(G rho) I) T / Tr(T T^dag).
    """
    t = _t_matrix(params)
    a = t @ t.conj().T
    tr = np.trace(a).real
    rho = a / tr
    model = scale * np.einsum("nij,ji->n", PROJECTORS, rho).real
    floor = 1e-9 * scale
    free = model > floor
    var = np.where(free, model, floor)
    f = float(np.sum((model - raw_counts) ** 2 / (2 * var)))
    dfdp = scale * np.where(
        free, (1 - (raw_counts / var) ** 2) / 2, (model - raw_counts) / floor
    )
    g = np.einsum("n,nij->ij", dfdp, PROJECTORS)
    dfdt = 2 * (g - np.trace(g @ rho).real * np.eye(4)) @ t / tr
    grad = np.empty(16)
    grad[:4] = np.diag(dfdt).real
    grad[4::2] = dfdt[_LOWER].real
    grad[5::2] = dfdt[_LOWER].imag
    return f, grad


def mle_reconstruct(counts):
    """Physical (Hermitian, unit-trace, PSD) estimate maximizing the
    Gaussian-approximated Poisson likelihood.

    One L-BFGS fit over the 16 triangular parameters with the analytic
    gradient, started from the clamped linear reconstruction.
    """
    if isinstance(counts, CountVector):
        raw = counts.counts
        scale = counts.total_scale
    else:
        raw = np.asarray(counts, dtype=float)
        scale = default_total_scale(raw)
    if not np.any(raw > 0):
        raise DegenerateInputError("at least one positive count required")

    res = minimize(
        _neg_log_likelihood,
        _params_from_rho(linear_reconstruct(raw)),
        args=(raw, scale),
        jac=True,
        method="L-BFGS-B",
        options={"maxfun": _MAX_EVALS, "maxiter": _MAX_EVALS, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not res.success:
        raise ConvergenceError(
            f"L-BFGS fit did not converge within {_MAX_EVALS} evaluations: {res.message}",
            best_state=_rho_from_params(res.x),
            grad_norm=float(np.max(np.abs(res.jac))),
        )
    setattr(mle_reconstruct, "last_nfev", int(res.nfev))
    return _rho_from_params(res.x)


# --- count file I/O -------------------------------------------------------------
# Plain text, exactly 16 "label,count" rows, '#' comments; labels may appear
# in any order and are matched against the canonical set.


def write_counts(cv, path, comments=("label,count",)):
    """Write a count file: one '# ' line per comment, then the 16 rows in
    canonical order with exact (repr) values."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{lab},{float(n)!r}" for lab, n in zip(CANONICAL_LABELS, cv.counts)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts(path, total_scale=None):
    """Parse a 16-row count file into a CountVector.

    total_scale defaults to the computational-basis count sum.
    """
    seen = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'label,count'")
            lab = parts[0].strip().upper()
            if lab not in CANONICAL_LABELS:
                raise ParseError(f"{path}:{lineno}: unknown label {lab!r}")
            if lab in seen:
                raise ParseError(f"{path}:{lineno}: duplicate label {lab!r}")
            try:
                value = float(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad count {parts[1]!r}") from exc
            if value < 0:
                raise ParseError(f"{path}:{lineno}: negative count")
            seen[lab] = value
    missing = [lab for lab in CANONICAL_LABELS if lab not in seen]
    if missing:
        raise ParseError(f"{path}: missing labels {missing}")
    counts = np.array([seen[lab] for lab in CANONICAL_LABELS])
    if total_scale is None:
        total_scale = default_total_scale(counts)
    if total_scale <= 0:
        raise DegenerateInputError(f"{path}: computational-basis counts are zero")
    return CountVector(counts, float(total_scale))
