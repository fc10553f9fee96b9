"""16-projection polarization tomography: count simulation, linear
inversion, and maximum-likelihood reconstruction.

Analyzer convention: R = (1, -i)/sqrt(2), L = (1, i)/sqrt(2). Flipping the
convention only flips the sign of imaginary parts of reconstructed
off-diagonals; all shipped tests use this convention.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
    read_text,
)

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
    """Coincidence counts per projector. total_scale, the expected count of a
    unit-probability setting, is derived: the sum over the computational-basis
    settings, whose Born probabilities sum to 1 for any state, taken as HH, HV,
    VH, VV. It may be 0, which the reconstructors reject."""

    counts: np.ndarray
    total_scale: float = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (16,):
            raise ValidationError(f"expected 16 counts, got shape {self.counts.shape}")
        if not (np.all(np.isfinite(self.counts)) and np.all(self.counts >= 0)):
            raise ValidationError("counts must be finite and non-negative")
        with np.errstate(over="ignore"):
            self.total_scale = float(np.sum(self.counts[[0, 1, 3, 2]]))
        if self.total_scale == np.inf:
            raise ValidationError("computational-basis count sum overflows float arithmetic")


def simulate_counts(rho, scale, seed):
    """Poisson-sample coincidence counts for every setting, scale being the
    expected count of a unit-probability setting.

    Deterministic in (rho, scale, seed).
    """
    if not 0 < scale < np.inf:
        raise ValidationError("scale must be positive and finite")
    probs = expected_probabilities(rho)
    rng = np.random.default_rng(seed)
    try:
        counts = rng.poisson(scale * np.clip(probs, 0, None)).astype(float)
    except ValueError as exc:
        raise ValidationError(f"cannot sample counts at scale={scale!r}: {exc}") from exc
    return CountVector(counts)


def linear_reconstruct(cv):
    """Linear-inversion estimate rho = sum_nu r_nu M_nu from a CountVector,
    with r_nu the counts over their total_scale.

    Hermitian and unit-trace by construction, but may carry negative
    eigenvalues for noisy counts.
    """
    if cv.total_scale == 0:
        raise DegenerateInputError("computational-basis counts are all zero")
    r = cv.counts / cv.total_scale
    rho = np.einsum("v,vij->ij", r, DUAL_BASIS)
    return (rho + rho.conj().T) / 2


# --- maximum likelihood --------------------------------------------------------

_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
# B_k = sigma_i (x) sigma_j / 2 with Tr(B_k B_l) = delta_kl; A[nu, k] = Tr(P_nu B_k)
_BASIS = np.stack([np.kron(a, b) / 2 for a in _PAULI for b in _PAULI][1:])
_DESIGN = np.einsum("nij,kji->nk", PROJECTORS, _BASIS).real
_MAX_STEPS = 500  # Newton-step budget of one fit
# The fit stops once f or 4 mu is at most max(tau, _REL_TOL * f), with
# tau = max(_REL_TOL * min(1, 1 / N), _ROUND_TOL).
_REL_TOL = 1e-10
_ROUND_TOL = 256 * np.finfo(float).eps ** 2


def _rho(x):
    return np.eye(4) / 4 + (x @ _BASIS.reshape(15, 16)).reshape(4, 4)


def _likelihood(x, r):
    """f at rho(x) for the frequencies r = n / N, its gradient A^T f'(p) and Hessian
    A^T diag(f''(p)) A, p = 1/4 + A x, with f''(p) = r^2 / p^3 above the floor 1e-9."""
    p = 0.25 + _DESIGN @ x
    free = p > 1e-9
    var = np.where(free, p, 1e-9)
    d1 = np.where(free, (1 - r**2 / var**2) / 2, (p - r) / 1e-9)
    d2 = np.where(free, r**2 / var**3, 1e9)
    return _objective(x, r), d1 @ _DESIGN, (_DESIGN.T * d2) @ _DESIGN


def _objective(x, r):
    """f alone, for the certified start, the line search's accept test and _likelihood."""
    p = 0.25 + _DESIGN @ x
    return float(np.sum((p - r) ** 2 / (2 * np.where(p > 1e-9, p, 1e-9))))


def _neg_log_det(w, v):
    """-log det rho, its gradient -Tr(rho^-1 B_k) and Hessian Tr(rho^-1 B_k rho^-1 B_l)
    from rho's eigenpairs (w, v), through C_k = rho^-1/2 B_k rho^-1/2 in that eigenbasis."""
    c = (v.conj().T @ _BASIS @ v / np.sqrt(np.outer(w, w))).reshape(15, 16)
    return -float(np.sum(np.log(w))), -c[:, ::5].sum(axis=1).real, (c @ c.conj().T).real


def _gap(x, grad):
    """Tr(G rho) - lambda_min(G) >= f(rho(x)) - f* for G = sum_nu df/dp_nu P_nu,
    of which only the traceless part sum_k grad_k B_k changes the difference."""
    return float(grad @ x - np.linalg.eigvalsh(np.tensordot(grad, _BASIS, 1))[0])


def mle_reconstruct(cv):
    """Physical (Hermitian, unit-trace, PSD) estimate maximizing the
    Gaussian-approximated Poisson likelihood of a CountVector's frequencies
    r = n / N, N being its total_scale.

    Per unit N, f = sum_nu (p_nu - r_nu)^2 / 2 max(p_nu, 1e-9) is non-negative
    (p_nu being the Born probabilities), so f itself bounds f - f*. The linear
    estimate fits all 16 frequencies (16 settings for 15 parameters and the
    normalization), so a positive-definite one is returned after one pass,
    certified by f <= tau = max(1e-10 min(1, 1 / N), 256 eps^2). The floor
    256 eps^2 (1.3e-29; it decides for N above about 1e19) lies above the
    rounding level of f at a start that fits every frequency, about 24 eps^2,
    so the start is certified in any count unit. Otherwise a log-det barrier
    method (Boyd & Vandenberghe, Convex Optimization (2004), ch. 11) takes
    damped Newton steps on F = f - mu log det rho, so rho stays positive
    definite, and ends once 4 mu, a bound on f - f* at a centered iterate (f
    is convex in rho but for a kink at the variance floor), is at most
    max(tau, 1e-10 f): for 1 <= N <= 1e19, the rule on the counts' N f divided by N.
    Returns (rho, steps), steps being the Newton steps taken (1 for a
    certified start). Raises ConvergenceError with the last state and its
    gap per unit N if the Newton-step budget runs out, and ValidationError if
    the fit overflows float arithmetic (a count out of proportion to N).
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            # A singular linear estimate (a rank-deficient one has round-off eigenvalues
            # near +-1e-17, with no digits in log det) is shrunk toward I/4 to lambda_min 1e-3.
            rho = linear_reconstruct(cv)
            low = np.linalg.eigvalsh(rho)[0]
            if low < 1e-9:
                rho += (1e-3 - low) / (0.25 - low) * (np.eye(4) / 4 - rho)
            x = np.einsum("kij,ji->k", _BASIS, rho).real
            r = cv.counts / cv.total_scale
            tol = max(_REL_TOL / max(1.0, cv.total_scale), _ROUND_TOL)
            # f - f* <= f <= tol: the loop's stop, met at the start
            if _objective(x, r) <= tol:
                return _rho(x), 1
            return _barrier_fit(x, r, tol)
    except FloatingPointError as exc:
        raise ValidationError(f"counts out of proportion to their HH+HV+VH+VV sum ({exc})") from exc


def _barrier_fit(x, r, tol):
    """The barrier Newton loop of mle_reconstruct on r from the positive-definite rho(x).
    Each trial's eigenpairs are computed once: the accept test's positivity and the
    next step's barrier terms read the same ones, so they cannot disagree in sign.
    The likelihood and barrier terms are formed once per x, when x moves."""
    f, grad, hess = _likelihood(x, r)
    mu = max(_gap(x, grad), tol, _REL_TOL * f) / 4
    barrier, dbarrier, d2barrier = _neg_log_det(*np.linalg.eigh(_rho(x)))
    for steps in range(1, _MAX_STEPS + 1):
        g = grad + mu * dbarrier
        dx = np.linalg.solve(hess + mu * d2barrier, -g)
        lam2 = -(g @ dx) / mu  # squared Newton decrement of F / mu
        # Backtrack while not centered. F / mu is self-concordant, so in exact arithmetic
        # a t >= 1 / (2 (1 + lam)) passes (ibid., sec. 9.6.4); if none does, rounding ends it.
        t = 1.0
        while lam2 > 1e-2 and t >= 0.5 / (1 + np.sqrt(lam2)):
            trial = x + t * dx
            w_trial, v_trial = np.linalg.eigh(_rho(trial))
            if w_trial[0] > 0 and (_objective(trial, r) - mu * np.sum(np.log(w_trial))
                                   <= f + mu * barrier - t * mu * lam2 / 4):
                x = trial
                f, grad, hess = _likelihood(x, r)
                barrier, dbarrier, d2barrier = _neg_log_det(w_trial, v_trial)
                break
            t /= 2
        else:  # centered, or stalled in rounding
            if 4 * mu <= max(tol, _REL_TOL * f):
                return _rho(x), steps
            mu /= 100
    raise ConvergenceError(f"barrier Newton fit did not converge within {_MAX_STEPS} steps",
                           best_state=_rho(x), gap=_gap(x, grad))


# --- count file I/O -------------------------------------------------------------
# Plain text, exactly 16 "label,count" rows, '#' comments; labels may appear
# in any order and are matched against the canonical set.


def write_counts(cv, path, comments=("label,count",)):
    """Write a count file: one '# ' line per comment, then the 16 rows in
    canonical order with exact (repr) values."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{lab},{float(n)!r}" for lab, n in zip(CANONICAL_LABELS, cv.counts)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts(path):
    """Parse a 16-row count file into a CountVector."""
    seen = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
        if not 0 <= value < np.inf:
            raise ParseError(f"{path}:{lineno}: count must be finite and non-negative")
        seen[lab] = value
    missing = [lab for lab in CANONICAL_LABELS if lab not in seen]
    if missing:
        raise ParseError(f"{path}: missing labels {missing}")
    cv = CountVector([seen[lab] for lab in CANONICAL_LABELS])
    if cv.total_scale == 0:
        raise DegenerateInputError(f"{path}: computational-basis counts are zero")
    return cv
