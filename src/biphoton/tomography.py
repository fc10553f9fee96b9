"""16-projection polarization tomography: count simulation, linear
inversion, and maximum-likelihood reconstruction by a barrier Newton loop that
forms the objective once per trial (_values) and its derivatives once per
accepted point (_derivatives).

Analyzer convention: R = (1, -i)/sqrt(2), L = (1, i)/sqrt(2). Flipping the
convention only flips the sign of imaginary parts of reconstructed
off-diagonals; all shipped tests use this convention.
"""

import operator
from collections import namedtuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ParseError,
    ValidationError,
    data_lines,
    read_text,
)
from .multipair import CANONICAL_LABELS, _poisson_counts

_INV_SQRT2 = 1 / np.sqrt(2)

ANALYZER_STATES = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) * _INV_SQRT2,
    "A": np.array([1, -1], dtype=complex) * _INV_SQRT2,
    "R": np.array([1, -1j], dtype=complex) * _INV_SQRT2,
    "L": np.array([1, 1j], dtype=complex) * _INV_SQRT2,
}

# Rank-1 projectors |ab><ab| for the canonical settings, shape (16, 4, 4). The kets
# |a> (x) |b> and their outer products are broadcast products: the bytes np.kron and
# np.outer give (tests/tomography_oracles.kron_constants), at less import cost.
_FIRST, _SECOND = (np.array([ANALYZER_STATES[lab[i]] for lab in CANONICAL_LABELS])
                   for i in (0, 1))
_KETS = (_FIRST[:, :, None] * _SECOND[:, None, :]).reshape(16, 4)
_BRAS = _KETS.conj()
PROJECTORS = _KETS[:, :, None] * _BRAS[:, None, :]

# rho = I/4 + sum_k x_k B_k, B_k = sigma_i (x) sigma_j / 2 for (i, j) != (0, 0) with
# Tr(B_k B_l) = delta_kl (one broadcast product), has p = 1/4 + A x, A[nu, k] = Tr(P_nu B_k);
# the settings are informationally complete, so A has full column rank and x = A^+ (p - 1/4).
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
_BASIS = (_PAULI[:, None, :, None, :, None] * _PAULI[None, :, None, :, None, :]
          ).reshape(16, 4, 4)[1:] / 2
_DESIGN = np.einsum("nij,kji->nk", PROJECTORS, _BASIS).real
_INVERSE = np.linalg.pinv(_DESIGN)
_MIXED = np.eye(4) / 4


def _rho(x):
    return _MIXED + (x @ _BASIS.reshape(15, 16)).reshape(4, 4)


def expected_probabilities(rho):
    """Born-rule probabilities p_nu = Re Tr(rho P_nu) for each setting."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("nij,ji->n", PROJECTORS, rho).real


class CountVector(namedtuple("CountVector", ("counts",))):
    """Coincidence counts per projector, in CANONICAL_LABELS order, each finite and
    non-negative (a NaN fails the min/max check), in a read-only copy. total_scale, the
    expected count of a unit-probability setting, is derived: the sum over the
    computational-basis settings, whose Born probabilities sum to 1 for any state, added
    as Python floats from 0.0 in the order HH, HV, VH, VV, so a sum that overflows is inf
    and a ValidationError. It may be 0, which the reconstructors reject. _make, and so
    _replace, runs the same checks."""

    __slots__ = ()

    def __new__(cls, counts):
        counts = np.array(counts, dtype=float)
        counts.flags.writeable = False
        if counts.shape != (16,):
            raise ValidationError(f"expected 16 counts, got shape {counts.shape}")
        if not (counts.min() >= 0 and counts.max() < np.inf):
            raise ValidationError("counts must be finite and non-negative")
        cv = tuple.__new__(cls, (counts,))
        if cv.total_scale == np.inf:
            raise ValidationError("computational-basis count sum overflows float arithmetic")
        return cv

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def total_scale(self):
        hh, hv, vv, vh = self.counts[:4].tolist()
        return 0.0 + hh + hv + vh + vv


def simulate_counts(rho, scale, seed):
    """Poisson-sample coincidence counts for every setting of an arbitrary
    state rho, scale being the expected count of a unit-probability setting,
    through multipair._poisson_counts, as biphoton simulate draws. Deterministic
    in (rho, scale, seed); seed is an integer, such as an np.int64, or None for
    fresh entropy. random.Random(-n) draws what random.Random(n) does, so a
    negative seed is a ValueError."""
    if not 0 < scale < np.inf:
        raise ValidationError("scale must be positive and finite")
    if seed is not None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed={seed} must be >= 0")
    probs = np.clip(expected_probabilities(rho), 0, None).tolist()
    return CountVector(_poisson_counts(probs, scale, seed))


def linear_reconstruct(cv):
    """Linear-inversion estimate rho(x), x = A^+ (r - 1/4), from a CountVector,
    r_nu being the counts over their total_scale: Hermitian and unit-trace by
    construction, it fits all 16 frequencies, and may carry negative
    eigenvalues for noisy counts."""
    if cv.total_scale == 0:
        raise DegenerateInputError("computational-basis counts are all zero")
    return _rho(_INVERSE @ (cv.counts / cv.total_scale - 0.25))


# --- maximum likelihood --------------------------------------------------------

_MAX_STEPS = 500  # Newton-step budget of one fit
# The barrier fit stops once 4 mu is at most max(tau, _REL_TOL * f), with
# tau = max(_REL_TOL * min(1, 1 / N), _ROUND_TOL); the floor (1.3e-29) decides
# for N above about 1e19, so mu is not cut toward 1e-10 / N, far below the rounding of f.
_REL_TOL = 1e-10
_ROUND_TOL = 256 * np.finfo(float).eps ** 2


def _values(w, v, r):
    """p, f and -log det rho at rho's eigenpairs (w, v). p_nu = sum_i w_i |<ab|v_i>|^2 sums
    non-negative terms, so p > 0 wherever w > 0, however 1/4 + A x would round."""
    p = np.abs(_BRAS @ v) ** 2 @ w
    return p, float(((p - r) ** 2 / (2 * p)).sum()), -float(np.sum(np.log(w)))


def _derivatives(w, v, p, r):
    """The gradients A^T f'(p) and -Tr(rho^-1 B_k), and the Hessians A^T diag(r^2 / p^3) A and
    Tr(rho^-1 B_k rho^-1 B_l), of f and -log det rho at rho's eigenpairs (w, v) with _values' p;
    the barrier's through C_k = rho^-1/2 B_k rho^-1/2 in that eigenbasis."""
    c = (v.conj().T @ _BASIS @ v / np.sqrt(np.outer(w, w))).reshape(15, 16)
    return ((1 - r**2 / p**2) / 2 @ _DESIGN, (_DESIGN.T * (r**2 / p**3)) @ _DESIGN,
            -c[:, ::5].sum(axis=1).real, (c @ c.conj().T).real)


def _gap(x, grad):
    """Tr(G rho) - lambda_min(G) >= f(rho(x)) - f* for G = sum_nu df/dp_nu P_nu,
    of which only the traceless part sum_k grad_k B_k changes the difference."""
    return float(grad @ x - np.linalg.eigvalsh(np.tensordot(grad, _BASIS, 1))[0])


def mle_reconstruct(cv):
    """Physical (Hermitian, unit-trace, PSD) estimate maximizing the
    Gaussian-approximated Poisson likelihood of a CountVector's frequencies
    r = n / N, N being its total_scale.

    Per unit N, f = sum_nu (p_nu - r_nu)^2 / 2 p_nu is non-negative (p_nu being
    the Born probabilities) and 0 exactly at p = r. The linear
    estimate fits all 16 frequencies (16 settings for 15 parameters and the
    normalization), so f = 0 there: a linear estimate with lambda_min >= 1e-9 is
    the optimum, returned as it is after one pass, in any count unit. Otherwise
    a log-det barrier method (Boyd & Vandenberghe, Convex Optimization (2004),
    ch. 11) takes damped Newton steps on F = f - mu log det rho from the linear
    estimate shrunk toward I/4, so rho stays positive definite, and ends once
    4 mu, a bound on f - f* at a centered iterate (f is convex on the whole
    positive-definite cone, where every p_nu > 0), is at most max(tau, 1e-10 f),
    with tau = max(1e-10 min(1, 1 / N), 256 eps^2): for 1 <= N <= 1e19, the rule
    on the counts' N f divided by N. _values forms p, f and -log det rho once per
    positive-definite trial, for the accept test, and _derivatives their gradients
    and Hessians once per accepted trial. On near-pure states at N >= 1e12 the
    rounding of f can exceed every trial's predicted decrease: mu then falls on
    its schedule to the stop, and that 4 mu bounds nothing.
    Returns (rho, steps), steps being the Newton steps taken (1 for the linear
    estimate). Raises ConvergenceError with the last state and its gap per unit N
    if the Newton-step budget runs out, and ValidationError if the fit overflows
    float arithmetic (a count out of proportion to N).
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            rho = linear_reconstruct(cv)
            low = np.linalg.eigvalsh(rho)[0]
            if low >= 1e-9:  # f = 0 at p = r: the optimum
                return rho, 1
            # A singular linear estimate (a rank-deficient one has round-off eigenvalues
            # near +-1e-17, with no digits in log det) is shrunk toward I/4 to lambda_min 1e-3.
            rho += (1e-3 - low) / (0.25 - low) * (_MIXED - rho)
            x = np.einsum("kij,ji->k", _BASIS, rho).real
            tol = max(_REL_TOL / max(1.0, cv.total_scale), _ROUND_TOL)
            return _barrier_fit(x, cv.counts / cv.total_scale, tol)
    except FloatingPointError as exc:
        raise ValidationError(f"counts out of proportion to their HH+HV+VH+VV sum ({exc})") from exc


def _newton_step(h, g, mu):
    """The Newton step dx = -h^-1 g of F / mu and its squared Newton decrement -g dx / mu.
    h is positive definite, so lam2 <= 0 is rounding in the solve: then h is first scaled
    to unit diagonal, h_ij s_i s_j with s = diag(h)^-1/2, and dx = s y with y solving the
    scaled system against -s g."""
    dx = np.linalg.solve(h, -g)
    lam2 = -(g @ dx) / mu
    if lam2 <= 0:
        s = 1 / np.sqrt(np.diag(h))
        dx = s * np.linalg.solve(h * np.outer(s, s), -s * g)
        lam2 = -(g @ dx) / mu
    return dx, lam2


def _barrier_fit(x, r, tol):
    """The barrier Newton loop of mle_reconstruct on r from the positive-definite rho(x)."""
    w, v = np.linalg.eigh(_rho(x))
    p, f, barrier = _values(w, v, r)
    grad, hess, dbarrier, d2barrier = _derivatives(w, v, p, r)
    mu = max(_gap(x, grad), tol, _REL_TOL * f) / 4
    for steps in range(1, _MAX_STEPS + 1):
        g = grad + mu * dbarrier
        dx, lam2 = _newton_step(hess + mu * d2barrier, g, mu)
        # Backtrack while not centered. F / mu is self-concordant, so in exact arithmetic
        # a t >= 1 / (2 (1 + lam)) passes (ibid., sec. 9.6.4); if none does, rounding ends it.
        t = 1.0
        while lam2 > 1e-2 and t >= 0.5 / (1 + np.sqrt(lam2)):
            trial = x + t * dx
            w_trial, v_trial = np.linalg.eigh(_rho(trial))
            if w_trial[0] > 0:
                p, f_trial, barrier_trial = _values(w_trial, v_trial, r)
                if f_trial + mu * barrier_trial <= f + mu * barrier - t * mu * lam2 / 4:
                    x, f, barrier = trial, f_trial, barrier_trial
                    grad, hess, dbarrier, d2barrier = _derivatives(w_trial, v_trial, p, r)
                    break
            t /= 2
        else:  # centered, or stalled in rounding
            if 4 * mu <= max(tol, _REL_TOL * f):
                return _rho(x), steps
            mu /= 100
    raise ConvergenceError(f"barrier Newton fit did not converge within {_MAX_STEPS} steps",
                           best_state=_rho(x), gap=_gap(x, grad))


# --- count file reading ---------------------------------------------------------
# Plain text, exactly 16 "label,count" rows, '#' comments; labels may appear
# in any order and are matched against the canonical set. pipeline.write_counts
# writes them.


_LABEL_INDEX = {lab: i for i, lab in enumerate(CANONICAL_LABELS)}


def read_counts(path):
    """Parse a 16-row count file into a CountVector, each row straight into
    its canonical slot."""
    counts = [None] * 16
    for lineno, line in data_lines(read_text(path)):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'label,count'")
        lab = parts[0].strip().upper()
        index = _LABEL_INDEX.get(lab)
        if index is None:
            raise ParseError(f"{path}:{lineno}: unknown label {lab!r}")
        if counts[index] is not None:
            raise ParseError(f"{path}:{lineno}: duplicate label {lab!r}")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad count {parts[1]!r}") from exc
        if not 0 <= value < np.inf:
            raise ParseError(f"{path}:{lineno}: count must be finite and non-negative")
        counts[index] = value
    missing = [lab for lab, n in zip(CANONICAL_LABELS, counts) if n is None]
    if missing:
        raise ParseError(f"{path}: missing labels {missing}")
    cv = CountVector(counts)
    if cv.total_scale == 0:
        raise DegenerateInputError(f"{path}: computational-basis counts are zero")
    return cv
