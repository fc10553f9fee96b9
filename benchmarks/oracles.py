"""Reference computations the benchmark checks the program against.

Nothing here imports biphoton. Each function takes a different route from
the program to the same quantity, so agreement is evidence and not an echo:

- coincidence rates from the Poisson generating function, in closed form;
- Werner-state closed forms for fidelity, tangle and linear entropy;
- the Wootters tangle from the eigenvalues of the non-Hermitian rho*rho~;
- the Gaussian-approximated Poisson objective the maximum-likelihood fit
  minimizes, with its scale set as ``read_counts`` sets it.

Basis order |HH>, |HV>, |VH>, |VV>; analyzer R = (1, -i)/sqrt(2).
"""

import math

import numpy as np

UNIT_ROUNDOFF = np.finfo(float).eps / 2

_S = 1 / math.sqrt(2)
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_S, _S], dtype=complex),
    "R": np.array([_S, -1j * _S], dtype=complex),
    "L": np.array([_S, 1j * _S], dtype=complex),
}
LABELS = (
    "HH", "HV", "VV", "VH",
    "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD",
    "VD", "VL", "HL", "RL",
)
COMPUTATIONAL = ("HH", "HV", "VH", "VV")
_COMP_IDX = [LABELS.index(lab) for lab in COMPUTATIONAL]

PHI_PLUS = np.array([_S, 0, 0, _S], dtype=complex)
# Amplitudes <ab|Phi+> for every setting: the Born rule for Werner states
# needs nothing else.
_BELL_OVERLAP = np.array(
    [np.kron(KETS[lab[0]], KETS[lab[1]]).conj() @ PHI_PLUS for lab in LABELS]
)
PROJECTORS = np.array(
    [np.outer(k, k.conj()) for k in (np.kron(KETS[a], KETS[b]) for a, b in LABELS)]
)
_SYSY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


# --- Werner family ---------------------------------------------------------------


def werner_g_from_mu(mu):
    """Mixing parameter of the multi-pair source at mean pair number mu."""
    return mu / (1 + mu)


def werner_matrix(g):
    return (1 - g) * np.outer(PHI_PLUS, PHI_PLUS.conj()) + g * np.eye(4) / 4


def werner_probabilities(g):
    """Born probabilities of the 16 settings: (1-g)|<ab|Phi+>|^2 + g/4."""
    return (1 - g) * np.abs(_BELL_OVERLAP) ** 2 + g / 4


def werner_fidelity(g):
    return 1 - 3 * g / 4


def werner_tangle(g):
    return max(0.0, 1 - 1.5 * g) ** 2


def werner_linear_entropy(g):
    purity = (1 - g) ** 2 + g * (1 - g) / 2 + g**2 / 4
    return (4 / 3) * (1 - purity)


# --- metrics of an arbitrary state ------------------------------------------------


def fidelity(rho):
    """<Phi+|rho|Phi+> read off the four corner entries."""
    return float((rho[0, 0] + rho[0, 3] + rho[3, 0] + rho[3, 3]).real / 2)


def purity(rho):
    """Tr(rho^2) as the squared Frobenius norm, valid for Hermitian rho."""
    return float(np.sum(np.abs(rho) ** 2))


def linear_entropy(rho):
    return (4 / 3) * (1 - purity(rho))


def tangle(rho):
    """Wootters tangle from the eigenvalues of the non-Hermitian rho*rho~."""
    product = rho @ (_SYSY @ rho.conj() @ _SYSY)
    ev = np.sort(np.clip(np.linalg.eigvals(product).real, 0, None))[::-1]
    lam = np.sqrt(ev)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) ** 2)


def werner_g(fid):
    """Least-squares Werner parameter of a state with fidelity fid."""
    return float(np.clip(4 * (1 - fid) / 3, 0.0, 1.0))


def metrics(rho):
    fid = fidelity(rho)
    return {
        "fidelity": fid,
        "tangle": tangle(rho),
        "linear_entropy": linear_entropy(rho),
        "purity": purity(rho),
        "werner_g": werner_g(fid),
    }


# --- tomography --------------------------------------------------------------------


def count_scale(counts):
    """The unit-probability scale read_counts assigns: the computational-basis sum."""
    return float(np.sum(np.asarray(counts)[_COMP_IDX]))


# Row nu is conj(P_nu) flattened, so DESIGN @ vec(rho) = Tr(P_nu rho).
DESIGN = PROJECTORS.reshape(16, 16).conj()


# Linear fidelity = sum of weights * counts / scale: the corner entries of
# rho = DESIGN^-1 (counts / scale), halved.
_FIDELITY_WEIGHTS = (0.5 * np.linalg.inv(DESIGN)[[0, 3, 12, 15]].sum(axis=0)).real
_COMP_MASK = np.isin(np.arange(16), _COMP_IDX).astype(float)


def born_probabilities(rho):
    return (DESIGN @ np.asarray(rho).ravel()).real


def objective(rho, counts):
    """Gaussian-approximated Poisson negative log-likelihood of counts under rho."""
    counts = np.asarray(counts, dtype=float)
    scale = count_scale(counts)
    model = scale * born_probabilities(rho)
    var = np.maximum(model, 1e-9 * scale)
    return float(np.sum((model - counts) ** 2 / (2 * var)))


def linear_estimate(counts):
    """Least-squares inversion of the 16 Born equations, scaled by count_scale."""
    counts = np.asarray(counts, dtype=float)
    rho = np.linalg.solve(DESIGN, counts / count_scale(counts)).reshape(4, 4)
    return (rho + rho.conj().T) / 2


def clip_to_psd(rho):
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0, None)
    out = (v * w) @ v.conj().T
    return out / np.trace(out).real


def fidelity_sigma(expected_counts):
    """Poisson standard deviation of the linear-inversion fidelity estimate.

    The estimate is F = w.n / S(n), with S the computational-basis sum, so
    to first order dF/dn_nu = (w_nu - F [nu is computational]) / S and the
    variance is the sum of squared gradients times each Poisson variance.
    """
    lam = np.asarray(expected_counts, dtype=float)
    scale = count_scale(lam)
    grad = (_FIDELITY_WEIGHTS - (_FIDELITY_WEIGHTS @ lam / scale) * _COMP_MASK) / scale
    return float(np.sqrt(np.sum(grad**2 * lam)))


def parse_matrix(text):
    """4x4 matrix from the 'a+bi' text format; '#' lines are comments."""
    rows = [
        [complex(tok.replace("i", "j")) for tok in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    rho = np.array(rows, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho


# --- multi-pair coincidence rates -------------------------------------------------


def _generating_function_terms(mu, alpha, eta):
    """Per class, the two expm1 terms whose combination is the rate."""
    one_minus_c = alpha / 2                      # c = (1 + beta)/2
    one_minus_d = alpha * (2 - alpha) / 2        # d = (1 + beta^2)/2
    one_minus_beta = alpha
    one_minus_c2 = one_minus_c * (2 - one_minus_c)
    one_minus_z1 = (1 + eta) / 2 * one_minus_c
    e1 = math.expm1(-mu * one_minus_z1)
    return [
        (e1, math.expm1(-mu * (eta * one_minus_x + (1 - eta) * one_minus_c)))
        for one_minus_x in (one_minus_d, one_minus_beta, one_minus_c2)
    ]


def rates_generating_function(mu, alpha, eta):
    """(HH, HV, HR) rates as 1 - 2 e^{-mu(1-z1)} + e^{-mu(1-z2)}.

    Each x-pair class probability is an average of z^x terms, so the
    Poisson average is exp(-mu(1-z)) with no truncation. Here
    z1 = ((1+eta)/2) c + (1-eta)/2 and z2 = eta*x + (1-eta)*c with x = d, beta
    or c^2. Every 1-z is built from alpha directly and every exponential
    enters through expm1, because the rate (~alpha^2 mu) is the small
    difference of terms near 1.
    """
    return tuple(-2 * e1 + e2 for e1, e2 in _generating_function_terms(mu, alpha, eta))


def generating_function_error(mu, alpha, eta):
    """Rounding bound of rates_generating_function, per class: each expm1
    term carries a few units of relative error (its argument is formed in two
    or three roundings) and the final sum cancels them."""
    return tuple(
        8 * UNIT_ROUNDOFF * (2 * abs(e1) + abs(e2))
        for e1, e2 in _generating_function_terms(mu, alpha, eta)
    )


def poisson_pmf(x, mu):
    if mu == 0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(mu) - mu - math.lgamma(x + 1))


def poisson_tail(n, mu):
    """P(X > n) for X ~ Poisson(mu), summed directly (no 1 - cdf cancellation)."""
    return math.fsum(poisson_pmf(x, mu) for x in range(n + 1, n + 1 + 400))


def rate_error_bound(mu, alpha, eta, n_max):
    """Largest |program - generating function| a correct series truncated at
    n_max can show, per class.

    Truncation: each class probability is at most 1, so the terms beyond
    n_max add at most P(X > n_max). Rounding: the x-pair kernel is a sum of
    four powers c^j with j <= x, each carrying relative error <= (2j+1)u
    from the rounded c, so a class probability is off by at most (8x+10)u;
    16(x+2)u bounds that with margin and is Poisson-averaged. The reference
    adds its own rounding, generating_function_error.
    """
    series = poisson_tail(n_max, mu) + 16 * UNIT_ROUNDOFF * math.fsum(
        poisson_pmf(x, mu) * (x + 2) for x in range(1, n_max + 1)
    )
    return tuple(series + e for e in generating_function_error(mu, alpha, eta))


def g_from_rates(r_hh, r_hv):
    return min(1.0, max(0.0, 2 * r_hv / (r_hh + r_hv)))


def g_interval(rates, bounds):
    """Range of 2 r_hv/(r_hh + r_hv) over rates within +-bounds (it rises in
    r_hv and falls in r_hh)."""
    (hh, hv, _), (dhh, dhv, _) = rates, bounds
    lo = g_from_rates(hh + dhh, max(hv - dhv, 0.0))
    hi = g_from_rates(max(hh - dhh, 0.0), hv + dhv)
    return lo, hi
