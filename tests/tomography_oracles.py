"""Reference likelihood fits for the tomography tests.

All three minimize the package's objective (`objective` below) over the
density matrices and share no code with its barrier Newton fit. `objective`
keeps a variance floor at 1e-9 of the count scale, which the package has
dropped: the Cholesky fits visit singular rho, where a model count may be 0.
The two agree wherever every Born probability exceeds 1e-9, which holds at
every point where the tests compare objective values. `certificate` takes
the floorless gradient, so it matches the package's gap also where a
probability lies below 1e-9. The three fits:

- `lbfgs_fit`, the old path: one L-BFGS-B run with the analytic gradient
  over the 16 real parameters of a lower-triangular Cholesky factor T,
  rho = T T^dag / Tr(T T^dag) (James, Kwiat, Munro & White, PRA 64, 052312
  (2001)), started from the clamped linear reconstruction.
- `nelder_mead_fit`, the route before that: an adaptive Nelder-Mead search
  over the same 16 parameters, restarted once from the maximally mixed
  state if the first run exhausts its budget. Thousands of evaluations per
  fit.
- `projected_gradient_fit`: accelerated projected gradient directly over
  the density matrices (Shang, Zhang & Ng, PRA 95, 062336 (2017)), each
  step projected back by projecting the eigenvalues onto the probability
  simplex (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

`default_total_scale` is the count scale as the package computed it when
callers passed it to CountVector: CountVector's derived total_scale must
equal it bit for bit.

`count_vector_checks` and `read_counts_per_label` are CountVector's checks
and the count-file parser as written before the one-pass parse: the checks
with np.isfinite and a fancy-indexed np.sum under np.errstate, the parser
with a dict of seen labels read out in canonical order. Each returns
(counts, total_scale); the package must give the same values or raise the
same exception with the same message.

`kron_constants` builds the projectors, the Pauli-product basis and the
design matrix with one np.kron call per product, as the package did before
it formed them as broadcast products; its arrays must equal the package's
byte for byte.

`dual_basis_reconstruct` is the linear inversion as the package did it
before it took the pseudo-inverse of the design matrix: through the dual
basis of the projectors, then the Hermitian part.

`barrier_fit_reference` is the package's barrier Newton loop as it was
before it formed the likelihood and barrier terms once per iterate: it
recomputes them from the iterate's eigenpairs at the top of every step, also
where x has not moved.

The Cholesky form is the Burer-Monteiro factorization (Math. Program. 95,
329 (2003)): at a rank-deficient rho it has stationary points that are not
minima, and the first two fits can stop there on boundary inputs. The
projected-gradient run shares neither that parametrization nor the
package's.
"""

import numpy as np
from scipy.optimize import minimize

from biphoton import states, tomography
from biphoton.errors import DegenerateInputError, ParseError, ValidationError, read_text

_LOWER = np.tril_indices(4, -1)

# Evaluation budget of the L-BFGS and Nelder-Mead fits, and the number of
# projected-gradient steps.
MAX_EVALS = 200_000
PG_STEPS = 1_000


def kron_constants():
    """(PROJECTORS, _BASIS, _DESIGN) through np.kron and np.outer."""
    def projector(label):
        ket = np.kron(tomography.ANALYZER_STATES[label[0]], tomography.ANALYZER_STATES[label[1]])
        return np.outer(ket, ket.conj())

    projectors = np.stack([projector(lab) for lab in tomography.CANONICAL_LABELS])
    pauli = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
    basis = np.stack([np.kron(a, b) / 2 for a in pauli for b in pauli][1:])
    design = np.einsum("nij,kji->nk", projectors, basis).real
    return projectors, basis, design


def dual_basis():
    """The dual basis M_nu, Tr(P_u M_v) = delta_uv, through the inverse of the
    real 16x16 Gram matrix G[u, v] = Tr(P_u P_v) of the projectors."""
    projectors = kron_constants()[0]
    gram = np.einsum("uij,vji->uv", projectors, projectors).real
    return np.einsum("vu,uij->vij", np.linalg.inv(gram), projectors)


def dual_basis_reconstruct(cv):
    """rho = sum_nu r_nu M_nu, r being the counts over their total_scale, then
    (rho + rho^dag) / 2."""
    rho = np.einsum("v,vij->ij", cv.counts / cv.total_scale, dual_basis())
    return (rho + rho.conj().T) / 2


def default_total_scale(counts):
    """Counts expected for a unit-probability projector: the sum over the
    computational-basis settings, whose Born probabilities sum to 1 for
    any state. Summed as HH, HV, VH, VV."""
    return float(np.sum(np.asarray(counts, dtype=float)[[0, 1, 3, 2]]))


def count_vector_checks(counts):
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValidationError(f"expected 16 counts, got shape {counts.shape}")
    if not (np.all(np.isfinite(counts)) and np.all(counts >= 0)):
        raise ValidationError("counts must be finite and non-negative")
    with np.errstate(over="ignore"):
        total_scale = float(np.sum(counts[[0, 1, 3, 2]]))
    if total_scale == np.inf:
        raise ValidationError("computational-basis count sum overflows float arithmetic")
    return counts, total_scale


def read_counts_per_label(path):
    seen = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'label,count'")
        lab = parts[0].strip().upper()
        if lab not in tomography.CANONICAL_LABELS:
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
    missing = [lab for lab in tomography.CANONICAL_LABELS if lab not in seen]
    if missing:
        raise ParseError(f"{path}: missing labels {missing}")
    counts, total_scale = count_vector_checks([seen[lab] for lab in tomography.CANONICAL_LABELS])
    if total_scale == 0:
        raise DegenerateInputError(f"{path}: computational-basis counts are zero")
    return counts, total_scale


def objective(rho, raw_counts, scale):
    """Gaussian-approximated Poisson negative log-likelihood of the counts
    under rho, each setting's variance its model count clamped below at
    1e-9 * scale (the package's objective wherever every model count exceeds
    that floor)."""
    return objective_gradient(rho, raw_counts, scale)[0]


def objective_gradient(rho, raw_counts, scale):
    """(f, G): the objective and its gradient G = sum_nu df/dp_nu P_nu over
    the Hermitian matrices, p_nu = Tr(P_nu rho)."""
    model = scale * tomography.expected_probabilities(rho)
    floor = 1e-9 * scale
    free = model > floor
    var = np.where(free, model, floor)
    f = float(np.sum((model - raw_counts) ** 2 / (2 * var)))
    dfdp = scale * np.where(
        free, (1 - (raw_counts / var) ** 2) / 2, (model - raw_counts) / floor
    )
    return f, np.einsum("n,nij->ij", dfdp, tomography.PROJECTORS)


def certificate(rho, raw_counts, scale):
    """Tr(G rho) - lambda_min(G), an upper bound on f(rho) - f* for the
    convex objective over the density matrices. G is the gradient of the
    floorless objective, the package's, so rho must be positive definite."""
    model = scale * tomography.expected_probabilities(rho)
    dfdp = scale * (1 - (raw_counts / model) ** 2) / 2
    g = np.einsum("n,nij->ij", dfdp, tomography.PROJECTORS)
    return float(np.trace(g @ rho).real - np.linalg.eigvalsh(g)[0])


# --- Cholesky parametrization --------------------------------------------------
# 4 real diagonal parameters followed by (re, im) pairs for the 6
# strictly-lower entries of T in row-major order.


def t_matrix(params):
    t = np.diag(params[:4]).astype(complex)
    t[_LOWER] = params[4::2] + 1j * params[5::2]
    return t


def rho_from_params(params):
    t = t_matrix(params)
    rho = t @ t.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        return states.totally_mixed()
    return rho / tr


def params_from_rho(rho):
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


def neg_log_likelihood(params, raw_counts, scale):
    """The objective and its gradient in the 16 parameters. With
    G = sum_nu df/dp_nu P_nu, the gradient in T is
    2 (G - Tr(G rho) I) T / Tr(T T^dag)."""
    t = t_matrix(params)
    a = t @ t.conj().T
    tr = np.trace(a).real
    rho = a / tr
    f, g = objective_gradient(rho, raw_counts, scale)
    dfdt = 2 * (g - np.trace(g @ rho).real * np.eye(4)) @ t / tr
    grad = np.empty(16)
    grad[:4] = np.diag(dfdt).real
    grad[4::2] = dfdt[_LOWER].real
    grad[5::2] = dfdt[_LOWER].imag
    return f, grad


def lbfgs_fit(cv):
    """(rho, converged) from one L-BFGS-B run on a CountVector."""
    res = minimize(
        neg_log_likelihood,
        params_from_rho(tomography.linear_reconstruct(cv)),
        args=(cv.counts, cv.total_scale),
        jac=True,
        method="L-BFGS-B",
        options={"maxfun": MAX_EVALS, "maxiter": MAX_EVALS, "ftol": 1e-12, "gtol": 1e-8},
    )
    return rho_from_params(res.x), bool(res.success)


def nelder_mead_fit(cv):
    """(rho, converged) from the restarted simplex search on a CountVector."""
    raw, scale = cv.counts, cv.total_scale

    def f(params):
        return objective(rho_from_params(params), raw, scale)

    start = params_from_rho(tomography.linear_reconstruct(cv))
    best = None
    for x0 in (start, params_from_rho(states.totally_mixed())):
        res = minimize(
            f,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": MAX_EVALS,
                "fatol": 1e-10,
                "xatol": 1e-10,
                "adaptive": True,
            },
        )
        if best is None or res.fun < best.fun:
            best = res
        if res.success:
            break
    return rho_from_params(best.x), bool(best.success)


# --- projected gradient --------------------------------------------------------


def project_to_states(h):
    """The density matrix nearest the Hermitian part of h in Frobenius norm:
    its eigenvalues projected onto the probability simplex."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    u = w[::-1]
    excess = (np.cumsum(u) - 1) / np.arange(1, 5)
    shift = excess[np.nonzero(u > excess)[0][-1]]
    return (v * np.clip(w - shift, 0, None)) @ v.conj().T


def projected_gradient_fit(cv):
    """rho after PG_STEPS accelerated projected-gradient steps with
    backtracking on the step size and a momentum restart whenever the
    objective rises, from the projected linear reconstruction."""
    raw, scale = cv.counts, cv.total_scale
    rho = project_to_states(tomography.linear_reconstruct(cv))
    f = objective(rho, raw, scale)
    y, theta, step = rho, 1.0, 1.0 / scale
    for _ in range(PG_STEPS):
        f_y, g_y = objective_gradient(y, raw, scale)
        while True:
            nxt = project_to_states(y - step * g_y)
            d = nxt - y
            f_nxt = objective(nxt, raw, scale)
            if f_nxt <= f_y + np.vdot(g_y, d).real + np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        if f_nxt > f:
            y, theta = rho, 1.0
            continue
        theta_next = (1 + np.sqrt(1 + 4 * theta**2)) / 2
        y = nxt + (theta - 1) / theta_next * (nxt - rho)
        rho, f, theta = nxt, f_nxt, theta_next
        step *= 1.1
    return rho


# --- the barrier loop, recomputing every step ----------------------------------


def barrier_fit_reference(x, r, tol):
    """tomography._barrier_fit, except that each step begins by evaluating
    _values and _derivatives at x's eigenpairs, whether or not the last step
    moved x (the first step repeats the call before the loop, and the step
    after each centering repeats the one before it), and the accept test takes
    -log det rho from its own sum. Returns (rho, steps)."""
    t_ = tomography
    w, v = np.linalg.eigh(t_._rho(x))
    p, f, _ = t_._values(w, v, r)
    mu = max(t_._gap(x, t_._derivatives(w, v, p, r)[0]), tol, t_._REL_TOL * f) / 4
    for steps in range(1, t_._MAX_STEPS + 1):
        p, f, barrier = t_._values(w, v, r)
        grad, hess, dbarrier, d2barrier = t_._derivatives(w, v, p, r)
        g = grad + mu * dbarrier
        dx, lam2 = t_._newton_step(hess + mu * d2barrier, g, mu)
        t = 1.0
        while lam2 > 1e-2 and t >= 0.5 / (1 + np.sqrt(lam2)):
            trial = x + t * dx
            w_trial, v_trial = np.linalg.eigh(t_._rho(trial))
            if w_trial[0] > 0 and (t_._values(w_trial, v_trial, r)[1]
                                   - mu * np.sum(np.log(w_trial))
                                   <= f + mu * barrier - t * mu * lam2 / 4):
                x, w, v = trial, w_trial, v_trial
                break
            t /= 2
        else:
            if 4 * mu <= max(tol, t_._REL_TOL * f):
                return t_._rho(x), steps
            mu /= 100
    raise RuntimeError("reference barrier fit did not converge")
