"""Earlier forms of two state metrics, kept as test oracles.

- `concurrence_eigenvalues`: the Wootters concurrence with the lambda_k as
  square roots of the eigenvalues of the Hermitian form
  sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho). Each square root of a
  round-off eigenvalue carries about sqrt(eps), so on nearly pure states
  it is off by up to about 3e-8.
- `werner_fit_projection`: the Frobenius projection of rho onto the segment
  (1-g)*ideal + g*I/4, formed from the matrices and clamped to [0, 1].
- `compute_metrics_composed`: the metrics composed from the public
  functions, each of which validates rho on its own, with the smallest
  eigenvalue returned by a further `validate`.
- `compute_metrics_numpy_calls`: compute_metrics as written with np.trace,
  np.max, np.clip and numpy-scalar sums, before array methods, np.maximum
  and Python floats took their place; the values must agree bit for bit.
- `format_density_matrix_per_entry`: the matrix text formatted entry by
  entry with f-strings, before one % format over the 32 parts; the text
  must agree byte for byte.
- `werner_metrics_literal`: the six closed forms of werner_metrics written
  out here, with the package's operations in the package's order, so that
  the values must agree bit for bit; the sweep's byte oracle takes its
  Werner cells from it, not from the package's helper.

None is used by the package itself.
"""

import numpy as np

from biphoton import states


def concurrence_eigenvalues(rho):
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    sy = np.array([[0, -1j], [1j, 0]])
    sysy = np.kron(sy, sy)
    m = root @ sysy @ rho.conj() @ sysy @ root
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2)
    lam = np.sqrt(np.clip(ev, 0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def werner_fit_projection(rho):
    rho = np.asarray(rho, dtype=complex)
    direction = states.totally_mixed() - states.ideal_bell()
    diff = rho - states.ideal_bell()
    num = float(np.trace(direction.conj().T @ diff).real)
    den = float(np.trace(direction.conj().T @ direction).real)
    return float(np.clip(num / den, 0.0, 1.0))


def werner_metrics_literal(g):
    return {
        "fidelity": 1 - 0.75 * g,
        "tangle": max(0.0, 1 - 1.5 * g) ** 2,
        "linear_entropy": g * (2 - g),
        "purity": 1 - 0.75 * (g * (2 - g)),
        "werner_g": g,
        "min_eigenvalue": g / 4,
    }


def compute_metrics_composed(rho):
    pur = states.purity(rho)
    return states.StateMetrics(
        fidelity=states.fidelity(rho, states.bell_state()),
        tangle=states.tangle(rho),
        linear_entropy=(4.0 / 3.0) * (1.0 - pur),
        purity=pur,
        werner_g=states.werner_fit(rho),
        min_eigenvalue=states.validate(rho),
    )


def compute_metrics_numpy_calls(rho):
    rho = np.asarray(rho, dtype=complex)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    pur = float(np.trace(rho @ rho).real)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ states._SYSY @ root.conj(), compute_uv=False)
    c = float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
    d = (rho - states.ideal_bell()).real
    g = float(np.trace(d) - 2 * (d[0, 0] + d[0, 3] + d[3, 0] + d[3, 3])) / 3
    bell = states.bell_state()
    return states.StateMetrics(
        fidelity=float((bell.conj() @ rho @ bell).real),
        tangle=c * c,
        linear_entropy=(4.0 / 3.0) * (1.0 - pur),
        purity=pur,
        werner_g=min(max(g, 0.0), 1.0),
        min_eigenvalue=min_eig,
    )


def _format_entry(z):
    return f"{z.real:.17g}{z.imag:+.17g}i"


def format_density_matrix_per_entry(rho):
    rows = np.asarray(rho, dtype=complex).tolist()
    return "\n".join(" ".join(_format_entry(z) for z in row) for row in rows) + "\n"
