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
