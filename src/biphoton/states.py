"""Two-photon polarization density matrices and their metrics.

The fixed basis order is |HH>, |HV>, |VH>, |VV> everywhere in this package.
States are plain 4x4 complex numpy arrays; pure states are length-4 complex
vectors in the same basis. StateMetrics and werner_metrics are defined in
the numpy-free multipair module and re-exported here.
"""

import numpy as np

from .errors import ParseError, ValidationError, data_lines
from .multipair import StateMetrics, _check_mixing, werner_metrics  # noqa: F401

BASIS_LABELS = ("HH", "HV", "VH", "VV")

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # slack for reconstruction round-off; exact constructors hit >= 0

_SY = np.array([[0, -1j], [1j, 0]])
_SYSY = np.kron(_SY, _SY)


def bell_state():
    """(|HH> + |VV>)/sqrt(2), the ideal entangled-pair vector."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def ideal_bell():
    """Rank-1 projector onto bell_state(): 1/2 at the four corners."""
    psi = bell_state()
    return np.outer(psi, psi.conj())


_BELL = bell_state()
_IDEAL = ideal_bell()


def totally_mixed():
    """I/4, the maximally mixed two-qubit state."""
    return np.eye(4, dtype=complex) / 4


def werner(g):
    """Mixture (1-g)*ideal + g*I/4 for mixing parameter g in [0, 1]."""
    _check_mixing(g)
    return (1 - g) * ideal_bell() + g * totally_mixed()


def validate(rho):
    """The one physicality check: rho must be finite, Hermitian and
    unit-trace to 1e-12, with no eigenvalue below -1e-10.

    Returns the smallest eigenvalue of rho's Hermitian part. Raises
    ValidationError for a non-finite entry, or naming the violated
    invariants (hermiticity, trace, positivity, in that order), and
    ValueError if rho is not 4x4.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 array, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValidationError("invalid density matrix: non-finite entries")
    adjoint = rho.conj().T
    herm = float(np.abs(rho - adjoint).max())
    trace = float(abs(rho.trace() - 1))
    min_eig = float(np.linalg.eigvalsh((rho + adjoint) / 2)[0])
    failures = [name for name, bad in (("hermiticity", herm > HERMITICITY_TOL),
                                       ("trace", trace > TRACE_TOL),
                                       ("positivity", min_eig < -PSD_TOL)) if bad]
    if failures:
        raise ValidationError(
            f"invalid density matrix: {', '.join(failures)} "
            f"(herm={herm:.3g}, trace_dev={trace:.3g}, min_eig={min_eig:.3g})"
        )
    return min_eig


def _overlap(rho, psi):
    val = psi.conj() @ np.asarray(rho, dtype=complex) @ psi
    if abs(val.imag) >= 1e-12:
        raise ValidationError(f"overlap <psi|rho|psi> has imaginary part {val.imag:.3g}")
    return float(val.real)


def fidelity(rho, psi):
    """Overlap <psi|rho|psi> of a state with a pure target, in [0, 1]."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1) > 1e-12:
        raise ValidationError("target state is not unit-norm")
    validate(rho)
    return _overlap(rho, psi)


def purity(rho):
    """Tr(rho^2), in [1/4, 1] for a valid two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    return float((rho @ rho).trace().real)


def linear_entropy(rho):
    """Normalized mixedness (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    return (4.0 / 3.0) * (1.0 - purity(rho))


def _sqrtm_psd(rho):
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def concurrence(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4).

    The lk are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken as the singular values of
    A = sqrt(rho) (sy x sy) sqrt(rho)*, since A A^dag is the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho). Singular values carry an
    absolute error of about eps, where square roots of round-off
    eigenvalues would carry sqrt(eps).
    """
    root = _sqrtm_psd(np.asarray(rho, dtype=complex))
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False).tolist()
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def tangle(rho):
    """Square of the concurrence."""
    c = concurrence(rho)
    return c * c


def werner_fit(rho):
    """Mixing parameter g minimizing the Frobenius distance to the
    one-parameter family (1-g)*ideal + g*I/4.

    Closed form: the least-squares projection onto the segment,
    Tr((I/4 - P)(rho - P)) / Tr((I/4 - P)^2) for the ideal projector P,
    which is (Tr D - 2 (D00 + D03 + D30 + D33)) / 3 for D = Re(rho - P),
    clamped to [0, 1]. Forming rho - P first keeps g exactly 0 at rho = P.
    """
    d = (np.asarray(rho, dtype=complex) - _IDEAL).real
    g = float(d.trace() - 2 * (d[0, 0] + d[0, 3] + d[3, 0] + d[3, 3])) / 3
    return min(max(g, 0.0), 1.0)


def compute_metrics(rho):
    """All metrics of a state against the ideal entangled-pair target, and
    the smallest eigenvalue of the one physicality check it passes.

    Raises ValidationError, as validate does, if rho is not a density matrix.
    """
    min_eig = validate(rho)
    pur = purity(rho)
    return StateMetrics(
        fidelity=_overlap(rho, _BELL),
        tangle=tangle(rho),
        linear_entropy=(4.0 / 3.0) * (1.0 - pur),
        purity=pur,
        werner_g=werner_fit(rho),
        min_eigenvalue=min_eig,
    )


# --- plain-text serialization -------------------------------------------------
# 4 lines x 4 whitespace-separated complex entries "a+bi"; the parser also
# accepts "(a,b)" pairs and bare reals.


_MATRIX_FORMAT = "\n".join([" ".join(["%.17g%+.17gi"] * 4)] * 4) + "\n"


def format_density_matrix(rho):
    """The 4x4 matrix as text, each entry "a+bi" with 17 significant digits
    for its real and imaginary parts, which round-trip exactly: one % format
    over the 32 parts in row order. Raises ValueError if rho is not 4x4."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 array, got shape {rho.shape}")
    return _MATRIX_FORMAT % tuple(rho.ravel().view(float).tolist())


def _parse_entry(token, lineno):
    token = token.strip()
    try:
        if token.startswith("(") and token.endswith(")"):
            re_s, im_s = token[1:-1].split(",")
            z = complex(float(re_s), float(im_s))
        else:
            z = complex(token[:-1] + "j" if token.endswith("i") else token)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad matrix entry {token!r}") from exc
    if not np.isfinite(z):
        raise ParseError(f"line {lineno}: matrix entry {token!r} is not finite")
    return z


def parse_density_matrix(text):
    """Parse the 4x4 plain-text matrix format; '#' lines are comments."""
    rows = []
    for lineno, line in data_lines(text):
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected 4 entries per row, got {len(tokens)}")
        rows.append([_parse_entry(t, lineno) for t in tokens])
    if len(rows) != 4:
        raise ParseError(f"expected 4 matrix rows, got {len(rows)}")
    return np.array(rows, dtype=complex)
