"""Two-photon polarization density matrices and their metrics.

The fixed basis order is |HH>, |HV>, |VH>, |VV> everywhere in this package.
States are plain 4x4 complex numpy arrays; pure states are length-4 complex
vectors in the same basis. StateMetrics and werner_metrics are defined in
the numpy-free multipair module and re-exported here.

validate, the metric functions (purity, linear_entropy, concurrence, tangle,
werner_fit) and compute_metrics take a 4x4 state or an (n, 4, 4) stack: a
state gives its one value, a stack a list of n, each equal bit for bit to
its row's value. fidelity and format_density_matrix take one 4x4 state.
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


def _stack(rho):
    """rho as a complex array, and that array as an (n, 4, 4) stack, a 4x4 state
    as its one row; ValueError for any other shape."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 array or a stack of them, got shape {rho.shape}")
    return rho, rho.reshape(-1, 4, 4)


def _unstack(rho, entries):
    """The n entries of a stack's rows; for a 4x4 state its one entry, raised if it
    is a ValidationError."""
    if rho.ndim == 3:
        return entries
    (entry,) = entries
    if isinstance(entry, ValidationError):
        raise entry
    return entry


def validate(rho):
    """The one physicality check: rho must be finite, Hermitian and
    unit-trace to 1e-12, with no eigenvalue below -1e-10.

    Returns the smallest eigenvalue of rho's Hermitian part. Raises
    ValidationError for a non-finite entry, or naming the violated
    invariants (hermiticity, trace, positivity, in that order), and
    ValueError if rho is neither 4x4 nor an (n, 4, 4) stack. A stack is
    checked with one eigvalsh call and gives n entries: each row's smallest
    eigenvalue, or the ValidationError validate raises for that row alone.
    """
    rho, stack = _stack(rho)
    finite = np.isfinite(stack).all(axis=(1, 2)).tolist()
    # a non-finite row would fail eigvalsh for the whole stack
    rows = stack if all(finite) else stack[finite]
    adjoint = rows.conj().swapaxes(1, 2)
    checks = zip(np.abs(rows - adjoint).max(axis=(1, 2)).tolist(),
                 np.abs(rows.trace(axis1=1, axis2=2) - 1).tolist(),
                 np.linalg.eigvalsh((rows + adjoint) / 2)[:, 0].tolist())
    entries = []
    for ok in finite:
        if not ok:
            entries.append(ValidationError("invalid density matrix: non-finite entries"))
            continue
        herm, trace, min_eig = next(checks)
        failures = [name for name, bad in (("hermiticity", herm > HERMITICITY_TOL),
                                           ("trace", trace > TRACE_TOL),
                                           ("positivity", min_eig < -PSD_TOL)) if bad]
        entries.append(ValidationError(
            f"invalid density matrix: {', '.join(failures)} "
            f"(herm={herm:.3g}, trace_dev={trace:.3g}, min_eig={min_eig:.3g})"
        ) if failures else min_eig)
    return _unstack(rho, entries)


def _overlaps(stack, bra, ket):
    """<psi|rho|psi> of each row of a stack, as complex, from psi* as a row (bra)
    and psi as a column (ket): row times matrix, then times column, which gives
    the bits of psi* @ rho @ psi."""
    return ((bra @ stack) @ ket)[:, 0, 0].tolist()


def _real_overlap(val):
    if abs(val.imag) >= 1e-12:
        raise ValidationError(f"overlap <psi|rho|psi> has imaginary part {val.imag:.3g}")
    return val.real


_BELL_BRA, _BELL_KET = _BELL.conj()[None, :], _BELL[:, None]


def fidelity(rho, psi):
    """Overlap <psi|rho|psi> of a 4x4 state with a pure target, in [0, 1]."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1) > 1e-12:
        raise ValidationError("target state is not unit-norm")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 array, got shape {rho.shape}")
    validate(rho)
    (val,) = _overlaps(rho[None], psi.conj()[None, :], psi[:, None])
    return _real_overlap(val)


def purity(rho):
    """Tr(rho^2), in [1/4, 1] for a valid two-qubit state."""
    rho, stack = _stack(rho)
    return _unstack(rho, (stack @ stack).trace(axis1=1, axis2=2).real.tolist())


def linear_entropy(rho):
    """Normalized mixedness (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    rho, stack = _stack(rho)
    return _unstack(rho, [(4.0 / 3.0) * (1.0 - pur) for pur in purity(stack)])


def concurrence(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4).

    The lk are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken as the singular values of
    A = sqrt(rho) (sy x sy) sqrt(rho)*, since A A^dag is the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho). Singular values carry an
    absolute error of about eps, where square roots of round-off
    eigenvalues would carry sqrt(eps). A stack takes one eigh and one svd call.
    """
    rho, stack = _stack(rho)
    w, v = np.linalg.eigh(stack)
    root = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.conj().swapaxes(1, 2)
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False).tolist()
    return _unstack(rho, [max(0.0, l1 - l2 - l3 - l4) for l1, l2, l3, l4 in lam])


def tangle(rho):
    """Square of the concurrence."""
    rho, stack = _stack(rho)
    return _unstack(rho, [c * c for c in concurrence(stack)])


def werner_fit(rho):
    """Mixing parameter g minimizing the Frobenius distance to the
    one-parameter family (1-g)*ideal + g*I/4.

    Closed form: the least-squares projection onto the segment,
    Tr((I/4 - P)(rho - P)) / Tr((I/4 - P)^2) for the ideal projector P,
    which is (Tr D - 2 (D00 + D03 + D30 + D33)) / 3 for D = Re(rho - P),
    clamped to [0, 1]. Forming rho - P first keeps g exactly 0 at rho = P.
    """
    rho, stack = _stack(rho)
    d = (stack - _IDEAL).real
    # Tr D as numpy sums it; D00 + D03 + D30 + D33 from left to right
    traces, corners = d.trace(axis1=1, axis2=2).tolist(), d[:, ::3, ::3].tolist()
    return _unstack(rho, [min(max((trace - 2 * (d00 + d03 + d30 + d33)) / 3, 0.0), 1.0)
                          for trace, ((d00, d03), (d30, d33)) in zip(traces, corners)])


def compute_metrics(rho):
    """All metrics of a state against the ideal entangled-pair target, and
    the smallest eigenvalue of the one physicality check it passes.

    Raises ValidationError, as validate does, if rho is not a density matrix.
    An (n, 4, 4) stack takes one call of each numpy routine and gives n
    entries: each row's StateMetrics, or the ValidationError compute_metrics
    raises for that row alone. validate, purity, tangle and werner_fit are
    called through this module's globals, once per call, with the stack.
    """
    rho, stack = _stack(rho)
    entries = validate(stack)
    rows = [i for i, entry in enumerate(entries) if not isinstance(entry, ValidationError)]
    good = stack if len(rows) == len(stack) else stack[rows]
    for i, pur, overlap, tan, g in zip(rows, purity(good), _overlaps(good, _BELL_BRA, _BELL_KET),
                                       tangle(good), werner_fit(good)):
        try:
            fid = _real_overlap(overlap)
        except ValidationError as exc:
            entries[i] = exc
            continue
        entries[i] = StateMetrics(
            fidelity=fid,
            tangle=tan,
            linear_entropy=(4.0 / 3.0) * (1.0 - pur),
            purity=pur,
            werner_g=g,
            min_eigenvalue=entries[i],
        )
    return _unstack(rho, entries)


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
