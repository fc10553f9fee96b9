"""Unit tests for state construction, metrics and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import states_oracles as so
from biphoton import states, tomography
from biphoton.errors import ParseError, ValidationError
from test_tomography import BOUNDARY_FILES

G_GRID = np.linspace(0.0, 1.0, 101)


def werner_purity(g):
    return (1 - g) ** 2 + g * (1 - g) / 2 + g**2 / 4


def random_state(rng, n_components=4):
    rho = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(n_components)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho += w * np.outer(v, v.conj()) / np.vdot(v, v).real
    return rho


def random_unitary(rng, n=2):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConstructors:
    def test_ideal_bell_matrix(self):
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        assert np.allclose(states.ideal_bell(), expected, atol=1e-15)

    def test_ideal_bell_trace_and_rank(self):
        rho = states.ideal_bell()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        ev = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(ev, [0, 0, 0, 1], atol=1e-12)

    def test_totally_mixed(self):
        assert np.allclose(states.totally_mixed(), np.eye(4) / 4, atol=1e-15)
        assert states.purity(states.totally_mixed()) == pytest.approx(0.25, abs=1e-12)

    def test_werner_endpoints(self):
        assert np.allclose(states.werner(0), states.ideal_bell(), atol=1e-15)
        assert np.allclose(states.werner(1), states.totally_mixed(), atol=1e-15)

    def test_werner_half(self):
        rho = states.werner(0.5)
        assert np.allclose(np.diag(rho), [0.375, 0.125, 0.125, 0.375], atol=1e-15)
        assert rho[0, 3] == pytest.approx(0.25, abs=1e-15)
        assert rho[3, 0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("g", [-0.1, 1.2])
    def test_werner_domain(self, g):
        with pytest.raises(ValueError):
            states.werner(g)


class TestFidelity:
    def test_self_fidelity(self):
        assert states.fidelity(states.ideal_bell(), states.bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_totally_mixed(self):
        assert states.fidelity(states.totally_mixed(), states.bell_state()) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("g", [0.12, 0.5, 2 / 3])
    def test_werner_law(self, g):
        f = states.fidelity(states.werner(g), states.bell_state())
        assert f == pytest.approx(1 - 3 * g / 4, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        psi = states.bell_state()
        for a in (0.0, 0.3, 0.75, 1.0):
            g1, g2 = rng.uniform(0, 1, 2)
            mix = a * states.werner(g1) + (1 - a) * states.werner(g2)
            expect = a * states.fidelity(states.werner(g1), psi) + (1 - a) * states.fidelity(states.werner(g2), psi)
            assert states.fidelity(mix, psi) == pytest.approx(expect, abs=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            states.fidelity(np.eye(4), states.bell_state())  # trace 4
        with pytest.raises(ValidationError):
            states.fidelity(states.ideal_bell(), np.array([1, 1, 0, 0]))

    def test_rejects_complex_overlap(self):
        # passes validate (Hermiticity error exactly 1e-12), but the
        # overlap carries an imaginary part of 1.5e-12; a real check, not an
        # assert, so it also holds under python -O
        rho = np.eye(4) / 4 + 0.5e-12j * (np.ones((4, 4)) - np.eye(4))
        states.validate(rho)
        with pytest.raises(ValidationError, match="imaginary"):
            states.fidelity(rho, np.ones(4) / 2)


class TestMixednessMetrics:
    def test_purity_examples(self):
        assert states.purity(states.ideal_bell()) == pytest.approx(1.0, abs=1e-12)
        # oracle: direct matrix multiplication of the literal Werner matrix
        rho = states.werner(0.5)
        assert states.purity(rho) == pytest.approx(np.trace(rho @ rho).real, abs=1e-15)
        assert states.purity(rho) == pytest.approx(0.4375, abs=1e-12)

    def test_linear_entropy_examples(self):
        assert states.linear_entropy(states.ideal_bell()) == pytest.approx(0.0, abs=1e-12)
        assert states.linear_entropy(states.totally_mixed()) == pytest.approx(1.0, abs=1e-12)
        assert states.linear_entropy(states.werner(0.5)) == pytest.approx(0.75, abs=1e-12)

    def test_linear_entropy_closed_form_grid(self):
        for g in G_GRID:
            expect = (4 / 3) * (1 - werner_purity(g))
            assert states.linear_entropy(states.werner(g)) == pytest.approx(expect, abs=1e-12)


class TestEntanglementMetrics:
    def test_concurrence_examples(self):
        assert states.concurrence(states.ideal_bell()) == pytest.approx(1.0, abs=1e-9)
        assert states.concurrence(states.werner(2 / 3)) == pytest.approx(0.0, abs=1e-9)
        assert states.concurrence(states.werner(0.2)) == pytest.approx(0.7, abs=1e-9)

    def test_tangle_closed_form_grid(self):
        for g in G_GRID:
            expect = max(0.0, 1 - 1.5 * g) ** 2
            assert states.tangle(states.werner(g)) == pytest.approx(expect, abs=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        rho = states.werner(0.25)
        c0 = states.concurrence(rho)
        for _ in range(5):
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert states.concurrence(rotated) == pytest.approx(c0, abs=1e-9)

    def test_matches_eigenvalue_form(self):
        # full-rank states, where the eigenvalue form's square roots lose no digits
        rng = np.random.default_rng(12)
        for k in (1, 2, 4):
            for _ in range(100):
                rho = 0.99 * random_state(rng, k) + 0.01 * states.totally_mixed()
                assert abs(states.concurrence(rho) - so.concurrence_eigenvalues(rho)) <= 1e-11

    def test_nearly_pure_werner_tangle(self):
        # where the eigenvalue form was off by up to 2.9e-8 (at g = 1.0e-8)
        for g in np.logspace(-12, -5, 20_000).tolist():
            assert abs(states.tangle(states.werner(g)) - states.werner_metrics(g).tangle) <= 1e-13


class TestWernerFit:
    def test_round_trip_grid(self):
        for g in G_GRID:
            assert states.werner_fit(states.werner(g)) == pytest.approx(g, abs=1e-12)

    def test_ideal_is_zero(self):
        assert states.werner_fit(states.ideal_bell()) == 0.0

    def test_against_grid_search_oracle(self):
        hv = np.zeros((4, 4), dtype=complex)
        hv[1, 1] = 1.0
        rho = 0.9 * states.werner(0.4) + 0.1 * hv
        grid = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        dists = [np.linalg.norm(rho - states.werner(g)) for g in grid]
        g_oracle = grid[int(np.argmin(dists))]
        assert states.werner_fit(rho) == pytest.approx(g_oracle, abs=2e-5)

    def test_matches_frobenius_projection(self):
        rng = np.random.default_rng(13)
        cases = [states.werner(g) for g in G_GRID]
        cases += [random_state(rng, k) for k in (1, 2, 4) for _ in range(300)]
        # off the unit trace and the segment, where the clamp acts on both sides
        cases += [1.3 * random_state(rng), 2 * states.ideal_bell() - states.totally_mixed()]
        for rho in cases:
            assert abs(states.werner_fit(rho) - so.werner_fit_projection(rho)) <= 1e-15


class TestWernerTrajectory:
    def test_monotone_with_correct_endpoints(self):
        sl = np.array([states.linear_entropy(states.werner(g)) for g in G_GRID])
        t = np.array([states.tangle(states.werner(g)) for g in G_GRID])
        assert np.all(np.diff(sl) >= -1e-12)
        assert np.all(np.diff(t) <= 1e-12)
        assert (sl[0], t[0]) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert (sl[-1], t[-1]) == pytest.approx((1.0, 0.0), abs=1e-12)
        # entanglement dies at g = 2/3 where the mixedness is 8/9
        assert states.tangle(states.werner(2 / 3)) == pytest.approx(0.0, abs=1e-12)
        assert states.linear_entropy(states.werner(2 / 3)) == pytest.approx(8 / 9, abs=1e-12)


class TestWernerMetrics:
    """The closed forms against the matrix path, which stays the oracle."""

    TOL = 1e-12
    # Bounds on the tangle of the eigenvalue form of the concurrence, which
    # carries the root of eigenvalue round-off (up to about 3e-8 near g = 1e-8);
    # the singular-value form meets 1e-13 (test_nearly_pure_werner_tangle).
    GRID_TANGLE_TOL = 1e-9
    ROOT_TANGLE_TOL = 1e-9 + 4 * np.sqrt(np.finfo(float).eps)

    def assert_matches_matrix_path(self, g, tangle_tol):
        got = states.werner_metrics(g)
        want = states.compute_metrics(states.werner(g))
        assert abs(got.tangle - want.tangle) <= tangle_tol
        for field in ("fidelity", "linear_entropy", "purity", "werner_g", "min_eigenvalue"):
            assert abs(getattr(got, field) - getattr(want, field)) <= self.TOL, field

    def test_dense_grid(self):
        edges = [0.0, 1.0, 2 / 3, np.nextafter(2 / 3, 0), np.nextafter(2 / 3, 1)]
        for g in [*np.linspace(0.0, 1.0, 2001).tolist(), *edges]:
            self.assert_matches_matrix_path(float(g), self.GRID_TANGLE_TOL)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_whole_domain(self, g):
        self.assert_matches_matrix_path(g, self.ROOT_TANGLE_TOL)

    def test_exact_values(self):
        assert states.werner_metrics(0.0) == states.StateMetrics(1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
        assert states.werner_metrics(1.0) == states.StateMetrics(0.25, 0.0, 1.0, 0.25, 1.0, 0.25)
        assert states.werner_metrics(np.nextafter(2 / 3, 1)).tangle == 0.0

    @pytest.mark.parametrize("g", [-1e-12, 1 + 1e-12, float("nan")])
    def test_domain(self, g):
        with pytest.raises(ValueError):
            states.werner_metrics(g)

    @staticmethod
    def assert_bits_are_the_literals(g):
        """Each field equals the oracle's literal closed form bit for bit."""
        got = states.werner_metrics(g)._asdict()
        want = so.werner_metrics_literal(g)
        assert list(got) == list(want)
        for field, value in got.items():
            assert type(value) is float and value.hex() == want[field].hex(), field

    @pytest.mark.parametrize("g", [0.0, 1.0, 2 / 3, *np.nextafter(2 / 3, [0.0, 1.0]).tolist()])
    def test_literal_closed_forms(self, g):
        self.assert_bits_are_the_literals(g)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_literal_closed_forms_on_the_domain(self, g):
        self.assert_bits_are_the_literals(g)


class TestComputeMetrics:
    """One validation inside compute_metrics against the public functions
    composed, each validating on its own, as the oracle."""

    def cases(self):
        rng = np.random.default_rng(21)
        interior = [states.werner(g) for g in G_GRID[1:]]
        interior += [0.99 * random_state(rng) + 0.01 * states.totally_mixed() for _ in range(50)]
        boundary = [states.ideal_bell(), np.diag([0.5, 0.5, 0, 0]).astype(complex)]
        boundary += [random_state(rng, k) for k in (1, 2, 3) for _ in range(50)]
        # lambda_min = -1e-11, which validate accepts (PSD_TOL = 1e-10)
        boundary.append(states.ideal_bell() - 1e-11 * np.diag([0, 1, 0, 0]) + 1e-11 * np.diag([1, 0, 0, 0]))
        return interior + boundary + [random_state(rng) for _ in range(200)]

    def test_every_field_equals_the_composed_metrics(self):
        for rho in self.cases():
            got = states.compute_metrics(rho)
            assert got == so.compute_metrics_composed(rho)
            assert got.min_eigenvalue == states.validate(rho)

    def test_bit_for_bit_the_numpy_calls(self):
        # array methods, np.maximum and Python floats in place of np.trace,
        # np.clip and numpy scalars change no bit, signed zeros included
        for rho in self.cases():
            assert repr(states.compute_metrics(rho)) == repr(so.compute_metrics_numpy_calls(rho))

    @pytest.mark.parametrize("rho", [
        np.eye(4) / 4 + 0.1j * np.diag([1, 0, 0, 0]),  # not Hermitian
        0.9 * states.totally_mixed(),  # trace 0.9
        np.diag([0.6, 0.5, -0.1, 0.0]),  # negative eigenvalue
    ], ids=["hermiticity", "trace", "positivity"])
    def test_rejects_as_validate_does(self, rho):
        with pytest.raises(ValidationError) as want:
            states.validate(rho)
        with pytest.raises(ValidationError) as got:
            states.compute_metrics(rho)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("invalid density matrix: ")


def _off_diagonal_nan(rho):
    rho = rho.copy()
    rho[0, 1] = np.nan
    return rho


# rows compute_metrics rejects, made from a valid state but for the negative one
BAD_ROWS = {
    "non-finite": _off_diagonal_nan,
    "hermiticity": lambda rho: rho + 1e-9j * np.diag([1, 0, 0, 0]),
    "trace": lambda rho: (1 + 1e-9) * rho,
    "positivity": lambda rho: np.diag([0.6, 0.5, -0.1, 0.0]),
}


@pytest.fixture(scope="module")
def boundary_fits():
    return [tomography.mle_reconstruct(tomography.CountVector(c))[0] for c in BOUNDARY_FILES]


GOOD_ROWS = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 2**32 - 1), st.integers(1, 4)),
    st.tuples(st.just("werner"), st.floats(0.0, 1.0)),
    st.tuples(st.just("boundary"), st.integers(0, len(BOUNDARY_FILES) - 1)),
)


class TestStackedMetrics:
    """compute_metrics of an (n, 4, 4) stack: each row as compute_metrics_numpy_calls
    gives it, bit for bit, or the ValidationError of its lone call, whatever the
    other rows hold."""

    @staticmethod
    def good_row(spec, boundary_fits):
        kind, *args = spec
        if kind == "random":
            seed, rank = args
            return random_state(np.random.default_rng(seed), rank)
        if kind == "werner":
            return states.werner(args[0])
        return boundary_fits[args[0]]

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(GOOD_ROWS, st.sampled_from([None, *BAD_ROWS])),
                         min_size=1, max_size=20))
    def test_rows_are_isolated_and_bit_exact(self, boundary_fits, rows):
        stack = np.array([self.good_row(spec, boundary_fits) if bad is None
                          else BAD_ROWS[bad](self.good_row(spec, boundary_fits))
                          for spec, bad in rows])
        entries = states.compute_metrics(stack)
        assert len(entries) == len(stack)
        good = []
        for (_, bad), rho, entry in zip(rows, stack, entries):
            if bad is None:
                assert repr(entry) == repr(so.compute_metrics_numpy_calls(rho))
                good.append(entry)
                continue
            with pytest.raises(ValidationError) as lone:
                states.compute_metrics(rho)
            assert type(entry) is ValidationError and str(entry) == str(lone.value)
            assert str(entry).startswith(f"invalid density matrix: {bad}")
        rhos = stack[[bad is None for _, bad in rows]]
        assert states.tangle(rhos) == [m.tangle for m in good]
        assert [c * c for c in states.concurrence(rhos)] == [m.tangle for m in good]

    def test_a_state_is_the_one_row_stack(self):
        rho = states.werner(0.3)
        assert states.compute_metrics(rho[None]) == [states.compute_metrics(rho)]
        for fn in (states.validate, states.tangle, states.concurrence, states.purity,
                   states.werner_fit):
            assert fn(rho[None]) == [fn(rho)]
        bad = 0.9 * rho
        with pytest.raises(ValidationError) as lone:
            states.validate(bad)
        (entry,) = states.validate(bad[None])
        assert str(entry) == str(lone.value)
        assert states.compute_metrics(np.empty((0, 4, 4))) == []

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 3), (1, 1, 4, 4)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            states.compute_metrics(np.zeros(shape))


class TestStateOrStack:
    """Each function that takes a 4x4 state or an (n, 4, 4) stack gives for the
    stack the list of its rows' values, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs=st.lists(GOOD_ROWS, max_size=6))
    def test_a_stack_is_its_rows(self, boundary_fits, specs):
        stack = np.array([TestStackedMetrics.good_row(spec, boundary_fits) for spec in specs],
                         dtype=complex).reshape(-1, 4, 4)
        for fn in (states.validate, states.purity, states.linear_entropy, states.concurrence,
                   states.tangle, states.werner_fit, states.compute_metrics):
            assert repr(fn(stack)) == repr([fn(row) for row in stack]), fn.__name__


class TestValidate:
    def test_pass(self):
        states.validate(states.ideal_bell())

    def test_trace_failure(self):
        with pytest.raises(ValidationError, match=r"invalid density matrix: trace \(.*trace_dev=0\.1,"):
            states.validate(0.9 * states.totally_mixed())

    def test_hermiticity_failure(self):
        rho = states.totally_mixed().astype(complex)
        rho[0, 1] = 0.1j
        with pytest.raises(ValidationError, match=r"invalid density matrix: hermiticity \("):
            states.validate(rho)

    def test_negative_eigenvalue_reported(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match=r"invalid density matrix: positivity \(.*min_eig=-0\.1\)"):
            states.validate(rho)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry(self, entry, where):
        # a ValidationError, with no RuntimeWarning (the suite turns warnings
        # into errors), whether or not the entry is mirrored across the diagonal
        for mirrored in (False, True):
            rho = states.totally_mixed().astype(complex)
            rho[where] = entry
            if mirrored:
                rho[where[::-1]] = np.conj(entry)
            with pytest.raises(ValidationError, match="non-finite"):
                states.validate(rho)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = 0.7 * np.outer(v, v.conj()) + 0.3 * states.totally_mixed()
        text = states.format_density_matrix(rho)
        back = states.parse_density_matrix(text)
        assert np.allclose(back, rho, atol=1e-15)

    @given(st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=16, max_size=16
    ))
    def test_round_trips_bit_exact(self, entries):
        rho = np.array(entries, dtype=complex).reshape(4, 4)
        back = states.parse_density_matrix(states.format_density_matrix(rho))
        assert np.array_equal(back.view(np.uint64), rho.view(np.uint64))

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                         1e-300, -1e-300, np.nan, np.inf, -np.inf]),
        st.floats(),
    ), min_size=32, max_size=32))
    def test_text_equals_the_per_entry_formatter(self, parts):
        rho = np.array(parts).view(complex).reshape(4, 4)
        assert states.format_density_matrix(rho) == so.format_density_matrix_per_entry(rho)

    def test_transposed_and_real_input(self):
        # a real matrix and views that are not C-contiguous format as their values
        rho = np.arange(16.0).reshape(4, 4) / 7
        for m in (rho, rho.T, (rho + 1j * rho.T).T, rho.astype(complex)[:, ::-1]):
            assert states.format_density_matrix(m) == so.format_density_matrix_per_entry(m)

    def test_rejects_a_matrix_not_4x4(self):
        with pytest.raises(ValueError, match="4x4"):
            states.format_density_matrix(np.eye(2))

    def test_parenthesized_form(self):
        text = "\n".join(" ".join("(0.25,0)" for _ in range(4)) for _ in range(4))
        rho = states.parse_density_matrix(text)
        assert np.allclose(rho, np.full((4, 4), 0.25), atol=1e-15)

    def test_bad_row_count(self):
        with pytest.raises(ParseError):
            states.parse_density_matrix("0.5+0i 0+0i 0+0i 0.5+0i\n")
