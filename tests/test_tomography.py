"""Unit tests for projector construction, count simulation and both
reconstruction routes; the likelihood fit is checked against the reference
fits in tomography_oracles."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biphoton
import tomography_oracles as to
from biphoton import pipeline, states, tomography
from biphoton.errors import ConvergenceError, DegenerateInputError, ParseError, ValidationError


def random_state(rng, n_components=4):
    rho = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(n_components))
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def projector(label):
    return tomography.PROJECTORS[tomography.CANONICAL_LABELS.index(label)]


def coordinates(rho):
    """x with rho = I/4 + sum_k x_k B_k."""
    return np.einsum("kij,ji->k", tomography._BASIS, rho).real


def frequencies(cv):
    """The counts over their total_scale N, on which the fit works."""
    return cv.counts / cv.total_scale


class TestProjectionSet:
    def test_labels_and_order(self):
        assert tomography.PROJECTORS.shape == (16, 4, 4)
        assert len(set(tomography.CANONICAL_LABELS)) == 16
        assert tomography.CANONICAL_LABELS[:4] == ("HH", "HV", "VV", "VH")

    def test_hh_projector(self):
        assert np.allclose(projector("HH"), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_dd_projector(self):
        assert np.allclose(projector("DD"), np.full((4, 4), 0.25), atol=1e-15)

    def test_rank_one_idempotent(self):
        for p in tomography.PROJECTORS:
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_gram_nonsingular(self):
        stack = tomography.PROJECTORS
        g = np.einsum("uij,vji->uv", stack, stack).real
        assert abs(np.linalg.det(g)) > 1e-12
        assert np.isfinite(np.linalg.cond(g))

    def test_inverse_is_a_left_inverse_of_the_design(self):
        # the design matrix has full column rank: its pseudo-inverse recovers every x
        assert tomography._INVERSE.shape == (15, 16)
        assert np.allclose(tomography._INVERSE @ tomography._DESIGN, np.eye(15), atol=1e-14)

    def test_constants_are_the_kron_products_bit_for_bit(self):
        ours = (tomography.PROJECTORS, tomography._BASIS, tomography._DESIGN)
        for got, want in zip(ours, to.kron_constants()):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestExpectedProbabilities:
    def test_bell_values(self):
        probs = tomography.expected_probabilities(states.ideal_bell())
        by_label = dict(zip(tomography.CANONICAL_LABELS, probs))
        assert by_label["HH"] == pytest.approx(0.5, abs=1e-12)
        assert by_label["HV"] == pytest.approx(0.0, abs=1e-12)

    def test_linear_circular_werner_invariant(self):
        # HR-type settings probe no Werner parameter dependence
        ket = np.kron(tomography.ANALYZER_STATES["H"], tomography.ANALYZER_STATES["R"])
        for g in (0.0, 0.3, 0.8, 1.0):
            p = np.trace(np.outer(ket, ket.conj()) @ states.werner(g)).real
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_computational_basis_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            probs = tomography.expected_probabilities(random_state(rng))
            total = to.default_total_scale(probs)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestCountVector:
    @pytest.mark.parametrize(
        "counts",
        [
            np.r_[-1.0, np.ones(15)],
            np.r_[np.nan, np.ones(15)],
            np.r_[np.inf, np.ones(15)],
            np.ones(15),
            np.ones((4, 4)),
            [1.0] * 15 + [-0.5],
        ],
        ids=["negative", "nan", "inf", "short", "matrix", "negative_list"],
    )
    def test_rejects_invalid_counts(self, counts):
        # the constructor, _replace and _make run the same checks
        good = tomography.CountVector(np.ones(16))
        for build in (lambda: tomography.CountVector(counts),
                      lambda: good._replace(counts=counts),
                      lambda: tomography.CountVector._make((counts,))):
            with pytest.raises(ValidationError):
                build()

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_invalid_scale(self, scale):
        # the scale is no argument; counts whose computational-basis sum would
        # be an invalid scale are rejected, a zero sum by the reconstructors
        with pytest.raises(TypeError):
            tomography.CountVector(np.ones(16), scale)
        counts = np.ones(16)
        counts[[0, 1, 2, 3]] = scale / 4
        if scale == 0:
            with pytest.raises(DegenerateInputError):
                tomography.linear_reconstruct(tomography.CountVector(counts))
        else:
            with pytest.raises(ValidationError):
                tomography.CountVector(counts)

    def test_rejects_overflowing_sum(self):
        # HH + VV overflows to inf: a ValidationError, with no RuntimeWarning
        # (the suite turns warnings into errors)
        counts = np.ones(16)
        counts[[0, 2]] = 1e308
        with pytest.raises(ValidationError, match="overflows"):
            tomography.CountVector(counts)

    def test_counts_are_a_read_only_copy(self):
        # a write into the caller's array or into cv.counts would make total_scale
        # nan and the linear estimate all NaN, with no error
        counts = np.ones(16)
        cv = tomography.CountVector(counts)
        counts[0] = -5
        with pytest.raises(ValueError, match="read-only"):
            cv.counts[1] = np.nan
        assert np.array_equal(cv.counts, np.ones(16))
        assert cv.total_scale == 4.0
        assert np.isfinite(tomography.linear_reconstruct(cv)).all()

    def test_scale_is_derived(self):
        # a zero sum is constructible; the reconstructors reject it
        assert tomography.CountVector(np.zeros(16)).total_scale == 0.0
        with pytest.raises(TypeError):
            tomography.CountVector(np.ones(16), 4.0)


class TestSimulateCounts:
    def test_deterministic(self):
        a = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        b = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        assert np.array_equal(a.counts, b.counts)

    def test_poisson_mean(self):
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        hh = cv.counts[tomography.CANONICAL_LABELS.index("HH")]
        assert abs(hh - 5e4) < 5 * np.sqrt(5e4)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 1e300])
    def test_rejects_unsampleable_scale(self, scale):
        with pytest.raises(ValidationError):
            tomography.simulate_counts(states.ideal_bell(), scale, seed=3)

    def test_rejects_negative_seed(self):
        # random.Random draws the same stream for -3 as for 3, so the two would collide
        assert random.Random(-3).random() == random.Random(3).random()
        with pytest.raises(ValueError, match="seed=-3"):
            tomography.simulate_counts(states.ideal_bell(), 1e5, seed=-3)

    def test_numpy_integer_seed_is_its_int(self):
        a = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=np.int64(3))
        b = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        assert np.array_equal(a.counts, b.counts)

    def test_rejects_float_seed(self):
        with pytest.raises(TypeError):
            tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3.0)

    def test_no_seed_draws_fresh_counts(self):
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=None)
        assert cv.total_scale > 0


class TestLinearReconstruct:
    @pytest.mark.parametrize("rho_fn", [states.ideal_bell, lambda: states.werner(0.4)])
    def test_noiseless_round_trip(self, rho_fn):
        rho = rho_fn()
        probs = tomography.expected_probabilities(rho)
        est = tomography.linear_reconstruct(tomography.CountVector(probs * 1e6))
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_random_states_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_state(rng)
            probs = tomography.expected_probabilities(rho)
            est = tomography.linear_reconstruct(tomography.CountVector(probs))
            assert np.max(np.abs(est - rho)) < 1e-9

    def test_noisy_counts_can_break_positivity(self):
        n_negative = 0
        for seed in range(100):
            cv = tomography.simulate_counts(states.ideal_bell(), 1e3, seed=seed)
            try:
                est = tomography.linear_reconstruct(cv)
            except DegenerateInputError:
                continue
            try:
                states.validate(est)
            except ValidationError as exc:
                # only positivity fails: Hermiticity and trace hold
                assert str(exc).startswith("invalid density matrix: positivity (")
                n_negative += 1
        assert n_negative > 0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DegenerateInputError):
            tomography.linear_reconstruct(tomography.CountVector(np.zeros(16)))

    def test_matches_the_dual_basis_inversion(self):
        # the inversion through the projectors' dual basis stays the oracle
        rng = np.random.default_rng(29)
        cases = [tomography.CountVector(tomography.expected_probabilities(random_state(rng))
                                        * 10 ** rng.uniform(-5, 12)) for _ in range(50)]
        cases += [tomography.simulate_counts(states.werner(g), scale, seed=seed)
                  for g in (0.002, 0.1, 0.5, 1.0) for scale in (1e3, 1e5) for seed in range(5)]
        cases += [tomography.CountVector(c) for c in BOUNDARY_FILES]
        for cv in cases:
            rho = tomography.linear_reconstruct(cv)
            assert np.max(np.abs(rho - to.dual_basis_reconstruct(cv))) <= 1e-14

    def test_exactly_hermitian_with_unit_trace(self):
        # what the Hermitian part (rho + rho^dag) / 2 of the dual-basis sum
        # guaranteed, over count units from 1e-5 to 1e12
        rng = np.random.default_rng(31)
        for _ in range(2000):
            counts = rng.uniform(0, 1, 16) * 10 ** rng.uniform(-5, 12)
            rho = tomography.linear_reconstruct(tomography.CountVector(counts))
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1) <= 4 * np.finfo(float).eps


class TestMleReconstruct:
    def test_noiseless_werner(self):
        cv = tomography.CountVector(tomography.expected_probabilities(states.werner(0.3)) * 1e6)
        est, _ = tomography.mle_reconstruct(cv)
        assert states.werner_fit(est) == pytest.approx(0.3, abs=1e-3)

    def test_noisy_bell_high_fidelity(self):
        for seed in range(5):
            cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=seed)
            est, _ = tomography.mle_reconstruct(cv)
            assert states.fidelity(est, states.bell_state()) >= 0.99

    def test_uniform_counts_give_maximally_mixed(self):
        # uniform data across all 16 settings: scale is the 4-setting sum, 1e5
        cv = tomography.CountVector(np.full(16, 2.5e4))
        est, _ = tomography.mle_reconstruct(cv)
        assert np.max(np.abs(est - states.totally_mixed())) < 1e-2

    def test_output_always_physical(self):
        for seed in range(5):
            cv = tomography.simulate_counts(states.werner(0.5), 2e3, seed=seed)
            est, _ = tomography.mle_reconstruct(cv)
            assert states.validate(est) >= -1e-15

    def test_never_worse_than_projected_linear_start(self):
        cv = tomography.simulate_counts(states.werner(0.2), 5e3, seed=9)
        start = to.rho_from_params(to.params_from_rho(tomography.linear_reconstruct(cv)))
        est, _ = tomography.mle_reconstruct(cv)
        assert to.objective(est, cv.counts, cv.total_scale) <= to.objective(
            start, cv.counts, cv.total_scale
        ) + 1e-6

    def test_nonconvergence_carries_best_state(self, monkeypatch):
        # a boundary fit takes tens of Newton steps; an interior one 1-2
        monkeypatch.setattr(tomography, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceError) as exc_info:
            tomography.mle_reconstruct(tomography.CountVector(BOUNDARY_FILES[0]))
        err = exc_info.value
        states.validate(err.best_state)
        assert isinstance(err.gap, float)
        assert 0 < err.gap < np.inf

    def test_werner_fit_converges_with_scale(self):
        # median |g_hat - g| shrinks as counts grow
        g_true = 0.4
        medians = []
        for scale in (1e3, 1e5, 1e7):
            errs = []
            for seed in range(20):
                cv = tomography.simulate_counts(states.werner(g_true), scale, seed=seed)
                est, _ = tomography.mle_reconstruct(cv)
                errs.append(abs(states.werner_fit(est) - g_true))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


# Interior Poisson counts of werner(0.002) at scale 1e7 (lambda_min of the linear
# estimate 2.3e-4), as numpy's generator drew them with seed 3
REPRODUCER = tomography.CountVector([
    4991299, 5067, 4991494, 4996, 2501114, 2499509, 2499690, 2498986,
    2500913, 4993670, 2502286, 2499873, 2499430, 2500736, 2498548, 4993668])


class TestCertifiedStart:
    """The early return against the barrier loop, which stays the oracle."""

    def test_barrier_loop_keeps_the_linear_start(self, tmp_path):
        # interior count files as read_counts gives them: the linear estimate fits
        # every count, and the loop started there ends where the early return does,
        # also in a count unit where f at the start rounds above the loop's stop
        vectors = [tomography.simulate_counts(states.werner(g), 1e5, seed=i)
                   for i, g in enumerate([0.1, 0.3, 0.5, 0.7, 0.9])]
        vectors.append(tomography.CountVector(REPRODUCER.counts * 1e20))
        for i, cv in enumerate(vectors):
            path = tmp_path / f"counts_{i}.txt"
            pipeline.write_counts(cv.counts, path)
            cv = tomography.read_counts(path)
            linear = tomography.linear_reconstruct(cv)
            assert np.linalg.eigvalsh(linear)[0] >= 1e-9
            rho, steps = tomography.mle_reconstruct(cv)
            assert steps == 1
            tol = max(tomography._REL_TOL / max(1.0, cv.total_scale), tomography._ROUND_TOL)
            rho_loop, _ = tomography._barrier_fit(coordinates(linear), frequencies(cv), tol)
            assert np.max(np.abs(rho_loop - rho)) <= 1e-12

    @pytest.mark.parametrize("factor", [1.0, 1e20, 1e100, 1e300])
    def test_positive_definite_start_is_returned_as_it_is(self, factor):
        # f at this start rounds above tau in the large units, where a test of f
        # ran the barrier loop for 11 Newton steps; positivity alone decides
        cv = tomography.CountVector(REPRODUCER.counts * factor)
        rho, steps = tomography.mle_reconstruct(cv)
        assert steps == 1
        assert np.array_equal(rho, tomography.linear_reconstruct(cv))

    @pytest.mark.parametrize("factor", [1e20, 1e100, 1e300])
    def test_certified_in_any_count_unit(self, factor):
        # the start is decided by the linear estimate's lambda_min, which the
        # count unit moves only in its last digits
        for i, g in enumerate([0.3, 0.5, 0.7, 0.9, 1.0]):
            for scale in (1e3, 1e4, 1e5, 1e6):
                cv = tomography.simulate_counts(states.werner(g), scale, seed=i)
                rho, steps = tomography.mle_reconstruct(cv)
                assert steps == 1
                scaled, steps = tomography.mle_reconstruct(
                    tomography.CountVector(cv.counts * factor))
                assert steps == 1
                assert np.max(np.abs(scaled - rho)) <= 1e-14


def central_difference(fn, x, h):
    """d fn / d x_k for each coordinate k, stacked along the first axis."""
    return np.array([(fn(x + h * e) - fn(x - h * e)) / (2 * h) for e in np.eye(len(x))])


def terms_at(x, r):
    """(f, its gradient, its Hessian) and (-log det rho, its gradient, its Hessian) at
    rho(x), from rho(x)'s eigenpairs through tomography._values and _derivatives."""
    w, v = np.linalg.eigh(tomography._rho(x))
    p, f, barrier = tomography._values(w, v, r)
    grad, hess, dbarrier, d2barrier = tomography._derivatives(w, v, p, r)
    return (f, grad, hess), (barrier, dbarrier, d2barrier)


def likelihood_at(x, r):
    """f, its gradient and its Hessian at rho(x)."""
    return terms_at(x, r)[0]


class TestLikelihoodGradient:
    """Gradients and Hessians of the fit's objective and barrier in the 15
    coordinates of rho, against central differences."""

    def check_likelihood(self, x, r, h):
        """f at x, after checking its gradient and Hessian."""
        f, grad, hess = likelihood_at(x, r)
        num_grad = central_difference(lambda y: likelihood_at(y, r)[0], x, h)
        num_hess = central_difference(lambda y: likelihood_at(y, r)[1], x, h)
        assert np.max(np.abs(grad - num_grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(hess - num_hess)) <= 1e-6 * np.max(np.abs(hess))
        return f

    def test_random_parameters(self):
        # f is per unit N, the count oracle's objective over N
        rng = np.random.default_rng(5)
        cv = tomography.simulate_counts(states.werner(0.5), 1e4, seed=1)
        for _ in range(5):
            x = coordinates(random_state(rng))
            f = self.check_likelihood(x, frequencies(cv), h=1e-6)
            assert cv.total_scale * f == pytest.approx(
                to.objective(tomography._rho(x), cv.counts, cv.total_scale), rel=1e-12)

    def test_near_bell_point(self):
        # near the Bell state the HV and VH probabilities are 1e-10, below the 1e-9
        # at which a variance floor once clamped them: f is the literal sum there
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=0)
        rho = (1 - 4e-10) * states.ideal_bell() + 4e-10 * states.totally_mixed()
        p, r = tomography.expected_probabilities(rho), frequencies(cv)
        assert p[1] < 1e-9
        f = self.check_likelihood(coordinates(rho), r, h=1e-10)
        assert f == pytest.approx(np.sum((p - r) ** 2 / (2 * p)), rel=1e-12)

    def test_convex_across_the_old_floor(self):
        # along (1 - s) Phi+ + s I/4 the HV probability s/4 crosses 1e-9 at s = 4e-9,
        # where the floor put a concave kink (second difference -9e-11) in f
        r = frequencies(tomography.CountVector(BOUNDARY_FILES[2]))  # CI's bell.txt

        def f(s):
            return likelihood_at(coordinates((1 - s) * states.ideal_bell()
                                             + s * states.totally_mixed()), r)[0]

        s, ds = 4e-9, 4e-10
        assert f(s - ds) - 2 * f(s) + f(s + ds) >= -1e-16

    def test_probabilities_are_positive_where_the_coordinates_round_to_zero(self):
        # rho = diag(w) in its exact eigenbasis: 1/4 + A x rounds the three small
        # probabilities to <= 0, the eigenpairs keep them in the p that _values forms.
        w = np.array([1e-20, 3e-19, 2e-18, 1 - 2.3e-18])
        v = np.eye(4, dtype=complex)
        x = coordinates(np.diag(w).astype(complex))
        assert np.sum(0.25 + tomography._DESIGN @ x <= 0) >= 3
        literal = np.array([sum(wi * abs(np.vdot(ket, vi)) ** 2 for wi, vi in zip(w, v.T))
                            for ket in tomography._KETS])
        p = tomography._values(w, v, np.zeros(16))[0]
        assert np.all(p > 0)
        assert np.max(np.abs(p / literal - 1)) <= 1e-12

    def test_gap_matches_certificate(self):
        # the fit's gap, from the coordinates' gradient, against the bound
        # computed from G = sum_nu df/dp_nu P_nu over the Hermitian matrices;
        # last the near-Bell point, where a floored G reads 156.07 against 81.37
        rng = np.random.default_rng(8)
        cv = tomography.simulate_counts(states.werner(0.05), 1e4, seed=2)
        bell = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=0)
        near_bell = (1 - 4e-10) * states.ideal_bell() + 4e-10 * states.totally_mixed()
        cases = [(random_state(rng), cv) for _ in range(5)] + [(near_bell, bell)]
        for rho, counts in cases:
            x = coordinates(rho)
            gap = tomography._gap(x, likelihood_at(x, frequencies(counts))[1])
            assert counts.total_scale * gap == pytest.approx(
                to.certificate(rho, counts.counts, counts.total_scale), rel=1e-9)

    def test_barrier_random_points(self):
        rng = np.random.default_rng(6)
        r = frequencies(tomography.simulate_counts(states.werner(0.05), 1e4, seed=2))

        def neg_log_det(y):
            return terms_at(y, r)[1]

        for _ in range(5):
            rho = random_state(rng)
            x = coordinates(rho)
            value, grad, hess = neg_log_det(x)
            assert value == pytest.approx(-np.log(np.linalg.det(rho).real), rel=1e-12)
            # the differences' relative error is about (h / lambda_min)^2
            h = 1e-4 * np.linalg.eigvalsh(rho)[0]
            num_grad = central_difference(lambda y: neg_log_det(y)[0], x, h)
            num_hess = central_difference(lambda y: neg_log_det(y)[1], x, h)
            assert np.max(np.abs(grad - num_grad)) <= 1e-6 * np.max(np.abs(grad))
            assert np.max(np.abs(hess - num_hess)) <= 1e-6 * np.max(np.abs(hess))


def oracle_cases():
    cases = [tomography.simulate_counts(states.ideal_bell(), 1e5, seed=0)]
    for g, scale, seed in [(0.002, 1e5, 0), (0.002, 1e4, 4), (0.01, 1e5, 1), (0.05, 1e4, 2),
                           (0.3, 1e4, 3), (0.1, 1e3, 5)]:
        cases.append(tomography.simulate_counts(states.werner(g), scale, seed=seed))
    rng = np.random.default_rng(7)
    for _ in range(2):
        probs = tomography.expected_probabilities(random_state(rng))
        cases.append(tomography.CountVector(probs * 1e6))
    return cases


@pytest.mark.parametrize("cv", oracle_cases())
def test_fit_matches_nelder_mead_oracle(cv):
    rho_nm, converged = to.nelder_mead_fit(cv)
    assert converged
    f_nm = to.objective(rho_nm, cv.counts, cv.total_scale)
    f = to.objective(tomography.mle_reconstruct(cv)[0], cv.counts, cv.total_scale)
    assert f <= f_nm + 1e-8 * max(1.0, f_nm)


# Low-power Werner count files (mu=0.002 at scale 1e5, mu=0.005 at scale
# 1e4) on which the restarted Nelder-Mead search exhausted 200k evaluations
# without converging, then the counts numpy's generator drew for ideal_bell()
# (seed 28) and werner(0.002) (seed 47) at scale 1e5, on which a barrier line
# search that tested a trial's positivity with eigvalsh and took its barrier
# terms from a separate eigh accepted a trial whose lambda_min the two solvers
# put on opposite sides of 0 (about 1e-17): the next Newton step was NaN, with
# RuntimeWarnings from sqrt, log and divide.
BOUNDARY_FILES = [
    [49834, 38, 49890, 47, 24996, 25145, 25090, 24817,
     25327, 50386, 24918, 24866, 25046, 25256, 25182, 50044],
    [4965, 13, 4866, 13, 2465, 2499, 2581, 2460,
     2519, 4880, 2531, 2607, 2501, 2518, 2533, 4969],
    [50266, 0, 50182, 0, 24642, 25211, 25014, 24921,
     25161, 50608, 24835, 25055, 24812, 24864, 24738, 49987],
    [50113, 49, 49738, 50, 25120, 25024, 25050, 24912,
     25243, 50020, 25023, 25339, 25110, 25022, 24966, 50060],
]


@pytest.mark.parametrize("counts", BOUNDARY_FILES)
def test_boundary_count_files_converge(tmp_path, counts):
    path = tmp_path / "counts.txt"
    path.write_text("".join(f"{lab},{n}\n" for lab, n in zip(tomography.CANONICAL_LABELS, counts)))
    cv = tomography.read_counts(path)
    rho, _ = tomography.mle_reconstruct(cv)
    states.validate(rho)
    w, v = np.linalg.eigh(tomography.linear_reconstruct(cv))
    clipped = (v * np.clip(w, 0, None)) @ v.conj().T
    clipped /= np.trace(clipped).real
    assert to.objective(rho, cv.counts, cv.total_scale) <= to.objective(
        clipped, cv.counts, cv.total_scale
    )


@pytest.mark.parametrize("factor", [1e-100, 1e-12, 1e-10, 1e290, 1e300])
@pytest.mark.parametrize("counts", BOUNDARY_FILES)
def test_boundary_fit_is_the_same_in_any_count_unit(counts, factor):
    # the fit sees the counts only as n / N, so a file in sub-count units fits
    # as tightly as the unit one, and one near the float range still fits
    rho, _ = tomography.mle_reconstruct(tomography.CountVector(counts))
    scaled, _ = tomography.mle_reconstruct(tomography.CountVector(np.multiply(counts, factor)))
    assert np.max(np.abs(scaled - rho)) <= 1e-6


# Poisson counts of the pure states |HV> and |RL> at N = 1e17, on whose barrier fits
# 1/4 + A x rounds a positive-definite trial's smallest probabilities to <= 0: with
# the variance floor deleted from that form of p, each fit raised ValidationError;
# then |HH> at N = 1e9
NEAR_PURE_FILES = [
    [0, 100000000039241456, 0, 0, 0, 49999999837793080, 50000000248144656, 0,
     24999999814155148, 25000000202636616, 25000000115029636, 50000000057796408,
     0, 0, 49999999982964032, 25000000213631976],
    [24999999873303636, 24999999940995408, 24999999885302384, 25000000175464764,
     50000000089498992, 50000000086670256, 25000000010238904, 25000000124517244,
     0, 24999999511968676, 49999999982963992, 25000000213631972,
     25000000274473484, 50000000212693104, 50000000436403920, 99999999513828320],
    [1000036351, 0, 0, 0, 499993962, 0, 0, 500005279,
     250000206, 250012314, 249988041, 500034300, 0, 0, 500012044, 249976150],
]


@pytest.mark.parametrize("counts", NEAR_PURE_FILES, ids=["HV", "RL", "HH"])
def test_near_pure_state_at_large_n_fits(counts):
    rho, steps = tomography.mle_reconstruct(tomography.CountVector(counts))
    assert steps > 1
    states.validate(rho)


# Poisson counts of the product state |DV> at N = 1e15 (simulate_counts seed 40): the
# solve for one Newton step rounded its squared decrement to <= 0, which the loop took
# for a centered point, and the fit ended at N f = 16.27 after 65 steps; the diagonally
# scaled solve finds the decrease, and the fit ends at N f = 12.01
DV_FILE = [0, 500000030068994, 499999985527016, 0, 0, 499999990200416, 1000000046858451, 0,
           500000007648027, 500000006670187, 250000000575360, 250000021852170,
           250000021200164, 249999991470954, 249999986694454, 249999982381202]


def test_rounded_newton_decrement_is_not_centered(tmp_path):
    path = tmp_path / "dv.txt"
    pipeline.write_counts(DV_FILE, path)
    cv = tomography.read_counts(path)
    rho, _ = tomography.mle_reconstruct(cv)
    states.validate(rho)
    w, v = np.linalg.eigh(rho)
    p, r = np.abs(tomography._BRAS @ v) ** 2 @ w, frequencies(cv)
    assert cv.total_scale * np.sum((p - r) ** 2 / (2 * p)) <= 12.1


@pytest.mark.parametrize("counts, factor",
                         [(NEAR_PURE_FILES[2], 1e12), (BOUNDARY_FILES[2], 1e-12)],
                         ids=["HH-x1e12", "bell-x1e-12"])
def test_werner_g_is_the_same_in_another_count_unit(counts, factor):
    # the fit sees the counts only as n / N: a barrier fit in another unit ends
    # on the same werner_g
    rho, _ = tomography.mle_reconstruct(tomography.CountVector(counts))
    scaled, _ = tomography.mle_reconstruct(tomography.CountVector(np.multiply(counts, factor)))
    assert states.werner_fit(scaled) == pytest.approx(states.werner_fit(rho), abs=1e-8)


def boundary_inputs():
    """54 simulated count vectors near the PSD boundary: every fit runs the
    barrier loop."""
    return [
        tomography.simulate_counts(rho, scale, seed=seed)
        for rho in (states.ideal_bell(), states.werner(0.002), states.werner(0.01))
        for scale in (1e3, 1e4, 1e5)
        for seed in range(6)
    ]


class TestBarrierOncePerIterate:
    """The loop forms the likelihood and barrier terms once per x; the loop that
    formed them at every step, in tomography_oracles, stays the oracle."""

    def cases(self):
        return [tomography.CountVector(c) for c in BOUNDARY_FILES] + boundary_inputs()

    def test_matches_the_recomputing_loop(self, monkeypatch):
        cases = self.cases()
        fits = [tomography.mle_reconstruct(cv) for cv in cases]
        monkeypatch.setattr(tomography, "_barrier_fit", to.barrier_fit_reference)
        for cv, (rho, steps) in zip(cases, fits):
            rho_ref, steps_ref = tomography.mle_reconstruct(cv)
            assert steps > 1
            assert steps == steps_ref
            assert np.array_equal(rho, rho_ref)

    def test_no_repeated_likelihood_call(self, monkeypatch):
        # _derivatives runs once per accepted x, _values once per positive-definite
        # trial, and neither twice in a row at the same point
        values, derivatives = tomography._values, tomography._derivatives
        for cv in self.cases():
            calls = {"values": [], "derivatives": []}

            def recording_values(w, v, r):
                calls["values"].append((v * w) @ v.conj().T)
                return values(w, v, r)

            def recording_derivatives(w, v, p, r):
                calls["derivatives"].append((v * w) @ v.conj().T)
                return derivatives(w, v, p, r)

            monkeypatch.setattr(tomography, "_values", recording_values)
            monkeypatch.setattr(tomography, "_derivatives", recording_derivatives)
            _, steps = tomography.mle_reconstruct(cv)
            assert len(calls["derivatives"]) <= steps
            for rhos in calls.values():
                assert not any(np.array_equal(a, b) for a, b in zip(rhos, rhos[1:]))


def saddle_case():
    """Low-power Werner counts (werner(0.01) at scale 1e4, as numpy's generator
    drew them with seed 7) on which the Cholesky-factor fits (L-BFGS and
    Nelder-Mead) stop at a rank-2 stationary point, objective 0.166086 and
    werner_g 0.020074; the optimum has rank 3, objective 0.1660405 and
    werner_g 0.020111."""
    return tomography.CountVector([5000, 29, 4933, 30, 2471, 2463, 2501, 2455,
                                   2516, 4968, 2519, 2499, 2528, 2481, 2554, 4926])


def certified_cases():
    rng = np.random.default_rng(11)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    return oracle_cases() + [tomography.CountVector(c) for c in BOUNDARY_FILES] + [
        saddle_case(),
        tomography.CountVector(tomography.expected_probabilities(pure) * 1e6),
    ]


@pytest.mark.parametrize("cv", certified_cases())
def test_fit_never_above_lbfgs_or_projected_gradient(cv):
    f = to.objective(tomography.mle_reconstruct(cv)[0], cv.counts, cv.total_scale)
    f_lbfgs = to.objective(to.lbfgs_fit(cv)[0], cv.counts, cv.total_scale)
    f_pg = to.objective(to.projected_gradient_fit(cv), cv.counts, cv.total_scale)
    assert f <= min(f_lbfgs, f_pg) + 1e-8 * max(1.0, f)


def test_low_power_fit_reaches_the_optimum():
    cv = saddle_case()
    rho, _ = tomography.mle_reconstruct(cv)
    states.validate(rho)
    assert to.objective(rho, cv.counts, cv.total_scale) <= 0.16605
    assert states.werner_fit(rho) == pytest.approx(0.020111, abs=1e-5)


def test_import_leaves_scipy_out():
    src = Path(biphoton.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, biphoton; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def ones_with_rh(value):
    """A count file body: every count 1 but RH, which is the text value."""
    return "\n".join(
        f"{lab},{value if lab == 'RH' else 1}" for lab in tomography.CANONICAL_LABELS
    )


class TestCountFiles:
    def test_round_trip(self, tmp_path):
        cv = tomography.simulate_counts(states.werner(0.3), 1e4, seed=2)
        path = tmp_path / "counts.txt"
        pipeline.write_counts(cv.counts, path)
        back = tomography.read_counts(path)
        assert np.array_equal(back.counts, cv.counts)
        assert back.total_scale == to.default_total_scale(cv.counts)

    def test_byte_order_mark(self, tmp_path):
        # a file saved with a UTF-8 byte-order mark reads as the plain one
        cv = tomography.simulate_counts(states.werner(0.3), 1e4, seed=2)
        path = tmp_path / "counts.txt"
        pipeline.write_counts(cv.counts, path)
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert np.array_equal(tomography.read_counts(bom).counts, cv.counts)

    def test_permuted_labels(self, tmp_path):
        cv = tomography.simulate_counts(states.werner(0.3), 1e4, seed=2)
        lines = [f"{lab},{n}" for lab, n in zip(tomography.CANONICAL_LABELS, cv.counts)]
        path = tmp_path / "shuffled.txt"
        path.write_text("# shuffled\n" + "\n".join(reversed(lines)) + "\n")
        back = tomography.read_counts(path)
        assert np.array_equal(back.counts, cv.counts)

    @pytest.mark.parametrize(
        "body",
        [
            "HH,100",  # missing rows
            "XX,1\n" + "\n".join(f"{lab},1" for lab in tomography.CANONICAL_LABELS[1:]),
            "HH,abc\n" + "\n".join(f"{lab},1" for lab in tomography.CANONICAL_LABELS[1:]),
            ones_with_rh("nan"),
            ones_with_rh("inf"),
            ones_with_rh("1e400"),
            ones_with_rh("-1"),
        ],
    )
    def test_malformed_files(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body + "\n")
        with pytest.raises(ParseError):
            tomography.read_counts(path)
