"""Unit tests for projector construction, count simulation and both
reconstruction routes; the likelihood fit is checked against the
Nelder-Mead reference fit in tomography_oracles."""

import numpy as np
import pytest

import tomography_oracles as to
from biphoton import states, tomography
from biphoton.errors import ConvergenceError, DegenerateInputError, ParseError


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

    def test_dual_basis_biorthogonal(self):
        overlap = np.einsum("uij,vji->uv", tomography.PROJECTORS, tomography.DUAL_BASIS).real
        assert np.allclose(overlap, np.eye(16), atol=1e-10)


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
            total = tomography.default_total_scale(probs)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSimulateCounts:
    def test_deterministic(self):
        a = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        b = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        assert np.array_equal(a.counts, b.counts)

    def test_poisson_mean(self):
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=3)
        hh = cv.counts[tomography.CANONICAL_LABELS.index("HH")]
        assert abs(hh - 5e4) < 5 * np.sqrt(5e4)


class TestLinearReconstruct:
    @pytest.mark.parametrize("rho_fn", [states.ideal_bell, lambda: states.werner(0.4)])
    def test_noiseless_round_trip(self, rho_fn):
        rho = rho_fn()
        probs = tomography.expected_probabilities(rho)
        est = tomography.linear_reconstruct(probs * 1e6)
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_random_states_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_state(rng)
            est = tomography.linear_reconstruct(tomography.expected_probabilities(rho))
            assert np.max(np.abs(est - rho)) < 1e-9

    def test_noisy_counts_can_break_positivity(self):
        n_negative = 0
        for seed in range(100):
            cv = tomography.simulate_counts(states.ideal_bell(), 1e3, seed=seed)
            try:
                est = tomography.linear_reconstruct(cv)
            except DegenerateInputError:
                continue
            diag = states.validate(est)
            assert diag.hermiticity_error < 1e-12
            assert diag.trace_error < 1e-12
            if diag.min_eigenvalue < -states.PSD_TOL:
                n_negative += 1
        assert n_negative > 0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DegenerateInputError):
            tomography.linear_reconstruct(np.zeros(16))


class TestMleReconstruct:
    def test_noiseless_werner(self):
        cv = tomography.CountVector(tomography.expected_probabilities(states.werner(0.3)) * 1e6, 1e6)
        est = tomography.mle_reconstruct(cv)
        assert states.werner_fit(est) == pytest.approx(0.3, abs=1e-3)

    def test_noisy_bell_high_fidelity(self):
        for seed in range(5):
            cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=seed)
            est = tomography.mle_reconstruct(cv)
            assert states.fidelity(est, states.bell_state()) >= 0.99

    def test_uniform_counts_give_maximally_mixed(self):
        # uniform data across all 16 settings: scale is the 4-setting sum
        cv = tomography.CountVector(np.full(16, 2.5e4), 1e5)
        est = tomography.mle_reconstruct(cv)
        assert np.max(np.abs(est - states.totally_mixed())) < 1e-2

    def test_output_always_physical(self):
        for seed in range(5):
            cv = tomography.simulate_counts(states.werner(0.5), 2e3, seed=seed)
            est = tomography.mle_reconstruct(cv)
            diag = states.validate(est)
            assert diag.ok
            assert diag.min_eigenvalue >= -1e-15

    def test_never_worse_than_projected_linear_start(self):
        cv = tomography.simulate_counts(states.werner(0.2), 5e3, seed=9)
        start = tomography._params_from_rho(tomography.linear_reconstruct(cv))
        start_nll, _ = tomography._neg_log_likelihood(start, cv.counts, cv.total_scale)
        est = tomography.mle_reconstruct(cv)
        est_nll, _ = tomography._neg_log_likelihood(
            tomography._params_from_rho(est), cv.counts, cv.total_scale
        )
        assert est_nll <= start_nll + 1e-6

    def test_nonconvergence_carries_best_state(self, monkeypatch):
        monkeypatch.setattr(tomography, "_MAX_EVALS", 3)
        cv = tomography.simulate_counts(states.werner(0.5), 1e4, seed=1)
        with pytest.raises(ConvergenceError) as exc_info:
            tomography.mle_reconstruct(cv)
        err = exc_info.value
        assert err.best_state is not None
        assert err.grad_norm is not None

    def test_werner_fit_converges_with_scale(self):
        # median |g_hat - g| shrinks as counts grow
        g_true = 0.4
        medians = []
        for scale in (1e3, 1e5, 1e7):
            errs = []
            for seed in range(20):
                cv = tomography.simulate_counts(states.werner(g_true), scale, seed=seed)
                est = tomography.mle_reconstruct(cv)
                errs.append(abs(states.werner_fit(est) - g_true))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


def central_difference(params, raw, scale, h=1e-6):
    def f(x):
        return tomography._neg_log_likelihood(x, raw, scale)[0]

    return np.array([(f(params + h * e) - f(params - h * e)) / (2 * h) for e in np.eye(16)])


class TestLikelihoodGradient:
    def test_random_parameters(self):
        rng = np.random.default_rng(5)
        cv = tomography.simulate_counts(states.werner(0.5), 1e4, seed=1)
        for _ in range(5):
            params = rng.normal(size=16)
            _, grad = tomography._neg_log_likelihood(params, cv.counts, cv.total_scale)
            numeric = central_difference(params, cv.counts, cv.total_scale)
            assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))

    def test_clamped_variance(self):
        # at the Bell state the HV model count (1e-5) sits below the
        # variance floor (1e-9 * scale = 1e-4), so that setting takes the
        # clamped branch of the gradient
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=0)
        params = tomography._params_from_rho(states.ideal_bell())
        hv = cv.total_scale * tomography.expected_probabilities(tomography._rho_from_params(params))[1]
        assert hv < 1e-9 * cv.total_scale
        _, grad = tomography._neg_log_likelihood(params, cv.counts, cv.total_scale)
        numeric = central_difference(params, cv.counts, cv.total_scale, h=1e-7)
        assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(grad))


def oracle_cases():
    cases = [tomography.simulate_counts(states.ideal_bell(), 1e5, seed=0)]
    for g, scale, seed in [(0.002, 1e5, 0), (0.002, 1e4, 4), (0.01, 1e5, 1), (0.05, 1e4, 2),
                           (0.3, 1e4, 3), (0.1, 1e3, 5)]:
        cases.append(tomography.simulate_counts(states.werner(g), scale, seed=seed))
    rng = np.random.default_rng(7)
    for _ in range(2):
        probs = tomography.expected_probabilities(random_state(rng))
        cases.append(tomography.CountVector(probs * 1e6, 1e6))
    return cases


@pytest.mark.parametrize("cv", oracle_cases())
def test_fit_matches_nelder_mead_oracle(cv):
    rho_nm, converged = to.nelder_mead_fit(cv)
    assert converged
    f_nm = to.objective(rho_nm, cv.counts, cv.total_scale)
    f = to.objective(tomography.mle_reconstruct(cv), cv.counts, cv.total_scale)
    assert f <= f_nm + 1e-8 * max(1.0, f_nm)


# Low-power Werner count files (mu=0.002 at scale 1e5, mu=0.005 at scale
# 1e4) on which the restarted Nelder-Mead search exhausted 200k evaluations
# without converging.
BOUNDARY_FILES = [
    [49834, 38, 49890, 47, 24996, 25145, 25090, 24817,
     25327, 50386, 24918, 24866, 25046, 25256, 25182, 50044],
    [4965, 13, 4866, 13, 2465, 2499, 2581, 2460,
     2519, 4880, 2531, 2607, 2501, 2518, 2533, 4969],
]


@pytest.mark.parametrize("counts", BOUNDARY_FILES)
def test_boundary_count_files_converge(tmp_path, counts):
    path = tmp_path / "counts.txt"
    path.write_text("".join(f"{lab},{n}\n" for lab, n in zip(tomography.CANONICAL_LABELS, counts)))
    cv = tomography.read_counts(path)
    rho = tomography.mle_reconstruct(cv)
    assert states.validate(rho).ok
    w, v = np.linalg.eigh(tomography.linear_reconstruct(cv))
    clipped = (v * np.clip(w, 0, None)) @ v.conj().T
    clipped /= np.trace(clipped).real
    assert to.objective(rho, cv.counts, cv.total_scale) <= to.objective(
        clipped, cv.counts, cv.total_scale
    )


class TestCountFiles:
    def test_round_trip(self, tmp_path):
        cv = tomography.simulate_counts(states.werner(0.3), 1e4, seed=2)
        path = tmp_path / "counts.txt"
        tomography.write_counts(cv, path)
        back = tomography.read_counts(path)
        assert np.array_equal(back.counts, cv.counts)
        assert back.total_scale == tomography.default_total_scale(cv.counts)

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
        ],
    )
    def test_malformed_files(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body + "\n")
        with pytest.raises(ParseError):
            tomography.read_counts(path)
