"""Tests of the benchmark itself: each oracle against a literal computation,
and a tiny-size run of every workload so the harness cannot rot.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def rates_literal(mu, alpha, eta, x_max=60):
    """Poisson-weighted multinomial sum over pair splits, to x_max pairs.

    For x pairs: k land inside the window, m are lone photons in arm 2 and
    a = x-k-m lone photons in arm 1. Within the k window pairs, j are HH
    (Binomial(k, 1/2)); each lone photon is H with probability 1/2, which
    averages beta^n over its count to c^n. Arm 1 sits behind H; arm 2 behind
    H (HH class), V (HV) or a circular analyzer that passes any photon with
    probability 1/2 (HR). Every miss probability is a product of powers, and
    every 1 - miss goes through expm1 so no small rate cancels.
    """
    log_beta = math.log1p(-alpha)
    log_c = math.log1p(-alpha / 2)
    terms = {"HH": [], "HV": [], "HR": []}
    for x in range(x_max + 1):
        px = O.poisson_pmf(x, mu)
        if px == 0.0:
            continue
        for k in range(x + 1):
            if (k and eta == 0) or (x - k and eta == 1):
                continue
            log_split = (k * math.log(eta) if k else 0.0) + (
                (x - k) * math.log((1 - eta) / 2) if x - k else 0.0
            )
            for m in range(x - k + 1):
                a = x - k - m
                w = px * math.exp(
                    log_split + math.lgamma(x + 1) - math.lgamma(k + 1)
                    - math.lgamma(m + 1) - math.lgamma(a + 1)
                )
                arm2_circular = -math.expm1((k + m) * log_c)
                for j in range(k + 1):
                    wj = w * math.comb(k, j) / 2.0**k
                    arm1 = -math.expm1(j * log_beta + a * log_c)
                    terms["HH"].append(wj * arm1 * -math.expm1(j * log_beta + m * log_c))
                    terms["HV"].append(
                        wj * arm1 * -math.expm1((k - j) * log_beta + m * log_c)
                    )
                    terms["HR"].append(wj * arm1 * arm2_circular)
    return tuple(math.fsum(terms[cls]) for cls in ("HH", "HV", "HR"))


def random_state(rng, rank=4):
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize(
    "mu, alpha, eta",
    [(0.01, 0.005, 0.001), (0.01, 0.005, 1.0), (0.5, 0.2, 0.5), (2.0, 0.005, 0.03), (10.0, 0.05, 0.2)],
)
def test_generating_function_matches_literal_multinomial_sum(mu, alpha, eta):
    closed = O.rates_generating_function(mu, alpha, eta)
    literal = rates_literal(mu, alpha, eta, x_max=60)
    for c, lit, err in zip(closed, literal, O.generating_function_error(mu, alpha, eta)):
        assert abs(c - lit) <= err + O.poisson_tail(60, mu) + 1e-13 * lit


def test_rate_bound_covers_truncation_it_claims():
    # a literal sum cut at n_max differs from the untruncated rate by less
    # than the bound the sweep check allows a correct program
    for mu, n_max in ((2.0, 15), (10.0, 40), (0.01, 15)):
        cut = rates_literal(mu, 0.005, 0.03, x_max=n_max)
        full = O.rates_generating_function(mu, 0.005, 0.03)
        for c, f, bound in zip(cut, full, O.rate_error_bound(mu, 0.005, 0.03, n_max)):
            assert abs(c - f) <= bound


def test_werner_closed_forms_match_matrix_computation():
    phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    for g in np.linspace(0, 1, 41):
        rho = (1 - g) * np.outer(phi, phi) + g * np.eye(4) / 4
        assert abs(O.werner_fidelity(g) - phi @ rho @ phi) < 1e-15
        purity = np.trace(rho @ rho).real
        assert abs(O.werner_linear_entropy(g) - 4 / 3 * (1 - purity)) < 1e-14
        assert np.allclose(O.werner_matrix(g), rho, atol=1e-16)
        assert np.allclose(O.werner_probabilities(g), [
            np.vdot(p.ravel(), rho.ravel()).real for p in O.PROJECTORS], atol=1e-15)


def test_tangle_matches_pure_state_concurrence_and_werner_form():
    rng = np.random.default_rng(7)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        concurrence = abs(psi @ yy @ psi)  # |<psi| yy |psi*>| with psi* conjugated twice
        assert abs(O.tangle(np.outer(psi, psi.conj())) - concurrence**2) < 1e-7
    for g in np.linspace(0, 1, 41):
        assert abs(O.tangle(O.werner_matrix(g)) - O.werner_tangle(g)) < 1e-7


def test_werner_g_identity_matches_least_squares_projection():
    rng = np.random.default_rng(3)
    ideal = O.werner_matrix(0.0)
    direction = O.werner_matrix(1.0) - ideal
    for _ in range(20):
        rho = random_state(rng, rank=int(rng.integers(1, 5)))
        grid = np.linspace(0, 1, 200001)
        dist = [np.linalg.norm(rho - ideal - g * direction) for g in grid[::1000]]
        coarse = grid[::1000][int(np.argmin(dist))]
        fine = grid[(grid >= coarse - 0.005) & (grid <= coarse + 0.005)]
        best = fine[int(np.argmin([np.linalg.norm(rho - ideal - g * direction) for g in fine]))]
        assert abs(O.werner_g(O.fidelity(rho)) - best) <= 1e-5


def test_state_metrics_match_literal_definitions():
    rng = np.random.default_rng(5)
    phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    for _ in range(10):
        rho = random_state(rng)
        m = O.metrics(rho)
        assert abs(m["fidelity"] - (phi @ rho @ phi).real) < 1e-15
        assert abs(m["purity"] - np.trace(rho @ rho).real) < 1e-15


def test_objective_matches_literal_sum_with_computational_scale():
    rng = np.random.default_rng(11)
    rho = random_state(rng)
    counts = rng.poisson(3e4 * O.born_probabilities(random_state(rng))).astype(float)
    scale = sum(counts[O.LABELS.index(lab)] for lab in ("HH", "HV", "VH", "VV"))
    total = 0.0
    for lab, n in zip(O.LABELS, counts):
        ket = np.kron(O.KETS[lab[0]], O.KETS[lab[1]])
        model = scale * np.trace(np.outer(ket, ket.conj()) @ rho).real
        total += (model - n) ** 2 / (2 * max(model, 1e-9 * scale))
    assert abs(O.objective(rho, counts) - total) <= 1e-12 * total


def test_linear_estimate_reproduces_frequencies():
    rng = np.random.default_rng(2)
    counts = rng.poisson(1e5 * O.born_probabilities(random_state(rng))).astype(float)
    rho = O.linear_estimate(counts)
    assert np.allclose(O.born_probabilities(rho) * O.count_scale(counts), counts, rtol=1e-10)
    clipped = O.clip_to_psd(rho)
    assert np.linalg.eigvalsh(clipped)[0] >= -1e-15 and abs(np.trace(clipped) - 1) < 1e-14


def test_fidelity_sigma_matches_poisson_spread():
    expected = 1e4 * O.werner_probabilities(0.05)
    rng = np.random.default_rng(9)
    draws = [O.fidelity(O.linear_estimate(rng.poisson(expected))) for _ in range(4000)]
    assert abs(np.std(draws) / O.fidelity_sigma(expected) - 1) < 0.1


# --- the harness at tiny size --------------------------------------------------------

TINY = {
    "HIGH_POWER_MU": (1.0,),
    "HIGH_POWER_SCALES": (1e5,),
    "SWEEP_ETAS": 2,
    "SWEEP_POWERS": 3,
    "README_SIMULATE_POWERS": (50.0,),
    "README_SWEEP_ETAS": (0.03,),
    "README_SWEEP_POWERS": (1.0, 200.0),
    "SECONDARY_ROUNDS": {"setup": 1, "chain": 1, "tomo": 1, "sweep": 1},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(bench, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(bench, "OUT_ROOT", tmp_path / "out")
    return tmp_path


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(tiny, capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (tiny / "out" / f"trace-{workload}-seed3.json").exists()
    assert not (tiny / "work").exists()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tomo-high-power", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_end_to_end_uses_scaled_seconds():
    tally = workloads.Tally()
    tally.samples = {
        "setup": [(1, 9.0, 0.5), (1, 0.1, 0.9), (1, 9.0, 0.7)],
        "tomo": [(3, 1.0, 0.5), (3, 9.0, 1.0)],
        "sweep": [(10, 1.0, 2.0)],
        "chain": [(1, 9.0, 3.0), (1, 0.1, 5.0), (1, 0.1, 4.0)],
    }
    got = {k: v for k, (v, _) in workloads.end_to_end(tally).items()}
    assert got["tomo_states_per_s"] == 4.0
    assert got["sweep_points_per_s"] == 5.0
    assert got["setup_s"] == 0.7 and got["chain_s"] == 4.0
