"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`)."""

import time

import numpy as np
import pytest

import biphoton.multipair as mp
import multipair_oracles as mo
from biphoton import pipeline, states, tomography
from biphoton.errors import ValidationError
from biphoton.multipair import SourceParams
from pipeline_oracles import read_table


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def physical(rho):
    """Whether rho passes states.validate, as a bool for a PASS/FAIL line."""
    try:
        states.validate(rho)
    except ValidationError:
        return False
    return True


def random_state(rng, n_components=4):
    rho = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(n_components)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def test_criterion_1_werner_g_law():
    t0 = time.perf_counter()
    ok = True
    for mu in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0):
        g = mp.effective_g(mp.rates_primed(SourceParams(mu=mu, alpha=0.005, eta=1.0)))
        ok &= abs(g - mu / (1 + mu)) / (mu / (1 + mu)) < 0.01
    ok &= time.perf_counter() - t0 < 1.0
    _report(1, "effective g matches mu/(1+mu) within 1% (alpha=0.005, eta=1)", ok)


def test_criterion_2_asymptotic_rates():
    t0 = time.perf_counter()
    ok = True
    for alpha in (0.002, 0.005, 0.01):
        for mu in (0.02, 0.05, 0.1, 0.2):
            r = mp.rates_primed(SourceParams(mu=mu, alpha=alpha))
            targets = (
                alpha**2 * (mu / 2 + mu**2 / 4),
                alpha**2 * mu**2 / 4,
                alpha**2 * (mu / 4 + mu**2 / 4),
            )
            for got, want in zip((r.r_hh, r.r_hv, r.r_hr), targets):
                ok &= abs(got - want) / want < 0.02
    ok &= time.perf_counter() - t0 < 1.0
    _report(2, "full-series rates match quadratic asymptotes within 2%", ok)


def test_criterion_3_monte_carlo_oracle_agreement():
    t0 = time.perf_counter()
    ok = True
    shots = 1_000_000
    for i, mu in enumerate((0.1, 0.5, 1.0)):
        for j, alpha in enumerate((0.05, 0.2)):
            for k, eta in enumerate((0.03, 0.5, 1.0)):
                p = SourceParams(mu=mu, alpha=alpha, eta=eta)
                mc = mo.monte_carlo_rates(p, shots, seed=1000 + 100 * i + 10 * j + k)
                an = mp.rates_primed(p)
                ok &= abs(mc.r_hh - an.r_hh) <= 3 * mc.se_hh
                ok &= abs(mc.r_hv - an.r_hv) <= 3 * mc.se_hv
                ok &= abs(mc.r_hr - an.r_hr) <= 3 * mc.se_hr
    ok &= time.perf_counter() - t0 < 120.0
    _report(3, "analytic rates within 3 standard errors of 1e6-shot Monte Carlo", ok)


def test_criterion_4_reduction_identity_and_weight_normalization():
    ok = True
    for x in range(11):
        for alpha in (0.01, 0.1, 0.5):
            for cls in mp.CLASSES:
                ok &= abs(
                    mo.split_sum(x, alpha, 1.0, cls)
                    - mo.class_prob_primed(x, alpha, 1.0, cls)
                ) < 1e-12
    for x in range(16):
        for eta in (0.001, 0.03, 0.2, 1.0):
            total = sum(
                mo.pair_split_weight(x, k, m, eta)
                for k in range(x + 1)
                for m in range(x - k + 1)
            )
            ok &= abs(total - 1.0) < 1e-12
    _report(4, "eta=1 kernel reduction and split-weight normalization at 1e-12", ok)


def test_criterion_5_metric_closed_forms():
    t0 = time.perf_counter()
    psi = states.bell_state()
    ok = True
    for g in np.linspace(0.0, 1.0, 101):
        rho = states.werner(float(g))
        pur = (1 - g) ** 2 + g * (1 - g) / 2 + g**2 / 4
        ok &= abs(states.fidelity(rho, psi) - (1 - 3 * g / 4)) < 1e-9
        ok &= abs(states.tangle(rho) - max(0.0, 1 - 1.5 * g) ** 2) < 1e-9
        ok &= abs(states.linear_entropy(rho) - (4 / 3) * (1 - pur)) < 1e-9
    # entanglement dies exactly where fidelity crosses the classical limit 1/2
    ok &= states.tangle(states.werner(2 / 3)) < 1e-20
    ok &= abs(states.fidelity(states.werner(2 / 3), psi) - 0.5) < 1e-12
    ok &= states.tangle(states.werner(0.67)) == 0.0  # clamp exact above threshold
    ok &= states.tangle(states.werner(0.66)) > 0.0
    ok &= time.perf_counter() - t0 < 1.0
    _report(5, "matrix-level metrics match closed forms on 101-point g grid", ok)


def test_criterion_6_mixedness_tangle_trajectory(tmp_path):
    t0 = time.perf_counter()
    cfg = pipeline.build_config({
        "source.alpha": "0.005",
        "sweep.eta_list": "0.03,1.0",
        "sweep.power_grid": "1,10,50,100,200",
        "calibration.pairs_per_power": "0.01",
    })
    out = tmp_path / "sweep.csv"
    pipeline.run_sweep(cfg, out)
    header, raw = read_table(out.with_name("sweep_fig2.csv"))
    curve = [(float(r[1]), float(r[2]), float(r[3])) for r in raw if r[0] == "curve"]
    model = [(float(r[1]), float(r[2]), float(r[3])) for r in raw if r[0] == "model"]
    sl = np.array([c[1] for c in curve])
    tg = np.array([c[2] for c in curve])
    ok = bool(np.all(np.diff(sl) >= -1e-12) and np.all(np.diff(tg) <= 1e-12))
    ok &= abs(sl[0]) < 1e-12 and abs(tg[0] - 1.0) < 1e-12
    # first zero-tangle point sits at S_L = 8/9
    first_zero = next(i for i, t in enumerate(tg) if t == 0.0)
    ok &= abs(sl[first_zero] - 8 / 9) < 2e-2  # grid granularity of the curve table
    rho = states.werner(2 / 3)
    ok &= abs(states.linear_entropy(rho) - 8 / 9) < 1e-12 and states.tangle(rho) < 1e-20
    for g, sl_m, tg_m in model:
        w = states.werner(g)
        ok &= abs(sl_m - states.linear_entropy(w)) < 1e-6
        ok &= abs(tg_m - states.tangle(w)) < 1e-6
    ok &= time.perf_counter() - t0 < 1.0
    _report(6, "mixedness-tangle trajectory is monotone, (0,1)->(8/9,0), model on curve", ok)


def test_criterion_7_g_vs_power_structure():
    t0 = time.perf_counter()
    etas = (0.001, 0.03, 0.20, 1.00)
    mu_grid = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0)
    cal = mp.PowerCalibration(pairs_per_power=0.01)
    template = SourceParams(mu=0.0, alpha=0.005)
    powers = [mu / cal.pairs_per_power for mu in mu_grid]
    curves = {}
    ok = True
    for eta in etas:
        curve = mp.g_vs_power_curve(cal, SourceParams(mu=0.0, alpha=0.005, eta=eta), powers)
        gs = [g for _, g in curve]
        ok &= all(b >= a - 1e-12 for a, b in zip(gs, gs[1:]))
        curves[eta] = gs
    for i, e1 in enumerate(etas):
        for e2 in etas[i + 1:]:
            ok &= max(abs(a - b) for a, b in zip(curves[e1], curves[e2])) > 1e-3
    for mu, g in zip(mu_grid, curves[1.00]):
        ok &= abs(g - mu / (1 + mu)) / (mu / (1 + mu)) < 0.01
    for eta in etas:
        per_x = [mo.split_sums(0.005, eta, cls) for cls in mp.CLASSES]
        for mu in (0.1, 0.5, 1.0):
            r = mp.rates_primed(SourceParams(mu=mu, alpha=0.005, eta=eta))
            for got, sums in zip((r.r_hh, r.r_hv, r.r_hr), per_x):
                want = mo.poisson_series(mu, sums)
                ok &= abs(got - want) / want < 1e-9
    ok &= time.perf_counter() - t0 < 30.0
    _report(7, "four distinct monotone g-vs-power curves; closed form = 60-term series", ok)


def test_criterion_8_tomography_round_trip():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(2024)
    for _ in range(5):
        rho = random_state(rng)
        probs = tomography.expected_probabilities(rho)
        est, _ = tomography.mle_reconstruct(tomography.CountVector(probs * 1e6))
        ok &= np.max(np.abs(est - rho)) < 1e-3
        ok &= physical(est)
    n_good = 0
    for seed in range(20):
        cv = tomography.simulate_counts(states.ideal_bell(), 1e5, seed=seed)
        est, _ = tomography.mle_reconstruct(cv)
        ok &= physical(est)
        if states.fidelity(est, states.bell_state()) >= 0.99:
            n_good += 1
    ok &= n_good >= 18
    ok &= time.perf_counter() - t0 < 120.0
    _report(8, "MLE: noiseless entrywise <1e-3; >=18/20 noisy seeds at F>=0.99; always physical", ok)


def test_criterion_9_calibration_anchor():
    ok = True
    for seed in (0, 1, 2):
        cv = tomography.simulate_counts(states.werner(0.12), 1e6, seed=seed)
        est, _ = tomography.mle_reconstruct(cv)
        f = states.fidelity(est, states.bell_state())
        ok &= abs(f - 0.91) <= 0.01
    _report(9, "simulate+reconstruct at g=0.12 gives fidelity 0.91 +/- 0.01", ok)


def test_criterion_10_background_invariance():
    coeffs = [(1.0, 0.5), (3.0, 0.1), (0.2, 0.2)]
    ok = True
    for s, b in coeffs:
        powers = [0.5, 1.0, 2.0, 5.0]
        values = {mp.background_g(s, b, p) for p in powers}
        values |= {mp.background_g(s, b, 10 * p) for p in powers}
        ok &= len(values) == 1  # bit-identical across the decade
    _report(10, "background-driven g is bit-identical across a power decade", ok)
