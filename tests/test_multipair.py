"""Unit tests for the multi-pair coincidence model.

The closed-form rates are checked against the literal Poisson-weighted
series and the Monte Carlo simulation of multipair_oracles. The oracle's
per-x class forms, which the series sums, are checked term by term against
the raw binomial/multinomial sums and against exhaustive enumeration of the
detector model at fixed pair number.
"""

import itertools
import math
from math import comb, factorial

import numpy as np
import pytest

import biphoton.multipair as mp
import multipair_oracles as mo
from biphoton import states, tomography
from biphoton.errors import DegenerateInputError
from biphoton.multipair import SourceParams


# --- independent oracles ----------------------------------------------------


def f_sum(x, a):
    return sum(comb(x, y) / 2**x * (1 - (1 - a) ** (x - y)) ** 2 for y in range(x + 1))


def g_sum(x, a):
    return sum(
        comb(x, y) / 2**x * (1 - (1 - a) ** (x - y)) * (1 - (1 - a) ** y)
        for y in range(x + 1)
    )


def h_sum(x, a):
    # the single-bracket exponent {1 - (1-a)**j}: collapsing it to a**j would
    # contradict the small-mu asymptote a^2 (mu/4 + mu^2/4) and the Monte Carlo model
    s = sum(comb(x, j) / 2**x * (1 - (1 - a) ** j) for j in range(x + 1))
    return s * s


def _multinom_weight(k, aa, m, y, z, w):
    return (
        factorial(k) * factorial(aa) * factorial(m)
        / (factorial(k - y) * factorial(y) * factorial(aa - z) * factorial(z)
           * factorial(m - w) * factorial(w))
    )


def f_kernel_sum(x, k, m, a):
    aa = x - k - m
    total = 0.0
    for y in range(k + 1):
        for z in range(aa + 1):
            for w in range(m + 1):
                total += (
                    0.5**x * _multinom_weight(k, aa, m, y, z, w)
                    * (1 - (1 - a) ** (y + z)) * (1 - (1 - a) ** (y + w))
                )
    return total


def g_kernel_sum(x, k, m, a):
    aa = x - k - m
    total = 0.0
    for y in range(k + 1):
        for z in range(aa + 1):
            for w in range(m + 1):
                total += (
                    0.5**x * _multinom_weight(k, aa, m, y, z, w)
                    * (1 - (1 - a) ** (y + z)) * (1 - (1 - a) ** (k - y + m - w))
                )
    return total


def h_kernel_sum(x, k, m, a):
    s1 = sum(
        comb(x - m, y) / 2 ** (x - m) * (1 - (1 - a) ** (x - m - y))
        for y in range(x - m + 1)
    )
    s2 = sum(
        comb(k + m, z) / 2 ** (k + m) * (1 - (1 - a) ** (k + m - z))
        for z in range(k + m + 1)
    )
    return s1 * s2


KERNEL_SUMS = {"HH": f_kernel_sum, "HV": g_kernel_sum, "HR": h_kernel_sum}
CLASS_SUMS = {"HH": f_sum, "HV": g_sum, "HR": h_sum}


def primed_sum(x, a, eta, cls):
    total = 0.0
    for k in range(x + 1):
        for m in range(x - k + 1):
            total += mo.pair_split_weight(x, k, m, eta) * KERNEL_SUMS[cls](x, k, m, a)
    return total


def enumerate_class_prob(x, alpha, eta, cls):
    """Exhaustive enumeration of the detector model for x pairs.

    Each pair routes to {both windows, lone->arm1, lone->arm2} with
    probabilities {eta, (1-eta)/2, (1-eta)/2} and is H- or V-polarized
    with probability 1/2. Threshold detection with per-photon
    efficiency alpha behind the class analyzers.
    """
    t_arm2 = {
        "HH": lambda pol: 1.0 if pol == "H" else 0.0,
        "HV": lambda pol: 1.0 if pol == "V" else 0.0,
        "HR": lambda pol: 0.5,
    }[cls]
    total = 0.0
    for routing in itertools.product((0, 1, 2), repeat=x):
        p_route = math.prod(eta if r == 0 else (1 - eta) / 2 for r in routing)
        for pols in itertools.product("HV", repeat=x):
            arm1, arm2 = [], []
            for r, pol in zip(routing, pols):
                if r == 0:
                    arm1.append(pol)
                    arm2.append(pol)
                elif r == 1:
                    arm1.append(pol)
                else:
                    arm2.append(pol)
            miss1 = math.prod(1 - alpha * (1.0 if pol == "H" else 0.0) for pol in arm1)
            miss2 = math.prod(1 - alpha * t_arm2(pol) for pol in arm2)
            total += p_route * 0.5**x * (1 - miss1) * (1 - miss2)
    return total


# --- tests --------------------------------------------------------------------


class TestPoissonPmf:
    """The oracle's Poisson weights."""

    def test_examples(self):
        assert mo.poisson_pmf(0, 0.0) == 1.0
        assert mo.poisson_pmf(3, 0.0) == 0.0
        assert mo.poisson_pmf(1, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_tail_bound(self):
        total = sum(mo.poisson_pmf(x, 0.5) for x in range(16))
        assert total >= 1 - 1e-9

    def test_log_space_branch(self):
        # large-x branch agrees with a mpmath-free Stirling-exact identity
        exact = math.exp(-30) * 30.0**25 / math.factorial(25)
        assert mo.poisson_pmf(25, 30.0) == pytest.approx(exact, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            mo.poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            mo.poisson_pmf(1, -0.5)


class TestUnprimedKernels:
    """The per-x oracle forms at eta = 1, where every pair is simultaneous."""

    def test_zero_pairs(self):
        for cls in mp.CLASSES:
            assert mo.class_prob_primed(0, 0.1, 1.0, cls) == pytest.approx(0.0, abs=1e-15)

    def test_single_pair(self):
        for a in (0.03, 0.2, 0.9):
            assert mo.class_prob_primed(1, a, 1.0, "HH") == pytest.approx(a**2 / 2, rel=1e-12)
            assert mo.class_prob_primed(1, a, 1.0, "HV") == pytest.approx(0.0, abs=1e-15)
            assert mo.class_prob_primed(1, a, 1.0, "HR") == pytest.approx(a**2 / 4, rel=1e-12)

    @pytest.mark.parametrize("cls", mp.CLASSES)
    def test_matches_binomial_sums(self, cls):
        for x in range(11):
            for a in (0.01, 0.1, 0.5, 1.0):
                assert mo.class_prob_primed(x, a, 1.0, cls) == pytest.approx(
                    CLASS_SUMS[cls](x, a), abs=1e-13
                )

    def test_two_pairs_against_enumeration(self):
        for cls in mp.CLASSES:
            assert mo.class_prob_primed(2, 0.1, 1.0, cls) == pytest.approx(
                enumerate_class_prob(2, 0.1, 1.0, cls), abs=1e-13
            )


class TestPairSplitWeight:
    """The oracle's multinomial window-split weights."""

    @pytest.mark.parametrize("eta", [0.001, 0.03, 0.5, 1.0])
    def test_normalization(self, eta):
        for x in range(16):
            total = sum(
                mo.pair_split_weight(x, k, m, eta)
                for k in range(x + 1)
                for m in range(x - k + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_eta_one_degenerate(self):
        for x in range(1, 6):
            for k in range(x + 1):
                for m in range(x - k + 1):
                    w = mo.pair_split_weight(x, k, m, 1.0)
                    assert w == (1.0 if (k == x and m == 0) else 0.0)

    def test_direct_value(self):
        assert mo.pair_split_weight(2, 1, 1, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mo.pair_split_weight(2, 3, 0, 0.5)
        with pytest.raises(ValueError):
            mo.pair_split_weight(2, 1, 2, 0.5)


class TestPrimedKernels:
    @pytest.mark.parametrize("cls", mp.CLASSES)
    def test_matches_printed_sums(self, cls):
        for x in range(7):
            for a, eta in itertools.product((0.03, 0.2), (0.03, 0.5, 1.0)):
                assert mo.class_prob_primed(x, a, eta, cls) == pytest.approx(
                    primed_sum(x, a, eta, cls), abs=1e-13
                )

    @pytest.mark.parametrize("cls", mp.CLASSES)
    def test_reduction_to_unprimed_at_eta_one(self, cls):
        for x in range(11):
            for a in (0.03, 0.2):
                assert abs(mo.class_prob_primed(x, a, 1.0, cls) - CLASS_SUMS[cls](x, a)) < 1e-12

    def test_zero_pairs(self):
        for cls in mp.CLASSES:
            assert mo.class_prob_primed(0, 0.1, 0.3, cls) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("cls", mp.CLASSES)
    def test_against_exhaustive_enumeration(self, cls):
        for x in (1, 2, 3):
            for a, eta in [(0.1, 0.3), (0.4, 0.7)]:
                assert mo.class_prob_primed(x, a, eta, cls) == pytest.approx(
                    enumerate_class_prob(x, a, eta, cls), abs=1e-12
                )


class TestRates:
    def test_mu_zero(self):
        r = mp.rates_primed(SourceParams(mu=0.0, alpha=0.1))
        assert (r.r_hh, r.r_hv, r.r_hr) == (0.0, 0.0, 0.0)
        rp = mp.rates_primed(SourceParams(mu=0.0, alpha=0.1, eta=0.3))
        assert (rp.r_hh, rp.r_hv, rp.r_hr) == (0.0, 0.0, 0.0)

    def test_quadratic_asymptotics(self):
        for a in (0.002, 0.01):
            for mu in (0.02, 0.1, 0.2):
                r = mp.rates_primed(SourceParams(mu=mu, alpha=a))
                assert r.r_hh == pytest.approx(a**2 * (mu / 2 + mu**2 / 4), rel=0.02)
                assert r.r_hv == pytest.approx(a**2 * mu**2 / 4, rel=0.02)
                assert r.r_hr == pytest.approx(a**2 * (mu / 4 + mu**2 / 4), rel=0.02)

    def test_parallel_dominates_crossed(self):
        for mu, eta in [(0.1, 1.0), (0.5, 0.3), (2.0, 0.03)]:
            r = mp.rates_primed(SourceParams(mu=mu, alpha=0.2, eta=eta))
            assert r.r_hh >= r.r_hv

    def test_saturate_at_high_mu(self):
        # mu s = 1250 in the HH class, where exp(mu s) alone overflows
        r = mp.rates_primed(SourceParams(mu=1e4, alpha=0.5, eta=1.0))
        assert (r.r_hh, r.r_hv, r.r_hr) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_mu(self, mu):
        # the constructor, _replace and _make run the same check
        good = SourceParams(mu=0.5, alpha=0.1)
        for build in (lambda: SourceParams(mu=mu, alpha=0.1), lambda: good._replace(mu=mu),
                      lambda: SourceParams._make((mu, 0.1, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                build()

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", 0.0, "alpha=0.0 must be in"), ("alpha", 1.5, "alpha=1.5 must be in"),
        ("eta", -0.1, "eta=-0.1 must be in"), ("eta", math.nan, "eta=nan must be in"),
    ])
    def test_rejects_out_of_range_efficiency(self, field, value, message):
        good = SourceParams(mu=0.5, alpha=0.1, eta=0.3)
        values = {**good._asdict(), field: value}
        for build in (lambda: SourceParams(**values), lambda: good._replace(**{field: value}),
                      lambda: SourceParams._make(values.values())):
            with pytest.raises(ValueError, match=message):
                build()

    def test_truncation_stability(self):
        # the closed form has no truncation; it must match the literal series
        for mu in (0.1, 0.5, 1.0):
            r = mp.rates_primed(SourceParams(mu=mu, alpha=0.1, eta=0.3))
            series = mo.series_rates(mu, 0.1, 0.3)
            for a, b in zip((r.r_hh, r.r_hv, r.r_hr), series):
                assert abs(a - b) / b < 1e-9


class TestMonteCarlo:
    def test_mu_zero_exact(self):
        r = mo.monte_carlo_rates(SourceParams(mu=0.0, alpha=0.1, eta=0.5), 10_000, seed=0)
        assert (r.r_hh, r.r_hv, r.r_hr) == (0.0, 0.0, 0.0)

    def test_deterministic_in_seed(self):
        p = SourceParams(mu=0.5, alpha=0.2, eta=0.5)
        a = mo.monte_carlo_rates(p, 100_000, seed=5)
        b = mo.monte_carlo_rates(p, 100_000, seed=5)
        assert (a.r_hh, a.r_hv, a.r_hr) == (b.r_hh, b.r_hv, b.r_hr)

    def test_matches_asymptotics_at_eta_one(self):
        p = SourceParams(mu=0.05, alpha=0.01, eta=1.0)
        shots = 10_000_000
        mc = mo.monte_carlo_rates(p, shots, seed=11)
        a, mu = p.alpha, p.mu
        for got, want in [
            (mc.r_hh, a**2 * (mu / 2 + mu**2 / 4)),
            (mc.r_hv, a**2 * mu**2 / 4),
            (mc.r_hr, a**2 * (mu / 4 + mu**2 / 4)),
        ]:
            # standard error from the model probability: stable at low counts
            se = np.sqrt(want * (1 - want) / shots)
            assert abs(got - want) < 3 * se

    def test_matches_primed_rates(self):
        p = SourceParams(mu=0.5, alpha=0.1, eta=0.03)
        mc = mo.monte_carlo_rates(p, 1_000_000, seed=21)
        an = mp.rates_primed(p)
        assert abs(mc.r_hh - an.r_hh) < 3 * mc.se_hh
        assert abs(mc.r_hv - an.r_hv) < 3 * mc.se_hv
        assert abs(mc.r_hr - an.r_hr) < 3 * mc.se_hr


# class rates whose R_HH + R_HV is NaN or infinite
NON_FINITE_RATES = [(math.nan, math.nan, math.nan), (1.0, math.inf, 1.0), (math.inf, 0.0, 0.5),
                    (math.nan, 1.0, 1.0), (1e308, 1e308, 0.0)]


class TestEffectiveG:
    def test_werner_law_small_alpha(self):
        for mu in (0.01, 0.1, 0.5, 1.0, 2.0):
            g = mp.effective_g(mp.rates_primed(SourceParams(mu=mu, alpha=0.005)))
            assert g == pytest.approx(mu / (1 + mu), rel=0.01)

    def test_crossed_free_source(self):
        assert mp.effective_g(mp.RateTriple(1e-4, 0.0, 5e-5)) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            mp.effective_g(mp.RateTriple(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("rates", NON_FINITE_RATES)
    def test_non_finite(self, rates):
        # R_HH + R_HV outside (0, inf) once gave g = 0.0
        with pytest.raises(DegenerateInputError, match="g is undefined"):
            mp.effective_g(mp.RateTriple(*rates))


class TestProjectionProbabilities16:
    """The 16 Born probabilities of the Werner state the class rates imply."""

    def test_low_power_limit(self):
        rates = mp.rates_primed(SourceParams(mu=1e-6, alpha=0.005))
        probs = tomography.expected_probabilities(states.werner(mp.effective_g(rates)))
        ideal = tomography.expected_probabilities(states.ideal_bell())
        assert np.max(np.abs(probs - ideal)) < 1e-5

    def test_hr_class_quarter(self):
        rates = mp.rates_primed(SourceParams(mu=0.7, alpha=0.1, eta=0.3))
        g = mp.effective_g(rates)
        probs = dict(zip(
            tomography.CANONICAL_LABELS, tomography.expected_probabilities(states.werner(g))
        ))
        assert probs["RH"] == pytest.approx(0.25, abs=1e-12)

    def test_werner_half_at_mu_one(self):
        rates = mp.rates_primed(SourceParams(mu=1.0, alpha=0.005))
        probs = tomography.expected_probabilities(states.werner(mp.effective_g(rates)))
        expect = tomography.expected_probabilities(states.werner(0.5))
        assert np.max(np.abs(probs - expect) / np.maximum(expect, 1e-12)) < 0.01


class TestPowerCurveAndBackground:
    def test_eta_one_matches_werner_law(self):
        cal = mp.PowerCalibration(pairs_per_power=0.01)
        template = SourceParams(mu=0.0, alpha=0.005, eta=1.0)
        powers = [1, 5, 10, 50, 100]
        for power, g in mp.g_vs_power_curve(cal, template, powers):
            mu = 0.01 * power
            assert g == pytest.approx(mu / (1 + mu), rel=0.02)

    @pytest.mark.parametrize("eta", [0.001, 0.03, 0.20, 1.00])
    def test_monotone_in_power(self, eta):
        cal = mp.PowerCalibration(pairs_per_power=0.01)
        template = SourceParams(mu=0.0, alpha=0.01, eta=eta)
        curve = mp.g_vs_power_curve(cal, template, np.linspace(1, 150, 25))
        gs = [g for _, g in curve]
        assert all(b >= a - 1e-12 for a, b in zip(gs, gs[1:]))

    @pytest.mark.parametrize("pairs_per_power", [0.0, -0.01, math.inf, math.nan])
    def test_calibration_rejects_bad_pairs_per_power(self, pairs_per_power):
        good = mp.PowerCalibration(pairs_per_power=0.01)
        for build in (lambda: mp.PowerCalibration(pairs_per_power=pairs_per_power),
                      lambda: good._replace(pairs_per_power=pairs_per_power),
                      lambda: mp.PowerCalibration._make((pairs_per_power, "uW"))):
            with pytest.raises(ValueError, match="positive and finite"):
                build()

    def test_background_examples(self):
        assert mp.background_g(1.0, 0.0, 10.0) == 0.0
        assert mp.background_g(2.0, 2.0, 3.0) == 0.5
        assert mp.background_g(1.3, 0.4, 1.0) == mp.background_g(1.3, 0.4, 100.0)
        with pytest.raises(DegenerateInputError):
            mp.background_g(0.0, 0.0, 1.0)


# --- the 16 settings from independent Phi+ pairs ------------------------------

_OVERLAP_CLASSES = {1.0: "HH", 0.0: "HV", 0.5: "HR"}


def one_pair_pass_law(a, b):
    """{(photon 1 passes, photon 2 passes): probability} for one Phi+ pair in
    front of the analyzers a (arm 1) and b (arm 2), from the projectors."""
    one = np.eye(2)
    first, second = np.outer(a, a.conj()), np.outer(b, b.conj())
    return {
        (pass1, pass2): float(np.trace(states.ideal_bell() @ np.kron(
            first if pass1 else one - first, second if pass2 else one - second)).real)
        for pass1, pass2 in itertools.product((True, False), repeat=2)
    }


def coincidence_probability(n, a, b, alpha):
    """P(both threshold detectors fire) for n independent Phi+ pairs, eta = 1:
    summed over every pair's pass pattern, each passed photon detected with
    probability alpha."""
    law = one_pair_pass_law(a, b)
    total = 0.0
    for patterns in itertools.product(law, repeat=n):
        passed1, passed2 = sum(p[0] for p in patterns), sum(p[1] for p in patterns)
        total += (math.prod(law[p] for p in patterns)
                  * (1 - (1 - alpha) ** passed1) * (1 - (1 - alpha) ** passed2))
    return total


class TestSettingProbabilities:
    def test_classes_follow_from_the_analyzer_overlaps(self):
        derived = []
        for label in mp.CANONICAL_LABELS:
            a, b = (tomography.ANALYZER_STATES[c] for c in label)
            overlap = abs(np.vdot(a, b.conj())) ** 2
            (cls,) = [c for o, c in _OVERLAP_CLASSES.items() if abs(overlap - o) < 1e-12]
            derived.append(cls)
        assert tuple(derived) == mp.SETTING_CLASSES
        assert tomography.CANONICAL_LABELS is mp.CANONICAL_LABELS

    @pytest.mark.parametrize("alpha, mu", [(0.005, 1e-3), (0.3, 0.01), (1.0, 0.05)])
    def test_rates_of_up_to_three_pairs(self, alpha, mu):
        # the Poisson-weighted sum over n <= 3 pairs lies below the model's rate by
        # at most P(n >= 4), each coincidence probability being at most 1
        rates = mp.rates_primed(SourceParams(mu=mu, alpha=alpha, eta=1.0))
        norm = 2 * (rates.r_hh + rates.r_hv)
        tail = 1 - sum(mo.poisson_pmf(n, mu) for n in range(4))
        for label, p in zip(mp.CANONICAL_LABELS, mp.setting_probabilities(rates)):
            a, b = (tomography.ANALYZER_STATES[c] for c in label)
            truncated = sum(mo.poisson_pmf(n, mu) * coincidence_probability(n, a, b, alpha)
                            for n in range(4))
            assert -1e-14 * truncated <= p * norm - truncated <= tail + 1e-14 * truncated, label

    @pytest.mark.parametrize("mu, alpha, eta", [(1e-6, 0.005, 1.0), (0.01, 0.005, 1.0),
                                                (1.0, 0.005, 0.03), (10.0, 0.5, 0.2),
                                                (3.0, 1.0, 1.0)])
    def test_linear_entries_are_the_werner_states(self, mu, alpha, eta):
        rates = mp.rates_primed(SourceParams(mu=mu, alpha=alpha, eta=eta))
        probs = mp.setting_probabilities(rates)
        werner = tomography.expected_probabilities(states.werner(mp.effective_g(rates)))
        for cls, p, w in zip(mp.SETTING_CLASSES, probs, werner):
            if cls != "HR":
                assert abs(p - w) <= 1e-15
        assert sum(probs[:4]) == pytest.approx(1.0, abs=1e-15)
        assert all(type(p) is float for p in probs)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            mp.setting_probabilities(mp.RateTriple(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("rates", NON_FINITE_RATES)
    def test_non_finite(self, rates):
        # R_HH + R_HV outside (0, inf) once gave 16 NaNs
        with pytest.raises(DegenerateInputError, match="no setting probabilities"):
            mp.setting_probabilities(mp.RateTriple(*rates))
