"""Literal sums of the multi-pair model and a Monte Carlo simulation of
its detector, kept as test oracles.

These are the pair-number series the closed forms in biphoton.multipair
replace: the multinomial window-split weights, the double loop over splits
at fixed pair number, and the Poisson-weighted series cut at a finite pair
number. Next to them sit the per-class factors (w1, s) and the rates formed
class by class from them, as rates_primed formed them before it shared
expm1(-mu w1) among the classes, the per-x class probabilities in the form
1 - 2 z1**x + z2**x, the earlier closed form of the rates, whose exp(mu s)
factor overflows once mu s passes about 709, and a Monte Carlo simulation
of the detector model. None of them is used by the package itself.
"""

import math
from collections import namedtuple

import numpy as np

from biphoton.multipair import CLASSES

_MC_BATCH = 1_000_000  # shots per Monte Carlo batch; each batch seeds its own stream


def poisson_pmf(x, mu):
    """P(X = x) for X ~ Poisson(mu); log-space for large x."""
    if x < 0 or x != int(x):
        raise ValueError(f"x={x} must be a non-negative integer")
    x = int(x)
    if mu < 0:
        raise ValueError(f"mu={mu} must be >= 0")
    if mu == 0:
        return 1.0 if x == 0 else 0.0
    if x <= 20:
        return math.exp(-mu) * mu**x / math.factorial(x)
    return math.exp(x * math.log(mu) - mu - math.lgamma(x + 1))


def pair_split_weight(x, k, m, eta):
    """Multinomial probability that of x pairs, k are simultaneous and the
    rest contribute lone photons: m to arm 2, x-k-m to arm 1."""
    if not (0 <= k <= x and 0 <= m <= x - k):
        raise ValueError(f"invalid split (x={x}, k={k}, m={m})")
    a = x - k - m
    return (
        eta**k
        * ((1 - eta) / 2) ** (x - k)
        * math.factorial(x)
        / (math.factorial(k) * math.factorial(a) * math.factorial(m))
    )


def split_kernel(x, k, m, alpha, cls):
    """Class probability for one window split: k simultaneous pairs, m lone
    photons in arm 2 and a = x-k-m in arm 1."""
    beta = 1 - alpha
    c = (1 + beta) / 2
    a = x - k - m
    if cls == "HR":
        return (1 - c ** (k + a)) * (1 - c ** (k + m))
    tail = (beta if cls == "HV" else (1 + beta * beta) / 2) ** k * c ** (a + m)
    return 1 - c ** (k + a) - c ** (k + m) + tail


def split_sum(x, alpha, eta, cls):
    """Class probability for x pairs as the double loop over window splits."""
    if cls not in CLASSES:
        raise ValueError(f"unknown projection class {cls!r}")
    total = 0.0
    for k in range(x + 1):
        for m in range(x - k + 1):
            total += pair_split_weight(x, k, m, eta) * split_kernel(x, k, m, alpha, cls)
    return total


def split_sums(alpha, eta, cls, x_max=60):
    """split_sum for x = 0 .. x_max."""
    return [split_sum(x, alpha, eta, cls) for x in range(x_max + 1)]


def poisson_series(mu, per_x):
    """sum_x P(X = x) per_x[x] for X ~ Poisson(mu), cut after the last entry."""
    return sum(poisson_pmf(x, mu) * value for x, value in enumerate(per_x))


def series_rates(mu, alpha, eta, x_max=60):
    """(HH, HV, HR) rates as the Poisson-weighted literal series to x_max pairs."""
    return tuple(poisson_series(mu, split_sums(alpha, eta, cls, x_max)) for cls in CLASSES)


def pair_factors(alpha, eta, cls):
    """(w1, s) of class cls: w1 = 1 - z1 and the gap s = 2 w1 - w2 >= 0,
    where w2 = 1 - z2. Both are formed from alpha directly."""
    one_minus_c = alpha / 2
    gap = {"HH": alpha * alpha / 2, "HV": 0.0, "HR": one_minus_c * one_minus_c}
    if cls not in gap:
        raise ValueError(f"unknown projection class {cls!r}")
    return (1 + eta) / 2 * one_minus_c, eta * gap[cls]


def rates_per_class(p):
    """(HH, HV, HR) rates as rates_primed formed them class by class, through
    pair_factors, before the shared expm1(-mu w1) and the crossed e1**2."""
    out = []
    for cls in CLASSES:
        w1, gap = pair_factors(p.alpha, p.eta, cls)
        e1 = math.expm1(-p.mu * w1)
        out.append(e1 * e1 - math.exp(-p.mu * (2 * w1 - gap)) * math.expm1(-p.mu * gap))
    return tuple(out)


def expm1_rates(p):
    """(HH, HV, HR) rates as e1**2 + (1 + e1)**2 expm1(mu s), e1 = expm1(-mu w1):
    the closed form as first written, exact but overflowing at large mu s."""
    out = []
    for cls in CLASSES:
        w1, gap = pair_factors(p.alpha, p.eta, cls)
        e1 = math.expm1(-p.mu * w1)
        out.append(e1 * e1 + (1 + e1) ** 2 * math.expm1(p.mu * gap))
    return tuple(out)


def _power_minus_one(w, x):
    """(1 - w)**x - 1 without cancellation for small w; 0**0 = 1."""
    if w >= 1:
        return -1.0 if x else 0.0
    return math.expm1(x * math.log1p(-w))


def class_prob_primed(x, alpha, eta, cls):
    """Class probability for x generated pairs with window-split efficiency eta."""
    if x < 0:
        raise ValueError("x must be >= 0")
    w1, gap = pair_factors(alpha, eta, cls)
    return -2 * _power_minus_one(w1, x) + _power_minus_one(2 * w1 - gap, x)


# Empirical rates with binomial standard errors; the first three fields are
# those of RateTriple, so the program reads it as a rate triple.
MonteCarloRates = namedtuple("MonteCarloRates",
                             ("r_hh", "r_hv", "r_hr", "se_hh", "se_hv", "se_hr"))


def monte_carlo_rates(p, shots, seed):
    """Monte Carlo estimate of the three class rates under the detector model.

    Per shot: x ~ Poisson(mu) pairs; each pair lands fully in the window
    with probability eta (one photon per arm) or contributes a lone photon
    to a random arm; pair polarization is HH or VV with probability 1/2;
    analyzers transmit deterministically for linear settings and with
    probability 1/2 for the circular one; each transmitted photon fires
    the detector with probability alpha; a coincidence needs >= 1 detection
    in both arms.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    beta = 1 - p.alpha
    hits = np.zeros(3, dtype=np.int64)
    done = 0
    batch_idx = 0
    while done < shots:
        n = min(_MC_BATCH, shots - done)
        # independent, reproducible stream per batch
        rng = np.random.default_rng([seed, batch_idx])
        x = rng.poisson(p.mu, n)
        sim = rng.binomial(x, p.eta)
        lone = x - sim
        lone1 = rng.binomial(lone, 0.5)
        lone2 = lone - lone1
        sim_h = rng.binomial(sim, 0.5)
        sim_v = sim - sim_h
        h1 = sim_h + rng.binomial(lone1, 0.5)
        lh2 = rng.binomial(lone2, 0.5)
        h2 = sim_h + lh2
        v2 = sim_v + (lone2 - lh2)
        p_arm1_h = 1 - beta**h1
        det1_hh = rng.random(n) < p_arm1_h
        det2_hh = rng.random(n) < 1 - beta**h2
        det1_hv = rng.random(n) < p_arm1_h
        det2_hv = rng.random(n) < 1 - beta**v2
        det1_hr = rng.random(n) < p_arm1_h
        det2_hr = rng.random(n) < 1 - (1 - p.alpha / 2) ** (h2 + v2)
        hits[0] += np.count_nonzero(det1_hh & det2_hh)
        hits[1] += np.count_nonzero(det1_hv & det2_hv)
        hits[2] += np.count_nonzero(det1_hr & det2_hr)
        done += n
        batch_idx += 1
    rates = hits / shots
    se = np.sqrt(rates * (1 - rates) / shots)
    return MonteCarloRates(*rates, *se)
