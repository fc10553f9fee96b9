"""Literal sums of the multi-pair model, kept as test oracles.

These are the pair-number series the closed forms in biphoton.multipair
replace: the multinomial window-split weights, the double loop over splits
at fixed pair number, and the Poisson-weighted series cut at a finite pair
number. Next to them sits the earlier closed form, whose exp(mu s) factor
overflows once mu s passes about 709. None of them is used by the package
itself.
"""

import math

from biphoton.multipair import CLASSES, _pair_factors


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


def expm1_rates(p):
    """(HH, HV, HR) rates as e1**2 + (1 + e1)**2 expm1(mu s), e1 = expm1(-mu w1):
    the closed form as first written, exact but overflowing at large mu s."""
    out = []
    for cls in CLASSES:
        w1, gap = _pair_factors(p.alpha, p.eta, cls)
        e1 = math.expm1(-p.mu * w1)
        out.append(e1 * e1 + (1 + e1) ** 2 * math.expm1(p.mu * gap))
    return tuple(out)
