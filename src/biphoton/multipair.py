"""Multi-pair coincidence model for a pulsed entangled-pair source.

Pairs are generated per pulse with Poisson statistics (mean mu); each pair
is |HH> or |VV> with probability 1/2. Two threshold detectors sit behind
polarization analyzers, one per arm. alpha is the per-photon detection
efficiency. eta is the simultaneous-detection efficiency: a pair falls
fully inside the coincidence window with probability eta, otherwise it
contributes a lone photon to either arm with probability (1-eta)/2 each.

The per-pulse coincidence probabilities for the three projection classes
HH (parallel linear), HV (crossed linear) and HR (linear-circular) follow
from averaging the threshold-detector response over pair polarizations.
With beta = 1-alpha, c = (1+beta)/2 and d = (1+beta**2)/2, the x-pair
class probabilities reduce to

    f(x) = 1 - 2 c**x + d**x          (HH)
    g(x) = 1 - 2 c**x + beta**x       (HV)
    h(x) = (1 - c**x)**2              (HR)

Averaging over the window split (k simultaneous pairs, m lone photons in
arm 2, x-k-m in arm 1) turns each power into a per-pair factor, so every
class probability keeps the form 1 - 2 z1**x + z2**x with

    z1 = ((1+eta)/2) c + (1-eta)/2
    z2 = eta X + (1-eta) c,    X = d (HH), beta (HV), c**2 (HR)

and eta = 1 gives back f, g, h. Averaged over x ~ Poisson(mu), z**x becomes
the generating function exp(-mu (1-z)), so with w = 1-z each rate is exactly

    R = 1 - 2 exp(-mu w1) + exp(-mu w2)

with no truncation of the pair-number series. At low power R is about
alpha**2 mu, a small difference of terms near 1. The gap s = 2 w1 - w2 is
eta alpha**2/2 (HH), 0 (HV) or eta alpha**2/4 (HR), so the same rate reads

    R = (1 - exp(-mu w1))**2 + exp(-mu w2) (1 - exp(-mu s)),

a sum of two non-negative terms whose factors all lie in [0, 1], so no
finite mu overflows it. The code evaluates it through expm1 and exp with
w1 and s formed from alpha directly, so no term loses digits to
cancellation. In the crossed class s = 0: each pair can reach at most one
of the two crossed detectors, and R_HV is the product of the arms' single
rates.

The test suite (tests/multipair_oracles.py) holds the per-x forms and a
Monte Carlo simulation of the detector model. It checks the per-x forms
against the raw binomial and multinomial sums and against exhaustive
enumeration of the detector model, and the rates against a literal
Poisson-weighted series and the Monte Carlo simulation.

The 16 tomography settings take their rates from the same three classes.
Each pair is Phi+, invariant under U (x) U*, so for one pair the joint
pass/fail law of a setting (a, b) depends only on |<a|b*>|**2, which is 1
(class HH: HH, VV, DD, RL), 0 (class HV: HV, VH) or 1/2 (class HR: the other
ten); a lone photon passes any analyzer with probability 1/2. Pairs are
independent, so every setting has its class's rate, and
setting_probabilities gives the 16 as plain floats.

Counts are drawn by one stdlib Poisson sampler, _poisson_counts: biphoton
simulate from the setting probabilities, tomography.simulate_counts from the
Born probabilities of any state.

The scalar state summary, StateMetrics, and its closed form for Werner
states, werner_metrics, live here too; states re-exports both. The sweep
takes a point's Werner cells as plain floats from their helper, _werner_floats.
"""

import math
import random
from collections import namedtuple

from .errors import DegenerateInputError, ValidationError

CLASSES = ("HH", "HV", "HR")

# The value types are named tuples: they unpack, index and compare as tuples.
# A validating type checks in __new__ and makes _make call it, so that _replace,
# which builds its result through _make, runs the same checks.


class SourceParams(namedtuple("SourceParams", ("mu", "alpha", "eta"))):
    """Source and detection parameters for the coincidence model."""

    __slots__ = ()

    def __new__(cls, mu, alpha, eta=1.0):
        if not 0 <= mu < math.inf:
            raise ValueError(f"mu={mu} must be finite and >= 0")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha={alpha} must be in (0, 1]")
        if not 0 <= eta <= 1:
            raise ValueError(f"eta={eta} must be in [0, 1]")
        return tuple.__new__(cls, (mu, alpha, eta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


RateTriple = namedtuple("RateTriple", ("r_hh", "r_hv", "r_hr"))
RateTriple.__doc__ = "Per-pulse coincidence probabilities for the three projection classes."


class PowerCalibration(namedtuple("PowerCalibration", ("pairs_per_power", "power_unit"))):
    """Linear conversion mu = pairs_per_power * excitation power."""

    __slots__ = ()

    def __new__(cls, pairs_per_power, power_unit="uW"):
        if not 0 < pairs_per_power < math.inf:
            raise ValueError("pairs_per_power must be positive and finite")
        return tuple.__new__(cls, (pairs_per_power, power_unit))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _rate(mu, w1, e1, gap):
    """R of the class with gap s, from e1 = expm1(-mu w1)."""
    return e1 * e1 - math.exp(-mu * (2 * w1 - gap)) * math.expm1(-mu * gap)


def rates_primed(p):
    """Poisson-averaged class probabilities including the window split eta.

    All three classes share w1 = (1 + eta)/2 (1 - c), with 1 - c = alpha/2,
    so e1 = expm1(-mu w1) is taken once; the crossed class, whose gap is 0,
    is e1**2. The gaps are eta alpha**2/2 (HH) and eta (1 - c)**2 (HR)."""
    mu, one_minus_c = p.mu, p.alpha / 2
    w1 = (1 + p.eta) / 2 * one_minus_c
    e1 = math.expm1(-mu * w1)
    return RateTriple(_rate(mu, w1, e1, p.eta * (p.alpha * p.alpha / 2)), e1 * e1,
                      _rate(mu, w1, e1, p.eta * (one_minus_c * one_minus_c)))


def effective_g(rates):
    """Werner mixing parameter implied by the linear-basis class rates.

    Uses the source symmetry R_VV = R_HH, R_VH = R_HV: the normalized
    crossed-class probability of a Werner state is g/4, so
    g = 2 R_HV / (R_HH + R_HV).
    """
    denom = rates.r_hh + rates.r_hv
    if not 0 < denom < math.inf:
        raise DegenerateInputError(f"R_HH + R_HV = {denom!r}: g is undefined")
    return float(min(1.0, max(0.0, 2 * rates.r_hv / denom)))


# Standard two-photon tomography settings, in fixed order.
CANONICAL_LABELS = (
    "HH", "HV", "VV", "VH",
    "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD",
    "VD", "VL", "HL", "RL",
)

# The projection class of each canonical setting, in CANONICAL_LABELS order.
SETTING_CLASSES = (
    "HH", "HV", "HH", "HV",
    "HR", "HR", "HR", "HR",
    "HR", "HH", "HR", "HR",
    "HR", "HR", "HR", "HH",
)


def setting_probabilities(rates):
    """The probability of each canonical setting per unit HH+HV+VH+VV rate, in
    CANONICAL_LABELS order: p = R_class / (2 (R_HH + R_HV)), by the source
    symmetry R_VV = R_HH, R_VH = R_HV. The HH and HV entries are those of the
    Werner state at effective_g(rates); the ten HR entries tend to the Werner
    value 1/4 as mu -> 0 and leave it with multi-pair emission."""
    denom = 2 * (rates.r_hh + rates.r_hv)
    if not 0 < denom < math.inf:
        raise DegenerateInputError(f"R_HH + R_HV = {denom / 2!r}: no setting probabilities")
    by_class = {"HH": rates.r_hh / denom, "HV": rates.r_hv / denom, "HR": rates.r_hr / denom}
    return [by_class[c] for c in SETTING_CLASSES]


# numpy's largest Poisson mean, 2**63 - 1 - 10 sqrt(2**63 - 1): its draw fits a C long
_POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _poisson(rng, lam):
    """One Poisson count of mean lam from the random.Random rng, as an int.

    Below 10, the multiplication method: the number of uniforms whose running
    product stays above exp(-lam). From 10 on, the transformed rejection method
    with squeeze PTRS (Hormann, Insurance: Math. Econ. 12, 39 (1993)), numpy's
    method there too. v is drawn from (0, 1], and the region us < 0.013, v > us,
    which numpy rejects after forming k, is rejected before, so log(v) and
    2a/us stay finite and every (u, v) is decided as numpy decides it. The
    acceptance exponent -lam + k log(lam) - log(k!) is a difference of terms
    near lam log(lam), so for lam >> 1e9 rounding (about eps lam log(lam))
    swamps it, as it does in numpy; the squeeze us >= 0.07, v <= vr, which
    decides most draws, does not use it. A mean above numpy's bound is a
    ValidationError.
    """
    if not lam <= _POISSON_MEAN_MAX:
        raise ValidationError(f"cannot sample a Poisson count of mean {lam!r}: "
                              f"the largest mean sampled is {_POISSON_MEAN_MAX!r}")
    if lam < 10:
        limit, k, prod = math.exp(-lam), 0, rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us < 0.013 and v > us:
            continue
        k = math.floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        if k >= 0 and (math.log(v) + log_invalpha - math.log(a / (us * us) + b)
                       <= -lam + k * loglam - math.lgamma(k + 1)):
            return k


def _poisson_counts(probs, scale, seed):
    """A Poisson count of mean scale * p for each p of probs, from random.Random(seed)."""
    rng = random.Random(seed)
    return [_poisson(rng, scale * p) for p in probs]


StateMetrics = namedtuple("StateMetrics", ("fidelity", "tangle", "linear_entropy", "purity",
                                           "werner_g", "min_eigenvalue"))
StateMetrics.__doc__ = "The scalar summary computed for every analyzed state."


def _check_mixing(g):
    if not 0 <= g <= 1:
        raise ValueError(f"mixing parameter g={g} outside [0, 1]")


def _werner_floats(g):
    """(fidelity, tangle, linear_entropy) of werner(g) for g in [0, 1]:
    1 - 3g/4, max(0, 1 - 3g/2)**2 (Wootters, PRL 80, 2245 (1998)) and g(2 - g)."""
    return 1 - 0.75 * g, max(0.0, 1 - 1.5 * g) ** 2, g * (2 - g)


def werner_metrics(g):
    """compute_metrics(werner(g)) in closed form: _werner_floats' fidelity,
    tangle and linear entropy, purity 1 - 3g(2 - g)/4 and smallest eigenvalue g/4."""
    _check_mixing(g)
    fidelity, tangle, mixedness = _werner_floats(g)
    return StateMetrics(fidelity, tangle, mixedness, 1 - 0.75 * mixedness, g, g / 4)


def g_vs_power_curve(cal, p_template, powers):
    """(power, g) pairs for mu = pairs_per_power * power along a power grid."""
    out = []
    for power in powers:
        if power <= 0:
            raise ValueError(f"power={power} must be positive")
        mu = cal.pairs_per_power * power
        rates = rates_primed(SourceParams(mu, p_template.alpha, p_template.eta))
        out.append((float(power), effective_g(rates)))
    return out


def background_g(signal_coeff, background_coeff, power):
    """Werner parameter contributed by power-independent background light.

    Both signal pairs and accidental background coincidences scale as
    power squared, so the ratio b*P^2 / (s*P^2 + b*P^2) cancels to
    b/(s+b): identical at every excitation power.
    """
    if signal_coeff < 0 or background_coeff < 0:
        raise ValueError("coefficients must be >= 0")
    if signal_coeff + background_coeff == 0:
        raise DegenerateInputError("signal and background coefficients both zero")
    if power <= 0:
        raise ValueError(f"power={power} must be positive")
    return background_coeff / (signal_coeff + background_coeff)
