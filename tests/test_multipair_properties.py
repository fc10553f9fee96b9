"""Property tests of the closed-form multi-pair rates over the whole
parameter domain: alpha in (0, 1], eta in [0, 1], finite mu up to 1e300."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton.multipair as mp
import multipair_oracles as mo
from biphoton.errors import DegenerateInputError
from biphoton.multipair import SourceParams

alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
etas = st.floats(min_value=0.0, max_value=1.0)


def params(max_mu):
    return st.builds(
        SourceParams, mu=st.floats(min_value=0.0, max_value=max_mu), alpha=alphas, eta=etas
    )


@given(params(1e300))
def test_rates_are_probabilities_ordered_by_class(p):
    # every rate is a sum of non-negative terms, so none rounds below 0,
    # even where mu*alpha is far below the rounding unit
    r = mp.rates_primed(p)
    assert max(r.r_hh, r.r_hv, r.r_hr) <= 1
    assert r.r_hh >= r.r_hv
    assert min(r.r_hh, r.r_hv, r.r_hr) >= 0


@given(params(1e300))
def test_effective_g_in_unit_interval(p):
    r = mp.rates_primed(p)
    try:
        g = mp.effective_g(r)
    except DegenerateInputError:
        assert r.r_hh == 0 and r.r_hv == 0
    else:
        assert 0 <= g <= 1


@given(params(2.0))
def test_closed_form_matches_poisson_series(p):
    r = mp.rates_primed(p)
    for got, cls in zip((r.r_hh, r.r_hv, r.r_hr), mp.CLASSES):
        per_x = [mo.class_prob_primed(x, p.alpha, p.eta, cls) for x in range(61)]
        assert got == pytest.approx(mo.poisson_series(p.mu, per_x), rel=0, abs=1e-13)


@given(params(50.0))
def test_closed_form_matches_its_expm1_form(p):
    # the rate as first written, where its exp(mu s) factor cannot overflow
    r = mp.rates_primed(p)
    for got, want in zip((r.r_hh, r.r_hv, r.r_hr), mo.expm1_rates(p)):
        assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


@given(params(1e300))
def test_rates_bit_for_bit_the_per_class_form(p):
    # expm1(-mu w1) taken once and the crossed rate as e1**2 change no bit
    r = mp.rates_primed(p)
    assert list(map(repr, (r.r_hh, r.r_hv, r.r_hr))) == list(map(repr, mo.rates_per_class(p)))
