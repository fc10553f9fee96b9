"""Property tests of the count-file format and the likelihood fit over
arbitrary count vectors."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tomography_oracles as to
from biphoton import pipeline, states, tomography
from biphoton.errors import BiphotonError, ValidationError


def count_vectors(elements):
    return st.lists(elements, min_size=16, max_size=16).map(lambda c: np.array(c, dtype=float))


@given(count_vectors(st.floats(min_value=0.0, max_value=1e15)))
def test_count_file_round_trips_exactly(tmp_path_factory, counts):
    assume(to.default_total_scale(counts) > 0)
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    pipeline.write_counts(counts, path)
    back = tomography.read_counts(path)
    assert np.array_equal(back.counts, counts)
    assert back.total_scale == to.default_total_scale(counts)


@given(st.one_of(
    count_vectors(st.floats(min_value=0.0, max_value=1e15)),
    count_vectors(st.integers(min_value=0, max_value=10**6)),
    count_vectors(st.floats(min_value=0.0, allow_infinity=False)),
))
def test_total_scale_is_the_computational_basis_sum(counts):
    # bit for bit the sum callers once passed in; a sum that overflows is a
    # ValidationError, with no RuntimeWarning
    with np.errstate(over="ignore"):
        expected = to.default_total_scale(counts)
    if expected == np.inf:
        with pytest.raises(ValidationError):
            tomography.CountVector(counts)
    else:
        assert tomography.CountVector(counts).total_scale == expected


def outcome(fn, *args):
    """(counts, repr of total_scale) of a successful call, or the exception's type and message."""
    try:
        counts, total_scale = fn(*args)
    except BiphotonError as exc:
        return type(exc), str(exc)
    return counts.tolist(), repr(total_scale)


def new_count_vector(counts):
    cv = tomography.CountVector(counts)
    return cv.counts, cv.total_scale


def new_read_counts(path):
    cv = tomography.read_counts(path)
    return cv.counts, cv.total_scale


GOOD_COUNTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
                       st.floats(min_value=0.0, allow_infinity=False))
BAD_COUNTS = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324])


@given(st.one_of(
    count_vectors(GOOD_COUNTS),
    count_vectors(st.one_of(GOOD_COUNTS, BAD_COUNTS, st.floats())),
    st.lists(GOOD_COUNTS, max_size=17),
))
def test_count_vector_checks_as_before(counts):
    # the same counts and total_scale, bit for bit, or the same error
    assert outcome(new_count_vector, counts) == outcome(to.count_vector_checks, counts)


GOOD_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "1e308", " 7 ", "5e-324"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
)
ANY_TEXT = st.one_of(GOOD_TEXT, st.sampled_from(["nan", "inf", "-1", "1e999", "x", ""]))
ROW = st.one_of(
    st.tuples(st.sampled_from(tomography.CANONICAL_LABELS), ANY_TEXT).map(",".join),
    st.tuples(st.sampled_from(["hh", " Rl ", "XX", ""]), ANY_TEXT).map(",".join),
    st.sampled_from(["", "# comment", "HH,1,2", "HH"]),
)


def any_order(count_text):
    """The 16 labels in any order, each with a count drawn from count_text."""
    return st.permutations(tomography.CANONICAL_LABELS).flatmap(lambda labels: st.tuples(
        *(count_text.map(lambda n, lab=lab: f"{lab},{n}") for lab in labels)))


@given(st.one_of(any_order(GOOD_TEXT), any_order(ANY_TEXT), st.lists(ROW, max_size=20)))
def test_read_counts_as_before(tmp_path_factory, rows):
    # rows in any order, with bad labels, counts and lines: the same counts
    # and total_scale, or the same error with the same line number
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert outcome(new_read_counts, path) == outcome(to.read_counts_per_label, path)


@settings(max_examples=50, deadline=None)
@given(count_vectors(st.integers(min_value=0, max_value=10**6)))
def test_mle_always_physical(counts):
    cv = tomography.CountVector(counts)
    scale = cv.total_scale
    assume(scale > 0)
    rho, _ = tomography.mle_reconstruct(cv)
    states.validate(rho)
    f = to.objective(rho, counts, scale)
    assert f <= to.objective(to.lbfgs_fit(cv)[0], counts, scale) + 1e-8 * max(1.0, f)


def werner_counts(g, scale):
    """Rounded expected counts of werner(g): interior linear estimates for most g."""
    return np.round(scale * tomography.expected_probabilities(states.werner(g)))


def simulated_counts(g, scale, seed):
    """Poisson counts of werner(g): boundary linear estimates at low g."""
    return tomography.simulate_counts(states.werner(g), scale, seed).counts


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    count_vectors(st.integers(min_value=0, max_value=10**6)),
    st.builds(werner_counts, st.floats(0.0, 1.0), st.floats(1e2, 1e6)),
    st.builds(simulated_counts, st.floats(0.0, 1.0), st.floats(1e2, 1e6),
              st.integers(min_value=0, max_value=2**32 - 1)),
), st.integers(min_value=-300, max_value=300))
def test_one_step_exactly_when_linear_estimate_is_interior(counts, k):
    # with the computational-basis sum as scale the linear estimate fits every
    # count, so the fit returns it after one pass if and only if it is kept as
    # the start, that is, unless lambda_min < 1e-9 has it shrunk toward I/4;
    # in any count unit 10^k
    counts = counts * 10.0**k
    assume(np.isfinite(counts).all())
    cv = tomography.CountVector(counts)
    assume(cv.total_scale > 0)
    _, steps = tomography.mle_reconstruct(cv)
    assert (steps == 1) == (np.linalg.eigvalsh(tomography.linear_reconstruct(cv))[0] >= 1e-9)
