"""Property tests of the count-file format and the likelihood fit over
arbitrary count vectors."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tomography_oracles as to
from biphoton import states, tomography
from biphoton.errors import ValidationError


def count_vectors(elements):
    return st.lists(elements, min_size=16, max_size=16).map(lambda c: np.array(c, dtype=float))


@given(count_vectors(st.floats(min_value=0.0, max_value=1e15)))
def test_count_file_round_trips_exactly(tmp_path_factory, counts):
    assume(to.default_total_scale(counts) > 0)
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    tomography.write_counts(tomography.CountVector(counts), path)
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
))
def test_one_step_exactly_when_linear_estimate_is_interior(counts):
    # with the computational-basis sum as scale the linear estimate fits every
    # count, so the fit returns it after one pass if and only if it is kept as
    # the start, that is, unless lambda_min < 1e-9 has it shrunk toward I/4
    cv = tomography.CountVector(counts)
    assume(cv.total_scale > 0)
    _, steps = tomography.mle_reconstruct(cv)
    assert (steps == 1) == (np.linalg.eigvalsh(tomography.linear_reconstruct(cv))[0] >= 1e-9)
