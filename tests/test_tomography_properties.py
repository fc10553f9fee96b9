"""Property tests of the count-file format and the likelihood fit over
arbitrary count vectors."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton import states, tomography


def count_vectors(elements):
    return st.lists(elements, min_size=16, max_size=16).map(lambda c: np.array(c, dtype=float))


@given(count_vectors(st.floats(min_value=0.0, max_value=1e15)))
def test_count_file_round_trips_exactly(tmp_path_factory, counts):
    assume(tomography.default_total_scale(counts) > 0)
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    tomography.write_counts(tomography.CountVector(counts, 1.0), path)
    back = tomography.read_counts(path)
    assert np.array_equal(back.counts, counts)
    assert back.total_scale == tomography.default_total_scale(counts)


@settings(max_examples=50, deadline=None)
@given(count_vectors(st.integers(min_value=0, max_value=10**6)))
def test_mle_always_physical(counts):
    scale = tomography.default_total_scale(counts)
    assume(scale > 0)
    rho = tomography.mle_reconstruct(tomography.CountVector(counts, scale))
    assert states.validate(rho).ok
