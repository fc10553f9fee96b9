"""The stdlib Poisson sampler that biphoton simulate and
tomography.simulate_counts draw their counts with.

Its draws are tested against the exact Poisson pmf (a G-test, the pmf
through math.lgamma) and against numpy's Generator.poisson (a two-sample
test), at means on both sides of the switch from the multiplication method
to PTRS at 10 and up to 1e9. Every stream is seeded, so each p-value is
fixed; a wrong sampler gives p near 0."""

import bisect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import biphoton
from biphoton.errors import ValidationError
from biphoton.multipair import _POISSON_MEAN_MAX, _poisson

MEANS = [0.1, 5.0, 30.0, 1e4, 1e9]
P_MIN = 1e-3


def pmf_bins(lam, n, min_expected=20):
    """(edges, probabilities) of bins of consecutive counts, each expecting at
    least min_expected of n draws, over lam +- 7 sd; the mass left past the
    last full bin joins it. A draw below the first edge falls in the first bin,
    one past the last in the last."""
    sd = math.sqrt(lam)
    ks = range(max(0, math.floor(lam - 7 * sd - 5)), math.ceil(lam + 7 * sd + 5) + 1)
    log_lam = math.log(lam)
    edges, probs, acc = [ks[0]], [], 0.0
    for k in ks:
        acc += math.exp(-lam + k * log_lam - math.lgamma(k + 1))
        if acc * n >= min_expected:
            edges.append(k + 1)
            probs.append(acc)
            acc = 0.0
    edges.pop()
    probs[-1] += acc
    return edges, np.array(probs)


def histogram(draws, edges):
    counts = np.zeros(len(edges), dtype=int)
    for x in draws:
        counts[max(0, bisect.bisect_right(edges, x) - 1)] += 1
    return counts


@pytest.mark.parametrize("lam", MEANS)
def test_g_test_against_the_exact_pmf(lam):
    n = 200_000
    rng = random.Random(f"g-test,{lam!r}")
    draws = [_poisson(rng, lam) for _ in range(n)]
    assert all(type(x) is int and x >= 0 for x in draws)
    edges, probs = pmf_bins(lam, n)
    # at lam = 1e9 the log pmf's terms near 2e10 round by about 2e-6, alike for
    # every k in the bins, so the mass is normalized
    assert len(edges) >= 2 and abs(probs.sum() - 1) < 1e-5
    observed, expected = histogram(draws, edges), n * probs / probs.sum()
    seen = observed > 0
    g = 2 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    assert stats.chi2.sf(g, len(edges) - 1) > P_MIN


@pytest.mark.parametrize("lam", MEANS)
def test_two_sample_test_against_numpy(lam):
    n = 50_000
    rng = random.Random(f"two-sample,{lam!r}")
    ours = [_poisson(rng, lam) for _ in range(n)]
    theirs = np.random.default_rng(11).poisson(lam, n).tolist()
    edges, _ = pmf_bins(lam, n)
    table = np.array([histogram(ours, edges), histogram(theirs, edges)])
    table = table[:, table.sum(axis=0) > 0]
    _, p, _, _ = stats.chi2_contingency(table, lambda_="log-likelihood")
    assert p > P_MIN


def test_zero_mean_draws_zero():
    rng = random.Random(0)
    assert [_poisson(rng, 0.0) for _ in range(100)] == [0] * 100


def test_largest_mean_is_numpys():
    assert _POISSON_MEAN_MAX == 9.223372006484771e18
    rng = random.Random(0)
    k = _poisson(rng, _POISSON_MEAN_MAX)
    assert type(k) is int and abs(k - _POISSON_MEAN_MAX) < 10 * math.sqrt(_POISSON_MEAN_MAX)
    for lam in (math.nextafter(_POISSON_MEAN_MAX, math.inf), math.inf, math.nan):
        with pytest.raises(ValidationError, match="largest mean sampled"):
            _poisson(rng, lam)


def test_simulate_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # random.Random hashes a str seed with SHA-512, not with hash()
    (tmp_path / "run.cfg").write_text("seed=3\nsimulate.power_grid=1,10,100\n", encoding="utf-8")
    src = Path(biphoton.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-m", "biphoton.cli", "simulate", "--config", "run.cfg",
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, encoding="utf-8")
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]
