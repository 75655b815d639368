"""Property tests: invariants checked over drawn inputs rather than fixed samples."""

import numpy as np
import pytest

from posmap import HadamardPerturbation, MapSpec, TauMap, form_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def zero_sum_directions(rng, r, n):
    A = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return A - A.mean(axis=1, keepdims=True)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    n=st.integers(2, 8),
    r1=st.integers(1, 3),
    r2=st.integers(1, 3),
    exponents=st.lists(st.floats(-300, 300), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_positive_combination_stays_admissible(n, r1, r2, exponents, seed):
    """Joining two subtractions sums their matrices, keeps L 1 = 0, and leaves F on phase pairs alone."""
    rng = np.random.default_rng(seed)
    A1, A2 = zero_sum_directions(rng, r1, n), zero_sum_directions(rng, r2, n)
    w1, w2 = [10.0**u for u in exponents[:r1]], [10.0**u for u in exponents[3:3 + r2]]
    combined = HadamardPerturbation(np.vstack((A1, A2)), w1 + w2)
    L = combined.matrix
    scale = np.abs(L).max()
    parts = HadamardPerturbation(A1, w1).matrix + HadamardPerturbation(A2, w2).matrix
    assert np.abs(L - parts).max() <= 1e-12 * scale
    assert np.abs(L @ np.ones(n)).max() <= 1e-12 * scale
    spec = MapSpec(n, int(rng.integers(0, n)))
    x = np.exp(2j * np.pi * rng.random(n))
    plain = form_value(TauMap(spec), x, x.conj())
    corrected = form_value(TauMap(spec, combined), x, x.conj())
    assert abs(corrected - plain) <= 1e-12 * max(1.0, scale)
