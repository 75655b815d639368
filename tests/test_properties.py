"""Property tests: invariants checked over drawn inputs rather than fixed samples."""

import json
import math
import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from posmap import HadamardPerturbation, MapSpec, NumericalAnomalyError, TauMap, form_value, require_hermitian
from posmap.cli import dumps_report, pairs, render_text
from posmap.positivity import _halfstep, _seesaw_batch

EPS = np.finfo(float).eps


def gaussian(rng, shape, real=False):
    """Standard normal draws, complex ones unless real."""
    g = rng.standard_normal(shape)
    return g if real else g + 1j * rng.standard_normal(shape)


def zero_sum_directions(rng, r, n, real=False):
    A = gaussian(rng, (r, n), real)
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
    plain = form_value(TauMap(spec.coupling), x, x.conj())
    corrected = form_value(TauMap(spec.coupling, combined), x, x.conj())
    assert abs(corrected - plain) <= 1e-12 * max(1.0, scale)


def drawn_map(n, seed, direction, u, v=0.0):
    """(map, rng): a map on a random nonnegative coupling row, some entries zero, and its rng.

    The row is scaled by 10^v.  The map subtracts nothing, or one zero-sum
    real or complex direction of weight 10^u.  The test draws its vectors
    from rng.
    """
    rng = np.random.default_rng(seed)
    c = 10.0**v * rng.random(n) * (rng.random(n) < 0.7)
    pert = None
    if direction is not None:
        pert = HadamardPerturbation(zero_sum_directions(rng, 1, n, direction == "real"), [10.0**u])
    return TauMap(c, pert), rng


def maps_up_to(n_max, scaled=False):
    """drawn_map over 2 <= n <= n_max, every seed, direction kind and weight exponent in [-300, 300].

    A scaled map also draws its row's scale exponent v in [-300, 300].
    """
    return st.builds(
        drawn_map,
        n=st.integers(2, n_max),
        seed=st.integers(0, 2**32 - 1),
        direction=st.sampled_from((None, "real", "complex")),
        u=st.floats(-300, 300),
        v=st.floats(-300, 300) if scaled else st.just(0.0),
    )


# n runs across _SECULAR_MIN_N = 16, so both half-step solvers are drawn.
coupled_maps = maps_up_to(24)
scaled_maps = maps_up_to(24, scaled=True)


def sigma(map_):
    """The half-step matrices' 2-norm bound at unit vectors: max c plus max_i G_ii, G_ii = |B_i|^2."""
    return map_._C[0].max() + (np.abs(map_.factor) ** 2).sum(axis=1).max()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=maps_up_to(8))
def test_choi_blocks_are_the_images_of_matrix_units(drawn):
    """Block (i, j) of choi() is apply(E_ij) exactly, and choi() is Hermitian within HERMITIAN_RTOL."""
    map_, _ = drawn
    n = map_.n
    C = map_.choi()
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            assert np.array_equal(C[i * n:(i + 1) * n, j * n:(j + 1) * n], map_.apply(E))
    require_hermitian(C)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=coupled_maps, side=st.sampled_from(("y", "x")))
def test_halfstep_is_the_smallest_eigenpair(drawn, side):
    """_halfstep matches eigvalsh, with a unit eigenvector, to 8 n eps of the scale max(d, |U_i|^2).

    The matrices are see-saw matrices of drawn maps on both sides of
    _SECULAR_MIN_N.  The secular solve accepts a residual of n eps of the
    matrix scaled by a power of two to max(d, |U_i|^2) in [1/4, 1), so up
    to 4 n eps of the scale, and eigh's own residual reaches 4.2 n eps of
    it at n = 3 and 4: 8 n eps leaves both a factor of two.
    """
    map_, rng = drawn
    n = map_.n
    dense, factors = ((map_.on_projector, map_.on_projector_factors) if side == "y"
                      else (map_.quadratic_form, map_.quadratic_form_factors))
    v, z0 = gaussian(rng, (2, 4, n), np.isrealobj(map_.factor))
    lam, z = _halfstep(dense, factors, v, z0)
    d, U = factors(v)
    scale = np.maximum(d.max(axis=1), (np.abs(U) ** 2).sum(axis=2).max(axis=1))
    # Divided by a power of two p >= scale, exactly, so the checks cannot overflow.
    p = np.ldexp(1.0, np.frexp(scale)[1])
    A, lam, tol = dense(v) / p[:, None, None], lam / p, 8 * n * EPS * scale / p
    assert np.all(np.abs(lam - np.linalg.eigvalsh(A)[:, 0]) <= tol)
    assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) <= 2 * n * EPS)
    resid = np.linalg.norm((A @ z[..., None])[..., 0] - lam[:, None] * z, axis=1)
    assert np.all(resid <= tol)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=scaled_maps)
def test_halfstep_matrices_are_bounded_by_sigma(drawn):
    """At unit vectors every on_projector and quadratic_form matrix has 2-norm at most sigma (1 + 4 n eps).

    Diag(C |x|^2) has norm at most max c, and G o (conj(x) x^T) is PSD with
    norm at most max_i G_ii (Schur): the premise of the see-saw's slack.
    """
    map_, rng = drawn
    n, bound = map_.n, sigma(map_)
    x = gaussian(rng, (4, n), np.isrealobj(map_.factor))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    # Divided by a power of two p >= bound, exactly, so the norms cannot overflow.
    p = np.ldexp(1.0, np.frexp(bound)[1])
    for A in (map_.on_projector(x), map_.quadratic_form(x)):
        assert np.all(np.linalg.norm(A / p, 2, axis=(1, 2)) <= bound / p * (1 + 4 * n * EPS))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(drawn=scaled_maps, sweeps=st.integers(1, 6))
def test_capped_seesaw_stays_finite(drawn, sweeps):
    """A few sweeps from drawn starts raise no monotonicity anomaly and give finite values and vectors."""
    map_, rng = drawn
    X0 = rng.random((4, map_.n))
    values, X, Y, swept, _ = _seesaw_batch(map_, X0, sweeps)
    assert np.isfinite(values).all() and np.isfinite(X).all() and np.isfinite(Y).all()
    assert np.all((1 <= swept) & (swept <= sweeps))


def form_scale(map_):
    """An upper bound on |F| over unit pairs: the largest coupling row sum plus max|G|."""
    d, U = map_.on_projector_factors(np.ones(map_.n))
    return d.max() + (np.abs(U) ** 2).sum(axis=1).max()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=coupled_maps)
def test_form_is_torus_invariant(drawn):
    """F(D x, conj(D) y) = F(x, y) for a random diagonal unitary D, to 1e-12 of the form's scale."""
    map_, rng = drawn
    x, y = gaussian(rng, (2, map_.n))
    D = np.exp(2j * np.pi * rng.random(map_.n))
    assert abs(form_value(map_, D * x, D.conj() * y) - form_value(map_, x, y)) <= 1e-12 * form_scale(map_)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(drawn=coupled_maps, ux=st.floats(-300, 300), uy=st.floats(-300, 300))
# Norms near 1e-160, whose squares are subnormal: the unit vectors lost up to 1e-4 of their norm.
@hypothesis.example(drawn=drawn_map(2, 0, None, 0.0), ux=-158.0, uy=-160.0)
def test_form_is_scale_invariant(drawn, ux, uy):
    """F(10^ux x, 10^uy y) = F(x, y) over the whole float range, to 1e-12 of the form's scale."""
    map_, rng = drawn
    x, y = gaussian(rng, (2, map_.n))
    scaled = form_value(map_, 10.0**ux * x, 10.0**uy * y)
    assert abs(scaled - form_value(map_, x, y)) <= 1e-12 * form_scale(map_)


# A small pool, so that magnitudes repeat with both signs, with both zeros and the extremes of float64.
_REPORT_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  0.1, -0.1, 1.0, -1.0, 0.30000000000000004, -2.5e-9, 123456.789)
_REPORT_SHAPES = st.sampled_from(((), (0,), (0, 3))) | st.tuples(st.integers(1, 6)) | st.tuples(
    st.integers(1, 4), st.integers(1, 4))


@st.composite
def complex_arrays(draw):
    shape = draw(_REPORT_SHAPES)
    size = 2 * math.prod(shape)
    parts = draw(st.lists(st.sampled_from(_REPORT_FLOATS), min_size=size, max_size=size))
    return np.array(parts).view(np.complex128).reshape(shape)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(a=complex_arrays())
def test_report_arrays_are_written_as_their_lists(a):
    """A pairs() array is written byte for byte as json.dumps writes its nested lists, in json and text."""
    expected = json.dumps(pairs(a).tolist())
    assert dumps_report({"m": pairs(a)}) == json.dumps({"m": pairs(a).tolist()}, sort_keys=True)
    assert render_text({"r": {"m": pairs(a)}}) == f"r.m: {expected}"


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(a=complex_arrays().filter(lambda a: a.size > 0), data=st.data())
def test_non_finite_report_arrays_are_an_anomaly(a, data):
    """An inf or nan entry anywhere in an array raises the standard encoder's message, in json and text."""
    parts = pairs(a)
    flat = parts.reshape(-1)
    flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.sampled_from((np.inf, -np.inf, np.nan)))
    message = "non-finite value in report: Out of range float values are not JSON compliant"
    with pytest.raises(NumericalAnomalyError, match=re.escape(message)):
        dumps_report({"m": parts})
    with pytest.raises(NumericalAnomalyError, match=re.escape(message)):
        render_text({"m": parts})
