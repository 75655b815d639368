"""Spanning sets of product vectors drawn from the zero set of the form.

Zeros of F(x, y) for tau_{n,k} come in two families: unimodular-phase x
paired with y = conj(x), and x supported off a cyclic window of k+1
positions paired with the basis vector at the window start.  Both families
live in the span of x (x) conj(x) over phase vectors, a subspace of
dimension n^2 - n + 1 whose orthogonal complement is the traceless
diagonal.  For k = n-1 the window family is empty but the zero set is far
larger: any x pairs with conj(x).  With this third, reduction family the
product vectors span all of C^n (x) C^n, which is the spanning property
the rank computation detects.  Each family is one (m, 2, n) array with x
at [:, 0] and y at [:, 1], and the pooled pairs stay one array through the
closed-form admission check, the rank and the membership flags.

The rank is read from the weight spaces of the torus action.  F is
invariant under (x, y) -> (D x, conj(D) y) for every diagonal unitary D,
so the torus closure of the admitted pairs is itself a set of zero pairs,
and the reported rank is the rank of its product vectors.  D (x) conj(D)
scales product coordinate (i, j) by d_i conj(d_j): each off-diagonal
coordinate is a weight space of its own and the n diagonal coordinates
share the trivial weight.  The span of a torus-invariant set is the direct
sum of its parts in the weight spaces, so the rank is the number of
off-diagonal coordinates on which some pair has x_i y_j != 0, plus the rank
of the m x n matrix of diagonal products x_i y_i.  No n^2-wide array is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import DomainError, MapSpec, NumericalAnomalyError, _check_int, shift_coupling

ADMISSION_TOL = 1e-9
RANK_REL_TOL = 1e-8
SIGMA_FIX_TOL = 1e-9
_STREAM_UNIMODULAR = 1000001
_STREAM_DEGENERATE = 1000002
_STREAM_HARVEST = 1000003


@dataclass(frozen=True)
class SpanningSet:
    """Admitted pairs, their form values, their products' torus-closure rank, membership flags.

    pairs is an (m, 2, n) array with x_i at [i, 0] and y_i at [i, 1];
    values and sigma_membership hold one entry per pair.
    """

    pairs: np.ndarray
    values: np.ndarray
    gram_rank: int
    sigma_membership: np.ndarray


def gram_rank(vectors) -> int:
    """Rank of the stacked vectors by singular values above RANK_REL_TOL * sigma_max."""
    A = np.asarray(vectors, dtype=np.complex128)
    if len(A) == 0:
        return 0
    sv = np.linalg.svd(A.reshape(len(A), -1), compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def unimodular_pairs(spec: MapSpec, samples: int, seed: int = 0) -> np.ndarray:
    """(samples, 2, n) random phase vectors x with y = conj(x), all exact zeros of the form."""
    samples = _check_int(samples, "samples")
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng([seed, _STREAM_UNIMODULAR])
    try:
        phases = rng.uniform(0.0, 2.0 * np.pi, (samples, spec.n))
    except ValueError as exc:  # a size NumPy cannot even describe
        raise DomainError(f"cannot draw {samples} phase vectors of length {spec.n}: {exc}") from exc
    X = np.exp(1j * phases) / math.sqrt(spec.n)
    return np.stack((X, X.conj()), axis=1)


def degenerate_pairs(spec: MapSpec, seed: int = 0) -> np.ndarray:
    """(n, 2, n) zero pairs, one per cyclic window: x off the window, y at its start.

    For offset j the window is positions j..j+k mod n; x carries random
    phases on the complement and y = e_j.  Empty, shape (0, 2, n), for
    k = n-1, where no window leaves room for a support.
    """
    n, k = spec.n, spec.k
    if spec.is_reduction:
        return np.empty((0, 2, n), dtype=np.complex128)
    rng = np.random.default_rng([seed, _STREAM_DEGENERATE])
    width = n - k - 1
    phases = rng.uniform(0.0, 2.0 * np.pi, (n, width))
    rows = np.arange(n)[:, None]
    X = np.zeros((n, n), dtype=np.complex128)
    X[rows, (rows + k + 1 + np.arange(width)) % n] = np.exp(1j * phases) / math.sqrt(width)
    return np.stack((X, np.eye(n, dtype=np.complex128)), axis=1)


def _harvest_zero_pairs(spec: MapSpec, count: int, seed: int) -> np.ndarray:
    """The reduction family: (count, 2, n) random unit x, each with y = conj(x).

    For k = n-1 every x pairs with conj(x) on the zero set, and the unequal
    moduli |x_i|^2 reach the traceless diagonal that the phase family
    misses.  Empty, shape (0, 2, n), for k <= n-2, as degenerate_pairs is
    empty for k = n-1.  The name and the positional (spec, count, seed)
    signature are the hook perfbench/spans.py times as spanning.harvest.
    """
    if not spec.is_reduction:
        return np.empty((0, 2, spec.n), dtype=np.complex128)
    rng = np.random.default_rng([seed, _STREAM_HARVEST])
    X = rng.standard_normal((count, spec.n)) + 1j * rng.standard_normal((count, spec.n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return np.stack((X, X.conj()), axis=1)


def build_spanning_set(spec: MapSpec, seed: int = 0, samples: int | None = None) -> SpanningSet:
    """Pool the three zero-pair families, check admission, and take the rank.

    samples defaults to 4 n^2 phase pairs; the reduction family takes 2n
    pairs, enough to reveal the spanning property (gram_rank == n^2) of the
    reduction map.  Every family is an exact zero set of unit pairs, so F
    is evaluated for all of them at once in closed form,
    F = |y|^2 . S |x|^2 - |sum_i x_i y_i|^2 with S = shift_coupling(spec),
    and a pair whose value exceeds ADMISSION_TOL is a numerical fault that
    raises NumericalAnomalyError rather than being dropped.

    The rank is that of the torus closure of the admitted pairs, a set of
    zero pairs because F(Dx, conj(D)y) = F(x, y) for diagonal unitaries D.
    Its span splits over the weight spaces of D (x) conj(D): off-diagonal
    coordinate (i, j) counts once when its column norm
    c_ij = sqrt(sum_m |x_mi|^2 |y_mj|^2) exceeds RANK_REL_TOL times the
    largest off-diagonal c_ij (one n x n product), and the shared diagonal
    weight adds gram_rank of the m x n diagonal products x_i y_i.
    Membership flags record whether the orthogonal projector onto the
    phase-product span fixes each admitted product vector x (x) y.  That
    projector is the identity off the diagonal coordinates and averages
    over them, so it fixes x (x) y exactly when the diagonal products are
    all equal, and the flag is an O(n) test.
    """
    if spec.k < 1:
        raise DomainError("spanning analysis applies for k >= 1")
    seed = _check_int(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    n = spec.n
    if samples is None:
        samples = 4 * n * n
    pairs = np.concatenate((
        unimodular_pairs(spec, samples, seed),
        degenerate_pairs(spec, seed),
        _harvest_zero_pairs(spec, 2 * n, seed),
    ))
    X, Y = pairs[:, 0], pairs[:, 1]
    px, py = X.real**2 + X.imag**2, Y.real**2 + Y.imag**2
    diag = X * Y
    trace = diag.sum(axis=1)
    values = ((py @ shift_coupling(spec)) * px).sum(axis=1) - (trace.real**2 + trace.imag**2)
    bad = np.flatnonzero(np.abs(values) > ADMISSION_TOL)
    if bad.size:
        raise NumericalAnomalyError(
            f"zero pair has form value {float(values[bad[0]])!r}, above ADMISSION_TOL {ADMISSION_TOL!r}"
        )
    column = np.sqrt(px.T @ py)
    off = column[~np.eye(n, dtype=bool)]
    rank = int(np.sum(off > RANK_REL_TOL * off.max())) + gram_rank(diag)
    deviation = np.linalg.norm(diag - diag.mean(axis=1, keepdims=True), axis=1)
    return SpanningSet(pairs=pairs, values=values, gram_rank=rank,
                       sigma_membership=deviation <= SIGMA_FIX_TOL)
