"""Spanning sets of product vectors drawn from the zero set of the form.

Zeros of F(x, y) for tau_{n,k} come in two families: unimodular-phase x
paired with y = conj(x), and x supported off a cyclic window of k+1
positions paired with the basis vector at the window start.  Both families
live in the span of x (x) conj(x) over phase vectors, a subspace of
dimension n^2 - n + 1 whose orthogonal complement is the traceless
diagonal.  For k = n-1 the window family is empty but the zero set is far
larger: any x pairs with conj(x).  With this third, reduction family the
product vectors span all of C^n (x) C^n, which is the spanning property
the rank computation detects.

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

from .maps import DomainError, MapSpec, NumericalAnomalyError, TauMap, _check_int

ADMISSION_TOL = 1e-9
RANK_REL_TOL = 1e-8
SIGMA_FIX_TOL = 1e-9
_STREAM_UNIMODULAR = 1000001
_STREAM_DEGENERATE = 1000002
_STREAM_HARVEST = 1000003


@dataclass(frozen=True)
class ProductPair:
    """A pair (x, y) of unit vectors with its form value at admission."""

    x: np.ndarray
    y: np.ndarray
    value: float


@dataclass(frozen=True)
class SpanningSet:
    """Admitted pairs, the rank of their products' torus closure, and membership flags."""

    pairs: list
    gram_rank: int
    sigma_membership: list


def sigma_projector(n: int) -> np.ndarray:
    """Orthogonal projector onto the span of x (x) conj(x) over phase vectors.

    The complement is the (n-1)-dimensional traceless diagonal subspace,
    so the projector acts as the identity off the diagonal coordinates and
    averages over them.  build_spanning_set tests membership without
    forming this dense n^2 x n^2 matrix; it stays as the reference.
    """
    n = _check_int(n, "n")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    P = np.eye(n * n)
    diag_idx = np.arange(n) * (n + 1)
    P[np.ix_(diag_idx, diag_idx)] = 1.0 / n
    return P


def gram_rank(vectors) -> int:
    """Rank of the stacked vectors by singular values above RANK_REL_TOL * sigma_max."""
    A = np.asarray(vectors, dtype=np.complex128)
    if len(A) == 0:
        return 0
    sv = np.linalg.svd(A.reshape(len(A), -1), compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def _form_values(map_, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """F on each row pair (x, y) of X and Y, rows unit-normalized here.

    F = sum_ij |y_i|^2 C_ij |x_j|^2 - Re(z^T G conj(z)) with z = conj(x o y),
    the expansion of <y, map(conj(x) conj(x)^dag) y>, for all rows at once.
    """
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    Z = (X * Y).conj()
    diagonal = ((Y.real**2 + Y.imag**2) @ map_._C) * (X.real**2 + X.imag**2)
    schur = (Z @ map_._G) * Z.conj()
    return diagonal.sum(axis=1) - schur.real.sum(axis=1)


def _pairs(map_, X: np.ndarray, Y: np.ndarray) -> list:
    """One ProductPair per row pair of X and Y, valued in one batched pass."""
    values = _form_values(map_, X, Y).tolist()
    return [ProductPair(x=x, y=y, value=v) for x, y, v in zip(X, Y, values)]


def unimodular_pairs(spec: MapSpec, samples: int, seed: int = 0) -> list:
    """Random phase vectors x with y = conj(x), all exact zeros of the form."""
    samples = _check_int(samples, "samples")
    floor = spec.n * spec.n - spec.n + 1
    if samples < floor:
        raise DomainError(f"need at least {floor} samples for n={spec.n}, got {samples}")
    rng = np.random.default_rng([seed, _STREAM_UNIMODULAR])
    X = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (samples, spec.n))) / math.sqrt(spec.n)
    return _pairs(TauMap(spec), X, X.conj())


def degenerate_pairs(spec: MapSpec, seed: int = 0) -> list:
    """One zero pair per cyclic window: x off the window, y at its start.

    For offset j the window is positions j..j+k mod n; x carries random
    phases on the complement and y = e_j.  Empty for k = n-1, where no
    window leaves room for a support.
    """
    n, k = spec.n, spec.k
    if spec.is_reduction:
        return []
    rng = np.random.default_rng([seed, _STREAM_DEGENERATE])
    width = n - k - 1
    phases = rng.uniform(0.0, 2.0 * np.pi, (n, width))
    rows = np.arange(n)[:, None]
    X = np.zeros((n, n), dtype=np.complex128)
    X[rows, (rows + k + 1 + np.arange(width)) % n] = np.exp(1j * phases) / math.sqrt(width)
    return _pairs(TauMap(spec), X, np.eye(n, dtype=np.complex128))


def _harvest_zero_pairs(spec: MapSpec, count: int, seed: int) -> list:
    """The reduction family: count random unit x, each with y = conj(x).

    For k = n-1 every x pairs with conj(x) on the zero set, and the unequal
    moduli |x_i|^2 reach the traceless diagonal that the phase family
    misses.  Empty for k <= n-2, as degenerate_pairs is empty for k = n-1.
    The name and the positional (spec, count, seed) signature are the hook
    perfbench/spans.py times as spanning.harvest.
    """
    if not spec.is_reduction:
        return []
    rng = np.random.default_rng([seed, _STREAM_HARVEST])
    X = rng.standard_normal((count, spec.n)) + 1j * rng.standard_normal((count, spec.n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return _pairs(TauMap(spec), X, X.conj())


def build_spanning_set(spec: MapSpec, seed: int = 0, samples: int | None = None) -> SpanningSet:
    """Pool the three zero-pair families, check admission, and take the rank.

    samples defaults to 4 n^2 phase pairs; the reduction family takes 2n
    pairs, enough to reveal the spanning property (gram_rank == n^2) of the
    reduction map.  Every family is an exact zero set, so a pair whose form
    value exceeds ADMISSION_TOL is a numerical fault and raises
    NumericalAnomalyError rather than being dropped.

    The rank is that of the torus closure of the admitted pairs, a set of
    zero pairs because F(Dx, conj(D)y) = F(x, y) for diagonal unitaries D.
    Its span splits over the weight spaces of D (x) conj(D): off-diagonal
    coordinate (i, j) counts once when its column norm
    c_ij = sqrt(sum_m |x_mi|^2 |y_mj|^2) exceeds RANK_REL_TOL times the
    largest off-diagonal c_ij (one n x n product), and the shared diagonal
    weight adds gram_rank of the m x n diagonal products x_i y_i.
    Membership flags record whether sigma_projector fixes each admitted
    product vector x (x) y; it does exactly when those diagonal products
    are all equal, so the flag is an O(n) test too.
    """
    if spec.k < 1:
        raise DomainError("spanning analysis applies for k >= 1")
    seed = _check_int(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    n = spec.n
    if samples is None:
        samples = 4 * n * n
    pool = unimodular_pairs(spec, samples, seed)
    pool += degenerate_pairs(spec, seed)
    pool += _harvest_zero_pairs(spec, 2 * n, seed)
    for p in pool:
        if abs(p.value) > ADMISSION_TOL:
            raise NumericalAnomalyError(
                f"zero pair has form value {p.value!r}, above ADMISSION_TOL {ADMISSION_TOL!r}"
            )
    m = len(pool)
    X = np.array([p.x for p in pool]).reshape(m, n)
    Y = np.array([p.y for p in pool]).reshape(m, n)
    column = np.sqrt((X.real**2 + X.imag**2).T @ (Y.real**2 + Y.imag**2))
    off = column[~np.eye(n, dtype=bool)]
    diag = X * Y
    rank = int(np.sum(off > RANK_REL_TOL * off.max())) + gram_rank(diag)
    deviation = np.linalg.norm(diag - diag.mean(axis=1, keepdims=True), axis=1)
    return SpanningSet(pairs=pool, gram_rank=rank,
                       sigma_membership=(deviation <= SIGMA_FIX_TOL).tolist())
