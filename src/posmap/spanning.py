"""Spanning sets of product vectors drawn from the zero set of the form.

Zeros of F(x, y) for tau_{n,k} come in two families: unimodular-phase x
paired with y = conj(x), and the window pairs, y = e_j with x zero on the
support {j, ..., j + k} of row j of coupling_matrix(spec.coupling).  Both
families live in the span of x (x) conj(x) over phase vectors, a subspace of
dimension n^2 - n + 1 whose orthogonal complement is the traceless
diagonal.  For k = n-1 the window family is empty but the zero set is far
larger: any x pairs with conj(x).  With this third, reduction family the
product vectors span all of C^n (x) C^n, which is the spanning property
the rank computation detects.  Each family is one (m, 2, n) array with x
at [:, 0] and y at [:, 1], and the pooled pairs stay one array through the
closed-form admission check, the rank and the membership flags.  Every
family is built in closed form: F, the rank and the flags see moduli only,
so no phase or other random draw is made.

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
from typing import NamedTuple

import numpy as np

from .maps import DomainError, MapSpec, NumericalAnomalyError, _abs2, _numbers, _window_pairs, coupling_matrix

ADMISSION_TOL = 1e-9
RANK_REL_TOL = 1e-8
SIGMA_FIX_TOL = 1e-9


class SpanningSet(NamedTuple):
    """Admitted pairs, their form values, their products' torus-closure rank, membership flags.

    pairs is an (m, 2, n) array with x_i at [i, 0] and y_i at [i, 1];
    values and sigma_membership hold one entry per pair.
    """

    pairs: np.ndarray
    values: np.ndarray
    gram_rank: int
    sigma_membership: np.ndarray


def gram_rank(vectors) -> int:
    """Rank of the stacked vectors by singular values above RANK_REL_TOL * sigma_max.

    An entry that is a str, None, NaN or infinite raises DomainError, before the SVD.
    """
    A = _numbers(vectors, "vector entry").astype(np.complex128, copy=False)
    if A.size == 0:
        return 0
    if not np.isfinite(A).all():
        raise DomainError("vectors have non-finite entries")
    sv = np.linalg.svd(A.reshape(len(A), -1), compute_uv=False)
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def unimodular_pairs(spec: MapSpec) -> np.ndarray:
    """(1, 2, n) phase pair: the all-ones unit x with y = conj(x), an exact zero of the form.

    The torus closure of any unimodular x is the whole phase family, so this
    one row, the row degenerate_pairs zeroes on each window, stands for it.
    """
    return np.full((1, 2, spec.n), 1.0 / math.sqrt(spec.n), dtype=np.complex128)


def degenerate_pairs(spec: MapSpec) -> np.ndarray:
    """(n, 2, n) window zero pairs: the all-ones x zeroed on the window of j, and y = e_j.

    Empty, shape (0, 2, n), for k = n-1, where no window leaves room for a support.
    """
    if spec.is_reduction:
        return np.empty((0, 2, spec.n), dtype=np.complex128)
    C = coupling_matrix(spec.coupling)
    return np.stack(_window_pairs(C, np.ones_like(C, dtype=np.complex128), np.arange(spec.n)), axis=1)


def _harvest_zero_pairs(spec: MapSpec, count: int) -> np.ndarray:
    """The reduction family: (count, 2, n) unit x = sqrt(1 + e_{m mod n}) / sqrt(n + 1), y = conj(x).

    For k = n-1 every x pairs with conj(x) on the zero set, and the unequal
    moduli |x_i|^2 reach the traceless diagonal that the phase family
    misses: n consecutive rows have |x|^2 matrix (J + I) / (n + 1), of rank
    n with smallest-to-largest singular value ratio 1 / (n + 1).  Empty,
    shape (0, 2, n), for k <= n-2, as degenerate_pairs is empty for k = n-1.
    The name and the positional (spec, count) signature are the hook
    perfbench/spans.py times as spanning.harvest.
    """
    n = spec.n
    if not spec.is_reduction:
        return np.empty((0, 2, n), dtype=np.complex128)
    X = np.ones((count, n))
    X[np.arange(count), np.arange(count) % n] = math.sqrt(2.0)
    X /= math.sqrt(n + 1)
    return np.stack((X, X), axis=1, dtype=np.complex128)


def build_spanning_set(spec: MapSpec) -> SpanningSet:
    """Pool the three zero-pair families, check admission, and take the rank.

    The pool holds the one phase pair, the n window pairs and the
    reduction family's 2n pairs, enough to reveal the spanning property
    (gram_rank == n^2) of the reduction map; nothing is drawn at random.
    Every family is an exact zero set of unit pairs, so F is evaluated for
    all of them at once in closed form, F = |y|^2 . S |x|^2 - |sum_i x_i y_i|^2
    with S = coupling_matrix(spec.coupling).  A pair with a non-finite entry,
    or whose F is not within ADMISSION_TOL of zero, is a numerical fault that
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
    n = spec.n
    families = (unimodular_pairs(spec), degenerate_pairs(spec), _harvest_zero_pairs(spec, 2 * n))
    pairs = np.concatenate(families)
    if not np.isfinite(pairs).all():
        raise NumericalAnomalyError("a zero pair has a non-finite entry")
    X, Y = pairs[:, 0], pairs[:, 1]
    px, py = _abs2(X), _abs2(Y)
    diag = X * Y
    values = ((py @ coupling_matrix(spec.coupling)) * px).sum(axis=1) - _abs2(diag.sum(axis=1))
    bad = np.flatnonzero(~(np.abs(values) <= ADMISSION_TOL))
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
