"""Spanning sets of product vectors drawn from the zero set of the form.

Zeros of F(x, y) for tau_{n,k} come in two families: unimodular-phase x
paired with y = conj(x), and x supported off a cyclic window of k+1
positions paired with the basis vector at the window start.  Both families
live in the span of x (x) conj(x) over phase vectors, a subspace of
dimension n^2 - n + 1 whose orthogonal complement is the traceless
diagonal.  For k = n-1 the zero set is far larger (any x pairs with
conj(x)) and the product vectors span all of C^n (x) C^n, which is the
spanning property the rank computation detects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import DomainError, MapSpec, TauMap, _check_int
from .positivity import _seesaw_single, form_value

ADMISSION_TOL = 1e-9
RANK_REL_TOL = 1e-8
SIGMA_FIX_TOL = 1e-9
_STREAM_UNIMODULAR = 1000001
_STREAM_DEGENERATE = 1000002
_STREAM_HARVEST = 1000003
_HARVEST_SWEEPS = 200
_HARVEST_IMPROVE_TOL = 1e-13


@dataclass(frozen=True)
class ProductPair:
    """A pair (x, y) of unit vectors with its form value at admission."""

    x: np.ndarray
    y: np.ndarray
    value: float


@dataclass(frozen=True)
class SpanningSet:
    """Admitted pairs, the rank of their stacked products, and membership flags."""

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


def unimodular_pairs(spec: MapSpec, samples: int, seed: int = 0) -> list:
    """Random phase vectors x with y = conj(x), all exact zeros of the form."""
    samples = _check_int(samples, "samples")
    floor = spec.n * spec.n - spec.n + 1
    if samples < floor:
        raise DomainError(f"need at least {floor} samples for n={spec.n}, got {samples}")
    rng = np.random.default_rng([seed, _STREAM_UNIMODULAR])
    tau = TauMap(spec)
    root = math.sqrt(spec.n)
    pairs = []
    for _ in range(samples):
        x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spec.n)) / root
        y = x.conj()
        pairs.append(ProductPair(x=x, y=y, value=form_value(tau, x, y)))
    return pairs


def degenerate_pairs(spec: MapSpec, seed: int = 0) -> list:
    """One zero pair per cyclic window: x off the window, y at its start.

    For offset j the window is positions j..j+k mod n; x carries random
    phases on the complement and y = e_j.  Empty for k = n-1, where no
    window leaves room for a support.
    """
    n, k = spec.n, spec.k
    if k == n - 1:
        return []
    rng = np.random.default_rng([seed, _STREAM_DEGENERATE])
    tau = TauMap(spec)
    width = n - k - 1
    pairs = []
    for j in range(n):
        support = (j + k + 1 + np.arange(width)) % n
        x = np.zeros(n, dtype=np.complex128)
        x[support] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, width)) / math.sqrt(width)
        y = np.zeros(n, dtype=np.complex128)
        y[j] = 1.0
        pairs.append(ProductPair(x=x, y=y, value=form_value(tau, x, y)))
    return pairs


def _polish_witness(spec: MapSpec, x: np.ndarray):
    """Snap a converged see-saw witness onto the exact zero family it approximates.

    Returns None when x matches neither family to working precision; raw
    near-zeros are rejected rather than admitted, since a pair off the
    zero set by sqrt(convergence tolerance) would pollute the rank.
    """
    n, k = spec.n, spec.k
    if k == n - 1:
        return x / np.linalg.norm(x)
    mags = np.abs(x)
    peak = mags.max()
    if peak == 0.0:
        return None
    if mags.min() >= 0.5 * peak:
        return (x / mags) / math.sqrt(n)
    weight = mags**2
    window = np.array([weight[(j + np.arange(k + 1)) % n].sum() for j in range(n)])
    j = int(np.argmin(window))
    if window[j] > 1e-12 * weight.sum():
        return None
    z = np.where(mags > 1e-8 * peak, x, 0.0)
    inside = (j + np.arange(k + 1)) % n
    z[inside] = 0.0
    mz = np.abs(z)
    live = mz > 0
    if not np.any(live):
        return None
    z[live] = z[live] / mz[live]
    return z / np.linalg.norm(z)


def _harvest_zero_pairs(spec: MapSpec, count: int, seed: int) -> list:
    """Zero-value witnesses from independent see-saw runs, polished and re-checked."""
    tau = TauMap(spec)
    pairs = []
    for idx in range(count):
        rng = np.random.default_rng([seed, _STREAM_HARVEST, idx])
        x0 = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
        _, x, _, _ = _seesaw_single(tau, x0, _HARVEST_SWEEPS, _HARVEST_IMPROVE_TOL)
        z = _polish_witness(spec, x)
        if z is None:
            continue
        evals, evecs = np.linalg.eigh(tau.on_projector(z))
        y = evecs[:, 0]
        value = form_value(tau, z, y)
        if abs(value) <= 1e-12:
            pairs.append(ProductPair(x=z, y=y, value=value))
    return pairs


def build_spanning_set(spec: MapSpec, seed: int = 0, samples: int | None = None) -> SpanningSet:
    """Pool the zero-pair enumerations, re-check admission, and take the rank.

    samples defaults to 4 n^2 phase pairs; the see-saw harvest takes 2n
    witnesses, enough to reveal the spanning property (gram_rank == n^2) of
    the reduction map while staying cheap.  Membership flags record whether
    sigma_projector fixes each admitted product vector x (x) y; it does
    exactly when the diagonal coordinates x_i y_i are all equal, so the
    flag is an O(n) test on those n products.
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
    admitted = [p for p in pool if abs(p.value) <= ADMISSION_TOL]
    m = len(admitted)
    X = np.array([p.x for p in admitted]).reshape(m, n)
    Y = np.array([p.y for p in admitted]).reshape(m, n)
    products = (X[:, :, None] * Y[:, None, :]).reshape(m, n * n)
    diag = X * Y
    deviation = np.linalg.norm(diag - diag.mean(axis=1, keepdims=True), axis=1)
    return SpanningSet(pairs=admitted, gram_rank=gram_rank(products),
                       sigma_membership=(deviation <= SIGMA_FIX_TOL).tolist())
