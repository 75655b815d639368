"""Positivity of the shift family: a numerical see-saw and the analytic criteria.

The central quantity is the bilinear form

    F(x, y) = <y, map(conj(x) conj(x)^dag) y>

over unit vectors.  The map is positive exactly when F is nonnegative
everywhere, so the see-saw alternately minimizes F in y (smallest
eigenvector of the map evaluated on the projector) and in x (smallest
eigenvector of the Hermitian quadratic-form matrix Q(y)).  Each half step
is an exact minimization, so the objective never increases; a negative
limit is a certificate, a nonnegative one only evidence.

For diagonal input X = diag(X_1, ..., X_n) the map's positivity reduces to
scalar data: the profile D = S X with S the shift coupling, the ratio sum
f(X) = sum_i X_i / D_i whose maximum over positive profiles is 1, and a
product-form determinant that never divides and so survives D_i = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import (
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    _check_int,
    alternating_vector,
    shift_coupling,
)

DEFAULT_STARTS = 64
NEGATIVITY_TOL = 1e-9
MAX_SWEEPS = 500
SWEEP_IMPROVEMENT_TOL = 1e-12
_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a multistart see-saw minimization of the form F."""

    verdict: str
    min_value: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    starts_used: int
    iterations: int
    seed: int


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    """v / |v|, first scaled by max|v| when |v| overflows or underflows."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not 0.0 < nrm < np.inf:
        peak = np.abs(v).max()
        if peak == 0.0:
            raise DomainError(f"{name} must be nonzero")
        v = v / peak
        nrm = np.linalg.norm(v)
    return v / nrm


def form_value(map_, x, y) -> float:
    """F(x, y) for unit-normalized x and y (normalization applied here)."""
    xv = np.asarray(x, dtype=np.complex128).reshape(-1)
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if xv.shape[0] != map_.n or yv.shape[0] != map_.n:
        raise DimensionMismatchError(
            f"vectors of length {xv.shape[0]}, {yv.shape[0]} against a map on dimension {map_.n}"
        )
    xv = _unit(xv, "x")
    yv = _unit(yv, "y")
    return float(np.real(np.vdot(yv, map_.on_projector(xv) @ yv)))


def _seesaw_single(map_, x0: np.ndarray, max_sweeps: int, improve_tol: float):
    """Run the alternation from one start; returns (value, x, y, sweeps)."""
    x = _unit(x0, "x0")
    value = np.inf
    y = None
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        evals, evecs = np.linalg.eigh(map_.on_projector(x))
        half = float(evals[0])
        y = evecs[:, 0]
        if half > value + _MONOTONE_SLACK:
            raise NumericalAnomalyError(
                f"see-saw objective increased on the y step ({value:.3e} -> {half:.3e})"
            )
        evals, evecs = np.linalg.eigh(map_.quadratic_form(y))
        new = float(evals[0])
        x = evecs[:, 0]
        if new > half + _MONOTONE_SLACK:
            raise NumericalAnomalyError(
                f"see-saw objective increased on the x step ({half:.3e} -> {new:.3e})"
            )
        sweeps = sweep
        improved = value - new
        value = new
        if improved < improve_tol:
            break
    return value, x, y, sweeps


def seesaw_minimize(map_, starts: int = DEFAULT_STARTS, seed: int = 0,
                    tol: float = NEGATIVITY_TOL) -> PositivityReport:
    """Multistart see-saw minimization of F over unit vector pairs.

    Starts are independent, each with its own RNG stream derived from
    (seed, start index), so the result does not depend on evaluation
    order; ties between starts resolve to the lowest index.  A verdict of
    negative-certificate means the reported witness pair reproduces
    min_value < -tol on re-evaluation; positive-evidence only records the
    smallest value found and proves nothing.
    """
    starts = _check_int(starts, "starts")
    seed = _check_int(seed, "seed")
    if starts < 1:
        raise DomainError(f"starts must be positive, got {starts}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    n = map_.n
    best = None
    total_best_sweeps = 0
    for idx in range(starts):
        rng = np.random.default_rng([seed, idx])
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        value, x, y, sweeps = _seesaw_single(map_, x0, MAX_SWEEPS, SWEEP_IMPROVEMENT_TOL)
        if best is None or value < best[0]:
            best = (value, x, y)
            total_best_sweeps = sweeps
    _, wx, wy = best
    min_value = form_value(map_, wx, wy)
    verdict = "negative-certificate" if min_value < -tol else "positive-evidence"
    return PositivityReport(
        verdict=verdict,
        min_value=min_value,
        witness_x=wx,
        witness_y=wy,
        starts_used=starts,
        iterations=total_best_sweeps,
        seed=seed,
    )


@dataclass(frozen=True)
class DiagonalProfile:
    """A nonnegative diagonal X_vec together with its profile D_vec = S X_vec."""

    X_vec: np.ndarray
    D_vec: np.ndarray

    @classmethod
    def from_x(cls, spec: MapSpec, X_vec) -> "DiagonalProfile":
        X = np.asarray(X_vec, dtype=float).reshape(-1)
        if X.shape[0] != spec.n:
            raise DimensionMismatchError(f"profile length {X.shape[0]} against n={spec.n}")
        if np.any(X < 0):
            raise DomainError("diagonal entries must be nonnegative")
        return cls(X_vec=X, D_vec=shift_coupling(spec) @ X)


def _leave_one_out(D: np.ndarray):
    """(prod_i D_i, array of prod_{i != j} D_i), computed without division."""
    one = np.ones(1)
    pre = np.concatenate((one, np.cumprod(D)))
    suf = np.concatenate((np.cumprod(D[::-1])[::-1], one))
    return pre[-1], pre[:-1] * suf[1:]


def f_value(spec: MapSpec, X_vec) -> float:
    """Ratio sum f(X) = sum_i X_i / D_i, defined only when every D_i > 0.

    Evaluated as a single quotient of leave-one-out products after scaling
    X by its largest entry (f is scale invariant), which keeps f(1) = 1
    exact and avoids overflow for extreme profiles.
    """
    profile = DiagonalProfile.from_x(spec, X_vec)
    peak = profile.X_vec.max()
    if peak <= 0:
        raise DomainError("profile is identically zero")
    X = profile.X_vec / peak
    D = shift_coupling(spec) @ X
    if np.any(D <= 0):
        raise DomainError("f is undefined when some D_i vanishes")
    total, loo = _leave_one_out(D)
    return float(np.dot(X, loo) / total)


def analytic_det(spec: MapSpec, X_vec) -> float:
    """det of Diag(D) - x x^T for x = sqrt(X), as products only.

    Returns prod_i D_i - sum_j X_j prod_{i != j} D_i, with no division, so
    degenerate profiles (some D_i = 0) evaluate exactly.
    """
    profile = DiagonalProfile.from_x(spec, X_vec)
    total, loo = _leave_one_out(profile.D_vec)
    return float(total - np.dot(profile.X_vec, loo))


def hessian_shat(spec: MapSpec):
    """Coupling data (S, s_prime, S_hat) for the curvature of f at the uniform profile.

    s_prime = n is the eigenvalue of S on the all-ones vector, and
    S_hat = s_prime (S + S^T) - 2 S^T S is positive semidefinite with
    kernel spanned by the all-ones vector for 1 <= k <= n-2; the Hessian
    of f at the uniform profile is -S_hat / n^3.  S_hat vanishes
    identically at the two ends k = 0 and k = n-1.
    """
    S = shift_coupling(spec)
    s_prime = float(spec.n)
    S_hat = s_prime * (S + S.T) - 2.0 * (S.T @ S)
    return S, s_prime, S_hat


def degenerate_det_bound(spec: MapSpec) -> float:
    """Lower bound 1/(n-k) used on profiles with a vanishing D_i; needs k <= n-2."""
    if spec.k == spec.n - 1:
        raise DomainError("the bound applies only for k <= n-2")
    return 1.0 / (spec.n - spec.k)


def parity_witness_value(n: int, k: int, t: float):
    """Witness value for even n and k at subtraction weight t.

    Takes mu = (1, 0, 1, 0, ...), evaluates the corrected map on mu mu^T,
    and extracts the even-indexed submatrix N, whose eigenvalue on the
    all-ones vector is ((n - k) - t) / 2.  Returns (value, N); the value
    crosses zero exactly at t = n - k, so no admissible rank-one weight
    beyond n - k can leave the map positive.
    """
    n = _check_int(n, "n")
    k = _check_int(k, "k")
    if n % 2 or k % 2:
        raise DomainError(f"witness needs even n and k, got ({n}, {k})")
    spec = MapSpec(n, k)
    if t < 0:
        raise DomainError(f"weight must be nonnegative, got {t}")
    pert = HadamardPerturbation.rank_one(alternating_vector(n), t)
    mu = np.zeros(n)
    mu[0::2] = 1.0
    out = TauMap(spec, pert).apply(np.outer(mu, mu))
    if np.abs(out.imag).max() > 1e-12:
        raise NumericalAnomalyError("witness submatrix acquired an imaginary part")
    N = out.real[0::2, 0::2]
    value = ((n - k) - t) / 2.0
    p = n // 2
    resid = np.abs(N @ np.ones(p) - value * np.ones(p)).max()
    if resid > 1e-12 * max(1.0, abs(value)):
        raise NumericalAnomalyError(
            f"extracted submatrix disagrees with the closed-form eigenvalue by {resid:.3e}"
        )
    return value, N
