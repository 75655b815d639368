"""Positivity of the shift family: a numerical see-saw and the analytic criteria.

The central quantity is the bilinear form

    F(x, y) = <y, map(conj(x) conj(x)^dag) y>

over unit vectors.  The map is positive exactly when F is nonnegative
everywhere, so the see-saw alternately minimizes F in y (smallest
eigenvector of the map evaluated on the projector) and in x (smallest
eigenvector of the Hermitian quadratic-form matrix Q(y)).  Each half step
is an exact minimization, so the objective never increases, and a step
that raises it is reported as an anomaly; a negative limit is a
certificate, a nonnegative one only evidence.  All starts advance
together: a half-step is one stacked map evaluation and one stacked
smallest-eigenpair solve over the starts still active, and each start's
result is bit for bit the one it gives alone.  Below n = 16 that solve is
eigh on the n x n matrices.  From n = 16 on no n x n matrix is formed:
each half-step matrix is Diag(d) - U U^dag with d = K |v|^2 and
U = conj(v) o B of rank m = 1 + r (B B^dag = G), and Newton's method on
the m x m secular equation, warm-started from the previous vector, gives
the eigenpair in O(n m) per step; eigh takes any row that has no pole at
min d, does not converge, or whose residual is above the rounding level.
F is invariant under (x, y) -> (D x, conj(D) y) for every diagonal
unitary D, so each start x0 is replaced by its moduli |x0|, which gives
the same sequence of values.  When the map's G is real the vectors then
stay real throughout, every eigenproblem is real symmetric, and the
witness pair is real.

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
# Matrix entries per stacked see-saw block (1 MiB per complex stack).
_BLOCK_ENTRIES = 1 << 16
# Matrix size from which a half-step solves the secular equation of the
# low-rank form Diag(d) - U U^dag, not a full eigh.
_SECULAR_MIN_N = 16
# Newton steps after which a row of the secular solve takes eigh (see-saw
# rows over n = 16..64, plain, v1 and Fourier maps, took at most 11).
_SECULAR_MAX_ITERATIONS = 30
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a multistart see-saw minimization of the form F."""

    verdict: str
    min_value: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    iterations: int
    starts_capped: int


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
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DomainError("x and y must have finite entries")
    xv = _unit(xv, "x")
    yv = _unit(yv, "y")
    return float(np.real(np.vdot(yv, map_.on_projector(xv) @ yv)))


def _check_monotone(before: np.ndarray, after: np.ndarray, step: str) -> None:
    """Raise for the first row whose exact half-step raised the objective."""
    bad = after > before + _MONOTONE_SLACK * np.maximum(1.0, np.abs(before))
    if bad.any():
        i = bad.argmax()
        raise NumericalAnomalyError(
            f"see-saw objective increased on the {step} step ({before[i]:.3e} -> {after[i]:.3e})"
        )


def _eigh_smallest(A: np.ndarray):
    """Smallest eigenvalue and a unit eigenvector of each Hermitian matrix in the stack A."""
    evals, evecs = np.linalg.eigh(A)
    return evals[:, 0], evecs[:, :, 0]


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 entrywise."""
    return a.real**2 + a.imag**2 if np.iscomplexobj(a) else a * a


def _newton_step(gaps: np.ndarray, U: np.ndarray, mu: np.ndarray):
    """(step, z) of Newton on g = 1 / lambda_max(K) = 1 at lam = min d + mu < min d, for each row.

    gaps = d - min d.  K = U^dag (D - lam)^-1 U is m x m, with top
    eigenvalue rho and unit eigenvector a; z = (D - lam)^-1 U a, and
    rho' = a^dag K' a = |z|^2, so the step is rho (rho - 1) / |z|^2.
    """
    W = 1.0 / (gaps - mu[:, None])
    if U.shape[2] == 1:
        y = U[..., 0]
        rho = (W * _abs2(y)).sum(axis=1)
    else:
        evals, evecs = np.linalg.eigh(np.swapaxes(U.conj() * W[..., None], 1, 2) @ U)
        rho = evals[:, -1]
        y = (U @ evecs[:, :, -1:])[..., 0]
    z = W * y
    return rho * (rho - 1.0) / _abs2(z).sum(axis=1), z


def _secular_newton(gaps: np.ndarray, U: np.ndarray, mu: np.ndarray):
    """Smallest eigenpair (mu, z) of each Diag(gaps) - U U^dag by Newton from mu < 0, or NaN.

    g(mu) = 1 / lambda_max(K(mu)) is decreasing and concave below the
    pole at 0, and the smallest eigenvalue is its root g = 1.  Started at
    or right of the root, Newton's iterates decrease to it without
    crossing it or the pole.  Iterating on mu, not on lam = min d + mu,
    keeps every d_i - lam = gaps_i - mu to full relative accuracy, which
    the vector needs when the root lies within rounding of min d.  A row
    stops when its step is below one ulp of |mu|; a row whose step would
    raise mu, or that runs _SECULAR_MAX_ITERATIONS steps, is left as NaN.
    Each row depends only on its own gaps, U and start.
    """
    out = np.full(len(gaps), np.nan)
    Z = np.full(U.shape[:2], np.nan, dtype=U.dtype)
    rows = np.arange(len(gaps))
    for _ in range(_SECULAR_MAX_ITERATIONS):
        step, z = _newton_step(gaps, U, mu)
        tol = _EPS * np.abs(mu)
        go = step > tol
        if not go.all():
            done = ~go & (step >= -64 * tol)
            out[rows[done]], Z[rows[done]] = mu[done], z[done]
            rows, gaps, U, mu, step = rows[go], gaps[go], U[go], mu[go], step[go]
            if not rows.size:
                break
        mu = mu - step
    return out, Z


def _secular_eigenpairs(d: np.ndarray, U: np.ndarray, z0: np.ndarray):
    """Smallest eigenpair of each Diag(d) - U U^dag from d and the n x m factor U; (lam, z, bad).

    Each row is scaled by a power of two to max(d, |U_i|^2) in [1/4, 1),
    which is exact and keeps every step clear of overflow and underflow.
    Newton starts from the smaller of two upper bounds on the root, the
    Rayleigh quotient of z0 and the diagonal entry at argmin d.  A row is
    bad, with lam and z left for eigh, when U vanishes at argmin d (no pole
    there: deflation) or the start is not below min d, when Newton does not
    converge, or when the residual |A z - lam z| exceeds the rounding level
    n eps of the scaled matrix.  No n x n matrix is formed.
    """
    rows, n, _ = U.shape
    half = -(-np.frexp(np.maximum(d.max(axis=1), _abs2(U).sum(axis=2).max(axis=1)))[1] // 2)
    d = np.ldexp(d, -2 * half[:, None])
    U = U * np.ldexp(1.0, -half)[:, None, None]
    imin = d.argmin(axis=1)
    dmin, umin = d[np.arange(rows), imin], U[np.arange(rows), imin]
    gaps = d - dmin[:, None]
    Uh = np.swapaxes(U.conj(), 1, 2)
    w2, Uz0 = _abs2(z0), (Uh @ z0[..., None])[..., 0]
    rayleigh = ((gaps * w2).sum(axis=1) - _abs2(Uz0).sum(axis=1)) / w2.sum(axis=1)
    mu = np.fmin(rayleigh, -_abs2(umin).sum(axis=1))
    ok = umin.any(axis=1) & (mu < 0)
    z = np.full((rows, n), np.nan, dtype=U.dtype)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu[ok], z[ok] = _secular_newton(gaps[ok], U[ok], mu[ok])
        z /= np.abs(z).max(axis=1, keepdims=True)
        z /= np.sqrt(_abs2(z).sum(axis=1))[:, None]
        r = (gaps - mu[:, None]) * z - (U @ (Uh @ z[..., None]))[..., 0]
        resid = np.sqrt(_abs2(r).sum(axis=1))
    return np.ldexp(dmin + mu, 2 * half), z, ~(resid <= n * _EPS)


def _secular_halfstep(dense, factors, v: np.ndarray, z0: np.ndarray):
    """Smallest eigenpairs of the matrices dense(v) from factors(v) = (d, U), eigh for bad rows."""
    lam, z, bad = _secular_eigenpairs(*factors(v), z0)
    if bad.any():
        lam[bad], z[bad] = _eigh_smallest(dense(v[bad]))
    return lam, z


def _seesaw_batch(map_, X0: np.ndarray, max_sweeps: int, improve_tol: float):
    """Run the alternation from every row of X0 at once; returns (values, X, Y, sweeps).

    Each row starts from the unit vector along its moduli |X0[i]|, a
    diagonal unitary image of X0[i] with the same values of F.  Each
    half-step solves for the smallest eigenpairs of the on_projector or
    quadratic_form matrices of the rows still active: below _SECULAR_MIN_N
    by one stacked eigh, from there on by _secular_halfstep on the
    *_factors of those matrices, warm-started from the vector the
    half-step replaces (x for the first y-step).  The path is chosen once
    per call, from n.  Every row keeps its own stop rule and monotonicity
    guards and is written out and dropped from the stack when it stops, so
    row i of the result is bit for bit what the alternation gives from
    X0[i] alone.  X and Y have the dtype of the map's factor, float64 when
    its G is real.
    """
    X = np.array([_unit(np.abs(x0), "x0") for x0 in np.asarray(X0, dtype=np.complex128)],
                 dtype=map_.factor.dtype)
    Y = np.zeros_like(X)
    values = np.full(len(X), np.inf)
    sweeps = np.zeros(len(X), dtype=int)
    active = np.arange(len(X))
    x, value = X.copy(), values.copy()
    if map_.n < _SECULAR_MIN_N:
        y_step = lambda v, z0: _eigh_smallest(map_.on_projector(v))
        x_step = lambda v, z0: _eigh_smallest(map_.quadratic_form(v))
    else:
        y_step = lambda v, z0: _secular_halfstep(
            map_.on_projector, map_.on_projector_factors, v, z0)
        x_step = lambda v, z0: _secular_halfstep(
            map_.quadratic_form, map_.quadratic_form_factors, v, z0)
    for sweep in range(1, max_sweeps + 1):
        half, y = y_step(x, x if sweep == 1 else y)
        _check_monotone(value, half, "y")
        new, x = x_step(y, x)
        _check_monotone(half, new, "x")
        done = value - new < improve_tol
        if sweep == max_sweeps:
            done[:] = True
        value = new
        if done.any():
            rows = active[done]
            values[rows], X[rows], Y[rows], sweeps[rows] = new[done], x[done], y[done], sweep
            keep = ~done
            active, x, y, value = active[keep], x[keep], y[keep], value[keep]
            if not active.size:
                break
    return values, X, Y, sweeps


def _seesaw_single(map_, x0: np.ndarray, max_sweeps: int, improve_tol: float):
    """Run the alternation from one start; returns (value, x, y, sweeps)."""
    values, X, Y, sweeps = _seesaw_batch(
        map_, np.reshape(x0, (1, -1)), max_sweeps, improve_tol)
    return float(values[0]), X[0], Y[0], int(sweeps[0])


def seesaw_minimize(map_, starts: int = DEFAULT_STARTS, seed: int = 0,
                    tol: float = NEGATIVITY_TOL) -> PositivityReport:
    """Multistart see-saw minimization of F over unit vector pairs.

    Starts are independent, each with its own RNG stream derived from
    (seed, start index), so the result does not depend on evaluation
    order; ties between starts resolve to the lowest index.  The starts
    run together in blocks of at most _BLOCK_ENTRIES matrix entries, one
    stacked smallest-eigenpair solve per half-step over a block's active
    starts, which bounds memory at any starts and n and gives each start
    bit for bit the result it has alone.  The witness pair is real when
    the map's G is real.  A verdict of negative-certificate means the
    reported witness pair reproduces min_value < -tol on re-evaluation;
    positive-evidence only records the smallest value found and proves
    nothing.  starts_capped counts the starts that ran all MAX_SWEEPS
    sweeps, which the cap may have cut short.
    """
    starts = _check_int(starts, "starts")
    seed = _check_int(seed, "seed")
    if starts < 1:
        raise DomainError(f"starts must be positive, got {starts}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    n = map_.n
    block = max(1, _BLOCK_ENTRIES // (n * n))
    best = None
    capped = 0
    for lo in range(0, starts, block):
        X0 = []
        for idx in range(lo, min(lo + block, starts)):
            rng = np.random.default_rng([seed, idx])
            X0.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        values, X, Y, sweeps = _seesaw_batch(map_, np.array(X0), MAX_SWEEPS, SWEEP_IMPROVEMENT_TOL)
        capped += int(np.count_nonzero(sweeps >= MAX_SWEEPS))
        i = int(np.argmin(values))
        if best is None or values[i] < best[0]:
            best = (values[i], X[i], Y[i], int(sweeps[i]))
    _, wx, wy, best_sweeps = best
    min_value = form_value(map_, wx, wy)
    verdict = "negative-certificate" if min_value < -tol else "positive-evidence"
    return PositivityReport(
        verdict=verdict,
        min_value=min_value,
        witness_x=wx,
        witness_y=wy,
        iterations=best_sweeps,
        starts_capped=capped,
    )


def _diagonal(spec: MapSpec, X_vec) -> np.ndarray:
    """X_vec as a float vector, checked to be a finite nonnegative diagonal of length n."""
    X = np.asarray(X_vec, dtype=float).reshape(-1)
    if X.shape[0] != spec.n:
        raise DimensionMismatchError(f"profile length {X.shape[0]} against n={spec.n}")
    if not np.isfinite(X).all():
        raise DomainError("diagonal entries must be finite")
    if np.any(X < 0):
        raise DomainError("diagonal entries must be nonnegative")
    return X


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
    X = _diagonal(spec, X_vec)
    peak = X.max()
    if peak <= 0:
        raise DomainError("profile is identically zero")
    X = X / peak
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
    X = _diagonal(spec, X_vec)
    total, loo = _leave_one_out(shift_coupling(spec) @ X)
    return float(total - np.dot(X, loo))


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
    if spec.is_reduction:
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
    pert = HadamardPerturbation([alternating_vector(n)], [t])
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
