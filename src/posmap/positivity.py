"""Positivity of the shift family: a numerical see-saw and the analytic criteria.

The central quantity is the bilinear form

    F(x, y) = <y, map(conj(x) conj(x)^dag) y>

over unit vectors.  The map is positive exactly when F is nonnegative
everywhere, so the see-saw alternately minimizes F in y (smallest
eigenvector of the map evaluated on the projector) and in x (smallest
eigenvector of the Hermitian quadratic-form matrix Q(y)).  Each half step
is an exact minimization, so the objective never increases, and a step
that raises it beyond rounding is an anomaly; a negative limit is a
certificate, a nonnegative one only evidence.  All starts advance
together: a half-step is one stacked map evaluation and one stacked
smallest-eigenpair solve over the starts still active, and each start's
result is bit for bit the one it gives alone.  Below n = 16 that solve is
eigh on the n x n matrices.  From n = 16 on no n x n matrix is formed:
each half-step matrix is Diag(d) - U U^dag with d = K |v|^2 and
U = conj(v) o B of rank m = 1 + r (B B^dag = G), and Newton's method on
the m x m secular equation, warm-started from the previous vector, gives
the eigenpair in O(n m) per step; eigh takes the rows it cannot solve.
F is invariant under (x, y) -> (D x, conj(D) y) for every diagonal
unitary D, so each start x0 is replaced by its moduli |x0|, which gives
the same sequence of values, and only moduli are drawn (start_moduli).
When the map's factor is real the vectors then stay real, every
eigenproblem is real symmetric, and the witness pair is real.  Starts
that creep toward a window zero pair (maps._window_pairs, where F is
exactly 0.0 for every map here) stop on it once close enough, if F is no
higher there, not at the sweep cap.

For diagonal input X = diag(X_1, ..., X_n) the positivity of the map of a
coupling row reduces to scalar data: the profile D = C X, the ratio sum
f(X) = sum_i X_i / D_i (its maximum over positive profiles is 1 for tau),
and a product-form determinant that never divides and so survives D_i = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .maps import (
    DEFAULT_STARTS,
    NEGATIVITY_TOL,
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    _abs2,
    _check_int,
    _nonnegative_reals,
    _numbers,
    _window_pairs,
    alternating_vector,
    coupling_matrix,
)

MAX_SWEEPS = 500
SWEEP_IMPROVEMENT_TOL = 1e-12
# Matrix entries per stacked see-saw block (1 MiB per complex stack); from n = 257 a block is one start.
_BLOCK_ENTRIES = 1 << 16
# Matrix size from which a half-step solves the secular equation of the
# low-rank form Diag(d) - U U^dag, not a full eigh.
_SECULAR_MIN_N = 16
# Newton steps after which a row of the secular solve takes eigh (see-saw
# rows over n = 16..64, plain, v1 and Fourier maps, took at most 11).
_SECULAR_MAX_ITERATIONS = 30
# Every _SNAP_EVERY sweeps from sweep _SNAP_AFTER on, a row within _SNAP_RHO
# of a window zero pair tries that pair (_window_snap).  Every start of the
# plain (3,1), (4,1), (4,2) and (5,2) maps that runs to MAX_SWEEPS without
# it is that close by sweep 32, 48 or 64 (64 starts, seed 0).
_SNAP_AFTER = 32
_SNAP_EVERY = 16
_SNAP_RHO = 1e-2
_EPS = np.finfo(float).eps
# sqrt(tiny) / eps: below it |v|^2 takes subnormal rounding (1e-4 at |v| = 1e-160), so _unit rescales first.
_UNIT_MIN_NORM = 2.0**-459
# splitmix64's increment (2^64 / golden ratio, odd) and word mask, for start_moduli.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class PositivityReport(NamedTuple):
    """Outcome of a multistart see-saw minimization of the form F."""

    verdict: str
    min_value: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    iterations: int
    starts_capped: int
    starts_snapped: int


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    """v / |v|, first scaled by max|v| when |v| overflows or is below _UNIT_MIN_NORM."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not _UNIT_MIN_NORM < nrm < np.inf:
        peak = np.abs(v).max()
        if peak == 0.0:
            raise DomainError(f"{name} must be nonzero")
        v = v / peak
        nrm = np.linalg.norm(v)
    return v / nrm


def form_value(map_, x, y) -> float:
    """F(x, y) for unit-normalized x and y (normalization applied here)."""
    xv = _numbers(x, "x entry").astype(np.complex128, copy=False).reshape(-1)
    yv = _numbers(y, "y entry").astype(np.complex128, copy=False).reshape(-1)
    if xv.shape[0] != map_.n or yv.shape[0] != map_.n:
        raise DimensionMismatchError(
            f"vectors of length {xv.shape[0]}, {yv.shape[0]} against a map on dimension {map_.n}"
        )
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DomainError("x and y must have finite entries")
    xv = _unit(xv, "x")
    yv = _unit(yv, "y")
    return float(np.real(np.vdot(yv, map_.on_projector(xv) @ yv)))


def _check_monotone(before: np.ndarray, after: np.ndarray, slack: float, step: str) -> None:
    """Raise for the first row whose half-step raised the objective by more than slack, 8 n eps sigma."""
    bad = after > before + slack
    if bad.any():
        i = bad.argmax()
        raise NumericalAnomalyError(f"see-saw objective increased on the {step} step "
                                    f"({before[i]:.3e} -> {after[i]:.3e})")


def _eigh_smallest(A: np.ndarray):
    """Smallest eigenvalue and a unit eigenvector of each Hermitian matrix in the stack A."""
    evals, evecs = np.linalg.eigh(A)
    return evals[:, 0], evecs[:, :, 0]


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


def _halfstep(dense, factors, v: np.ndarray, z0: np.ndarray):
    """One see-saw half-step: the smallest eigenpairs of the matrices dense(v), warm-started from z0.

    eigh below _SECULAR_MIN_N (z0's length), else the secular solve on factors(v) = (d, U), eigh for bad rows.
    """
    if z0.shape[-1] < _SECULAR_MIN_N:
        return _eigh_smallest(dense(v))
    lam, z, bad = _secular_eigenpairs(*factors(v), z0)
    if bad.any():
        lam[bad], z[bad] = _eigh_smallest(dense(v[bad]))
    return lam, z


def _window_snap(map_, x: np.ndarray, y: np.ndarray, value: np.ndarray):
    """The rows that stop on a window zero pair, as (rows, x, y, values) of their snapped pairs.

    x and y hold unit rows.  Row i qualifies when value_i > 0, y_i is
    within _SNAP_RHO of e_j for j = argmax |y_i| (1 - |y_ij|^2 <= rho), and
    x_i has at most rho of its mass on the window of j.  Its snapped pair
    _window_pairs(map_._C, x_i, j) keeps x_i's moduli off the window, and
    F = d_j - |U_j|^2 there, from on_projector_factors, is exactly 0.0.
    The row takes it only when that F is at most value_i, so its value
    never rises.  Each row depends only on its own x, y and value.
    """
    y2 = _abs2(y)
    j = y2.argmax(axis=1)
    near = (1.0 - y2.max(axis=1) <= _SNAP_RHO) & (
        np.where(map_._C[j] != 0, _abs2(x), 0.0).sum(axis=1) <= _SNAP_RHO)
    rows = np.flatnonzero((value > 0) & near)
    j, at = j[rows], np.arange(rows.size)
    xs, ys = _window_pairs(map_._C, x[rows], j)
    d, U = map_.on_projector_factors(xs)
    f = d[at, j] - _abs2(U[at, j]).sum(axis=1)
    take = f <= value[rows]
    return rows[take], xs[take], ys[take], f[take]


def _seesaw_batch(map_, X0: np.ndarray, max_sweeps: int):
    """Run the alternation from every row of X0 at once; returns (values, X, Y, sweeps, snapped).

    Each row starts from the unit vector along its moduli |X0[i]|, a
    diagonal unitary image of X0[i] with the same values of F.  Each
    half-step is one _halfstep call (eigh or the secular solve, by n) for
    the smallest eigenpairs of the on_projector or quadratic_form matrices
    of the rows still active, warm-started from the vector it replaces
    (y starts at x).  For unit v, Diag(C |v|^2) has norm at most max c and
    G o (conj(v) v^T) is PSD of norm at most max_i G_ii (Schur), so each
    such matrix has 2-norm at most sigma = max c + max_i |B_i|^2.  Its
    smallest eigenvalue rounds by about 4 n eps sigma at most (the secular
    solve's residual test; eigh reached 4.2 n eps in test_properties), so
    _check_monotone's slack is two of those, 8 n eps sigma.  A row stops
    when a sweep improves it by less than SWEEP_IMPROVEMENT_TOL, after
    max_sweeps sweeps, or on a window zero pair: every _SNAP_EVERY sweeps
    from sweep _SNAP_AFTER on, a positive row close to one takes it if F
    is no higher there (_window_snap), and snapped[i] records that.  A row
    is written out and dropped when it stops, so row i of the result is bit
    for bit that of X0[i] alone.  X and Y have the dtype of the map's factor.
    """
    X = np.array([_unit(np.abs(x0), "x0") for x0 in np.asarray(X0, dtype=np.complex128)],
                 dtype=map_.factor.dtype)
    Y = np.zeros_like(X)
    values = np.full(len(X), np.inf)
    sweeps = np.zeros(len(X), dtype=int)
    snapped = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    x, y, value = X.copy(), X.copy(), values.copy()
    slack = 8 * map_.n * _EPS * (map_._C[0].max() + _abs2(map_.factor).sum(axis=1).max())
    for sweep in range(1, max_sweeps + 1):
        half, y = _halfstep(map_.on_projector, map_.on_projector_factors, x, y)
        _check_monotone(value, half, slack, "y")
        new, x = _halfstep(map_.quadratic_form, map_.quadratic_form_factors, y, x)
        _check_monotone(half, new, slack, "x")
        done = (value - new < SWEEP_IMPROVEMENT_TOL) | (sweep == max_sweeps)
        value = new
        if sweep >= _SNAP_AFTER and sweep % _SNAP_EVERY == 0:
            rows, xs, ys, fs = _window_snap(map_, x, y, value)
            x[rows], y[rows], value[rows] = xs, ys, fs
            done[rows] = snapped[active[rows]] = True
        if done.any():
            rows = active[done]
            values[rows], X[rows], Y[rows], sweeps[rows] = value[done], x[done], y[done], sweep
            keep = ~done
            active, x, y, value = active[keep], x[keep], y[keep], value[keep]
            if not active.size:
                break
    return values, X, Y, sweeps, snapped


def _seesaw_single(map_, x0: np.ndarray, max_sweeps: int):
    """Run the alternation from one start; returns (value, x, y, sweeps)."""
    values, X, Y, sweeps, _ = _seesaw_batch(map_, np.reshape(x0, (1, -1)), max_sweeps)
    return float(values[0]), X[0], Y[0], int(sweeps[0])


def _splitmix64(z):
    """The splitmix64 finaliser, of a Python int below 2^64 or entrywise of a uint64 array."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def start_moduli(seed: int, idx: int, n: int) -> np.ndarray:
    """The moduli |x0| of see-saw start idx under seed: n Rayleigh(1) draws, float64.

    A counter-based generator: the limbs of seed, 64 bits at a time from
    the lowest, and then idx are folded into one key by the splitmix64
    finaliser, and entry j - 1 is splitmix64 of key + j * gamma for the
    counter j = 1..n, read as u = ((z >> 11) + 1) 2^-53 in (0, 1].  The
    modulus is sqrt(-2 log u), the Rayleigh(1) law of |g1 + i g2| for
    independent standard normals, which is all of a complex Gaussian start
    that the see-saw keeps.  Each start is a pure function of
    (seed, idx, n), and every nonnegative seed, 2^64 and beyond included,
    has its own stream.
    """
    seed, idx, n = _check_int(seed, "seed"), _check_int(idx, "idx"), _check_int(n, "n")
    if seed < 0 or not 0 <= idx <= _MASK64 or n < 1:
        raise DomainError(f"start_moduli needs seed >= 0, 0 <= idx < 2^64 and n >= 1, "
                          f"got ({seed}, {idx}, {n})")
    key = 0
    while True:
        key = _splitmix64((key ^ seed & _MASK64) + _GAMMA & _MASK64)
        seed >>= 64
        if not seed:
            break
    key = _splitmix64((key ^ idx) + _GAMMA & _MASK64)
    z = _splitmix64(np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + key)
    u = ((z >> 11) + 1) * 2.0 ** -53
    # math.log, not np.log: NumPy's SIMD log rounds differently on AVX-512
    # CPUs, and the start must not depend on the CPU.
    return np.sqrt(np.array([-2.0 * math.log(v) for v in u.tolist()]))


def seesaw_minimize(map_, starts: int = DEFAULT_STARTS, seed: int = 0,
                    tol: float = NEGATIVITY_TOL) -> PositivityReport:
    """Multistart see-saw minimization of F over unit vector pairs.

    Starts are independent, start idx being the moduli
    start_moduli(seed, idx, n), so the result does not depend on evaluation
    order; ties between starts resolve to the lowest index.  The starts
    run together in blocks of max(1, _BLOCK_ENTRIES // n^2) starts, one
    stacked smallest-eigenpair solve per half-step over a block's active
    starts, which bounds memory at any starts and n and gives each start
    bit for bit the result it has alone.  The witness pair is real when
    the map's factor is real.  A verdict of negative-certificate means the
    reported witness pair reproduces min_value < -tol on re-evaluation;
    positive-evidence only records the smallest value found and proves
    nothing.  starts_snapped counts the starts that stopped on a window
    zero pair (see _window_snap), so on a positive map min_value may be
    an exact 0.0 with such a witness.  starts_capped counts the other
    starts that ran all MAX_SWEEPS sweeps, which the cap may have cut
    short.
    """
    starts = _check_int(starts, "starts")
    seed = _check_int(seed, "seed")
    if starts < 1:
        raise DomainError(f"starts must be positive, got {starts}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise DomainError(f"tol must be a real number, got {tol!r}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    n = map_.n
    block = max(1, _BLOCK_ENTRIES // (n * n))
    best = None
    capped = snapped_count = 0
    for lo in range(0, starts, block):
        X0 = [start_moduli(seed, idx, n) for idx in range(lo, min(lo + block, starts))]
        values, X, Y, sweeps, snapped = _seesaw_batch(map_, np.array(X0), MAX_SWEEPS)
        capped += int(np.count_nonzero((sweeps >= MAX_SWEEPS) & ~snapped))
        snapped_count += int(np.count_nonzero(snapped))
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
        starts_snapped=snapped_count,
    )


def _diagonal(coupling, X_vec):
    """(C, X): coupling_matrix(coupling), and X_vec checked as a finite nonnegative diagonal."""
    C, X = coupling_matrix(coupling), _nonnegative_reals(X_vec, "diagonal entry").reshape(-1)
    if X.shape[0] != C.shape[0]:
        raise DimensionMismatchError(f"profile length {X.shape[0]} against n={C.shape[0]}")
    return C, X


def _leave_one_out(D: np.ndarray):
    """(prod_i D_i, array of prod_{i != j} D_i), computed without division."""
    one = np.ones(1)
    pre = np.concatenate((one, np.cumprod(D)))
    suf = np.concatenate((np.cumprod(D[::-1])[::-1], one))
    return pre[-1], pre[:-1] * suf[1:]


def f_value(coupling, X_vec) -> float:
    """Ratio sum f(X) = sum_i X_i / D_i, D = coupling_matrix(coupling) X, defined when D > 0.

    X is first scaled by its largest entry (f is scale invariant), so each
    quotient lies in [0, 1/c_0], and none overflows at any n if c_0 > 0;
    for c_0 = 0 one can, and f is then inf.
    math.fsum adds the quotients exactly and rounds once, so the relative
    error is that of the worst quotient, about (k + 2) eps for tau_{n,k},
    whatever n.  At its uniform profile f is n fl(1/n) rounded once:
    exactly 1.0 for n <= 48, and 1.0 or the float just below it beyond.
    """
    C, X = _diagonal(coupling, X_vec)
    peak = X.max()
    if peak <= 0:
        raise DomainError("profile is identically zero")
    X = X / peak
    D = C @ X
    if np.any(D <= 0):
        raise DomainError("f is undefined when some D_i vanishes")
    with np.errstate(over="ignore"):
        return math.fsum(X / D)


def analytic_det(coupling, X_vec) -> float:
    """det of Diag(D) - x x^T for x = sqrt(X), as products only.

    Returns prod_i D_i - sum_j X_j prod_{i != j} D_i, with no division, so
    degenerate profiles (some D_i = 0) evaluate exactly.  Each product
    carries a relative rounding error of up to about (n + k) eps, k + 1 the
    row's nonzero entries, and the difference cancels them: the absolute error
    is up to about that times prod_i D_i + sum_j X_j prod_{i != j} D_i, which
    near the uniform profile exceeds the value itself once n is large.  A
    product that overflows float64 raises DomainError.
    """
    C, X = _diagonal(coupling, X_vec)
    with np.errstate(over="ignore", invalid="ignore"):
        total, loo = _leave_one_out(C @ X)
        det = total - np.dot(X, loo)
    if not np.isfinite(det):
        raise DomainError(f"a product of the profile entries D_i overflows float64 at n = {len(X)}")
    return float(det)


def hessian_shat(coupling):
    """Coupling data (S, s_prime, S_hat) for the curvature of f at the uniform profile.

    s_prime, the row sum, is the eigenvalue of S on the all-ones vector,
    and the Hessian of f there is -S_hat / s_prime^3.  For tau_{n,k} (s_prime
    = n) S_hat = s_prime (S + S^T) - 2 S^T S is positive semidefinite with
    kernel spanned by the all-ones vector for 1 <= k <= n-2, and vanishes
    identically at the two ends k = 0 and k = n-1.
    """
    S = coupling_matrix(coupling)
    s_prime = float(S[0].sum())
    S_hat = s_prime * (S + S.T) - 2.0 * (S.T @ S)
    return S, s_prime, S_hat


def degenerate_det_bound(spec: MapSpec) -> float:
    """Lower bound 1/(n-k) used on profiles with a vanishing D_i; needs k <= n-2."""
    if spec.is_reduction:
        raise DomainError("the bound applies only for k <= n-2")
    return 1.0 / (spec.n - spec.k)


def parity_witness_value(n: int, k: int, t: float):
    """Witness value for even n and k at subtraction weight t.

    Takes mu = (1, 0, 1, 0, ...), evaluates the corrected map on mu mu^T
    through on_projector(mu), and extracts the even-indexed submatrix N,
    whose eigenvalue on the all-ones vector is ((n - k) - t) / 2.  Returns
    (value, N); the value crosses zero exactly at t = n - k, so no
    admissible rank-one weight beyond n - k can leave the map positive.
    The v1 factor is real, so N is float64.  A row sum of N adds n/2
    entries, D_i - G_ii and the -G_ij, with D_i <= n and |G_ij| <= 1 + t/n,
    so their moduli add to at most n + (n + t)/2 and the sum's rounding
    error is at most about (n/2) eps times that, 3/4 n eps (n + t); the
    entries and value each round by O(eps (n + t)) on top.  A residual
    |N 1 - value 1| above n eps (n + t) raises NumericalAnomalyError.
    """
    n = _check_int(n, "n")
    k = _check_int(k, "k")
    if n % 2 or k % 2:
        raise DomainError(f"witness needs even n and k, got ({n}, {k})")
    spec = MapSpec(n, k)
    pert = HadamardPerturbation([alternating_vector(n)], [t])
    t = pert.weights[0]
    mu = np.zeros(n)
    mu[0::2] = 1.0
    N = TauMap(spec.coupling, pert).on_projector(mu)[0::2, 0::2]
    value = ((n - k) - t) / 2.0
    resid = np.abs(N.sum(axis=1) - value).max()
    if resid > n * _EPS * (n + t):
        raise NumericalAnomalyError(
            f"extracted submatrix disagrees with the closed-form eigenvalue by {resid:.3e}"
        )
    return value, N
