"""Optimality certification through the circulant constraint system.

An admissible rank-one subtraction needs a vector alpha on which every
window sum vanishes: for each row j, the n-k cyclically consecutive
entries alpha_j + ... + alpha_{j+n-k-1} must be zero.  Collecting the rows
gives a binary circulant M whose eigenvalues are geometric sums of the
n-th root of unity; M is singular exactly when d = gcd(n, k) > 1, with a
kernel of dimension d - 1 spanned by Fourier vectors.  gcd 1 therefore
certifies that no admissible subtraction exists and the map is optimal.
For d = 2 the single kernel direction is the alternating vector, and the
probe below gathers evidence that the critical weight is exactly n - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    ENTRY_SUM_ATOL,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
)
from .positivity import PositivityReport, parity_witness_value, seesaw_minimize

SPECTRUM_CHECK_TOL = 1e-10
PROBE_SEESAW_TOL = 1e-7


@dataclass(frozen=True)
class CirculantConstraint:
    """The window-sum system: circulant matrix, closed-form spectrum, kernel."""

    spec: MapSpec
    matrix: np.ndarray
    first_row: np.ndarray
    eigenvalues: np.ndarray
    zero_indices: tuple
    kernel: tuple


@dataclass(frozen=True)
class OptimalityCertificate:
    spec: MapSpec
    gcd: int
    kernel_dim: int
    verdict: str
    constraint: CirculantConstraint


@dataclass(frozen=True)
class ConjectureEvidence:
    """Probe output for gcd 2: analytic witness values plus a see-saw run."""

    spec: MapSpec
    t: float
    t_max_witnessed: float
    witness_value_at_t: float
    witness_value_above_max: float
    seesaw: PositivityReport
    verdict: str
    counterexample_mu: np.ndarray | None = None


def _root_power(n: int, m: int) -> complex:
    """omega^m for omega = exp(2 pi i / n), exact on the real axis."""
    m = m % n
    if m == 0:
        return complex(1.0)
    if 2 * m == n:
        return complex(-1.0)
    return complex(np.exp(2j * np.pi * m / n))


def build_circulant(spec: MapSpec) -> CirculantConstraint:
    """Assemble the window-sum circulant for 1 <= k <= n-1 and cross-check it.

    M[i][j] = first_row[(j - i) mod n] with first_row starting in n-k ones,
    so row j states that the window sum at offset j vanishes.  Eigenvalues
    lambda_j = sum_{m < n-k} omega^{jm} are verified against M acting on
    Fourier vectors; zero eigenvalues sit exactly at multiples of n/d, and
    each kernel vector's entries must sum to zero, as a subtraction needs.
    """
    if spec.k == 0:
        raise DomainError("k = 0 admits no subtraction constraints")
    n, k = spec.n, spec.k
    first = np.zeros(n, dtype=int)
    first[: n - k] = 1
    i_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    M = first[(j_idx - i_idx) % n]
    roots = [_root_power(n, m) for m in range(n)]
    lam = np.array([sum(roots[j * m % n] for m in range(n - k)) for j in range(n)])
    # Row j is the Fourier vector (omega^{ji})_i / sqrt(n).
    fourier = np.array(roots)[np.outer(np.arange(n), np.arange(n)) % n] / math.sqrt(n)
    d = spec.gcd
    zeros = tuple(r * (n // d) for r in range(1, d))
    for j, f in enumerate(fourier):
        resid = np.abs(M @ f - lam[j] * f).max()
        if resid > SPECTRUM_CHECK_TOL:
            raise NumericalAnomalyError(
                f"closed-form eigenvalue {j} disagrees with the matrix by {resid:.3e}"
            )
        analytically_zero = j in zeros
        if analytically_zero != (abs(lam[j]) <= SPECTRUM_CHECK_TOL):
            raise NumericalAnomalyError(f"zero set mismatch at eigenvalue index {j}")
        if analytically_zero and abs(f.sum()) > ENTRY_SUM_ATOL:
            raise NumericalAnomalyError(f"kernel vector {j} has entry sum {f.sum():.3e}, not zero")
    kernel = tuple(fourier[j] for j in zeros)
    return CirculantConstraint(
        spec=spec,
        matrix=M,
        first_row=first,
        eigenvalues=lam,
        zero_indices=zeros,
        kernel=kernel,
    )


def certify_optimality(spec: MapSpec) -> OptimalityCertificate:
    """Verdict by exact integer gcd.

    gcd(n, k) = 1 leaves the constraint system nonsingular, so no
    admissible subtraction exists: optimal-certified.  Otherwise each of
    the d - 1 kernel vectors in constraint.kernel is a candidate rank-one
    direction, and the verdict is not-certified.
    """
    constraint = build_circulant(spec)
    d = spec.gcd
    verdict = "optimal-certified" if d == 1 else "not-certified"
    return OptimalityCertificate(
        spec=spec,
        gcd=d,
        kernel_dim=d - 1,
        verdict=verdict,
        constraint=constraint,
    )


def conjecture_probe(spec: MapSpec, seed: int = 0, t: float | None = None,
                     starts: int = 64, tol: float = 1e-9) -> ConjectureEvidence:
    """Probe the critical weight t = n - k along the alternating kernel direction.

    Requires gcd(n, k) = 2.  Runs the see-saw on the corrected map at
    weight t (default n - k) and evaluates the analytic parity witness at
    t and just above n - k, where it must go negative.  The verdict is
    evidence-positive or counterexample-found, never a claim of proof.
    """
    if spec.gcd != 2:
        raise DomainError(f"probe requires gcd(n, k) = 2, got {spec.gcd}")
    n, k = spec.n, spec.k
    t_max = float(n - k)
    t_probe = t_max if t is None else float(t)
    if t_probe < 0:
        raise DomainError(f"weight must be nonnegative, got {t_probe}")
    v1 = build_circulant(spec).kernel[0]
    pert = HadamardPerturbation.rank_one(v1, t_probe)
    report = seesaw_minimize(TauMap(spec, pert), starts=starts, seed=seed, tol=tol)
    witness_at_t, _ = parity_witness_value(n, k, t_probe)
    witness_above, _ = parity_witness_value(n, k, t_max + 0.1)
    failed = witness_at_t < -1e-12 or report.min_value < -PROBE_SEESAW_TOL
    mu = None
    if witness_at_t < -1e-12:
        mu = np.zeros(n)
        mu[0::2] = 1.0
    return ConjectureEvidence(
        spec=spec,
        t=t_probe,
        t_max_witnessed=t_max,
        witness_value_at_t=witness_at_t,
        witness_value_above_max=witness_above,
        seesaw=report,
        verdict="counterexample-found" if failed else "evidence-positive",
        counterexample_mu=mu,
    )
