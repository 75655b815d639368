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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .maps import (
    DEFAULT_STARTS,
    ENTRY_SUM_TOL,
    NEGATIVITY_TOL,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    _roots_of_unity,
    alternating_vector,
)

if TYPE_CHECKING:
    from .positivity import PositivityReport

SPECTRUM_CHECK_TOL = 1e-10


class CirculantConstraint(NamedTuple):
    """The window-sum system: circulant first row, closed-form spectrum, kernel."""

    first_row: np.ndarray
    eigenvalues: np.ndarray
    zero_indices: tuple
    kernel: tuple


class OptimalityCertificate(NamedTuple):
    gcd: int
    kernel_dim: int
    verdict: str
    constraint: CirculantConstraint


class ConjectureEvidence(NamedTuple):
    """Probe output for gcd 2: analytic witness values plus a see-saw run."""

    t: float
    t_max_witnessed: float
    witness_value_at_t: float
    witness_value_above_max: float
    seesaw: PositivityReport
    verdict: str
    counterexample_mu: np.ndarray | None = None


def build_circulant(spec: MapSpec) -> CirculantConstraint:
    """Spectrum and kernel of the window-sum circulant M from its first row, 1 <= k <= n-1.

    M[i][j] = first_row[(j - i) mod n] with first_row starting in n-k ones,
    so row j states that the window sum at offset j vanishes.  M is never
    formed: lambda_j = sum_{m < n-k} omega^{jm} is checked against M's
    spectrum conj(fft(first_row)); zero eigenvalues sit exactly at multiples
    of n/d, and each kernel vector's entries must sum to zero.
    """
    if spec.k == 0:
        raise DomainError("k = 0 admits no subtraction constraints")
    n, k = spec.n, spec.k
    first = np.zeros(n, dtype=int)
    first[: n - k] = 1
    idx = np.arange(n)
    roots = _roots_of_unity(n)
    # Column m of the root table omega^{jm}, added in order: these bits are reported.
    lam = sum(roots[(idx * m) % n] for m in range(n - k))
    # Entrywise, M f_j - lambda_j f_j has modulus |error| / sqrt(n): bound that by the tolerance.
    residuals = np.abs(lam - np.fft.fft(first).conj())
    bad = np.flatnonzero(residuals > SPECTRUM_CHECK_TOL * math.sqrt(n))
    if bad.size:
        raise NumericalAnomalyError(f"closed-form eigenvalue {bad[0]} disagrees with the "
                                    f"first row's FFT by {residuals[bad[0]]:.3e}")
    zeros = tuple(range(n // spec.gcd, n, n // spec.gcd))
    bad = np.flatnonzero((np.abs(lam) <= SPECTRUM_CHECK_TOL) != np.isin(idx, zeros))
    if bad.size:
        raise NumericalAnomalyError(f"zero set mismatch at eigenvalue index {bad[0]}")
    kernel = roots[(np.array(zeros, dtype=int)[:, None] * idx) % n] / math.sqrt(n)
    sums = kernel.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums) > ENTRY_SUM_TOL)
    if bad.size:
        raise NumericalAnomalyError(f"kernel vector {zeros[bad[0]]} has entry sum "
                                    f"{sums[bad[0]]:.3e}, not zero")
    return CirculantConstraint(
        first_row=first,
        eigenvalues=lam,
        zero_indices=zeros,
        kernel=tuple(kernel),
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
        gcd=d,
        kernel_dim=d - 1,
        verdict=verdict,
        constraint=constraint,
    )


def conjecture_probe(spec: MapSpec, seed: int = 0, t: float | None = None,
                     starts: int = DEFAULT_STARTS,
                     tol: float = NEGATIVITY_TOL) -> ConjectureEvidence:
    """Probe the critical weight t = n - k along the alternating kernel direction.

    Requires gcd(n, k) = 2.  Runs the see-saw on the corrected map at
    weight t (default n - k) and evaluates the analytic parity witness at
    t and just above n - k, where it must go negative.  The verdict is
    counterexample-found when the witness at t is negative or the see-saw
    reports a negative-certificate (a minimum below -tol), and otherwise
    evidence-positive, never a claim of proof.
    """
    # Imported here, so that a certify process does not load the see-saw.
    from .positivity import parity_witness_value, seesaw_minimize

    if spec.gcd != 2:
        raise DomainError(f"probe requires gcd(n, k) = 2, got {spec.gcd}")
    n, k = spec.n, spec.k
    t_max = float(n - k)
    pert = HadamardPerturbation([alternating_vector(n)], [t_max if t is None else t])
    t_probe = pert.weights[0]
    report = seesaw_minimize(TauMap(spec.coupling, pert), starts=starts, seed=seed, tol=tol)
    witness_at_t, _ = parity_witness_value(n, k, t_probe)
    witness_above, _ = parity_witness_value(n, k, t_max + 0.1)
    failed = witness_at_t < 0 or report.verdict == "negative-certificate"
    mu = None
    if witness_at_t < 0:
        mu = np.zeros(n)
        mu[0::2] = 1.0
    return ConjectureEvidence(
        t=t_probe,
        t_max_witnessed=t_max,
        witness_value_at_t=witness_at_t,
        witness_value_above_max=witness_above,
        seesaw=report,
        verdict="counterexample-found" if failed else "evidence-positive",
        counterexample_mu=mu,
    )
