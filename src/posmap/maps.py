"""Shift-coupled diagonal maps on M_n and their Hadamard-product corrections.

The family tau_{n,k} sends a square complex matrix X to

    [tau_{n,k}(X)]_ii = (n-k-1) x_ii + x_{i+1,i+1} + ... + x_{i+k,i+k}
    [tau_{n,k}(X)]_ij = -x_ij                                  (i != j)

with all index arithmetic mod n.  The edge members are familiar: k = 0 is
completely positive, and k = n-1 is the reduction map Tr(X) I - X.  A
corrected map subtracts a Hadamard (entrywise) product L o X, where L is
positive semidefinite with entries summing to zero; subtractions of this
shape are completely positive and vanish on every projector built from a
vector of unimodular entries.

Every map here fits a single template

    X  ->  Diag(C . diag X) - G o X

for a real coupling matrix C and a Hermitian entrywise factor G.  TauMap
and HadamardMap are the two instantiations used by the rest of the
package; both expose the same small protocol (apply, on_projector,
quadratic_form, choi) consumed by the positivity engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
PSD_EIG_ATOL = 1e-10
ENTRY_SUM_ATOL = 1e-10
ROW_SUM_ATOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operand dimensions disagree with the map or with each other."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class NumericalAnomalyError(RuntimeError):
    """An internal cross-check that should hold to tight tolerance failed."""


def _check_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MapSpec:
    """Parameters (n, k) of one member of the shift family.

    n is the matrix dimension and k the number of cyclic diagonal shifts
    mixed into the output diagonal, so 0 <= k <= n-1.
    """

    n: int
    k: int

    def __post_init__(self):
        n = _check_int(self.n, "n")
        k = _check_int(self.k, "k")
        if n < 2:
            raise DomainError(f"n must be at least 2, got {n}")
        if not 0 <= k <= n - 1:
            raise DomainError(f"k out of range for n={n}: {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @property
    def gcd(self) -> int:
        return math.gcd(self.n, self.k)

    @property
    def is_reduction(self) -> bool:
        return self.k == self.n - 1


def as_square_matrix(X, n: int | None = None) -> np.ndarray:
    """Coerce X to a complex square ndarray, optionally checking its size."""
    A = np.asarray(X, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise DimensionMismatchError(f"expected a {n}x{n} matrix, got {A.shape[0]}x{A.shape[0]}")
    return A


def require_hermitian(X) -> np.ndarray:
    """Return X as an ndarray after verifying Hermiticity within HERMITIAN_ATOL.

    Inputs that fail, including any with NaN or infinite entries, are
    rejected, never symmetrized.
    """
    A = as_square_matrix(X)
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    dev = np.abs(A - A.conj().T).max()
    if dev > HERMITIAN_ATOL:
        raise DomainError(f"matrix is not Hermitian within {HERMITIAN_ATOL:g} (deviation {dev:.3e})")
    return A


def shift_coupling(spec: MapSpec) -> np.ndarray:
    """Coupling matrix S with (S v)_i = (n-k) v_i + v_{i+1} + ... + v_{i+k} mod n.

    S maps the diagonal of the input to the diagonal profile of the output
    (before the -X term), and its row and column sums both equal n.
    """
    n, k = spec.n, spec.k
    S = float(n - k) * np.eye(n)
    idx = np.arange(n)
    for m in range(1, k + 1):
        S[idx, (idx + m) % n] += 1.0
    return S


def alternating_vector(n: int) -> np.ndarray:
    """Unit vector (1, -1, 1, -1, ...) / sqrt(n); requires even n."""
    n = _check_int(n, "n")
    if n < 2 or n % 2:
        raise DomainError(f"alternating vector needs even n >= 2, got {n}")
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    return v.astype(np.complex128)


@dataclass(frozen=True)
class HadamardPerturbation:
    """A Hadamard-product subtraction X -> L o X.

    matrix is positive semidefinite with entries summing to zero, which
    together force L 1 = 0.  When built from a single vector, alpha and
    weight record the factorization L = weight * alpha alpha^dag.
    """

    matrix: np.ndarray
    alpha: np.ndarray | None = None
    weight: float | None = None

    def __post_init__(self):
        L = require_hermitian(self.matrix)
        eigs = np.linalg.eigvalsh(L)
        if eigs.min() < -PSD_EIG_ATOL:
            raise DomainError(f"subtraction matrix is not PSD (min eigenvalue {eigs.min():.3e})")
        total = complex(L.sum())
        if abs(total) > ENTRY_SUM_ATOL:
            raise DomainError(f"subtraction entries must sum to zero, got {total:.3e}")
        row = np.abs(L @ np.ones(L.shape[0])).max()
        if row > ROW_SUM_ATOL:
            raise NumericalAnomalyError(
                f"PSD matrix with zero entry sum should annihilate the all-ones vector, got {row:.3e}"
            )
        object.__setattr__(self, "matrix", L)

    @classmethod
    def rank_one(cls, alpha, t: float) -> "HadamardPerturbation":
        """L = t * alpha alpha^dag for a vector alpha with entries summing to zero."""
        a = np.asarray(alpha, dtype=np.complex128).reshape(-1)
        if a.shape[0] < 2:
            raise DimensionMismatchError("alpha must have at least two entries")
        if not 0 <= t < math.inf:
            raise DomainError(f"weight must be finite and nonnegative, got {t}")
        if abs(a.sum()) > ENTRY_SUM_ATOL:
            raise DomainError(f"alpha entries must sum to zero, got {a.sum():.3e}")
        return cls(matrix=t * np.outer(a, a.conj()), alpha=a, weight=float(t))

    @classmethod
    def full(cls, L) -> "HadamardPerturbation":
        return cls(matrix=as_square_matrix(L))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class _EntrywiseMap:
    """X -> Diag(C . diag X) - G o X, the template shared by all maps here."""

    def __init__(self, n: int, coupling: np.ndarray, schur: np.ndarray):
        self.n = n
        self._C = coupling
        self._G = schur

    def apply(self, X) -> np.ndarray:
        A = as_square_matrix(X, self.n)
        return np.diag(self._C @ np.diagonal(A)) - self._G * A

    def on_projector(self, x) -> np.ndarray:
        """The map evaluated on conj(x) conj(x)^dag, given the vector x."""
        v = np.asarray(x, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.n:
            raise DimensionMismatchError(f"expected a vector of length {self.n}, got {v.shape[0]}")
        vb = v.conj()
        return np.diag(self._C @ (v.real**2 + v.imag**2)) - self._G * np.outer(vb, v)

    def quadratic_form(self, y) -> np.ndarray:
        """Hermitian Q(y) with x^dag Q x = <y, map(conj(x) conj(x)^dag) y>."""
        w = np.asarray(y, dtype=np.complex128).reshape(-1)
        if w.shape[0] != self.n:
            raise DimensionMismatchError(f"expected a vector of length {self.n}, got {w.shape[0]}")
        return np.diag(self._C.T @ (w.real**2 + w.imag**2)) - self._G * np.outer(w.conj(), w)

    def choi(self) -> np.ndarray:
        """Block matrix whose (i, j) block is the map applied to e_ij."""
        C = np.diag(self._C.T.reshape(-1).astype(np.complex128))
        d = np.arange(self.n) * (self.n + 1)
        C[np.ix_(d, d)] -= self._G
        return C


class TauMap(_EntrywiseMap):
    """One member tau_{n,k}, optionally corrected by a Hadamard subtraction."""

    def __init__(self, spec: MapSpec, pert: HadamardPerturbation | None = None):
        if pert is not None and pert.dim != spec.n:
            raise DimensionMismatchError(
                f"perturbation is {pert.dim}x{pert.dim} but the map acts on {spec.n}x{spec.n}"
            )
        G = np.ones((spec.n, spec.n), dtype=np.complex128)
        if pert is not None:
            G = G + pert.matrix
        super().__init__(spec.n, shift_coupling(spec), G)
        self.spec = spec
        self.pert = pert


class HadamardMap(_EntrywiseMap):
    """The pure entrywise map X -> L o X; its Choi matrix embeds L on diagonal pairs."""

    def __init__(self, L):
        L = as_square_matrix(L)
        super().__init__(L.shape[0], np.zeros_like(L, dtype=float), -L)
        self.schur_matrix = L
