"""Shift-coupled diagonal maps on M_n and their Hadamard-product corrections.

The family tau_{n,k} sends a square complex matrix X to

    [tau_{n,k}(X)]_ii = (n-k-1) x_ii + x_{i+1,i+1} + ... + x_{i+k,i+k}
    [tau_{n,k}(X)]_ij = -x_ij                                  (i != j)

with all index arithmetic mod n.  The edge members are familiar: k = 0 is
completely positive, and k = n-1 is the reduction map Tr(X) I - X.  A
corrected map subtracts a Hadamard (entrywise) product L o X, where
L = sum_r w_r alpha_r alpha_r^dag for weights w_r >= 0 and directions
alpha_r whose entries sum to zero; subtractions of this shape are
completely positive and vanish on every projector built from a vector of
unimodular entries.

Every map here fits a single template

    X  ->  Diag(C . diag X) - G o X

for a real coupling matrix C and a Hermitian entrywise factor G.  TauMap
implements it, with C = shift_coupling(spec) and G = 1 + L; it exposes
the small protocol (apply, on_projector, quadratic_form, choi) consumed
by the positivity engine.  G = B B^dag for the n x (1 + r)
factor B = [1, sqrt(w_r) alpha_r], so each matrix on_projector and
quadratic_form return is a diagonal minus a rank-(1 + r) term, which the
*_factors methods give without forming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_ATOL = 1e-12
ENTRY_SUM_ATOL = 1e-10


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
    mixed into the output diagonal, so 0 <= k <= n-1.  n is at most the
    largest size whose n x n complex128 matrix fits in np.intp-max bytes,
    NumPy's platform bound on any array.
    """

    n: int
    k: int

    def __post_init__(self):
        n = _check_int(self.n, "n")
        k = _check_int(self.k, "k")
        if n < 2:
            raise DomainError(f"n must be at least 2, got {n}")
        if 16 * n * n > np.iinfo(np.intp).max:
            raise DomainError(f"n = {n} is too large for an n x n complex matrix")
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
    """A Hadamard-product subtraction X -> L o X with L = sum_r w_r alpha_r alpha_r^dag.

    alphas holds r directions of length n, each with entries summing to
    zero, and weights the r nonnegative weights.  L is then positive
    semidefinite with L 1 = 0 by construction, so only the inputs are
    checked.
    """

    alphas: np.ndarray
    weights: tuple
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.alphas, dtype=np.complex128)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 2:
            raise DimensionMismatchError(
                f"need r >= 1 directions of length n >= 2, got shape {A.shape}"
            )
        if len(self.weights) != A.shape[0]:
            raise DimensionMismatchError(f"{len(self.weights)} weights for {A.shape[0]} directions")
        if not np.isfinite(A).all():
            raise DomainError("directions have non-finite entries")
        for w in self.weights:
            if not 0 <= w < math.inf:
                raise DomainError(f"weight must be finite and nonnegative, got {w}")
        for a in A:
            if abs(a.sum()) > ENTRY_SUM_ATOL:
                raise DomainError(f"alpha entries must sum to zero, got {a.sum():.3e}")
        weights = tuple(float(w) for w in self.weights)
        with np.errstate(over="ignore", invalid="ignore"):
            L = sum(w * np.outer(a, a.conj()) for a, w in zip(A, weights))
        if not np.isfinite(L).all():
            raise DomainError("subtraction matrix has non-finite entries")
        object.__setattr__(self, "alphas", A)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "matrix", L)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class TauMap:
    """One member tau_{n,k}, optionally corrected by a Hadamard subtraction.

    G = 1 + L is stored as float64 when L has no imaginary part, which
    covers the plain maps and every real direction such as v1.  Its factor
    is B = [1, sqrt(w_r) alpha_r]; when G is real, B is replaced by the
    real factor [Re B, Im B]; zero columns are dropped, so that plain maps
    have m = 1 and v1 has m = 2.  factor is this n x m matrix B with
    B B^dag = G, real when G is.

    on_projector and quadratic_form take a vector of length n or a stack
    of shape (..., n) and return one n x n matrix per row, shape (..., n, n);
    each row comes out bit for bit as it would alone.  The result is
    complex128 when the input or G is complex; a real input on a map with
    a real G gives a real symmetric float64 matrix.
    """

    def __init__(self, spec: MapSpec, pert: HadamardPerturbation | None = None):
        if pert is not None and pert.dim != spec.n:
            raise DimensionMismatchError(
                f"perturbation is {pert.dim}x{pert.dim} but the map acts on {spec.n}x{spec.n}"
            )
        G = np.ones((spec.n, spec.n))
        B = np.ones((spec.n, 1), dtype=np.complex128)
        if pert is not None:
            L = pert.matrix
            G = G + (L if L.imag.any() else L.real)
            roots = np.sqrt(np.array(pert.weights))
            B = np.concatenate((B, (pert.alphas * roots[:, None]).T), axis=1)
        if not np.iscomplexobj(G):
            B = np.concatenate((B.real, B.imag), axis=1)
        self.n = spec.n
        self._C = shift_coupling(spec)
        self._G = G
        self.factor = B[:, B.any(axis=0)]

    def apply(self, X) -> np.ndarray:
        A = as_square_matrix(X, self.n)
        return np.diag(self._C @ np.diagonal(A)) - self._G * A

    def _vectors_and_profile(self, K: np.ndarray, x):
        """(v, K |v|^2) for the rows v of x, float64 when x and G are real."""
        complex_ = np.iscomplexobj(x) or np.iscomplexobj(self._G)
        v = np.asarray(x, dtype=np.complex128 if complex_ else np.float64)
        if v.ndim == 0 or v.shape[-1] != self.n:
            raise DimensionMismatchError(f"expected vectors of length {self.n}, got shape {v.shape}")
        p = v.real**2 + v.imag**2
        return v, np.matmul(K, p[..., None])[..., 0]

    def _diag_minus_schur(self, K: np.ndarray, x) -> np.ndarray:
        """Diag(K |v|^2) - G o outer(conj(v), v) for each row v of x."""
        v, d = self._vectors_and_profile(K, x)
        n = self.n
        out = np.zeros(v.shape + (n,), dtype=v.dtype)
        out.reshape(v.shape[:-1] + (n * n,))[..., :: n + 1] = d
        out -= self._G * (v.conj()[..., :, None] * v[..., None, :])
        return out

    def _diag_and_factor(self, K: np.ndarray, x):
        """(d, U) with Diag(d) - U U^dag = _diag_minus_schur(K, x): d = K |v|^2, U = conj(v) o B."""
        v, d = self._vectors_and_profile(K, x)
        return d, v.conj()[..., :, None] * self.factor

    def on_projector(self, x) -> np.ndarray:
        """The map evaluated on conj(x) conj(x)^dag, given the vector x."""
        return self._diag_minus_schur(self._C, x)

    def quadratic_form(self, y) -> np.ndarray:
        """Hermitian Q(y) with x^dag Q x = <y, map(conj(x) conj(x)^dag) y>."""
        return self._diag_minus_schur(self._C.T, y)

    def on_projector_factors(self, x):
        """on_projector(x) as (d, U), the matrix being Diag(d) - U U^dag."""
        return self._diag_and_factor(self._C, x)

    def quadratic_form_factors(self, y):
        """quadratic_form(y) as (d, U), the matrix being Diag(d) - U U^dag."""
        return self._diag_and_factor(self._C.T, y)

    def choi(self) -> np.ndarray:
        """Block matrix whose (i, j) block is the map applied to e_ij."""
        C = np.diag(self._C.T.reshape(-1).astype(np.complex128))
        d = np.arange(self.n) * (self.n + 1)
        C[np.ix_(d, d)] -= self._G
        return C


# perfbench/spans.py hooks TauMap's kernels under this name; direction 6 of
# ROADMAP.md replaces those hooks and deletes it.
_EntrywiseMap = TauMap
