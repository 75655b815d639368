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

for the circulant C = sum_m c_m P^m, (P v)_i = v_{i+1}, of a nonnegative row
c (coupling_matrix; c = MapSpec(n, k).coupling for tau_{n,k}) and a Hermitian
entrywise factor G.  TauMap implements it, with G = 1 + L.  The positivity
engine reads n, factor, rows of _C, on_projector, quadratic_form and both
*_factors.  G = B B^dag for the n x (1 + r)
factor B = [1, sqrt(w_r) alpha_r], so each matrix on_projector and
quadratic_form return is a diagonal minus a rank-(1 + r) term, which the
*_factors methods give without forming it.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_RTOL = 1e-12
ENTRY_SUM_TOL = 1e-10
# The see-saw's defaults (positivity re-exports them), kept here so that the
# CLI's parser reads them without importing positivity.
DEFAULT_STARTS = 64
NEGATIVITY_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operand dimensions disagree with the map or with each other."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain, or a CLI flag combination is invalid."""


class NumericalAnomalyError(RuntimeError):
    """An internal cross-check that should hold to tight tolerance failed."""


def _check_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(values, name: str, real: bool = False) -> np.ndarray:
    """values as an array of numbers (real ones if real); DomainError names the dtype of any other."""
    a = np.asarray(values)
    if a.dtype.kind not in ("biuf" if real else "biufc"):  # a str, None or int beyond float range
        raise DomainError(f"each {name} must be a {'real ' if real else ''}number, got {a.dtype} entries")
    return a


def _nonnegative_reals(values, name: str) -> np.ndarray:
    """values as a float64 array of finite nonnegative reals; DomainError names the first other entry."""
    a = _numbers(values, name, real=True)
    bad = a[~((0 <= a) & (a < math.inf))]
    if bad.size:
        raise DomainError(f"{name} must be finite and nonnegative, got {float(bad[0])}")
    return a.astype(np.float64)


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 entrywise."""
    return a.real**2 + a.imag**2 if np.iscomplexobj(a) else a * a


def _frozen(self, name, *_):
    """__setattr__ and __delattr__ of the immutable MapSpec and HadamardPerturbation."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class MapSpec:
    """Parameters (n, k) of one member of the shift family, immutable.

    n is the matrix dimension and k the number of cyclic diagonal shifts
    mixed into the output diagonal, so 0 <= k <= n-1.  n is at most the
    largest size whose n x n complex128 matrix fits in np.intp-max bytes,
    NumPy's platform bound on any array.
    """

    __slots__ = ("n", "k")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, k: int):
        n = _check_int(n, "n")
        k = _check_int(k, "k")
        if n < 2:
            raise DomainError(f"n must be at least 2, got {n}")
        if 16 * n * n > np.iinfo(np.intp).max:
            raise DomainError(f"n = {n} is too large for an n x n complex matrix")
        if not 0 <= k <= n - 1:
            raise DomainError(f"k out of range for n={n}: {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __repr__(self) -> str:
        return f"MapSpec(n={self.n}, k={self.k})"

    def __eq__(self, other):
        return (self.n, self.k) == (other.n, other.k) if type(other) is MapSpec else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.k))

    @property
    def coupling(self) -> np.ndarray:
        """tau_{n,k}'s coupling row (n-k, 1 x k, 0 x (n-k-1)), the input of coupling_matrix."""
        return np.concatenate(([self.n - self.k], np.ones(self.k), np.zeros(self.n - self.k - 1)))

    @property
    def gcd(self) -> int:
        return math.gcd(self.n, self.k)

    @property
    def is_reduction(self) -> bool:
        return self.k == self.n - 1


def as_square_matrix(X, n: int | None = None) -> np.ndarray:
    """Coerce X to a complex nonempty square ndarray, optionally checking its size."""
    A = _numbers(X, "matrix entry").astype(np.complex128, copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise DimensionMismatchError("expected a nonempty matrix, got shape (0, 0)")
    if n is not None and A.shape[0] != n:
        raise DimensionMismatchError(f"expected a {n}x{n} matrix, got {A.shape[0]}x{A.shape[0]}")
    return A


def require_hermitian(X) -> np.ndarray:
    """Return X as an ndarray after verifying Hermiticity within HERMITIAN_RTOL of its scale.

    The scale is the largest real or imaginary part of an entry, so the
    test does not change when X is multiplied by a power of two.  Inputs
    that fail, including any with NaN or infinite entries, are rejected,
    never symmetrized.
    """
    A = as_square_matrix(X)
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    scale = max(np.abs(A.real).max(), np.abs(A.imag).max())
    with np.errstate(over="ignore"):  # A - A^* overflows only far from Hermitian: dev = inf rejects
        dev = np.abs(A - A.conj().T).max()
    if dev > HERMITIAN_RTOL * scale:
        raise DomainError(f"matrix is not Hermitian within {HERMITIAN_RTOL:g} of its largest entry "
                          f"(deviation {dev:.3e})")
    return A


def coupling_matrix(row) -> np.ndarray:
    """The circulant C[i, j] = c_{(j-i) mod n} of a coupling row c, that is sum_m c_m P^m.

    c must be a finite nonnegative vector of length n >= 2.  C maps diag X to
    the output's diagonal profile (before -G o X); its row and column sums are sum_m c_m.
    """
    c = np.asarray(row)
    if c.ndim != 1 or c.shape[0] < 2:
        raise DimensionMismatchError(f"coupling row must have length n >= 2, got shape {c.shape}")
    c = _nonnegative_reals(c, "coupling row entry")
    idx = np.arange(c.shape[0])
    return c[(idx - idx[:, None]) % c.shape[0]]


def _window_pairs(C: np.ndarray, x: np.ndarray, j: np.ndarray):
    """(xs, ys): each row x_i zeroed on the window of j_i and renormalised, and e_{j_i}.

    The window of j is the support of C[j] ({j, ..., j + k} for tau_{n,k}).  If it
    holds j (c_0 > 0), xs o ys = 0, (C |xs|^2)_j = 0 and F is exactly 0.0 under C.
    """
    xs = np.where(C[j] != 0, 0.0, x)
    xs /= np.sqrt(_abs2(xs).sum(axis=1))[:, None]
    ys = np.zeros_like(xs)
    ys[np.arange(len(j)), j] = 1.0
    return xs, ys


def _roots_of_unity(n: int) -> np.ndarray:
    """omega^m for m = 0..n-1, omega = exp(2 pi i / n): exactly 1 at m = 0 and -1 at m = n/2."""
    roots = np.exp(1j * ((2 * np.pi * np.arange(n)) / n))
    if n % 2 == 0:
        roots[n // 2] = -1.0
    return roots


def alternating_vector(n: int) -> np.ndarray:
    """Unit vector (1, -1, 1, -1, ...) / sqrt(n), the Fourier row n/2; requires even n."""
    n = _check_int(n, "n")
    if n < 2 or n % 2:
        raise DomainError(f"alternating vector needs even n >= 2, got {n}")
    return _roots_of_unity(n)[(n // 2 * np.arange(n)) % n] / math.sqrt(n)


class HadamardPerturbation:
    """A Hadamard-product subtraction X -> L o X with L = sum_r w_r alpha_r alpha_r^dag, immutable.

    alphas holds r directions of length n, each with entries summing to
    zero within ENTRY_SUM_TOL times its largest modulus (so at any scale),
    and weights the r nonnegative weights, kept as a tuple of floats.  L,
    kept as matrix, is then positive semidefinite with L 1 = 0 by
    construction, so only the inputs are checked.
    """

    __slots__ = ("alphas", "weights", "matrix")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, alphas, weights):
        A = _numbers(alphas, "direction entry").astype(np.complex128, copy=False)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 2:
            raise DimensionMismatchError(
                f"need r >= 1 directions of length n >= 2, got shape {A.shape}"
            )
        w = _nonnegative_reals(weights, "weight")
        if w.shape != A.shape[:1]:
            raise DimensionMismatchError(f"weights of shape {w.shape} for {A.shape[0]} directions")
        if not np.isfinite(A).all():
            raise DomainError("directions have non-finite entries")
        weights = tuple(w.tolist())
        for a in A:
            if abs(a.sum()) > ENTRY_SUM_TOL * np.abs(a).max():
                raise DomainError(f"alpha entries must sum to zero, got {a.sum():.3e}")
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
    """The map of a coupling row (tau_{n,k} for MapSpec(n, k).coupling), optionally corrected.

    G = 1 + L has the factor B = [1, sqrt(w_r) alpha_r] with B B^dag = G.
    factor is this n x m matrix B with its zero columns (zero weights)
    dropped, so plain maps have m = 1 and v1 has m = 2.  B decides the
    arithmetic: B and G are float64 exactly when B has no imaginary part,
    which covers the plain maps and every real direction such as v1, and
    complex128 otherwise, even where a conjugate pair of directions with
    equal weights gives a real L.

    on_projector and quadratic_form take a vector of length n or a stack
    of shape (..., n) and return one n x n matrix per row, shape (..., n, n);
    each row comes out bit for bit as it would alone.  The result is
    complex128 when the input or G is complex; a real input on a map with
    a real G gives a real symmetric float64 matrix.
    """

    def __init__(self, coupling, pert: HadamardPerturbation | None = None):
        self._C = coupling_matrix(coupling)
        self.n = n = self._C.shape[0]
        if pert is not None and pert.dim != n:
            raise DimensionMismatchError(
                f"perturbation is {pert.dim}x{pert.dim} but the map acts on {n}x{n}"
            )
        B = np.ones((n, 1), dtype=np.complex128)
        L = 0.0
        if pert is not None:
            roots = np.sqrt(np.array(pert.weights))
            B = np.concatenate((B, (pert.alphas * roots[:, None]).T), axis=1)
            L = pert.matrix
        if not B.imag.any():
            B, L = B.real, np.real(L)
        self._G = np.ones((n, n)) + L
        self.factor = B[:, B.any(axis=0)]

    def apply(self, X) -> np.ndarray:
        A = as_square_matrix(X, self.n)
        return np.diag(self._C @ np.diagonal(A)) - self._G * A

    def _vectors_and_profile(self, K: np.ndarray, x):
        """(v, K |v|^2) for the rows v of x, float64 when x and the factor are real.

        x must hold numbers: a None or a str entry raises DomainError.
        """
        x = _numbers(x, "vector entry")
        complex_ = x.dtype.kind == "c" or np.iscomplexobj(self.factor)
        v = x.astype(np.complex128 if complex_ else np.float64, copy=False)
        if v.ndim == 0 or v.shape[-1] != self.n:
            raise DimensionMismatchError(f"expected vectors of length {self.n}, got shape {v.shape}")
        return v, np.matmul(K, _abs2(v)[..., None])[..., 0]

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
