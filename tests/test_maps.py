"""Tests for map construction, basis action, and Hadamard subtractions."""

import math

import numpy as np
import pytest

from posmap import (
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    alternating_vector,
    as_square_matrix,
    build_circulant,
    coupling_matrix,
    require_hermitian,
)


def basis_matrix(n, i, j):
    E = np.zeros((n, n), dtype=np.complex128)
    E[i, j] = 1.0
    return E


class TestMapSpec:
    def test_valid_range(self):
        spec = MapSpec(5, 3)
        assert spec.n == 5
        assert spec.k == 3
        assert spec.gcd == 1
        assert not spec.is_reduction

    def test_reduction_flag(self):
        assert MapSpec(4, 3).is_reduction
        assert not MapSpec(4, 2).is_reduction

    def test_gcd_values(self):
        assert MapSpec(6, 3).gcd == 3
        assert MapSpec(6, 4).gcd == 2
        assert MapSpec(7, 3).gcd == 1
        assert MapSpec(4, 0).gcd == 4

    @pytest.mark.parametrize("n,k", [(1, 0), (0, 0), (-3, 0)])
    def test_n_too_small(self, n, k):
        with pytest.raises(DomainError):
            MapSpec(n, k)

    def test_n_too_large_for_an_array(self):
        """The bound is the largest n whose n x n complex128 matrix fits in intp bytes; nothing is allocated."""
        n_max = math.isqrt(np.iinfo(np.intp).max // 16)
        assert MapSpec(n_max, 1).n == n_max
        for n in (n_max + 1, 10**10):
            with pytest.raises(DomainError, match="too large"):
                MapSpec(n, 1)

    @pytest.mark.parametrize("n,k", [(3, 9), (3, 3), (3, -1), (5, 5)])
    def test_k_out_of_range(self, n, k):
        with pytest.raises(DomainError, match="k out of range"):
            MapSpec(n, k)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            MapSpec(3.0, 1)
        with pytest.raises(DomainError):
            MapSpec(3, True)

    def test_fields_are_read_only(self):
        spec = MapSpec(4, 2)
        with pytest.raises(AttributeError, match="MapSpec.n is read-only"):
            spec.n = 5
        with pytest.raises(AttributeError):
            del spec.k
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert (spec.n, spec.k) == (4, 2)

    def test_value_semantics(self):
        assert MapSpec(4, 2) == MapSpec(4, 2) and MapSpec(4, 2) != MapSpec(4, 1)
        assert MapSpec(4, 2) != (4, 2)
        assert len({MapSpec(4, 2), MapSpec(4, 2)}) == 1
        assert repr(MapSpec(4, 2)) == "MapSpec(n=4, k=2)"


class TestShiftCoupling:
    def test_3_1_frozen(self):
        expected = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
        assert np.array_equal(coupling_matrix(MapSpec(3, 1).coupling), expected)

    def test_4_2_frozen(self):
        expected = np.array(
            [
                [2.0, 1.0, 1.0, 0.0],
                [0.0, 2.0, 1.0, 1.0],
                [1.0, 0.0, 2.0, 1.0],
                [1.0, 1.0, 0.0, 2.0],
            ]
        )
        assert np.array_equal(coupling_matrix(MapSpec(4, 2).coupling), expected)

    def test_k_zero_is_scaled_identity(self):
        assert np.array_equal(coupling_matrix(MapSpec(5, 0).coupling), 5.0 * np.eye(5))

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (5, 3), (6, 5), (7, 2)])
    def test_row_and_column_sums_equal_n(self, n, k):
        S = coupling_matrix(MapSpec(n, k).coupling)
        assert np.array_equal(S.sum(axis=0), np.full(n, float(n)))
        assert np.array_equal(S.sum(axis=1), np.full(n, float(n)))

    def test_rows_frozen(self):
        assert np.array_equal(MapSpec(4, 2).coupling, [2.0, 1.0, 1.0, 0.0])
        assert np.array_equal(MapSpec(5, 0).coupling, [5.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(MapSpec(4, 3).coupling, [1.0, 1.0, 1.0, 1.0])

    def test_same_array_as_the_shift_loop(self):
        """Every tau row gives the bytes, dtype and layout of the loop over the k shifts."""
        for n in range(2, 13):
            for k in range(n):
                S = float(n - k) * np.eye(n)
                for m in range(1, k + 1):
                    S[np.arange(n), (np.arange(n) + m) % n] += 1.0
                C = coupling_matrix(MapSpec(n, k).coupling)
                assert C.dtype == np.float64 and C.flags.c_contiguous
                assert C.tobytes() == S.tobytes(), (n, k)

    def test_any_row_is_a_polynomial_in_the_shift(self):
        """C = sum_m c_m P^m with (P v)_i = v_{i+1}."""
        row = [0.5, 0.0, 3.0, 1.25, 7.0]
        P = np.roll(np.eye(5), 1, axis=1)
        expected = sum(c * np.linalg.matrix_power(P, m) for m, c in enumerate(row))
        assert np.array_equal(coupling_matrix(row), expected)
        assert np.array_equal(P @ np.arange(5.0), [1.0, 2.0, 3.0, 4.0, 0.0])

    @pytest.mark.parametrize("row, error", [
        (3.0, DimensionMismatchError), ([2.0], DimensionMismatchError),
        ([[2.0, 1.0], [1.0, 2.0]], DimensionMismatchError), ([2.0, -1.0], DomainError),
        ([2.0, np.nan], DomainError), ([2.0, np.inf], DomainError), ([2.0, 1j], DomainError),
    ])
    def test_bad_rows_rejected(self, row, error):
        with pytest.raises(error):
            coupling_matrix(row)
        with pytest.raises(error):
            TauMap(row)

    @pytest.mark.parametrize("row", [[10**400, 1], ["a", "b"], ["2", "1"], [None, 1]],
                             ids=["int-beyond-float", "str", "numeric-str", "None"])
    def test_rows_of_non_real_numbers_rejected(self, row):
        """An entry NumPy cannot hold as a real number is a DomainError, not NumPy's TypeError."""
        with pytest.raises(DomainError, match="each coupling row entry must be a real number"):
            coupling_matrix(row)
        with pytest.raises(DomainError, match="each coupling row entry must be a real number"):
            TauMap(row)

    def test_a_spec_is_not_a_row(self):
        with pytest.raises(DimensionMismatchError, match="coupling row"):
            TauMap(MapSpec(3, 1))


class TestBasisAction:
    """The map on e_ij follows directly from the window rule: the image of
    e_jj is the j-th coupling column on the diagonal minus e_jj, and every
    off-diagonal e_ij is sent to -e_ij."""

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 5)])
    def test_diagonal_units(self, n, k):
        spec = MapSpec(n, k)
        for j in range(n):
            expected = np.zeros((n, n), dtype=np.complex128)
            expected[j, j] = n - k - 1
            for m in range(1, k + 1):
                i = (j - m) % n
                expected[i, i] += 1.0
            got = TauMap(spec.coupling).apply(basis_matrix(n, j, j))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_off_diagonal_units(self, n, k):
        spec = MapSpec(n, k)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                got = TauMap(spec.coupling).apply(basis_matrix(n, i, j))
                assert np.array_equal(got, -basis_matrix(n, i, j))

    def test_3_1_dense_fixture(self):
        X = np.array(
            [[2.0, -1.0j, 0.5], [1.0j, 3.0, 0.0], [0.5, 0.0, 1.0]],
            dtype=np.complex128,
        )
        expected = np.array(
            [[5.0, 1.0j, -0.5], [-1.0j, 4.0, 0.0], [-0.5, 0.0, 3.0]],
            dtype=np.complex128,
        )
        assert np.array_equal(TauMap(MapSpec(3, 1).coupling).apply(X), expected)

    def test_k_zero_action(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = A + A.conj().T
        got = TauMap(MapSpec(4, 0).coupling).apply(X)
        expected = 4.0 * np.diag(np.diagonal(X)) - X
        assert np.allclose(got, expected, atol=1e-13)


class TestReduction:
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_matches_top_shift(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X = A + A.conj().T
        got = TauMap(MapSpec(n, n - 1).coupling).apply(X)
        expected = np.trace(X) * np.eye(n) - X
        assert np.allclose(got, expected, atol=1e-12)

    def test_explicit_value(self):
        X = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        expected = np.diag([5.0, 4.0, 3.0]).astype(np.complex128)
        assert np.array_equal(TauMap(MapSpec(3, 2).coupling).apply(X), expected)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(3, 2).coupling).apply(np.eye(4))


class TestHermiticity:
    def test_is_hermitian(self):
        H = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
        assert np.array_equal(require_hermitian(H), H)
        with pytest.raises(DomainError, match="not Hermitian"):
            require_hermitian(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_require_hermitian_rejects_non_finite(self, bad):
        M = np.eye(2, dtype=np.complex128)
        M[1, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            require_hermitian(M)

    def test_tolerance_is_relative_to_the_largest_entry(self):
        """A 1e-13 asymmetry is all of a 1e-13 matrix; one ulp at scale 1e20 is 8192 but no asymmetry."""
        with pytest.raises(DomainError, match="not Hermitian"):
            require_hermitian(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        H = np.array([[1e20, 5e19], [5e19, 1e20]])
        H[0, 1] = np.nextafter(H[0, 1], np.inf)
        assert H[0, 1] - H[1, 0] == 8192.0
        assert np.array_equal(require_hermitian(H), H)
        with pytest.raises(DomainError, match="deviation inf"):
            require_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_require_hermitian_rejects_without_symmetrizing(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        M_before = M.copy()
        with pytest.raises(DomainError, match="not Hermitian"):
            require_hermitian(M)
        assert np.array_equal(M, M_before)

    def test_as_square_matrix_shape_guards(self):
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.ones(4))

    def test_empty_matrix_is_a_dimension_mismatch(self):
        """A 0 x 0 matrix is refused by shape, before any reduction over its entries."""
        for check in (as_square_matrix, require_hermitian):
            with pytest.raises(DimensionMismatchError, match=r"got shape \(0, 0\)"):
                check(np.zeros((0, 0)))
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.zeros((0, 0)), n=0)
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.eye(3), n=4)

    @pytest.mark.parametrize("entry", [None, "1", "a", 10**400], ids=["None", "numeric-str", "str", "int-beyond-float"])
    def test_matrix_entries_that_are_not_numbers(self, entry):
        """Refused, not read as NaN or parsed as a number."""
        X = [[entry, 0], [0, 1]]
        with pytest.raises(DomainError, match="each matrix entry must be a number"):
            as_square_matrix(X)
        with pytest.raises(DomainError, match="each matrix entry must be a number"):
            TauMap(MapSpec(2, 1).coupling).apply(X)


class TestAlternatingVector:
    def test_values(self):
        v = alternating_vector(4)
        assert np.array_equal(v, np.array([0.5, -0.5, 0.5, -0.5], dtype=np.complex128))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert abs(v.sum()) == 0.0

    @pytest.mark.parametrize("n", [3, 5, 1, 0])
    def test_odd_or_small_rejected(self, n):
        with pytest.raises(DomainError):
            alternating_vector(n)


class TestHadamardPerturbation:
    def test_rank_one_frozen_matrix(self):
        pert = HadamardPerturbation([alternating_vector(4)], [2.0])
        expected = 0.5 * np.array(
            [
                [1.0, -1.0, 1.0, -1.0],
                [-1.0, 1.0, -1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
                [-1.0, 1.0, -1.0, 1.0],
            ],
            dtype=np.complex128,
        )
        assert np.array_equal(pert.matrix, expected)
        assert pert.weights == (2.0,)
        assert pert.dim == 4

    @pytest.mark.parametrize("field", ["alphas", "weights", "matrix"])
    def test_fields_are_read_only(self, field):
        pert = HadamardPerturbation(alphas=[alternating_vector(4)], weights=[2.0])
        before = getattr(pert, field)
        with pytest.raises(AttributeError, match=f"HadamardPerturbation.{field} is read-only"):
            setattr(pert, field, None)
        assert getattr(pert, field) is before

    def test_rank_one_requires_zero_sum(self):
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation([[1.0, 1.0]], [1.0])

    def test_rank_one_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            HadamardPerturbation([[1.0, -1.0]], [-0.5])

    def test_two_directions_add_their_outer_products(self):
        a = np.array([1.0, -1.0, 0.0])
        b = np.array([0.0, 1.0, -1.0])
        pert = HadamardPerturbation([a, b], [0.5, 2.0])
        assert np.array_equal(pert.matrix, 0.5 * np.outer(a, a) + 2.0 * np.outer(b, b))
        assert pert.weights == (0.5, 2.0)

    def test_zero_sum_is_relative_to_the_direction(self):
        """A tiny direction that does not sum to zero is refused; v1 at any scale is accepted."""
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation([[1e-11, 0.0, 0.0, 0.0]], [1e22])
        v = alternating_vector(4)
        for scale in (1e-150, 1.0, 1e150):
            assert np.array_equal(HadamardPerturbation([scale * v], [1.0]).alphas, [scale * v])

    def test_rejects_any_nonzero_sum_direction(self):
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0])

    @pytest.mark.parametrize(
        "alphas, weights",
        [([], []), ([[1.0]], [1.0]), ([1.0, -1.0], [1.0]), ([[1.0, -1.0]], [1.0, 2.0]),
         ([[1.0, -1.0]], 2.0), ([[1.0, -1.0]], [[2.0]])],
    )
    def test_shape_checks(self, alphas, weights):
        with pytest.raises(DimensionMismatchError):
            HadamardPerturbation(alphas, weights)

    @pytest.mark.parametrize(
        "alphas, weights, match",
        [
            ([[np.nan, 0.0]], [1.0], "non-finite"),
            ([[1.0, -1.0]], [np.inf], "finite and nonnegative"),
            ([[1.0, -1.0]], [np.nan], "finite and nonnegative"),
            ([[1e200, -1e200]], [1e10], "non-finite"),
        ],
    )
    def test_rejects_non_finite_inputs_and_matrix(self, alphas, weights, match):
        with pytest.raises(DomainError, match=match):
            HadamardPerturbation(alphas, weights)

    @pytest.mark.parametrize("entry", ["1", None, 10**400], ids=["numeric-str", "None", "int-beyond-float"])
    def test_rejects_directions_that_are_not_numbers(self, entry):
        with pytest.raises(DomainError, match="each direction entry must be a number"):
            HadamardPerturbation([[entry, -1]], [1.0])

    @pytest.mark.parametrize("weights", [[1j], ["1"], [None], [10**400], None],
                             ids=["complex", "str", "None", "int-beyond-float", "None-for-the-list"])
    def test_rejects_weights_that_are_not_real_numbers(self, weights):
        with pytest.raises(DomainError, match="each weight must be a real number"):
            HadamardPerturbation([[1.0, -1.0]], weights)

    def test_zero_sum_psd_annihilates_ones(self):
        rng = np.random.default_rng(11)
        ones = np.ones(5)
        P = np.eye(5) - np.outer(ones, ones) / 5.0
        for _ in range(50):
            A = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
            pert = HadamardPerturbation(A @ P, rng.exponential(size=3))
            assert np.abs(pert.matrix @ ones).max() <= 1e-9
            assert np.linalg.eigvalsh(pert.matrix).min() >= -1e-9


class TestTauMapProtocol:
    def test_perturbation_dimension_guard(self):
        pert = HadamardPerturbation([alternating_vector(4)], [1.0])
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(5, 1).coupling, pert)

    def test_apply_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(3, 1).coupling).apply(np.eye(4))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 4)])
    def test_on_projector_matches_apply(self, n, k):
        rng = np.random.default_rng([n, k])
        map_ = TauMap(MapSpec(n, k).coupling)
        for _ in range(20):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            xb = x.conj()
            direct = map_.apply(np.outer(xb, xb.conj()))
            assert np.allclose(map_.on_projector(x), direct, atol=1e-12)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_quadratic_form_adjoint_identity(self, n, k):
        """x^dag Q(y) x equals <y, map(conj(x) conj(x)^dag) y> for all x, y."""
        rng = np.random.default_rng([17, n, k])
        pert = None
        if n % 2 == 0:
            pert = HadamardPerturbation([alternating_vector(n)], [0.7])
        map_ = TauMap(MapSpec(n, k).coupling, pert)
        for _ in range(25):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            lhs = (x.conj() @ (map_.quadratic_form(y) @ x)).real
            rhs = (y.conj() @ (map_.on_projector(x) @ y)).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("entry", [None, "1", "a", 10**400], ids=["None", "numeric-str", "str", "int-beyond-float"])
    def test_vector_entries_that_are_not_numbers(self, entry):
        """Refused by every vector kernel, not read as NaN or parsed as a number."""
        map_ = TauMap(MapSpec(3, 1).coupling)
        x = [entry, 1, 1]
        for kernel in (map_.on_projector, map_.quadratic_form,
                       map_.on_projector_factors, map_.quadratic_form_factors):
            with pytest.raises(DomainError, match="each vector entry must be a number"):
                kernel(x)
            with pytest.raises(DomainError, match="each vector entry must be a number"):
                kernel([x, [1, 0, 0]])

    def test_perturbed_apply_subtracts_schur_product(self):
        spec = MapSpec(4, 2)
        pert = HadamardPerturbation([alternating_vector(4)], [2.0])
        rng = np.random.default_rng(23)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = A + A.conj().T
        got = TauMap(spec.coupling, pert).apply(X)
        expected = TauMap(spec.coupling).apply(X) - pert.matrix * X
        assert np.allclose(got, expected, atol=1e-12)


def stacked_kernel_maps():
    for n in range(2, 13):
        for k in range(n):
            yield TauMap(MapSpec(n, k).coupling)
            if n % 2 == 0:
                yield TauMap(MapSpec(n, k).coupling, HadamardPerturbation([alternating_vector(n)], [1.3]))


class TestStackedKernels:
    """A (..., n) stack gives each row's n x n matrix bit for bit as the 1-D call does."""

    @staticmethod
    def reference(map_, K, v):
        # The 1-D formula the stacked kernels replaced.
        return np.diag(K @ (v.real**2 + v.imag**2)) - map_._G * np.outer(v.conj(), v)

    @staticmethod
    def rows(n, rng):
        X = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        X[1, ::2] = 0.0  # exact zero entries
        X[2, 0] = -0.0
        X[3] = X[3].real  # a purely real row
        X[4] = 0.0
        return X

    def test_rows_match_the_one_dimensional_call(self):
        rng = np.random.default_rng(29)
        for map_ in stacked_kernel_maps():
            X = self.rows(map_.n, rng)
            for kernel, K in ((map_.on_projector, map_._C), (map_.quadratic_form, map_._C.T)):
                stack = kernel(X)
                assert stack.shape == X.shape + (map_.n,)
                assert kernel(X.reshape(2, 3, map_.n)).tobytes() == stack.tobytes()
                for row, out in zip(X, stack):
                    alone = kernel(row)
                    assert out.tobytes() == alone.tobytes()
                    assert alone.tobytes() == self.reference(map_, K, row).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 5), (4, 1), ()])
    def test_wrong_last_axis_rejected(self, shape):
        map_ = TauMap(MapSpec(4, 2).coupling)
        for kernel in (map_.on_projector, map_.quadratic_form):
            with pytest.raises(DimensionMismatchError):
                kernel(np.ones(shape))


def fourier_map(n, k, weights):
    spec = MapSpec(n, k)
    return TauMap(spec.coupling, HadamardPerturbation(build_circulant(spec).kernel, weights))


class TestRealSchurFactor:
    """A real G keeps real input real, so the see-saw's eigh runs on real symmetric stacks."""

    @staticmethod
    def real_g_maps():
        yield TauMap(MapSpec(6, 2).coupling)
        yield TauMap(MapSpec(6, 2).coupling, HadamardPerturbation([alternating_vector(6)], [1.3]))

    def test_real_input_gives_float64(self):
        a = np.abs(np.random.default_rng(31).normal(size=(3, 6)))
        for map_ in self.real_g_maps():
            assert map_._G.dtype == np.float64
            for kernel in (map_.on_projector, map_.quadratic_form):
                assert kernel(a).dtype == np.float64
                assert kernel(a[0]).dtype == np.float64
                assert kernel(a + 0j).dtype == np.complex128

    def test_real_path_equals_complex_path(self):
        """On real input the float64 result is the real part of the complex one, bit for bit."""
        a = np.random.default_rng(37).normal(size=(3, 6))
        for map_ in self.real_g_maps():
            for kernel in (map_.on_projector, map_.quadratic_form):
                full = kernel(a.astype(np.complex128))
                assert kernel(a).tobytes() == full.real.tobytes()
                assert not full.imag.any()

    def test_complex_direction_keeps_complex_g(self):
        spec = MapSpec(6, 3)
        map_ = TauMap(spec.coupling, HadamardPerturbation(build_circulant(spec).kernel, [0.7, 0.4]))
        assert map_._G.dtype == np.complex128
        assert map_.on_projector(np.ones(6)).dtype == np.complex128


class TestSchurFactor:
    """G = B B^dag, so each kernel matrix is Diag(d) - U U^dag with U = conj(v) o B."""

    @staticmethod
    def factor_maps():
        yield TauMap(MapSpec(6, 2).coupling), 1, np.float64
        yield TauMap(MapSpec(6, 2).coupling, HadamardPerturbation([alternating_vector(6)], [1.3])), 2, np.float64
        spec = MapSpec(6, 3)
        kernel = build_circulant(spec).kernel
        yield TauMap(spec.coupling, HadamardPerturbation(kernel, [0.7, 0.4])), 3, np.complex128
        # A zero weight drops its column.
        yield TauMap(spec.coupling, HadamardPerturbation(kernel, [0.0, 0.4])), 2, np.complex128
        # Equal weights on a conjugate pair cancel in Im L, but B is complex, so G is too.
        spec = MapSpec(16, 12)
        kernel = build_circulant(spec).kernel
        yield TauMap(spec.coupling, HadamardPerturbation(kernel, [1.0, 2.0, 1.0])), 4, np.complex128

    def test_factor_reproduces_g(self):
        for map_, m, dtype in self.factor_maps():
            B = map_.factor
            assert B.shape == (map_.n, m) and B.dtype == dtype
            assert map_._G.dtype == dtype
            assert np.abs(B @ B.conj().T - map_._G).max() <= 1e-15 * np.abs(map_._G).max()

    def test_factors_reproduce_the_kernels(self):
        rng = np.random.default_rng(41)
        for map_, _, dtype in self.factor_maps():
            X = np.abs(rng.normal(size=(3, map_.n)))
            X[1, 0] = 0.0
            for dense, factors, K in ((map_.on_projector, map_.on_projector_factors, map_._C),
                                      (map_.quadratic_form, map_.quadratic_form_factors, map_._C.T)):
                A = dense(X)
                d, U = factors(X)
                assert d.shape == X.shape and U.shape == X.shape + (map_.factor.shape[1],)
                assert U.dtype == dtype
                assert np.abs(d - X**2 @ K.T).max() <= 1e-15 * d.max()
                low_rank = -U @ np.conj(np.swapaxes(U, 1, 2))
                low_rank[:, np.arange(map_.n), np.arange(map_.n)] += d
                assert np.abs(low_rank - A).max() <= 1e-14 * np.abs(A).max()

    @pytest.mark.parametrize("make, m, dtype", [
        (lambda: fourier_map(8, 4, [1.0, 2.0, 1.0]), 4, np.complex128),
        (lambda: fourier_map(16, 12, [1.0, 2.0, 1.0]), 4, np.complex128),
        (lambda: fourier_map(24, 18, [1.0, 2.0, 3.0, 2.0, 1.0]), 6, np.complex128),
        (lambda: fourier_map(16, 12, [0.0, 1.0, 0.0]), 2, np.float64),
        (lambda: fourier_map(16, 12, [0.0, 0.0, 0.0]), 1, np.float64),
        (lambda: TauMap(MapSpec(16, 12).coupling), 1, np.float64),
        (lambda: TauMap(MapSpec(24, 6).coupling, HadamardPerturbation([alternating_vector(24)], [18.0])),
         2, np.float64),
    ], ids=["pair-8-4", "pair-16-12", "pairs-24-18", "real-16-12", "zero-16-12", "plain-16-12",
            "v1-24-6"])
    def test_factor_decides_the_arithmetic(self, make, m, dtype):
        """G and the factor are real exactly when B = [1, sqrt(w_r) alpha_r] is, whatever Im L rounds to.

        Conjugate Fourier pairs with equal weights are complex at every
        size; one real Fourier direction (the alternating vector) and
        all-zero weights keep the real factor of the plain and v1 maps.
        """
        map_ = make()
        assert map_.factor.shape == (map_.n, m) and map_.factor.dtype == dtype
        assert map_._G.dtype == dtype
        assert map_.on_projector(np.ones(map_.n)).dtype == dtype


class TestChoi:
    def test_3_1_eigenvalues_frozen(self):
        eigs = np.linalg.eigvalsh(TauMap(MapSpec(3, 1).coupling).choi())
        expected = [-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]
        assert np.allclose(eigs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_k_zero_choi_is_psd(self, n):
        eigs = np.linalg.eigvalsh(TauMap(MapSpec(n, 0).coupling).choi())
        assert eigs.min() >= -1e-12

    def test_blocks_are_basis_images(self):
        spec = MapSpec(4, 2)
        C = TauMap(spec.coupling).choi()
        for i in range(4):
            for j in range(4):
                blk = C[4 * i : 4 * (i + 1), 4 * j : 4 * (j + 1)]
                assert np.array_equal(blk, TauMap(spec.coupling).apply(basis_matrix(4, i, j)))

    def test_hadamard_map_choi_embeds_schur_matrix(self):
        """The Choi matrix of X -> L o X, read as the drop a subtraction makes, embeds L."""
        a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        L = np.outer(a, a)
        pert = HadamardPerturbation([a], [1.0])
        n = 3
        embedded = np.zeros((9, 9))
        for i in range(n):
            for j in range(n):
                embedded[i * n + i, j * n + j] = L[i, j]
        for k in range(n):
            spec = MapSpec(n, k)
            C = TauMap(spec.coupling).choi() - TauMap(spec.coupling, pert).choi()
            assert np.allclose(C, embedded, atol=1e-15), k


class TestDiagonalUnitaryCovariance:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 5)])
    def test_conjugation_commutes(self, n, k):
        rng = np.random.default_rng([31, n, k])
        spec = MapSpec(n, k)
        for _ in range(30):
            phases = np.exp(2j * np.pi * rng.random(n))
            U = np.diag(phases)
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            X = A + A.conj().T
            lhs = TauMap(spec.coupling).apply(U @ X @ U.conj().T)
            rhs = U @ TauMap(spec.coupling).apply(X) @ U.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestPublicApi:
    def test_all_names_surviving_paths_only(self):
        """One public name per fact: no wrapper that only forwards to TauMap,
        no second subtraction validator and no second kernel source."""
        import posmap

        assert sorted(posmap.__all__) == sorted([
            "__version__",
            "DimensionMismatchError", "DomainError", "NumericalAnomalyError",
            "MapSpec", "HadamardPerturbation", "TauMap",
            "alternating_vector", "coupling_matrix", "as_square_matrix", "require_hermitian",
            "PositivityReport", "form_value", "seesaw_minimize",
            "f_value", "analytic_det", "hessian_shat", "degenerate_det_bound",
            "parity_witness_value",
            "SpanningSet", "unimodular_pairs",
            "degenerate_pairs", "build_spanning_set", "gram_rank",
            "CirculantConstraint", "OptimalityCertificate", "ConjectureEvidence",
            "build_circulant", "certify_optimality", "conjecture_probe",
        ])
        for name in posmap.__all__:
            assert hasattr(posmap, name)

    def test_records_construct_by_keyword(self):
        """The five result records keep their field names, order and the one default."""
        import posmap

        fields = {
            "PositivityReport": ("verdict", "min_value", "witness_x", "witness_y",
                                 "iterations", "starts_capped", "starts_snapped"),
            "SpanningSet": ("pairs", "values", "gram_rank", "sigma_membership"),
            "CirculantConstraint": ("first_row", "eigenvalues", "zero_indices", "kernel"),
            "OptimalityCertificate": ("gcd", "kernel_dim", "verdict", "constraint"),
            "ConjectureEvidence": ("t", "t_max_witnessed", "witness_value_at_t",
                                   "witness_value_above_max", "seesaw", "verdict", "counterexample_mu"),
        }
        for name, names in fields.items():
            record = getattr(posmap, name)
            values = {field: f"{name}.{field}" for field in names}
            built = record(**values)
            assert tuple(getattr(built, field) for field in names) == tuple(values.values()), name
            assert record._fields == names
        evidence = posmap.ConjectureEvidence(t=2.0, t_max_witnessed=2.0, witness_value_at_t=0.0,
                                             witness_value_above_max=-0.1, seesaw=None,
                                             verdict="evidence-positive")
        assert evidence.counterexample_mu is None
