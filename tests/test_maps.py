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
    require_hermitian,
    shift_coupling,
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


class TestShiftCoupling:
    def test_3_1_frozen(self):
        expected = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
        assert np.array_equal(shift_coupling(MapSpec(3, 1)), expected)

    def test_4_2_frozen(self):
        expected = np.array(
            [
                [2.0, 1.0, 1.0, 0.0],
                [0.0, 2.0, 1.0, 1.0],
                [1.0, 0.0, 2.0, 1.0],
                [1.0, 1.0, 0.0, 2.0],
            ]
        )
        assert np.array_equal(shift_coupling(MapSpec(4, 2)), expected)

    def test_k_zero_is_scaled_identity(self):
        assert np.array_equal(shift_coupling(MapSpec(5, 0)), 5.0 * np.eye(5))

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (5, 3), (6, 5), (7, 2)])
    def test_row_and_column_sums_equal_n(self, n, k):
        S = shift_coupling(MapSpec(n, k))
        assert np.array_equal(S.sum(axis=0), np.full(n, float(n)))
        assert np.array_equal(S.sum(axis=1), np.full(n, float(n)))


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
            got = TauMap(spec).apply(basis_matrix(n, j, j))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_off_diagonal_units(self, n, k):
        spec = MapSpec(n, k)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                got = TauMap(spec).apply(basis_matrix(n, i, j))
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
        assert np.array_equal(TauMap(MapSpec(3, 1)).apply(X), expected)

    def test_k_zero_action(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = A + A.conj().T
        got = TauMap(MapSpec(4, 0)).apply(X)
        expected = 4.0 * np.diag(np.diagonal(X)) - X
        assert np.allclose(got, expected, atol=1e-13)


class TestReduction:
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_matches_top_shift(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X = A + A.conj().T
        got = TauMap(MapSpec(n, n - 1)).apply(X)
        expected = np.trace(X) * np.eye(n) - X
        assert np.allclose(got, expected, atol=1e-12)

    def test_explicit_value(self):
        X = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        expected = np.diag([5.0, 4.0, 3.0]).astype(np.complex128)
        assert np.array_equal(TauMap(MapSpec(3, 2)).apply(X), expected)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(3, 2)).apply(np.eye(4))


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
        with pytest.raises(DimensionMismatchError):
            as_square_matrix(np.eye(3), n=4)


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

    def test_rejects_any_nonzero_sum_direction(self):
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0])

    @pytest.mark.parametrize(
        "alphas, weights",
        [([], []), ([[1.0]], [1.0]), ([1.0, -1.0], [1.0]), ([[1.0, -1.0]], [1.0, 2.0])],
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
            TauMap(MapSpec(5, 1), pert)

    def test_apply_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(3, 1)).apply(np.eye(4))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 4)])
    def test_on_projector_matches_apply(self, n, k):
        rng = np.random.default_rng([n, k])
        map_ = TauMap(MapSpec(n, k))
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
        map_ = TauMap(MapSpec(n, k), pert)
        for _ in range(25):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            lhs = (x.conj() @ (map_.quadratic_form(y) @ x)).real
            rhs = (y.conj() @ (map_.on_projector(x) @ y)).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_perturbed_apply_subtracts_schur_product(self):
        spec = MapSpec(4, 2)
        pert = HadamardPerturbation([alternating_vector(4)], [2.0])
        rng = np.random.default_rng(23)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = A + A.conj().T
        got = TauMap(spec, pert).apply(X)
        expected = TauMap(spec).apply(X) - pert.matrix * X
        assert np.allclose(got, expected, atol=1e-12)


def stacked_kernel_maps():
    for n in range(2, 13):
        for k in range(n):
            yield TauMap(MapSpec(n, k))
            if n % 2 == 0:
                yield TauMap(MapSpec(n, k), HadamardPerturbation([alternating_vector(n)], [1.3]))


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
        map_ = TauMap(MapSpec(4, 2))
        for kernel in (map_.on_projector, map_.quadratic_form):
            with pytest.raises(DimensionMismatchError):
                kernel(np.ones(shape))


class TestRealSchurFactor:
    """A real G keeps real input real, so the see-saw's eigh runs on real symmetric stacks."""

    @staticmethod
    def real_g_maps():
        yield TauMap(MapSpec(6, 2))
        yield TauMap(MapSpec(6, 2), HadamardPerturbation([alternating_vector(6)], [1.3]))

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
        map_ = TauMap(spec, HadamardPerturbation(build_circulant(spec).kernel, [0.7, 0.4]))
        assert map_._G.dtype == np.complex128
        assert map_.on_projector(np.ones(6)).dtype == np.complex128


class TestSchurFactor:
    """G = B B^dag, so each kernel matrix is Diag(d) - U U^dag with U = conj(v) o B."""

    @staticmethod
    def factor_maps():
        yield TauMap(MapSpec(6, 2)), 1, np.float64
        yield TauMap(MapSpec(6, 2), HadamardPerturbation([alternating_vector(6)], [1.3])), 2, np.float64
        spec = MapSpec(6, 3)
        kernel = build_circulant(spec).kernel
        yield TauMap(spec, HadamardPerturbation(kernel, [0.7, 0.4])), 3, np.complex128
        # A zero weight drops its column.
        yield TauMap(spec, HadamardPerturbation(kernel, [0.0, 0.4])), 2, np.complex128
        # Equal weights on a conjugate pair give a real G and a real factor [Re B, Im B].
        spec = MapSpec(16, 12)
        kernel = build_circulant(spec).kernel
        yield TauMap(spec, HadamardPerturbation(kernel, [1.0, 2.0, 1.0])), 6, np.float64

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


class TestChoi:
    def test_3_1_eigenvalues_frozen(self):
        eigs = np.linalg.eigvalsh(TauMap(MapSpec(3, 1)).choi())
        expected = [-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]
        assert np.allclose(eigs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_k_zero_choi_is_psd(self, n):
        eigs = np.linalg.eigvalsh(TauMap(MapSpec(n, 0)).choi())
        assert eigs.min() >= -1e-12

    def test_blocks_are_basis_images(self):
        spec = MapSpec(4, 2)
        C = TauMap(spec).choi()
        for i in range(4):
            for j in range(4):
                blk = C[4 * i : 4 * (i + 1), 4 * j : 4 * (j + 1)]
                assert np.array_equal(blk, TauMap(spec).apply(basis_matrix(4, i, j)))

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
            C = TauMap(spec).choi() - TauMap(spec, pert).choi()
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
            lhs = TauMap(spec).apply(U @ X @ U.conj().T)
            rhs = U @ TauMap(spec).apply(X) @ U.conj().T
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
            "alternating_vector", "shift_coupling", "as_square_matrix", "require_hermitian",
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
