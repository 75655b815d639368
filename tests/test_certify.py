"""Tests for the window-sum circulant, kernel certificates, and the weight probe."""

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
)
from posmap import certify
from posmap.certify import build_circulant, certify_optimality, conjecture_probe


class TestBuildCirculant:
    def test_3_1_frozen(self):
        c = build_circulant(MapSpec(3, 1))
        expected = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=float)
        assert np.array_equal(c.matrix, expected)
        assert np.array_equal(c.first_row, [1, 1, 0])
        assert round(np.linalg.det(c.matrix)) == 2

    def test_4_3_is_identity(self):
        c = build_circulant(MapSpec(4, 3))
        assert np.array_equal(c.matrix, np.eye(4))
        assert round(np.linalg.det(c.matrix)) == 1

    def test_5_3_frozen(self):
        c = build_circulant(MapSpec(5, 3))
        expected = np.array(
            [
                [1, 1, 0, 0, 0],
                [0, 1, 1, 0, 0],
                [0, 0, 1, 1, 0],
                [0, 0, 0, 1, 1],
                [1, 0, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(c.matrix, expected)
        assert round(np.linalg.det(c.matrix)) == 2

    def test_4_2_spectrum_frozen(self):
        c = build_circulant(MapSpec(4, 2))
        eigs, zeros = c.eigenvalues, c.zero_indices
        assert eigs[0] == 2.0 + 0.0j
        assert eigs[2] == 0.0 + 0.0j
        assert np.allclose(eigs, [2.0, 1.0 + 1.0j, 0.0, 1.0 - 1.0j], atol=1e-12)
        assert zeros == (2,)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            build_circulant(MapSpec(3, 0))

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (9, 6), (12, 8)])
    def test_zero_indices_follow_gcd(self, n, k):
        c = build_circulant(MapSpec(n, k))
        d = MapSpec(n, k).gcd
        assert c.zero_indices == tuple(r * (n // d) for r in range(1, d))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_leading_eigenvalue(self, n):
        for k in range(1, n):
            c = build_circulant(MapSpec(n, k))
            assert c.eigenvalues[0] == complex(n - k)

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 6), (11, 4)])
    def test_closed_form_diagonalizes_matrix(self, n, k):
        c = build_circulant(MapSpec(n, k))
        idx = np.arange(n)
        for j in range(n):
            fourier = np.exp(2j * np.pi * j * idx / n) / np.sqrt(n)
            residual = c.matrix @ fourier - c.eigenvalues[j] * fourier
            assert np.linalg.norm(residual) <= 1e-10


class TestKernelBasis:
    def test_4_2_exact(self):
        (v,) = build_circulant(MapSpec(4, 2)).kernel
        assert np.array_equal(v, np.array([0.5, -0.5, 0.5, -0.5], dtype=np.complex128))

    @pytest.mark.parametrize(
        "n,k,dim", [(4, 2, 1), (6, 2, 1), (6, 3, 2), (6, 4, 1), (9, 6, 2), (12, 8, 3)]
    )
    def test_dimension_is_gcd_minus_one(self, n, k, dim):
        c = build_circulant(MapSpec(n, k))
        assert len(c.kernel) == dim
        for v in c.kernel:
            assert np.linalg.norm(c.matrix @ v) <= 1e-10
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 3), (8, 3)])
    def test_coprime_members_have_empty_kernel(self, n, k):
        assert build_circulant(MapSpec(n, k)).kernel == ()


class TestCertifyOptimality:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 3), (7, 5), (8, 7)])
    def test_coprime_members_certified(self, n, k):
        cert = certify_optimality(MapSpec(n, k))
        assert cert.verdict == "optimal-certified"
        assert cert.kernel_dim == 0
        assert cert.constraint.kernel == ()

    @pytest.mark.parametrize("n,k,dim", [(4, 2, 1), (6, 3, 2), (6, 4, 1), (9, 6, 2)])
    def test_shared_factor_members_not_certified(self, n, k, dim):
        cert = certify_optimality(MapSpec(n, k))
        assert cert.verdict == "not-certified"
        assert cert.gcd == MapSpec(n, k).gcd
        assert cert.kernel_dim == dim
        assert len(cert.constraint.kernel) == dim
        for v in cert.constraint.kernel:
            HadamardPerturbation.rank_one(v, 1.0)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            certify_optimality(MapSpec(5, 0))

    def test_kernel_entry_sum_is_cross_checked(self, monkeypatch):
        """A kernel vector whose entries do not sum to zero is an anomaly, not a candidate."""
        monkeypatch.setattr(certify, "ENTRY_SUM_ATOL", -1.0)
        with pytest.raises(NumericalAnomalyError, match="entry sum"):
            certify_optimality(MapSpec(4, 2))
        certify_optimality(MapSpec(3, 1))


class TestAdmissibleSubtractionCheck:
    """Admissibility is checked in one place: HadamardPerturbation's constructor."""

    def test_kernel_direction_passes_at_positive_weight(self):
        (v,) = build_circulant(MapSpec(4, 2)).kernel
        pert = HadamardPerturbation.rank_one(v, 1.5)
        assert np.abs(pert.matrix @ np.ones(4)).max() <= 1e-12

    def test_raw_matrix_inputs(self):
        a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        HadamardPerturbation.full(np.outer(a, a))
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation.full(np.ones((3, 3)))
        with pytest.raises(DomainError, match="not PSD"):
            HadamardPerturbation.full(np.diag([1.0, -1.0]))

    def test_dimension_argument(self):
        a = np.array([1.0, -1.0]) / np.sqrt(2.0)
        pert = HadamardPerturbation.full(np.outer(a, a))
        TauMap(MapSpec(2, 1), pert)
        with pytest.raises(DimensionMismatchError):
            TauMap(MapSpec(3, 1), pert)


class TestConjectureProbe:
    def test_4_2_default_weight(self):
        ev = conjecture_probe(MapSpec(4, 2), starts=8)
        assert ev.verdict == "evidence-positive"
        assert ev.t == 2.0
        assert ev.t_max_witnessed == 2.0
        assert ev.witness_value_at_t == 0.0
        assert ev.witness_value_above_max == -0.050000000000000044
        assert ev.counterexample_mu is None
        assert ev.seesaw.min_value >= -1e-7

    def test_4_2_excessive_weight_finds_counterexample(self):
        ev = conjecture_probe(MapSpec(4, 2), t=2.5, starts=8)
        assert ev.verdict == "counterexample-found"
        assert ev.witness_value_at_t == -0.25
        assert np.array_equal(ev.counterexample_mu, [1.0, 0.0, 1.0, 0.0])

    def test_seesaw_confirms_analytic_counterexample(self):
        ev = conjecture_probe(MapSpec(4, 2), t=2.5, starts=8)
        assert ev.seesaw.verdict == "negative-certificate"
        assert ev.seesaw.min_value <= -0.1

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 3), (5, 2)])
    def test_requires_shared_factor_two(self, n, k):
        with pytest.raises(DomainError, match="gcd"):
            conjecture_probe(MapSpec(n, k))

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            conjecture_probe(MapSpec(4, 2), t=-1.0)
