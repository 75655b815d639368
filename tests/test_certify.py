"""Tests for the window-sum circulant, kernel certificates, and the weight probe."""

import json
import tracemalloc

import numpy as np
import pytest

from posmap import (
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    PositivityReport,
    TauMap,
    alternating_vector,
)
from posmap import certify
from posmap.certify import build_circulant, certify_optimality, conjecture_probe
from posmap.cli import main


def dense_circulant(c):
    """M[i][j] = first_row[(j - i) mod n], the matrix build_circulant never forms."""
    idx = np.arange(len(c.first_row))
    return c.first_row[(idx - idx[:, None]) % len(idx)]


class TestBuildCirculant:
    def test_3_1_frozen(self):
        c = build_circulant(MapSpec(3, 1))
        M = dense_circulant(c)
        expected = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=float)
        assert np.array_equal(M, expected)
        assert np.array_equal(c.first_row, [1, 1, 0])
        assert round(np.linalg.det(M)) == 2

    def test_4_3_is_identity(self):
        M = dense_circulant(build_circulant(MapSpec(4, 3)))
        assert np.array_equal(M, np.eye(4))
        assert round(np.linalg.det(M)) == 1

    def test_5_3_frozen(self):
        M = dense_circulant(build_circulant(MapSpec(5, 3)))
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
        assert np.array_equal(M, expected)
        assert round(np.linalg.det(M)) == 2

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
        M = dense_circulant(c)
        idx = np.arange(n)
        for j in range(n):
            fourier = np.exp(2j * np.pi * j * idx / n) / np.sqrt(n)
            residual = M @ fourier - c.eigenvalues[j] * fourier
            assert np.linalg.norm(residual) <= 1e-10


class TestEigenvalueSum:
    @staticmethod
    def loop_reference(n, k):
        roots = [certify._root_power(n, m) for m in range(n)]
        return np.array([sum(roots[j * m % n] for m in range(n - k)) for j in range(n)])

    def test_bit_identical_to_python_double_sum(self):
        """Columns of the root table add in the loop's order, so no bit changes, signed zeros included."""
        cases = [(n, k) for n in range(2, 25) for k in range(1, n)]
        cases += [(61, 7), (120, 60), (240, 96)]
        for n, k in cases:
            lam = build_circulant(MapSpec(n, k)).eigenvalues
            assert lam.tobytes() == self.loop_reference(n, k).tobytes(), (n, k)


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
        M = dense_circulant(c)
        for v in c.kernel:
            assert np.linalg.norm(M @ v) <= 1e-10
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_index_half_n_is_the_alternating_vector(self):
        """conjecture_probe takes alternating_vector(n) as v1, which must be this kernel row bit for bit."""
        for n in range(2, 129, 2):
            v1 = alternating_vector(n).tobytes()
            for k in range(2, n, 2):
                c = build_circulant(MapSpec(n, k))
                assert c.kernel[c.zero_indices.index(n // 2)].tobytes() == v1

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
            HadamardPerturbation([v], [1.0])

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            certify_optimality(MapSpec(5, 0))

    def test_spectrum_is_cross_checked(self, monkeypatch, capsys):
        """A closed-form eigenvalue off M's spectrum, the FFT of its first row, is an anomaly."""
        root_power = certify._root_power
        monkeypatch.setattr(
            certify, "_root_power", lambda n, m: root_power(n, m) + (1e-6 if m == 1 else 0.0)
        )
        with pytest.raises(NumericalAnomalyError, match="disagrees"):
            certify_optimality(MapSpec(5, 2))
        assert main(["certify", "--n", "5", "--k", "2"]) == 4
        assert "disagrees" in capsys.readouterr().err

    def test_large_n_forms_no_dense_array(self, capsys):
        """One 4099 x 4099 complex array alone would be 256 MiB."""
        tracemalloc.start()
        try:
            c = build_circulant(MapSpec(4099, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(c.eigenvalues) == 4099 and c.kernel == ()
        assert main(["certify", "--n", "4099", "--k", "2"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "optimal-certified"
        assert len(result["eigenvalues"]) == 4099

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
        pert = HadamardPerturbation([v], [1.5])
        assert np.abs(pert.matrix @ np.ones(4)).max() <= 1e-12

    def test_direction_inputs(self):
        HadamardPerturbation([np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)], [1.0])
        with pytest.raises(DomainError, match="sum to zero"):
            HadamardPerturbation([np.ones(3)], [1.0])

    def test_dimension_argument(self):
        a = np.array([1.0, -1.0]) / np.sqrt(2.0)
        pert = HadamardPerturbation([a], [1.0])
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

    @pytest.mark.parametrize("tol, verdict", [(None, "counterexample-found"),
                                              (1e-6, "evidence-positive")])
    def test_seesaw_minimum_is_judged_by_tol(self, monkeypatch, tol, verdict):
        """A see-saw minimum of -5e-8 is a counterexample at the default tol 1e-9, not at 1e-6."""
        def seesaw_minimize(map_, starts, seed, tol):
            value = -5e-8
            found = "negative-certificate" if value < -tol else "positive-evidence"
            return PositivityReport(found, value, np.ones(map_.n), np.ones(map_.n), 1, 0)

        monkeypatch.setattr(certify, "seesaw_minimize", seesaw_minimize)
        ev = conjecture_probe(MapSpec(4, 2), **({} if tol is None else {"tol": tol}))
        assert ev.witness_value_at_t == 0.0 and ev.seesaw.min_value == -5e-8
        assert ev.verdict == verdict

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
