"""Tests for zero-pair families, the phase-product subspace, and spanning rank."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import posmap.cli
import posmap.positivity
import posmap.spanning
from posmap import DomainError, MapSpec, NumericalAnomalyError, TauMap
from posmap.positivity import form_value
from posmap.spanning import (
    _STREAM_DEGENERATE,
    _STREAM_UNIMODULAR,
    _harvest_zero_pairs,
    build_spanning_set,
    degenerate_pairs,
    gram_rank,
    sigma_projector,
    unimodular_pairs,
)


class TestSigmaProjector:
    def test_n2_frozen(self):
        expected = np.array(
            [
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.5, 0.0, 0.0, 0.5],
            ]
        )
        assert np.array_equal(sigma_projector(2), expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_is_projector_of_expected_rank(self, n):
        P = sigma_projector(n)
        assert np.allclose(P @ P, P, atol=1e-13)
        rank = round(np.trace(P))
        assert rank == n * n - n + 1

    def test_fixes_phase_products(self):
        rng = np.random.default_rng(3)
        P = sigma_projector(4)
        for _ in range(25):
            x = np.exp(2j * np.pi * rng.random(4))
            w = np.kron(x, x.conj())
            assert np.linalg.norm(P @ w - w) <= 1e-12

    def test_annihilates_traceless_diagonal(self):
        P = sigma_projector(3)
        w = np.kron(np.eye(3)[0], np.eye(3)[0]) - np.kron(np.eye(3)[1], np.eye(3)[1])
        assert np.linalg.norm(P @ w) <= 1e-14


class TestGramRank:
    def test_full_and_deficient(self):
        e = np.eye(4)
        assert gram_rank([e[0], e[1], e[2]]) == 3
        assert gram_rank([e[0], e[1], e[0] + e[1]]) == 2
        assert gram_rank([e[0], 2.0 * e[0]]) == 1

    def test_near_duplicates_collapse(self):
        v = np.ones(5) / np.sqrt(5.0)
        assert gram_rank([v, v + 1e-12 * np.eye(5)[0]]) == 1

    def test_empty_and_zero_inputs(self):
        assert gram_rank([]) == 0
        assert gram_rank(np.zeros((0, 9), dtype=complex)) == 0
        assert gram_rank([np.zeros(3), np.zeros(3)]) == 0

    def test_matrices_are_flattened_to_rows(self):
        e = np.eye(2)
        assert gram_rank([np.outer(e[0], e[1]), np.outer(e[1], e[0]), 2 * np.outer(e[0], e[1])]) == 2


class TestUnimodularPairs:
    def test_structure_and_values(self):
        spec = MapSpec(4, 2)
        pairs = unimodular_pairs(spec, samples=20, seed=0)
        map_ = TauMap(spec)
        assert len(pairs) == 20
        for p in pairs:
            assert np.allclose(np.abs(p.x), 0.5, atol=1e-14)
            assert np.array_equal(p.y, p.x.conj())
            assert abs(p.value) <= 1e-12
            assert abs(form_value(map_, p.x, p.y)) <= 1e-12

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError):
            unimodular_pairs(MapSpec(3, 1), samples=3)

    def test_seed_determinism(self):
        a = unimodular_pairs(MapSpec(3, 1), samples=9, seed=5)
        b = unimodular_pairs(MapSpec(3, 1), samples=9, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x, pb.x)


class TestDegeneratePairs:
    def test_4_1_window_structure(self):
        pairs = degenerate_pairs(MapSpec(4, 1))
        assert len(pairs) == 4
        map_ = TauMap(MapSpec(4, 1))
        for p in pairs:
            assert abs(form_value(map_, p.x, p.y)) == 0.0

    def test_y_is_window_anchor(self):
        pairs = degenerate_pairs(MapSpec(5, 2), seed=1)
        anchors = {int(np.argmax(np.abs(p.y))) for p in pairs}
        assert anchors == {0, 1, 2, 3, 4}
        for p in pairs:
            j = int(np.argmax(np.abs(p.y)))
            window = {(j + m) % 5 for m in range(3)}
            assert np.abs(p.x[list(window)]).max() == 0.0

    def test_reduction_member_has_no_degenerate_family(self):
        assert degenerate_pairs(MapSpec(4, 3)) == []


class TestReductionFamily:
    def test_empty_below_the_reduction(self):
        for n in range(2, 11):
            for k in range(0, n - 1):
                assert _harvest_zero_pairs(MapSpec(n, k), 2 * n, 0) == []

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unit_pairs_with_conjugate_partner(self, seed):
        for n in range(2, 11):
            spec = MapSpec(n, n - 1)
            tau = TauMap(spec)
            pairs = _harvest_zero_pairs(spec, 2 * n, seed)
            assert len(pairs) == 2 * n
            for p in pairs:
                assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-14
                assert np.array_equal(p.y, p.x.conj())
                assert abs(p.value) <= 1e-14
                assert abs(form_value(tau, p.x, p.y)) <= 1e-14

    def test_seed_determinism(self):
        a = _harvest_zero_pairs(MapSpec(5, 4), 10, 3)
        b = _harvest_zero_pairs(MapSpec(5, 4), 10, 3)
        for pa, pb in zip(a, b, strict=True):
            assert np.array_equal(pa.x, pb.x)
            assert np.array_equal(pa.y, pb.y)
            assert pa.value == pb.value


class TestBatchedPairs:
    """The pair families draw every phase at once; the per-sample loops stay here as the reference."""

    SPECS = [MapSpec(n, k) for n in range(2, 10) for k in range(0, n)]

    @staticmethod
    def unimodular_loop(spec, samples, seed):
        rng = np.random.default_rng([seed, _STREAM_UNIMODULAR])
        return [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spec.n)) / math.sqrt(spec.n)
                for _ in range(samples)]

    @staticmethod
    def degenerate_loop(spec, seed):
        n, k = spec.n, spec.k
        rng = np.random.default_rng([seed, _STREAM_DEGENERATE])
        width = n - k - 1
        xs = []
        for j in range(n):
            support = (j + k + 1 + np.arange(width)) % n
            x = np.zeros(n, dtype=np.complex128)
            x[support] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, width)) / math.sqrt(width)
            xs.append(x)
        return xs

    @staticmethod
    def assert_values_match_form(spec, pairs):
        tau = TauMap(spec)
        for p in pairs:
            assert abs(p.value - form_value(tau, p.x, p.y)) <= 1e-13

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unimodular_bit_identical_to_loop(self, seed):
        for spec in self.SPECS:
            samples = 4 * spec.n * spec.n
            pairs = unimodular_pairs(spec, samples, seed)
            ref = self.unimodular_loop(spec, samples, seed)
            assert len(pairs) == len(ref)
            for p, x in zip(pairs, ref):
                assert np.array_equal(p.x, x), (spec, seed)
            self.assert_values_match_form(spec, pairs)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_degenerate_bit_identical_to_loop(self, seed):
        for spec in self.SPECS:
            if spec.is_reduction:
                continue
            pairs = degenerate_pairs(spec, seed)
            ref = self.degenerate_loop(spec, seed)
            assert len(pairs) == spec.n
            for j, (p, x) in enumerate(zip(pairs, ref)):
                assert np.array_equal(p.x, x), (spec, seed)
                assert np.array_equal(p.y, np.eye(spec.n)[j])
            self.assert_values_match_form(spec, pairs)


class TestSpanningRank:
    LOW_RANK = [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]
    FULL_RANK = [(3, 2), (4, 3), (5, 4)]

    @pytest.mark.parametrize("n,k", LOW_RANK)
    def test_low_rank_members(self, n, k):
        assert build_spanning_set(MapSpec(n, k)).gram_rank == n * n - n + 1

    @pytest.mark.parametrize("n,k", FULL_RANK)
    def test_full_rank_members(self, n, k):
        assert build_spanning_set(MapSpec(n, k)).gram_rank == n * n

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_is_seed_stable(self, seed):
        assert build_spanning_set(MapSpec(4, 2), seed=seed).gram_rank == 13
        assert build_spanning_set(MapSpec(4, 3), seed=seed).gram_rank == 16

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            build_spanning_set(MapSpec(4, 0))

    @staticmethod
    def product_rank(pairs, n):
        """The (m, n^2) array of product vectors x (x) y, ranked by one full SVD."""
        m = len(pairs)
        X = np.array([p.x for p in pairs]).reshape(m, n)
        Y = np.array([p.y for p in pairs]).reshape(m, n)
        return gram_rank((X[:, :, None] * Y[:, None, :]).reshape(m, n * n))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_weight_space_rank_matches_product_svd(self, seed):
        """The torus weight-space rank equals the dense product-matrix rank on every member n <= 12."""
        for n in range(2, 13):
            for k in range(1, n):
                ss = build_spanning_set(MapSpec(n, k), seed=seed)
                assert ss.gram_rank == self.product_rank(ss.pairs, n), (n, k, seed)

    def test_peak_memory_stays_below_product_matrix(self):
        """No n^2-wide array: (24, 7) peaked at 29 MiB with the (m, n^2) product matrix."""
        tracemalloc.start()
        try:
            build_spanning_set(MapSpec(24, 7), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSpanningSet:
    def test_admitted_pairs_annihilate_form(self):
        spec = MapSpec(4, 2)
        ss = build_spanning_set(spec)
        map_ = TauMap(spec)
        assert len(ss.pairs) >= 4 * 4 - 4 + 1
        for p in ss.pairs:
            assert abs(form_value(map_, p.x, p.y)) <= 1e-9

    def test_interior_members_stay_in_phase_span(self):
        ss = build_spanning_set(MapSpec(5, 2))
        assert all(ss.sigma_membership)

    def test_reduction_member_escapes_phase_span(self):
        ss = build_spanning_set(MapSpec(4, 3))
        assert any(not m for m in ss.sigma_membership)
        assert ss.gram_rank == 16

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 3)])
    def test_membership_matches_projector(self, n, k):
        """The O(n) membership flags agree with the dense projector; (4, 3) has both outcomes."""
        ss = build_spanning_set(MapSpec(n, k))
        P = sigma_projector(n)
        for p, member in zip(ss.pairs, ss.sigma_membership):
            w = np.kron(p.x, p.y)
            inside = np.linalg.norm(P @ w - w) <= 1e-9
            assert inside == member

    def test_same_seed_same_set(self):
        a = build_spanning_set(MapSpec(4, 2), seed=7)
        b = build_spanning_set(MapSpec(4, 2), seed=7)
        assert a.gram_rank == b.gram_rank
        assert len(a.pairs) == len(b.pairs)
        for pa, pb in zip(a.pairs, b.pairs):
            assert np.array_equal(pa.x, pb.x)
            assert np.array_equal(pa.y, pb.y)

    def test_runs_no_seesaw_and_no_eigh(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("spanning must not run a see-saw or an eigh")

        monkeypatch.setattr(posmap.positivity, "_seesaw_single", boom)
        monkeypatch.setattr(posmap.positivity, "_seesaw_batch", boom)
        monkeypatch.setattr(np.linalg, "eigh", boom)
        for n in range(2, 11):
            for k in range(1, n):
                build_spanning_set(MapSpec(n, k), seed=0)


class TestAdmission:
    """A pair above ADMISSION_TOL is a numerical fault, reported rather than dropped."""

    @staticmethod
    def spoil_degenerate_family(monkeypatch):
        exact = posmap.spanning.degenerate_pairs

        def spoiled(spec, seed=0):
            pairs = exact(spec, seed)
            return [dataclasses.replace(pairs[0], value=1e-6)] + pairs[1:]

        monkeypatch.setattr(posmap.spanning, "degenerate_pairs", spoiled)

    def test_pair_above_tolerance_raises(self, monkeypatch):
        self.spoil_degenerate_family(monkeypatch)
        with pytest.raises(NumericalAnomalyError, match="1e-06"):
            build_spanning_set(MapSpec(4, 2))

    def test_spanning_command_exits_4(self, monkeypatch, capsys):
        self.spoil_degenerate_family(monkeypatch)
        assert posmap.cli.main(["spanning", "--n", "4", "--k", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1e-06" in captured.err
