"""Tests for zero-pair families, the phase-product subspace, and spanning rank."""

import numpy as np
import pytest

from posmap import DomainError, MapSpec, TauMap
from posmap.positivity import form_value
from posmap.spanning import (
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
