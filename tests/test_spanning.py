"""Tests for zero-pair families, the phase-product subspace, and spanning rank."""

import json
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
    unimodular_pairs,
)


def sigma_projector(n):
    """Orthogonal projector onto the span of x (x) conj(x) over phase vectors.

    The complement is the (n-1)-dimensional traceless diagonal subspace,
    so the projector acts as the identity off the diagonal coordinates and
    averages over them.  build_spanning_set tests membership without
    forming this dense n^2 x n^2 matrix; it is the reference for that test.
    """
    P = np.eye(n * n)
    diag_idx = np.arange(n) * (n + 1)
    P[np.ix_(diag_idx, diag_idx)] = 1.0 / n
    return P


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
        assert pairs.shape == (20, 2, 4)
        assert pairs.dtype == np.complex128
        assert np.allclose(np.abs(pairs[:, 0]), 0.5, atol=1e-14)
        assert np.array_equal(pairs[:, 1], pairs[:, 0].conj())
        for x, y in pairs:
            assert abs(form_value(map_, x, y)) <= 1e-12

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError, match="samples must be positive, got 0"):
            unimodular_pairs(MapSpec(3, 1), samples=0)
        assert unimodular_pairs(MapSpec(3, 1), samples=1).shape == (1, 2, 3)

    def test_seed_determinism(self):
        a = unimodular_pairs(MapSpec(3, 1), samples=9, seed=5)
        b = unimodular_pairs(MapSpec(3, 1), samples=9, seed=5)
        assert np.array_equal(a, b)

    def test_size_numpy_cannot_describe_is_a_domain_error(self):
        """n = 10^6 asks for 4 * 10^12 x 10^6 phases, which fails before allocating."""
        with pytest.raises(DomainError, match="cannot draw 4000000000000 phase vectors"):
            unimodular_pairs(MapSpec(10**6, 3), samples=4 * 10**12)


class TestDegeneratePairs:
    def test_4_1_window_structure(self):
        pairs = degenerate_pairs(MapSpec(4, 1))
        assert pairs.shape == (4, 2, 4)
        map_ = TauMap(MapSpec(4, 1))
        for x, y in pairs:
            assert abs(form_value(map_, x, y)) == 0.0

    def test_y_is_window_anchor(self):
        pairs = degenerate_pairs(MapSpec(5, 2), seed=1)
        anchors = {int(np.argmax(np.abs(y))) for _, y in pairs}
        assert anchors == {0, 1, 2, 3, 4}
        for x, y in pairs:
            j = int(np.argmax(np.abs(y)))
            window = {(j + m) % 5 for m in range(3)}
            assert np.abs(x[list(window)]).max() == 0.0

    def test_reduction_member_has_no_degenerate_family(self):
        pairs = degenerate_pairs(MapSpec(4, 3))
        assert pairs.shape == (0, 2, 4)
        assert pairs.dtype == np.complex128


class TestReductionFamily:
    def test_empty_below_the_reduction(self):
        for n in range(2, 11):
            for k in range(0, n - 1):
                pairs = _harvest_zero_pairs(MapSpec(n, k), 2 * n, 0)
                assert pairs.shape == (0, 2, n)
                assert pairs.dtype == np.complex128

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unit_pairs_with_conjugate_partner(self, seed):
        for n in range(2, 11):
            spec = MapSpec(n, n - 1)
            tau = TauMap(spec)
            pairs = _harvest_zero_pairs(spec, 2 * n, seed)
            assert pairs.shape == (2 * n, 2, n)
            assert len(pairs) == 2 * n
            assert np.array_equal(pairs[:, 1], pairs[:, 0].conj())
            for x, y in pairs:
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
                assert abs(form_value(tau, x, y)) <= 1e-14
            # The reduction family closes the pool; its closed-form values are as small.
            values = build_spanning_set(spec, seed=seed).values[-2 * n:]
            assert np.abs(values).max() <= 1e-14

    def test_seed_determinism(self):
        a = _harvest_zero_pairs(MapSpec(5, 4), 10, 3)
        b = _harvest_zero_pairs(MapSpec(5, 4), 10, 3)
        assert a.shape == b.shape == (10, 2, 5)
        assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unimodular_bit_identical_to_loop(self, seed):
        for spec in self.SPECS:
            samples = 4 * spec.n * spec.n
            pairs = unimodular_pairs(spec, samples, seed)
            ref = np.array(self.unimodular_loop(spec, samples, seed))
            assert pairs.shape == (samples, 2, spec.n)
            assert np.array_equal(pairs[:, 0], ref), (spec, seed)
            assert np.array_equal(pairs[:, 1], ref.conj()), (spec, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_degenerate_bit_identical_to_loop(self, seed):
        for spec in self.SPECS:
            if spec.is_reduction:
                continue
            pairs = degenerate_pairs(spec, seed)
            ref = np.array(self.degenerate_loop(spec, seed))
            assert pairs.shape == (spec.n, 2, spec.n)
            assert np.array_equal(pairs[:, 0], ref), (spec, seed)
            assert np.array_equal(pairs[:, 1], np.eye(spec.n)), (spec, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_closed_form_values_match_form_value(self, seed):
        """Every family pair is a zero of form_value, and the closed-form F agrees with it.

        build_spanning_set refuses k = 0 before any F, so there the family
        pairs are checked against form_value alone.
        """
        for spec in self.SPECS:
            tau = TauMap(spec)
            families = np.concatenate((
                unimodular_pairs(spec, 4 * spec.n * spec.n, seed),
                degenerate_pairs(spec, seed),
                _harvest_zero_pairs(spec, 2 * spec.n, seed),
            ))
            reference = np.array([form_value(tau, x, y) for x, y in families])
            assert np.abs(reference).max() <= 1e-13, (spec, seed)
            if spec.k < 1:
                continue
            ss = build_spanning_set(spec, seed=seed)
            assert np.array_equal(ss.pairs, families), (spec, seed)
            assert np.abs(ss.values - reference).max() <= 1e-13, (spec, seed)


class TestSpanningRank:
    LOW_RANK = [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]
    FULL_RANK = [(3, 2), (4, 3), (5, 4)]

    @pytest.mark.parametrize("n,k", LOW_RANK)
    def test_low_rank_members(self, n, k):
        assert build_spanning_set(MapSpec(n, k)).gram_rank == n * n - n + 1

    @pytest.mark.parametrize("n,k", FULL_RANK)
    def test_full_rank_members(self, n, k):
        assert build_spanning_set(MapSpec(n, k)).gram_rank == n * n

    @pytest.mark.parametrize("n,k", LOW_RANK + FULL_RANK)
    def test_one_phase_pair_gives_the_rank(self, n, k):
        """The torus closure of one phase pair reaches every off-diagonal coordinate."""
        want = n * n if k == n - 1 else n * n - n + 1
        assert build_spanning_set(MapSpec(n, k), samples=1).gram_rank == want

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
        X, Y = pairs[:, 0], pairs[:, 1]
        return gram_rank((X[:, :, None] * Y[:, None, :]).reshape(len(pairs), n * n))

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
    @pytest.mark.parametrize("n,k,m", [(4, 2, 64 + 4), (4, 3, 64 + 8), (5, 1, 100 + 5)])
    def test_structure(self, n, k, m):
        """One (m, 2, n) array holds the pooled families in order, with one value and flag per pair."""
        spec = MapSpec(n, k)
        ss = build_spanning_set(spec, seed=2)
        assert ss.pairs.shape == (m, 2, n) and ss.pairs.dtype == np.complex128
        assert ss.values.shape == (m,) and ss.values.dtype == np.float64
        assert ss.sigma_membership.shape == (m,) and ss.sigma_membership.dtype == bool
        pool = np.concatenate((unimodular_pairs(spec, 4 * n * n, 2), degenerate_pairs(spec, 2),
                               _harvest_zero_pairs(spec, 2 * n, 2)))
        assert np.array_equal(ss.pairs, pool)

    def test_admitted_pairs_annihilate_form(self):
        spec = MapSpec(4, 2)
        ss = build_spanning_set(spec)
        map_ = TauMap(spec)
        assert len(ss.pairs) >= 4 * 4 - 4 + 1
        for x, y in ss.pairs:
            assert abs(form_value(map_, x, y)) <= 1e-9

    def test_interior_members_stay_in_phase_span(self):
        ss = build_spanning_set(MapSpec(5, 2))
        assert ss.sigma_membership.all()

    def test_reduction_member_escapes_phase_span(self):
        ss = build_spanning_set(MapSpec(4, 3))
        assert not ss.sigma_membership.all()
        assert ss.gram_rank == 16

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 3)])
    def test_membership_matches_projector(self, n, k):
        """The O(n) membership flags agree with the dense projector; (4, 3) has both outcomes."""
        ss = build_spanning_set(MapSpec(n, k))
        P = sigma_projector(n)
        for (x, y), member in zip(ss.pairs, ss.sigma_membership, strict=True):
            w = np.kron(x, y)
            inside = np.linalg.norm(P @ w - w) <= 1e-9
            assert inside == member

    def test_same_seed_same_set(self):
        a = build_spanning_set(MapSpec(4, 2), seed=7)
        b = build_spanning_set(MapSpec(4, 2), seed=7)
        assert a.gram_rank == b.gram_rank
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.sigma_membership, b.sigma_membership)

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
    """A pair above ADMISSION_TOL is a numerical fault, reported rather than dropped.

    The spoiled pairs have exact closed-form values: x = e_0 with y = 2^-10 e_0
    gives F = 2^-20 (n-k) - 2^-20 = 2^-20 at (4, 2), and x = y = e_0 gives 1.
    """

    FIRST = repr(2.0**-20)

    @staticmethod
    def spoil_degenerate_family(monkeypatch):
        exact = posmap.spanning.degenerate_pairs

        def spoiled(spec, seed=0):
            pairs = exact(spec, seed).copy()
            e0 = np.eye(spec.n)[0]
            pairs[0] = (e0, 2.0**-10 * e0)
            pairs[2] = (e0, e0)
            return pairs

        monkeypatch.setattr(posmap.spanning, "degenerate_pairs", spoiled)

    def test_pair_above_tolerance_raises(self, monkeypatch):
        self.spoil_degenerate_family(monkeypatch)
        with pytest.raises(NumericalAnomalyError, match=f"form value {self.FIRST}, above"):
            build_spanning_set(MapSpec(4, 2))

    def test_spanning_command_exits_4(self, monkeypatch, capsys):
        self.spoil_degenerate_family(monkeypatch)
        assert posmap.cli.main(["spanning", "--n", "4", "--k", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"posmap: anomaly: zero pair has form value {self.FIRST}, "
                                "above ADMISSION_TOL 1e-09\n")


class TestWorkloadMembers:
    """The five spanning benchmark members at seed 0, frozen as report counts."""

    @pytest.mark.parametrize("n,k,admitted,outside,rank", [
        (8, 3, 264, 0, 57),
        (16, 5, 1040, 0, 241),
        (24, 7, 2328, 0, 553),
        (12, 11, 600, 24, 144),
        (16, 15, 1056, 32, 256),
    ])
    def test_report_counts(self, capsys, n, k, admitted, outside, rank):
        assert posmap.cli.main(["spanning", "--n", str(n), "--k", str(k), "--seed", "0"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["pairs_admitted"], result["pairs_outside_sigma"], result["rank"]) == (
            admitted, outside, rank)
        assert result["spanning_property"] is (rank == n * n)
