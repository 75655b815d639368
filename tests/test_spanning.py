"""Tests for zero-pair families, the phase-product subspace, and spanning rank."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import posmap.cli
import posmap.positivity
import posmap.spanning
from posmap import DomainError, HadamardPerturbation, MapSpec, NumericalAnomalyError, TauMap
from posmap.certify import build_circulant
from posmap.cli import phase_pair_count
from posmap.maps import alternating_vector
from posmap.positivity import form_value
from posmap.spanning import (
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
        assert gram_rank([[]]) == 0
        assert gram_rank(np.zeros((3, 0))) == 0

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries_are_a_domain_error(self, entry):
        """Refused before the SVD, which would raise LinAlgError: SVD did not converge."""
        with pytest.raises(DomainError, match="non-finite"):
            gram_rank([[1.0, 0.0], [0.0, entry]])

    @pytest.mark.parametrize("vectors, dtype", [([["1", "0"], ["0", "2"]], "<U1"),
                                                ([[1.0, 0.0], [0.0, None]], "object")])
    def test_non_numbers_are_a_domain_error(self, vectors, dtype):
        """Strings are not parsed as numbers, and None is not reported as non-finite."""
        with pytest.raises(DomainError, match=f"must be a number, got {dtype} entries"):
            gram_rank(vectors)

    def test_matrices_are_flattened_to_rows(self):
        e = np.eye(2)
        assert gram_rank([np.outer(e[0], e[1]), np.outer(e[1], e[0]), 2 * np.outer(e[0], e[1])]) == 2


def torus_rotations(pairs, rng, draws=1):
    """Each pair (x, y) as (D x, conj(D) y) for draws random diagonal unitaries D, row by row.

    F is invariant under these, so the torus closure of a zero set, which
    the reported rank describes, is a zero set too.
    """
    d = np.exp(2j * np.pi * rng.random((len(pairs), draws, pairs.shape[-1])))
    rotated = np.stack((d * pairs[:, None, 0], d.conj() * pairs[:, None, 1]), axis=2)
    return rotated.reshape(-1, 2, pairs.shape[-1])


class TestUnimodularPairs:
    def test_structure_and_values(self):
        spec = MapSpec(4, 2)
        pairs = unimodular_pairs(spec)
        map_ = TauMap(spec.coupling)
        assert pairs.shape == (1, 2, 4)
        assert pairs.dtype == np.complex128
        assert np.allclose(np.abs(pairs[:, 0]), 0.5, atol=1e-14)
        assert np.array_equal(pairs[:, 1], pairs[:, 0].conj())
        for x, y in pairs:
            assert abs(form_value(map_, x, y)) <= 1e-12

    def test_rows_are_the_all_ones_unit_vector(self):
        """No phase is drawn: the one row is the all-ones unit x, the row the window family starts from.

        Reports still count 4 n^2 phase rows.
        """
        for n in range(2, 10):
            assert phase_pair_count(n) == 4 * n * n
            pairs = unimodular_pairs(MapSpec(n, 1))
            assert np.array_equal(pairs, np.full((1, 2, n), 1 / math.sqrt(n), dtype=np.complex128))


class TestDegeneratePairs:
    def test_4_1_window_structure(self):
        pairs = degenerate_pairs(MapSpec(4, 1))
        assert pairs.shape == (4, 2, 4)
        map_ = TauMap(MapSpec(4, 1).coupling)
        for x, y in pairs:
            assert abs(form_value(map_, x, y)) == 0.0

    def test_y_is_window_anchor(self):
        pairs = degenerate_pairs(MapSpec(5, 2))
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

    def test_exact_zeros_on_every_map(self):
        """Each window pair has x o y = 0 and F exactly 0.0, on the plain map and on every correction.

        The corrections are v1 at t = n - k and n - k + 1 (even n), where the
        map is still positive and where it is not, and the whole kernel of
        the window-sum circulant at weight 1 (gcd d >= 2).
        """
        for n in range(3, 11):
            for k in range(1, n - 1):
                spec = MapSpec(n, k)
                maps = [TauMap(spec.coupling)]
                if n % 2 == 0:
                    maps += [TauMap(spec.coupling, HadamardPerturbation([alternating_vector(n)], [t]))
                             for t in (n - k, n - k + 1)]
                if spec.gcd >= 2:
                    kernel = build_circulant(spec).kernel
                    maps.append(TauMap(spec.coupling, HadamardPerturbation(kernel, [1.0] * (spec.gcd - 1))))
                for x, y in degenerate_pairs(spec):
                    assert not np.any(x * y), (n, k)
                    for map_ in maps:
                        assert form_value(map_, x, y) == 0.0, (n, k)


class TestReductionFamily:
    def test_empty_below_the_reduction(self):
        for n in range(2, 11):
            for k in range(0, n - 1):
                pairs = _harvest_zero_pairs(MapSpec(n, k), 2 * n)
                assert pairs.shape == (0, 2, n)
                assert pairs.dtype == np.complex128

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unit_pairs_with_conjugate_partner(self, seed):
        """The family and its torus rotations, drawn here from seed, are unit zero pairs (x, conj(x))."""
        rng = np.random.default_rng(seed)
        for n in range(2, 11):
            spec = MapSpec(n, n - 1)
            tau = TauMap(spec.coupling)
            pairs = _harvest_zero_pairs(spec, 2 * n)
            assert pairs.shape == (2 * n, 2, n)
            assert np.array_equal(pairs[:, 1], pairs[:, 0].conj())
            for x, y in np.concatenate((pairs, torus_rotations(pairs, rng))):
                assert np.array_equal(y, x.conj())
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
                assert abs(form_value(tau, x, y)) <= 1e-14
            # The reduction family closes the pool; its closed-form values are as small.
            values = build_spanning_set(spec).values[-2 * n:]
            assert np.abs(values).max() <= 1e-14

    def test_diagonal_products_have_rank_n_with_margin(self):
        """The family's diagonal products reach the traceless diagonal with room above RANK_REL_TOL.

        Their matrix is two copies of (J + I) / (n + 1), whose singular values
        have ratio 1 / (n + 1); half of that is asked for.
        """
        for n in range(2, 65):
            pairs = _harvest_zero_pairs(MapSpec(n, n - 1), 2 * n)
            diag = pairs[:, 0] * pairs[:, 1]
            sv = np.linalg.svd(diag, compute_uv=False)
            assert gram_rank(diag) == n
            assert sv[n - 1] >= sv[0] / (2 * (n + 1)), n


class TestBatchedPairs:
    """The pair families build every pair at once; per-pair loops stay here as the reference."""

    SPECS = [MapSpec(n, k) for n in range(2, 10) for k in range(0, n)]

    @staticmethod
    def unimodular_loop(spec):
        """The one row is the all-ones unit x: no phase is drawn."""
        return [np.full(spec.n, 1.0 / math.sqrt(spec.n), dtype=np.complex128)]

    @staticmethod
    def cli_pools(monkeypatch, capsys, specs, seed):
        """The pools `spanning --seed seed` builds for specs, captured from the command."""
        pools = []

        def recording(*args, **kwargs):
            pools.append(build_spanning_set(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(posmap.spanning, "build_spanning_set", recording)
        for spec in specs:
            argv = ["spanning", "--n", str(spec.n), "--k", str(spec.k), "--seed", str(seed)]
            assert posmap.cli.main(argv) == 0, (spec, seed)
        capsys.readouterr()
        assert len(pools) == len(specs)
        return pools

    @staticmethod
    def harvest_loop(spec, count):
        """Row m is sqrt(1 + e_{m mod n}), normalised."""
        n = spec.n
        xs = []
        for m in range(count):
            x = np.ones(n)
            x[m % n] = math.sqrt(2.0)
            xs.append(x / math.sqrt(n + 1))
        return xs

    @staticmethod
    def degenerate_loop(spec):
        """x uniform on the n - k - 1 positions after the window {j, ..., j + k}, by index arithmetic."""
        n, k = spec.n, spec.k
        width = n - k - 1
        xs = []
        for j in range(n):
            support = (j + k + 1 + np.arange(width)) % n
            x = np.zeros(n, dtype=np.complex128)
            x[support] = 1.0 / math.sqrt(width)
            xs.append(x)
        return xs

    def test_harvest_bit_identical_to_loop(self):
        for spec in self.SPECS:
            if not spec.is_reduction:
                continue
            for count in (1, spec.n, 2 * spec.n, 2 * spec.n + 3):
                pairs = _harvest_zero_pairs(spec, count)
                ref = np.array(self.harvest_loop(spec, count))
                assert pairs.shape == (count, 2, spec.n) and pairs.dtype == np.complex128
                assert np.array_equal(pairs[:, 0], ref), (spec, count)
                assert np.array_equal(pairs[:, 1], ref), (spec, count)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unimodular_bit_identical_to_loop(self, monkeypatch, capsys, seed):
        """The phase family is the loop's, and the pool `spanning --seed seed` builds carries it unchanged."""
        for spec in self.SPECS:
            pairs = unimodular_pairs(spec)
            ref = np.array(self.unimodular_loop(spec))
            assert pairs.shape == (1, 2, spec.n)
            assert np.array_equal(pairs[:, 0], ref), spec
            assert np.array_equal(pairs[:, 1], ref.conj()), spec
        members = [spec for spec in self.SPECS if spec.k >= 1]
        for spec, ss in zip(members, self.cli_pools(monkeypatch, capsys, members, seed)):
            assert np.array_equal(ss.pairs[:1], unimodular_pairs(spec)), (spec, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_degenerate_bit_identical_to_loop(self, monkeypatch, capsys, seed):
        """The window family is the loop's, and the pool `spanning --seed seed` builds carries it unchanged."""
        for spec in self.SPECS:
            if spec.is_reduction:
                continue
            pairs = degenerate_pairs(spec)
            ref = np.array(self.degenerate_loop(spec))
            assert pairs.shape == (spec.n, 2, spec.n)
            assert np.array_equal(pairs[:, 0], ref), spec
            assert np.array_equal(pairs[:, 1], np.eye(spec.n)), spec
        members = [spec for spec in self.SPECS if spec.k >= 1 and not spec.is_reduction]
        for spec, ss in zip(members, self.cli_pools(monkeypatch, capsys, members, seed)):
            pooled = ss.pairs[1:1 + spec.n]
            assert np.array_equal(pooled, degenerate_pairs(spec)), (spec, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_closed_form_values_match_form_value(self, seed):
        """Every family pair, and a torus rotation of it drawn from seed, is a zero of form_value.

        The closed-form F of the pool agrees with form_value.  build_spanning_set
        refuses k = 0 before any F, so there the family pairs are checked
        against form_value alone.
        """
        rng = np.random.default_rng(seed)
        for spec in self.SPECS:
            tau = TauMap(spec.coupling)
            families = np.concatenate((
                unimodular_pairs(spec),
                degenerate_pairs(spec),
                _harvest_zero_pairs(spec, 2 * spec.n),
            ))
            reference = np.array([form_value(tau, x, y) for x, y in families])
            assert np.abs(reference).max() <= 1e-13, (spec, seed)
            rotated = np.array([form_value(tau, x, y) for x, y in torus_rotations(families, rng)])
            assert np.abs(rotated).max() <= 1e-13, (spec, seed)
            if spec.k < 1:
                continue
            ss = build_spanning_set(spec)
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_is_seed_stable(self, capsys, seed):
        """The CLI accepts --seed for spanning, and the rank does not depend on it."""
        for n, k, rank in ((4, 2, 13), (4, 3, 16)):
            assert posmap.cli.main(["spanning", "--n", str(n), "--k", str(k), "--seed", str(seed)]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["rank"] == rank

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
        """The weight-space rank equals the dense product rank of a sampled torus closure, n <= 12.

        The products of the pairs themselves span less than their closure.  The
        one phase row's closure spans n^2 - n + 1 dimensions, so it gets n^2
        rotations and every other pair three, all drawn from seed.
        """
        rng = np.random.default_rng(seed)
        for n in range(2, 13):
            for k in range(1, n):
                ss = build_spanning_set(MapSpec(n, k))
                closure = np.concatenate((torus_rotations(ss.pairs[:1], rng, draws=n * n),
                                          torus_rotations(ss.pairs[1:], rng, draws=3)))
                assert ss.gram_rank == self.product_rank(closure, n), (n, k, seed)

    def test_peak_memory_stays_below_product_matrix(self):
        """No n^2-wide array and no pool of 4 n^2 phase rows, which alone took 1.3 GiB at (224, 74)."""
        for k, rank in ((74, 224 * 224 - 224 + 1), (223, 224 * 224)):
            tracemalloc.start()
            try:
                ss = build_spanning_set(MapSpec(224, k))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, k
            assert ss.gram_rank == rank, k


class TestSpanningSet:
    @pytest.mark.parametrize("n,k,m", [(4, 2, 1 + 4), (4, 3, 1 + 8), (5, 1, 1 + 5)])
    def test_structure(self, n, k, m):
        """One (m, 2, n) array holds the pooled families in order, with one value and flag per pair.

        m is one phase pair plus n window pairs, or 2n reduction pairs for k = n-1.
        """
        spec = MapSpec(n, k)
        ss = build_spanning_set(spec)
        assert len(ss.pairs) == 1 + (2 * n if spec.is_reduction else n)
        assert ss.pairs.shape == (m, 2, n) and ss.pairs.dtype == np.complex128
        assert ss.values.shape == (m,) and ss.values.dtype == np.float64
        assert ss.sigma_membership.shape == (m,) and ss.sigma_membership.dtype == bool
        pool = np.concatenate((unimodular_pairs(spec), degenerate_pairs(spec),
                               _harvest_zero_pairs(spec, 2 * n)))
        assert np.array_equal(ss.pairs, pool)

    def test_admitted_pairs_annihilate_form(self):
        spec = MapSpec(4, 2)
        ss = build_spanning_set(spec)
        map_ = TauMap(spec.coupling)
        assert ss.gram_rank == 4 * 4 - 4 + 1
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

    def test_repeat_builds_are_identical(self):
        a = build_spanning_set(MapSpec(4, 2))
        b = build_spanning_set(MapSpec(4, 2))
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
                build_spanning_set(MapSpec(n, k))


class TestAdmission:
    """A pair above ADMISSION_TOL is a numerical fault, reported rather than dropped.

    The spoiled pairs have exact closed-form values: x = e_0 with y = 2^-10 e_0
    gives F = 2^-20 (n-k) - 2^-20 = 2^-20 at (4, 2), and x = y = e_0 gives 1.
    """

    FIRST = repr(2.0**-20)

    @staticmethod
    def spoil_degenerate_family(monkeypatch):
        exact = posmap.spanning.degenerate_pairs

        def spoiled(spec):
            pairs = exact(spec).copy()
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

    @staticmethod
    def poison_degenerate_family(monkeypatch, value):
        """Put value on the support of the first window pair at (5, 2)."""
        exact = posmap.spanning.degenerate_pairs

        def poisoned(spec):
            pairs = exact(spec).copy()
            pairs[0, 0, 3] = value
            return pairs

        monkeypatch.setattr(posmap.spanning, "degenerate_pairs", poisoned)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pair_raises(self, monkeypatch, value):
        self.poison_degenerate_family(monkeypatch, value)
        with pytest.raises(NumericalAnomalyError, match="a zero pair has a non-finite entry"):
            build_spanning_set(MapSpec(5, 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pair_exits_4_before_any_arithmetic(self, monkeypatch, capsys, value):
        """No RuntimeWarning from the form or the rank: the pool is refused before either."""
        self.poison_degenerate_family(monkeypatch, value)
        assert posmap.cli.main(["spanning", "--n", "5", "--k", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "posmap: anomaly: a zero pair has a non-finite entry\n"


class TestWorkloadMembers:
    """The five spanning benchmark members, frozen as report counts at seeds 0 and 3.

    Spanning draws nothing, so the counts are the same at every seed.
    """

    @pytest.mark.parametrize("n,k,admitted,outside,rank", [
        (8, 3, 264, 0, 57),
        (16, 5, 1040, 0, 241),
        (24, 7, 2328, 0, 553),
        (12, 11, 600, 24, 144),
        (16, 15, 1056, 32, 256),
    ])
    def test_report_counts(self, capsys, n, k, admitted, outside, rank):
        for seed in ("0", "3"):
            assert posmap.cli.main(["spanning", "--n", str(n), "--k", str(k), "--seed", seed]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert (result["pairs_admitted"], result["pairs_outside_sigma"], result["rank"]) == (
                admitted, outside, rank), seed
            assert result["spanning_property"] is (rank == n * n)
