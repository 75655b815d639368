"""Tests for the bilinear form, see-saw engine, and diagonal-profile analytics."""

import numpy as np
import pytest

from posmap import (
    DomainError,
    HadamardPerturbation,
    MapSpec,
    TauMap,
    alternating_vector,
)
from posmap.positivity import (
    DiagonalProfile,
    _leave_one_out,
    analytic_det,
    degenerate_det_bound,
    f_value,
    form_value,
    hessian_shat,
    parity_witness_value,
    seesaw_minimize,
)


def unit_basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestFormValue:
    def test_unit_fixture(self):
        map_ = TauMap(MapSpec(3, 1))
        assert form_value(map_, unit_basis(3, 0), unit_basis(3, 1)) == 0.0

    def test_scale_invariance(self):
        """Scales whose norm overflows or underflows give the same value."""
        map_ = TauMap(MapSpec(4, 2))
        x = np.array([1.0, 2.0, 0.5, -1.0])
        y = np.array([0.5, -1.0, 1.0, 1.0j])
        ref = form_value(map_, x, y)
        assert ref > 0.9
        for sx, sy in [(5.0, 2e300), (1e200, 1.0), (1e-200, 1.0), (1.0, 1e-300)]:
            assert abs(form_value(map_, sx * x, sy * y) - ref) <= 1e-14 * ref

    def test_known_negative_direction(self):
        pert = HadamardPerturbation.rank_one(alternating_vector(4), 2.5)
        map_ = TauMap(MapSpec(4, 2), pert)
        mu = np.array([1.0, 0.0, 1.0, 0.0])
        value = form_value(map_, mu, mu)
        assert abs(value - (-0.125)) <= 1e-15

    def test_zero_vector_rejected(self):
        map_ = TauMap(MapSpec(3, 1))
        with pytest.raises(DomainError):
            form_value(map_, np.zeros(3), unit_basis(3, 0))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
    def test_unimodular_phase_pairs_annihilate(self, n, k):
        rng = np.random.default_rng([5, n, k])
        map_ = TauMap(MapSpec(n, k))
        for _ in range(40):
            x = np.exp(2j * np.pi * rng.random(n))
            assert abs(form_value(map_, x, x.conj())) <= 1e-12


class TestSeesaw:
    def test_frozen_unperturbed_run(self):
        report = seesaw_minimize(TauMap(MapSpec(3, 1)), starts=8, seed=0)
        assert report.verdict == "positive-evidence"
        assert report.min_value == 4.773540402040204e-14
        assert report.starts_used == 8
        assert report.iterations == 13
        assert report.seed == 0

    def test_frozen_negative_certificate(self):
        pert = HadamardPerturbation.rank_one(alternating_vector(4), 2.1)
        report = seesaw_minimize(TauMap(MapSpec(4, 2), pert), starts=16, seed=0)
        assert report.verdict == "negative-certificate"
        assert report.min_value == -0.024999999998625285
        assert report.iterations == 62

    def test_deeper_negative_certificate(self):
        pert = HadamardPerturbation.rank_one(alternating_vector(4), 2.5)
        report = seesaw_minimize(TauMap(MapSpec(4, 2), pert), starts=16, seed=0)
        assert report.verdict == "negative-certificate"
        assert report.min_value == -0.1249999999999748

    def test_witness_reproduces_min_value(self):
        pert = HadamardPerturbation.rank_one(alternating_vector(4), 2.1)
        map_ = TauMap(MapSpec(4, 2), pert)
        report = seesaw_minimize(map_, starts=16, seed=0)
        assert form_value(map_, report.witness_x, report.witness_y) == report.min_value

    def test_same_seed_reproduces_witnesses(self):
        map_ = TauMap(MapSpec(4, 1))
        a = seesaw_minimize(map_, starts=6, seed=3)
        b = seesaw_minimize(map_, starts=6, seed=3)
        assert a.min_value == b.min_value
        assert np.array_equal(a.witness_x, b.witness_x)
        assert np.array_equal(a.witness_y, b.witness_y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positive_members_stay_nonnegative(self, seed):
        for n, k in [(3, 1), (3, 2), (4, 2), (5, 3)]:
            report = seesaw_minimize(TauMap(MapSpec(n, k)), starts=12, seed=seed)
            assert report.verdict == "positive-evidence"
            assert -1e-9 <= report.min_value <= 1e-6

    def test_bad_arguments(self):
        map_ = TauMap(MapSpec(3, 1))
        with pytest.raises(DomainError):
            seesaw_minimize(map_, starts=0)
        with pytest.raises(DomainError):
            seesaw_minimize(map_, seed=-1)


class TestDiagonalProfile:
    def test_from_x_applies_coupling(self):
        profile = DiagonalProfile.from_x(MapSpec(3, 1), [1.0, 2.0, 3.0])
        assert np.array_equal(profile.X_vec, [1.0, 2.0, 3.0])
        assert np.array_equal(profile.D_vec, [4.0, 7.0, 7.0])

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            DiagonalProfile.from_x(MapSpec(3, 1), [1.0, -0.5, 2.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(Exception):
            DiagonalProfile.from_x(MapSpec(3, 1), [1.0, 2.0])


class TestFValue:
    def test_uniform_profile_is_exactly_one(self):
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 4)]:
            assert f_value(MapSpec(n, k), np.ones(n)) == 1.0

    def test_frozen_rational_fixtures(self):
        assert f_value(MapSpec(3, 1), (1.0, 2.0, 4.0)) == 17.0 / 18.0
        assert f_value(MapSpec(4, 2), (1.0, 1.0, 2.0, 4.0)) == 341.0 / 360.0
        assert f_value(MapSpec(3, 2), (2.0, 1.0, 1.0)) == 1.0

    def test_scale_invariance(self):
        spec = MapSpec(4, 2)
        X = np.array([0.3, 1.1, 0.25, 2.0])
        assert f_value(spec, 8.0 * X) == f_value(spec, X)

    def test_extreme_profile_no_overflow(self):
        spec = MapSpec(5, 2)
        X = np.array([1e300, 1e-300, 1.0, 1e150, 1e-150])
        value = f_value(spec, X)
        assert np.isfinite(value)
        assert 0.0 < value <= 1.0 + 1e-12

    def test_vanishing_window_rejected(self):
        with pytest.raises(DomainError):
            f_value(MapSpec(4, 1), (0.0, 0.0, 1.0, 1.0))

    def test_zero_profile_rejected(self):
        with pytest.raises(DomainError):
            f_value(MapSpec(3, 1), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 4)])
    def test_bounded_by_one_on_random_profiles(self, n, k):
        rng = np.random.default_rng([41, n, k])
        spec = MapSpec(n, k)
        for _ in range(300):
            X = np.exp(rng.normal(scale=3.0, size=n))
            assert f_value(spec, X) <= 1.0 + 1e-12


class TestLeaveOneOut:
    @staticmethod
    def loop_reference(D):
        n = D.shape[0]
        pre = np.ones(n + 1)
        suf = np.ones(n + 1)
        for i in range(n):
            pre[i + 1] = pre[i] * D[i]
        for i in range(n - 1, -1, -1):
            suf[i] = suf[i + 1] * D[i]
        return pre[n], pre[:n] * suf[1:]

    def test_bit_identical_to_sequential_loop(self):
        """Prefix and suffix products multiply in the loop's order, so no bit changes,
        including for magnitudes that overflow to inf or underflow to zero."""
        rng = np.random.default_rng(11)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for _ in range(2000):
                n = int(rng.integers(2, 40))
                D = 10.0 ** rng.uniform(-100, 100, n) * rng.choice([1.0, -1.0, 0.0], n, p=[0.8, 0.15, 0.05])
                total, loo = _leave_one_out(D)
                ref_total, ref_loo = self.loop_reference(D)
                assert np.array_equal(total, ref_total, equal_nan=True)
                assert np.array_equal(loo, ref_loo, equal_nan=True)


class TestAnalyticDet:
    def test_frozen_integer_fixtures(self):
        assert analytic_det(MapSpec(3, 1), (1.0, 1.0, 0.0)) == 1.0
        assert analytic_det(MapSpec(3, 1), (1.0, 2.0, 3.0)) == 7.0
        assert analytic_det(MapSpec(3, 1), (1.0, 1.0, 1.0)) == 0.0

    def test_degenerate_window_evaluates_exactly(self):
        assert analytic_det(MapSpec(4, 1), (0.0, 0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 2)])
    def test_matches_numeric_determinant(self, n, k):
        rng = np.random.default_rng([43, n, k])
        spec = MapSpec(n, k)
        for _ in range(100):
            X = np.exp(rng.normal(size=n))
            profile = DiagonalProfile.from_x(spec, X)
            root = np.sqrt(profile.X_vec)
            numeric = np.linalg.det(np.diag(profile.D_vec) - np.outer(root, root))
            analytic = analytic_det(spec, X)
            assert abs(analytic - numeric) <= 1e-10 * max(1.0, abs(numeric))


class TestHessianCoupling:
    def test_3_1_frozen(self):
        S, s_prime, S_hat = hessian_shat(MapSpec(3, 1))
        assert s_prime == 3.0
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(S_hat, expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_edges_vanish_identically(self, n):
        for k in (0, n - 1):
            _, _, S_hat = hessian_shat(MapSpec(n, k))
            assert np.abs(S_hat).max() == 0.0

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (7, 4)])
    def test_psd_with_one_dimensional_kernel(self, n, k):
        _, _, S_hat = hessian_shat(MapSpec(n, k))
        eigs = np.linalg.eigvalsh(S_hat)
        assert eigs.min() >= -1e-10
        assert int((eigs < 1e-8).sum()) == 1
        ones = np.ones(n)
        assert np.abs(S_hat @ ones).max() <= 1e-10


class TestDegenerateDetBound:
    def test_values(self):
        assert degenerate_det_bound(MapSpec(4, 1)) == 1.0 / 3.0
        assert degenerate_det_bound(MapSpec(5, 2)) == 1.0 / 3.0
        assert degenerate_det_bound(MapSpec(6, 2)) == 0.25

    def test_rejects_reduction_member(self):
        with pytest.raises(DomainError):
            degenerate_det_bound(MapSpec(4, 3))


class TestParityWitness:
    def test_critical_weight_is_exact_zero(self):
        value, N = parity_witness_value(4, 2, 2.0)
        assert value == 0.0
        assert np.array_equal(N, np.array([[1.5, -1.5], [-1.5, 1.5]]))

    def test_frozen_above_critical(self):
        value, _ = parity_witness_value(4, 2, 2.1)
        assert value == -0.050000000000000044
        assert abs(value - (-0.05)) <= 1e-15

    @pytest.mark.parametrize(
        "n,k,t,expected",
        [
            (6, 2, 4.0, 0.0),
            (6, 4, 2.0, 0.0),
            (8, 2, 6.0, 0.0),
        ],
    )
    def test_zero_crossings(self, n, k, t, expected):
        value, _ = parity_witness_value(n, k, t)
        assert value == expected

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 4), (8, 2)])
    def test_negative_just_above_crossing(self, n, k):
        value, _ = parity_witness_value(n, k, float(n - k) + 0.1)
        assert abs(value - (-0.05)) <= 1e-15

    def test_closed_form_tracks_weight(self):
        for t in (0.0, 0.5, 1.0, 3.0):
            value, _ = parity_witness_value(6, 2, t)
            assert abs(value - (4.0 - t) / 2.0) <= 1e-12

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            parity_witness_value(5, 2, 1.0)
