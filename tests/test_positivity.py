"""Tests for the bilinear form, see-saw engine, and diagonal-profile analytics."""

import math

import numpy as np
import pytest

import posmap.cli
import posmap.positivity
from posmap import (
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    alternating_vector,
    build_circulant,
    coupling_matrix,
)
from posmap.positivity import (
    MAX_SWEEPS,
    NEGATIVITY_TOL,
    _SECULAR_MIN_N,
    _halfstep,
    _leave_one_out,
    _secular_eigenpairs,
    _seesaw_batch,
    _seesaw_single,
    _window_snap,
    analytic_det,
    degenerate_det_bound,
    f_value,
    form_value,
    hessian_shat,
    parity_witness_value,
    seesaw_minimize,
    start_moduli,
)


def unit_basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestFormValue:
    def test_unit_fixture(self):
        map_ = TauMap(MapSpec(3, 1).coupling)
        assert form_value(map_, unit_basis(3, 0), unit_basis(3, 1)) == 0.0

    def test_scale_invariance(self):
        """Scales whose norm overflows or underflows give the same value."""
        map_ = TauMap(MapSpec(4, 2).coupling)
        x = np.array([1.0, 2.0, 0.5, -1.0])
        y = np.array([0.5, -1.0, 1.0, 1.0j])
        ref = form_value(map_, x, y)
        assert ref > 0.9
        for sx, sy in [(5.0, 2e300), (1e200, 1.0), (1e-200, 1.0), (1.0, 1e-300)]:
            assert abs(form_value(map_, sx * x, sy * y) - ref) <= 1e-14 * ref

    def test_known_negative_direction(self):
        pert = HadamardPerturbation([alternating_vector(4)], [2.5])
        map_ = TauMap(MapSpec(4, 2).coupling, pert)
        mu = np.array([1.0, 0.0, 1.0, 0.0])
        value = form_value(map_, mu, mu)
        assert abs(value - (-0.125)) <= 1e-15

    def test_zero_vector_rejected(self):
        map_ = TauMap(MapSpec(3, 1).coupling)
        with pytest.raises(DomainError):
            form_value(map_, np.zeros(3), unit_basis(3, 0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_vector_rejected(self, bad):
        map_ = TauMap(MapSpec(3, 1).coupling)
        v = np.array([1.0, bad, 0.5])
        with pytest.raises(DomainError, match="finite"):
            form_value(map_, v, unit_basis(3, 0))
        with pytest.raises(DomainError, match="finite"):
            form_value(map_, unit_basis(3, 0), v)

    @pytest.mark.parametrize("entry", [None, "1", 10**400], ids=["None", "numeric-str", "int-beyond-float"])
    def test_vector_entries_that_are_not_numbers(self, entry):
        map_ = TauMap(MapSpec(3, 1).coupling)
        v = [entry, 0, 0]
        with pytest.raises(DomainError, match="each x entry must be a number"):
            form_value(map_, v, [1, 0, 0])
        with pytest.raises(DomainError, match="each y entry must be a number"):
            form_value(map_, [1, 0, 0], v)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
    def test_unimodular_phase_pairs_annihilate(self, n, k):
        rng = np.random.default_rng([5, n, k])
        map_ = TauMap(MapSpec(n, k).coupling)
        for _ in range(40):
            x = np.exp(2j * np.pi * rng.random(n))
            assert abs(form_value(map_, x, x.conj())) <= 1e-12


class TestSeesaw:
    def test_frozen_unperturbed_run(self):
        report = seesaw_minimize(TauMap(MapSpec(3, 1).coupling), starts=8, seed=0)
        assert report.verdict == "positive-evidence"
        assert report.min_value == 0.0
        assert report.iterations == 32
        assert report.starts_capped == 0
        assert report.starts_snapped == 2

    def test_frozen_negative_certificate(self):
        pert = HadamardPerturbation([alternating_vector(4)], [2.1])
        report = seesaw_minimize(TauMap(MapSpec(4, 2).coupling, pert), starts=16, seed=0)
        assert report.verdict == "negative-certificate"
        assert report.min_value == -0.024999999998564674
        assert report.iterations == 64

    def test_deeper_negative_certificate(self):
        pert = HadamardPerturbation([alternating_vector(4)], [2.5])
        report = seesaw_minimize(TauMap(MapSpec(4, 2).coupling, pert), starts=16, seed=0)
        assert report.verdict == "negative-certificate"
        assert report.min_value == -0.12499999999997433

    def test_witness_reproduces_min_value(self):
        pert = HadamardPerturbation([alternating_vector(4)], [2.1])
        map_ = TauMap(MapSpec(4, 2).coupling, pert)
        report = seesaw_minimize(map_, starts=16, seed=0)
        assert form_value(map_, report.witness_x, report.witness_y) == report.min_value

    def test_same_seed_reproduces_witnesses(self):
        map_ = TauMap(MapSpec(4, 1).coupling)
        a = seesaw_minimize(map_, starts=6, seed=3)
        b = seesaw_minimize(map_, starts=6, seed=3)
        assert a.min_value == b.min_value
        assert np.array_equal(a.witness_x, b.witness_x)
        assert np.array_equal(a.witness_y, b.witness_y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positive_members_stay_nonnegative(self, seed):
        for n, k in [(3, 1), (3, 2), (4, 2), (5, 3)]:
            report = seesaw_minimize(TauMap(MapSpec(n, k).coupling), starts=12, seed=seed)
            assert report.verdict == "positive-evidence"
            assert -1e-9 <= report.min_value <= 1e-6

    @pytest.mark.parametrize("n, k, t, capped", [(4, 2, None, 0), (8, 2, 5.0, 0)])
    def test_capped_starts_are_counted(self, n, k, t, capped):
        pert = None if t is None else HadamardPerturbation([alternating_vector(n)], [t])
        report = seesaw_minimize(TauMap(MapSpec(n, k).coupling, pert), starts=64, seed=0)
        assert report.starts_capped == capped

    def test_bad_arguments(self):
        map_ = TauMap(MapSpec(3, 1).coupling)
        with pytest.raises(DomainError):
            seesaw_minimize(map_, starts=0)
        with pytest.raises(DomainError):
            seesaw_minimize(map_, seed=-1)
        for tol in (float("nan"), 0.0, float("inf"), -1, np.float32("inf")):
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                seesaw_minimize(map_, tol=tol)

    @pytest.mark.parametrize("tol", [1, np.float32(1e-9), np.int64(1), np.float64(1e-9)])
    def test_tol_of_any_real_scalar_type(self, tol):
        report = seesaw_minimize(TauMap(MapSpec(3, 1).coupling), starts=2, tol=tol)
        assert report.verdict == "positive-evidence"

    @pytest.mark.parametrize("tol", ["1e-9", None, 1e-9 + 0j, [1e-9], np.array([1e-9]), True, np.True_],
                             ids=["str", "None", "complex", "list", "array", "bool", "numpy-bool"])
    def test_tol_that_is_not_a_real_number(self, tol):
        """A DomainError, not the TypeError of comparing it with 0 or of negating it; a bool is no tol."""
        with pytest.raises(DomainError, match="tol must be a real number"):
            seesaw_minimize(TauMap(MapSpec(3, 1).coupling), tol=tol)


def v1_map(n, k, t=None):
    pert = None if t is None else HadamardPerturbation([alternating_vector(n)], [t])
    return TauMap(MapSpec(n, k).coupling, pert)


def fourier_map(n, k, weights):
    """A map corrected along the complex Fourier kernel directions, as conjecture --experimental builds it."""
    spec = MapSpec(n, k)
    return TauMap(spec.coupling, HadamardPerturbation(build_circulant(spec).kernel, weights))


# Unequal weights on the five Fourier kernel directions of (18, 12), so G is complex.
LARGE_FOURIER_WEIGHTS = [10.0, 2.0, 1.0, 3.0, 6.0]


def seeded_starts(n, count, seed=0):
    """The starts seesaw_minimize draws: start_moduli(seed, idx, n) for idx = 0..count - 1."""
    return np.array([start_moduli(seed, idx, n) for idx in range(count)])


MASK64 = (1 << 64) - 1


def splitmix64(z):
    """The splitmix64 finaliser on a Python int, as start_moduli documents it."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class TestStartModuli:
    """The see-saw's counter-based start generator."""

    def test_same_arguments_give_the_same_bytes(self):
        for seed, idx, n in [(0, 0, 3), (7, 39, 64), (2**64 + 5, 2, 17)]:
            assert start_moduli(seed, idx, n).tobytes() == start_moduli(seed, idx, n).tobytes()

    def test_matches_the_documented_integer_arithmetic(self):
        """Each entry is the splitmix64 of key + j * gamma over Python ints, for a two-limb seed too.

        The log is math.log: NumPy's SIMD log differs from it in a few of these 2 048 draws on AVX-512 CPUs.
        """
        gamma = 0x9E3779B97F4A7C15
        for seed, idx in [(0, 0), (3, 11), (2**64 + 3, 11), (2**130 - 1, 5)]:
            key, value = 0, seed
            while True:
                key = splitmix64(((key ^ (value & MASK64)) + gamma) & MASK64)
                value >>= 64
                if not value:
                    break
            key = splitmix64(((key ^ idx) + gamma) & MASK64)
            u = [((splitmix64((key + j * gamma) & MASK64) >> 11) + 1) / 2.0**53 for j in range(1, 513)]
            want = [math.sqrt(-2.0 * math.log(v)) for v in u]
            assert start_moduli(seed, idx, 512).tobytes() == np.array(want).tobytes()

    def test_seeds_past_one_limb_and_adjacent_indices_differ(self):
        for s in (0, 1, 12345):
            assert not np.array_equal(start_moduli(s, 0, 8), start_moduli(s + 2**64, 0, 8))
            assert not np.array_equal(start_moduli(s, 0, 8), start_moduli(s + 1, 0, 8))
            for idx in range(4):
                assert not np.array_equal(start_moduli(s, idx, 8), start_moduli(s, idx + 1, 8))

    def test_moduli_are_finite_and_nonnegative(self):
        r = np.concatenate([start_moduli(seed, idx, 64) for seed in (0, 1, 2**64) for idx in range(64)])
        assert r.dtype == np.float64
        assert np.isfinite(r).all() and (r >= 0).all()

    def test_rayleigh_law(self):
        """|g1 + i g2|^2 of standard normals has mean 2: over 16 384 draws within 3 %."""
        for seed in (0, 1, 3):
            r = np.concatenate([start_moduli(seed, idx, 256) for idx in range(64)])
            assert abs(np.mean(r * r) - 2.0) <= 0.06

    def test_each_start_of_a_blocked_run_is_its_own_call(self, monkeypatch):
        """At n = 64 a block is 16 starts, so 40 starts run in three blocks, each row its own start_moduli."""
        blocks = []

        def record(map_, X0, *args):
            blocks.append(np.array(X0))
            return _seesaw_batch(map_, X0, *args)

        monkeypatch.setattr(posmap.positivity, "_seesaw_batch", record)
        seesaw_minimize(TauMap(MapSpec(64, 8).coupling), starts=40, seed=5)
        assert [len(b) for b in blocks] == [16, 16, 8]
        for idx, row in enumerate(np.concatenate(blocks)):
            assert row.tobytes() == start_moduli(5, idx, 64).tobytes()

    @pytest.mark.parametrize("seed, idx, n", [(-1, 0, 4), (0, -1, 4), (0, 2**64, 4), (0, 0, 0), (0.5, 0, 4)])
    def test_bad_arguments(self, seed, idx, n):
        with pytest.raises(DomainError):
            start_moduli(seed, idx, n)


class TestBatchedSeesaw:
    """Starts run together in one stack but stay independent, bit for bit."""

    @pytest.mark.parametrize(
        "n, k, t, capped",
        [
            (3, 1, None, 0),
            (4, 2, 2.1, 0),
            (5, 2, None, 0),
            (8, 6, 2.0, 0),
            # The absolute SWEEP_IMPROVEMENT_TOL never stops a start at this weight.
            (4, 2, 1e7, 16),
            # From n = 16 on a half-step is the secular solve of Diag(d) - U U^dag.
            (24, 6, 20.0, 0),
            (32, 8, None, 0),
        ],
    )
    def test_rows_equal_single_starts(self, n, k, t, capped):
        self.check_rows_equal_single_starts(v1_map(n, k, t), capped)

    def test_complex_schur_rows_equal_single_starts(self):
        self.check_rows_equal_single_starts(fourier_map(6, 3, [0.7, 0.4]), capped=0)

    def test_complex_schur_secular_rows_equal_single_starts(self):
        self.check_rows_equal_single_starts(fourier_map(18, 12, LARGE_FOURIER_WEIGHTS), capped=0)

    @staticmethod
    def check_rows_equal_single_starts(map_, capped):
        X0 = seeded_starts(map_.n, 16)
        batch = _seesaw_batch(map_, X0, MAX_SWEEPS)
        for i in range(len(X0)):
            single = _seesaw_batch(map_, X0[i:i + 1], MAX_SWEEPS)
            # values, X, Y, sweeps and snapped, row by row.
            for a, b in zip(batch, single):
                assert a[i:i + 1].tobytes() == b.tobytes()
        _, _, _, sweeps, snapped = batch
        assert np.count_nonzero((sweeps >= MAX_SWEEPS) & ~snapped) == capped

    def test_permuting_rows_permutes_outputs(self):
        self.check_permuting_rows_permutes_outputs(v1_map(4, 2, 2.1))

    @pytest.mark.parametrize(
        "make",
        [lambda: v1_map(24, 6, 20.0), lambda: v1_map(32, 8),
         lambda: fourier_map(18, 12, LARGE_FOURIER_WEIGHTS)],
        ids=["v1-24-6", "plain-32-8", "fourier-18-12"],
    )
    def test_secular_rows_permute_outputs(self, make):
        self.check_permuting_rows_permutes_outputs(make())

    @pytest.mark.parametrize(
        "make",
        [lambda: v1_map(24, 6, 20.0), lambda: v1_map(32, 8),
         lambda: fourier_map(18, 12, LARGE_FOURIER_WEIGHTS),
         lambda: fourier_map(16, 12, [1.0, 2.0, 1.0])],
        ids=["v1-24-6", "plain-32-8", "fourier-18-12", "fourier-pair-16-12"],
    )
    def test_secular_solve_follows_the_eigh_run(self, monkeypatch, make):
        """From n = 16 on, every start takes the sweeps it takes with eigh, to the same values."""
        map_ = make()
        X0 = seeded_starts(map_.n, 8)
        values, _, _, sweeps, _ = _seesaw_batch(map_, X0, MAX_SWEEPS)
        monkeypatch.setattr(posmap.positivity, "_SECULAR_MIN_N", map_.n + 1)
        ref, _, _, ref_sweeps, _ = _seesaw_batch(map_, X0, MAX_SWEEPS)
        assert np.array_equal(sweeps, ref_sweeps)
        assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @staticmethod
    def check_permuting_rows_permutes_outputs(map_):
        X0 = seeded_starts(map_.n, 10)
        perm = np.random.default_rng(3).permutation(10)
        ref = _seesaw_batch(map_, X0, MAX_SWEEPS)
        got = _seesaw_batch(map_, X0[perm], MAX_SWEEPS)
        for a, b in zip(ref, got):
            assert a[perm].tobytes() == b.tobytes()

    @pytest.mark.parametrize("n, k, t", [(4, 2, 2.1), (5, 2, None), (6, 4, 2.5)])
    def test_block_budget_leaves_report_unchanged(self, monkeypatch, n, k, t):
        map_ = v1_map(n, k, t)
        ref = seesaw_minimize(map_, starts=10, seed=1)
        for per_block in (1, 3):
            monkeypatch.setattr(posmap.positivity, "_BLOCK_ENTRIES", per_block * n * n)
            got = seesaw_minimize(map_, starts=10, seed=1)
            assert (got.verdict, got.iterations, got.starts_capped) == (
                ref.verdict, ref.iterations, ref.starts_capped)
            assert np.float64(got.min_value).tobytes() == np.float64(ref.min_value).tobytes()
            assert got.witness_x.tobytes() == ref.witness_x.tobytes()
            assert got.witness_y.tobytes() == ref.witness_y.tobytes()


class ShiftedFactors(TauMap):
    """A TauMap whose on_projector_factors puts every F higher by shift than on_projector does."""

    def __init__(self, coupling, shift):
        super().__init__(coupling)
        self.shift = shift

    def on_projector_factors(self, x):
        d, U = super().on_projector_factors(x)
        return d + self.shift, U


def near_window_pair(n, eps=1e-3):
    """A unit pair a distance of order eps from the window zero pair of j = 0 of tau_{n,1}.

    x puts eps on the window {0, 1} and is uniform off it; y is e_0 plus eps on e_1.
    """
    x = np.ones(n)
    x[:2] = eps
    y = unit_basis(n, 0)
    y[1] = eps
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


# v1 just above its critical weight n - k, and the Fourier kernel directions
# of (12, 8) at weight 6: maps whose negative-basin starts include some that
# creep with F > 0 past the first snap sweeps before they turn negative.
REPLAY_MAPS = {
    "v1-4-2": lambda: v1_map(4, 2, 2.01),
    "v1-6-4": lambda: v1_map(6, 4, 2.01),
    "v1-8-6": lambda: v1_map(8, 6, 2.01),
    "fourier-12-8-f1": lambda: fourier_map(12, 8, [6.0, 0.0, 0.0]),
    "fourier-12-8-f2": lambda: fourier_map(12, 8, [0.0, 6.0, 0.0]),
    "fourier-12-8-f3": lambda: fourier_map(12, 8, [0.0, 0.0, 6.0]),
}


class TestWindowSnap:
    """Starts that creep toward a window zero pair stop on it, where F is exactly 0.0."""

    @pytest.mark.parametrize(
        "make, seed, snapped",
        [(lambda: v1_map(3, 1), 0, 21), (lambda: v1_map(4, 1), 0, 22),
         (lambda: v1_map(4, 2), 0, 13), (lambda: v1_map(5, 2), 0, 12),
         (lambda: v1_map(4, 2, 2.0), 0, 10), (lambda: fourier_map(6, 3, [1.0, 1.0]), 1, 3)],
        ids=["plain-3-1", "plain-4-1", "plain-4-2", "plain-5-2", "v1-4-2-critical", "fourier-6-3"],
    )
    def test_snapped_starts_are_the_capped_ones(self, monkeypatch, make, seed, snapped):
        """Each snapped start is one the cap stopped without the snap; every other start keeps its bytes."""
        map_ = make()
        X0 = seeded_starts(map_.n, 64, seed)
        values, X, Y, sweeps, snap = _seesaw_batch(map_, X0, MAX_SWEEPS)
        assert np.count_nonzero(snap) == snapped
        assert not np.any(sweeps[~snap] >= MAX_SWEEPS)
        for value, x, y in zip(values[snap], X[snap], Y[snap]):
            assert value == 0.0
            assert form_value(map_, x, y) == 0.0
            assert not np.any(x * y)
        monkeypatch.setattr(posmap.positivity, "_SNAP_AFTER", MAX_SWEEPS + 1)
        ref = _seesaw_batch(map_, X0, MAX_SWEEPS)
        assert np.array_equal(ref[3] >= MAX_SWEEPS, snap)
        for got, want in zip((values, X, Y, sweeps), ref):
            assert got[~snap].tobytes() == want[~snap].tobytes()

    def test_near_pair_snaps_to_an_exact_zero(self):
        map_ = TauMap(MapSpec(4, 1).coupling)
        x, y = near_window_pair(4)
        rows, xs, ys, fs = _window_snap(map_, x[None], y[None], np.array([1e-3]))
        assert rows.tolist() == [0]
        assert np.array_equal(xs[0], [0.0, 0.0, np.sqrt(0.5), np.sqrt(0.5)])
        assert np.array_equal(ys[0], unit_basis(4, 0))
        assert fs.tolist() == [0.0]
        assert xs.dtype == ys.dtype == np.float64

    def test_snap_above_the_value_is_refused(self):
        """A snapped pair whose F, by the map's kernels, is above the row's value leaves the row running."""
        x, y = near_window_pair(4)
        rows = _window_snap(ShiftedFactors(MapSpec(4, 1).coupling, 1.0), x[None], y[None], np.array([1e-3]))[0]
        assert rows.size == 0

    @pytest.mark.parametrize("shift, value", [(0.0, 0.0), (-1.0, -1e-3)])
    def test_rows_that_are_not_positive_never_snap(self, shift, value):
        x, y = near_window_pair(4)
        rows = _window_snap(ShiftedFactors(MapSpec(4, 1).coupling, shift), x[None], y[None], np.array([value]))[0]
        assert rows.size == 0

    def test_rows_far_from_a_window_pair_never_snap(self):
        """Row 0's y is spread over two entries, row 1's x has half its mass on the window."""
        x, y = near_window_pair(4)
        spread = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        on_window = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        rows = _window_snap(TauMap(MapSpec(4, 1).coupling), np.array([x, on_window]),
                            np.array([spread, y]), np.array([1e-3, 1e-3]))[0]
        assert rows.size == 0

    @pytest.mark.parametrize("name", list(REPLAY_MAPS))
    def test_snap_keeps_every_negative_start(self, monkeypatch, name):
        """Every start that ends below -tol without the snap ends there, bit for bit, with it."""
        map_ = REPLAY_MAPS[name]()
        X0 = seeded_starts(map_.n, 16)
        values, _, _, _, snapped = _seesaw_batch(map_, X0, MAX_SWEEPS)
        monkeypatch.setattr(posmap.positivity, "_SNAP_AFTER", MAX_SWEEPS + 1)
        ref = _seesaw_batch(map_, X0, MAX_SWEEPS)[0]
        negative = ref < -NEGATIVITY_TOL
        assert negative.any()
        assert not snapped[negative].any()
        assert values[negative].tobytes() == ref[negative].tobytes()
        assert (values.min() < -NEGATIVITY_TOL) == (ref.min() < -NEGATIVITY_TOL)


SIMILARITY_MAPS = {
    "plain-3-1": lambda: v1_map(3, 1),
    "plain-8-3": lambda: v1_map(8, 3),
    "plain-24-6": lambda: v1_map(24, 6),
    "v1-8-2": lambda: v1_map(8, 2, 5.0),
    "v1-24-6": lambda: v1_map(24, 6, 20.0),
    "fourier-6-3": lambda: fourier_map(6, 3, [0.7, 0.4]),
    # Equal weights on a conjugate pair of Fourier directions: L is real, but
    # the factor, and so the run, is complex.
    "fourier-pair-16-12": lambda: fourier_map(16, 12, [1.0, 2.0, 1.0]),
    # One real Fourier direction (the alternating vector): a real factor.
    "fourier-real-16-12": lambda: fourier_map(16, 12, [0.0, 1.0, 0.0]),
}


def run_dtypes(map_, monkeypatch):
    """The dtypes of the vectors one see-saw run passes to the map's four kernels."""
    seen = []
    for kernel in ("on_projector", "quadratic_form",
                   "on_projector_factors", "quadratic_form_factors"):
        def spy(v, exact=getattr(map_, kernel)):
            seen.append(np.asarray(v).dtype)
            return exact(v)
        monkeypatch.setattr(map_, kernel, spy)
    _seesaw_batch(map_, seeded_starts(map_.n, 8), MAX_SWEEPS)
    return set(seen)


class TestPhaseSimilarity:
    """M(v) = Diag(conj(phase)) M(|v|) Diag(phase), so a start may be replaced by its moduli."""

    @pytest.mark.parametrize("name", list(SIMILARITY_MAPS))
    def test_moduli_give_the_same_minimum_and_eigenvector(self, name):
        map_ = SIMILARITY_MAPS[name]()
        rng = np.random.default_rng(47)
        X = rng.standard_normal((10, map_.n)) + 1j * rng.standard_normal((10, map_.n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        for kernel in (map_.on_projector, map_.quadratic_form):
            for x in X:
                a = np.abs(x)
                phase = x / a
                assert np.abs(a * phase - x).max() <= 1e-15
                evals, evecs = np.linalg.eigh(kernel(a))
                full = kernel(x)
                lam = np.linalg.eigvalsh(full)[0]
                assert abs(evals[0] - lam) <= 1e-12 * max(1.0, abs(lam))
                z = phase.conj() * evecs[:, 0]
                assert np.abs(full @ z - evals[0] * z).max() <= 1e-12

    @pytest.mark.parametrize("name", ["plain-8-3", "v1-8-2", "fourier-6-3"])
    def test_torus_image_of_a_start_gives_the_same_run(self, name):
        """Starts x0 and phi o x0 give the same run, bit for bit.

        phi takes quarter turns 1, i, -1, -i, which permute and negate the
        real and imaginary parts exactly, so |phi o x0| = |x0| bit for bit.
        """
        map_ = SIMILARITY_MAPS[name]()
        X0 = seeded_starts(map_.n, 16)
        phi = np.random.default_rng(53).choice([1, 1j, -1, -1j], size=X0.shape)
        ref = _seesaw_batch(map_, X0, MAX_SWEEPS)
        got = _seesaw_batch(map_, phi * X0, MAX_SWEEPS)
        for a, b in zip(ref, got):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["plain-3-1", "plain-8-3", "v1-8-2", "v1-24-6",
                                      "fourier-real-16-12"])
    def test_real_schur_factor_keeps_the_run_real(self, name, monkeypatch):
        map_ = SIMILARITY_MAPS[name]()
        report = seesaw_minimize(map_, starts=8, seed=0)
        assert run_dtypes(map_, monkeypatch) == {np.dtype(np.float64)}
        assert not np.imag(report.witness_x).any()
        assert not np.imag(report.witness_y).any()

    @pytest.mark.parametrize("name", ["fourier-pair-16-12"])
    def test_complex_factor_runs_complex(self, name, monkeypatch):
        """A complex factor runs complex even where L is real (a conjugate pair, equal weights)."""
        map_ = SIMILARITY_MAPS[name]()
        assert map_.factor.dtype == np.complex128
        assert run_dtypes(map_, monkeypatch) == {np.dtype(np.complex128)}
        assert np.iscomplexobj(seesaw_minimize(map_, starts=8, seed=0).witness_x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [lambda: v1_map(6, 2), lambda: v1_map(6, 2, 3.0),
                                      lambda: fourier_map(6, 3, [0.7, 0.4])],
                             ids=["plain", "v1", "fourier"])
    def test_start_with_zero_and_subnormal_entries(self, make):
        x0 = np.array([1.0, 0.0, 1e-320, 1e-320j, -0.5 + 0.5j, -0.0])
        value, x, y, _ = _seesaw_single(make(), x0, MAX_SWEEPS)
        assert np.isfinite(value)
        assert np.isfinite(x).all() and np.isfinite(y).all()


def low_rank_stack(n, m, rows, dtype, magnitude, seed):
    """(d, U, A): rows of d >= 0 and n x m factors U, with A = Diag(d) - U U^dag formed densely."""
    rng = np.random.default_rng(seed)
    d = magnitude * rng.random((rows, n))
    U = rng.standard_normal((rows, n, m))
    if dtype is complex:
        U = U + 1j * rng.standard_normal((rows, n, m))
    U *= np.sqrt(magnitude / n)
    A = -U @ np.conj(np.swapaxes(U, 1, 2))
    A[:, np.arange(n), np.arange(n)] += d
    return d, U, A


def eigen_residual(A, lam, z):
    return np.linalg.norm((A @ z[..., None])[..., 0] - lam[:, None] * z, axis=1)


def halfstep(A, d, U, z0, dense_rows):
    """_halfstep on a stack indexed by row number; dense_rows records the rows sent to eigh."""
    def dense(v):
        dense_rows.extend(v.tolist())
        return A[v]
    return _halfstep(dense, lambda v: (d[v], U[v]), np.arange(len(d)), z0)


class TestSmallestEigenpairs:
    """From n = 16 on: Newton on the secular equation of Diag(d) - U U^dag, eigh for the rows it cannot take."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [16, 24, 64])
    @pytest.mark.parametrize("magnitude", [1.0, 1e300, 1e-300])
    def test_warm_start_matches_eigh(self, n, dtype, magnitude):
        eps = np.finfo(float).eps
        for m in (1, 2) if dtype is float else (1, 2, 4, 8):
            d, U, A = low_rank_stack(n, m, 6, dtype, magnitude, seed=n + m)
            evals, evecs = np.linalg.eigh(A)
            noise = np.random.default_rng(1).standard_normal((6, n))
            z0 = evecs[:, :, 0] + 0.1 * noise / np.sqrt(n)
            dense_rows = []
            lam, z = halfstep(A, d, U, z0, dense_rows)
            assert dense_rows == []
            assert lam.dtype == np.float64 and z.dtype == U.dtype
            # The scale the solve works in: max(d, |U_i|^2), an upper bound on max|A|.
            scale = np.maximum(d.max(axis=1), (np.abs(U) ** 2).sum(axis=2).max(axis=1))
            ref = np.linalg.eigvalsh(A)[:, 0]
            assert np.all(np.abs(lam - ref) <= 4 * n * eps * scale)
            assert np.allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=4e-16)
            unit = A / scale[:, None, None]
            resid = eigen_residual(unit, lam / scale, z)
            assert np.all(resid <= 2 * n * eps)
            eigh_resid = eigen_residual(unit, evals[:, 0] / scale, evecs[:, :, 0])
            assert np.all(resid <= 8 * eigh_resid.max())

    @pytest.mark.parametrize("dtype, m", [(float, 1), (float, 2), (complex, 4)])
    def test_newton_iterates_never_increase(self, monkeypatch, dtype, m):
        d, U, A = low_rank_stack(24, m, 8, dtype, 1.0, seed=7)
        iterates = {}
        exact = posmap.positivity._newton_step

        def newton_step(gaps, U, mu):
            for g, x in zip(gaps, mu):
                iterates.setdefault(g.tobytes(), []).append(x)
            return exact(gaps, U, mu)

        monkeypatch.setattr(posmap.positivity, "_newton_step", newton_step)
        dense_rows = []
        halfstep(A, d, U, np.ones((8, 24)), dense_rows)
        assert dense_rows == [] and len(iterates) == 8
        assert max(len(seq) for seq in iterates.values()) >= 3
        for seq in iterates.values():
            assert all(b <= a for a, b in zip(seq, seq[1:]))
            assert seq[-1] < 0
        # Warm-started at the eigenvector, the Rayleigh quotient is the root
        # to rounding: one step to land on it and one to confirm.
        iterates.clear()
        halfstep(A, d, U, np.linalg.eigh(A)[1][:, :, 0], dense_rows)
        assert dense_rows == [] and max(len(seq) for seq in iterates.values()) <= 2

    def test_below_the_crossover_is_eigh(self, monkeypatch):
        """Below _SECULAR_MIN_N every half-step is eigh; from there on the secular solve."""
        calls = []

        def secular(d, U, z0):
            calls.append(U.shape[1])
            return _secular_eigenpairs(d, U, z0)

        monkeypatch.setattr(posmap.positivity, "_secular_eigenpairs", secular)
        for n in (_SECULAR_MIN_N - 1, _SECULAR_MIN_N):
            map_ = v1_map(n, 4)
            _seesaw_batch(map_, seeded_starts(n, 4), MAX_SWEEPS)
        assert calls and set(calls) == {_SECULAR_MIN_N}

    def test_deflated_row_takes_eigh(self):
        """U = 0 at argmin d leaves no pole there: that row takes eigh, and the others keep their bytes.

        The row starts at its eigenvector, so its Rayleigh quotient is below
        min d and only the deflation test routes it.
        """
        d, U, A = low_rank_stack(16, 2, 3, float, 1.0, seed=11)
        i = d[1].argmin()
        U[1, i] = 0.0
        A[1] = np.diag(d[1]) - U[1] @ U[1].T
        evals, evecs = np.linalg.eigh(A)
        assert evals[1, 0] < d[1, i]
        z0 = np.ones((3, 16))
        z0[1] = evecs[1, :, 0]
        ref_lam, ref_z = halfstep(A[::2], d[::2], U[::2], z0[::2], [])
        dense_rows = []
        lam, z = halfstep(A, d, U, z0, dense_rows)
        assert dense_rows == [1]
        assert lam[1].tobytes() == evals[1, 0].tobytes()
        assert z[1].tobytes() == evecs[1, :, 0].tobytes()
        assert lam[::2].tobytes() == ref_lam.tobytes()
        assert z[::2].tobytes() == ref_z.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wrong_start_takes_eigh(self, monkeypatch):
        """A start left of the root makes Newton raise mu: it gives up on that row, which takes eigh."""
        d, U, A = low_rank_stack(24, 1, 3, float, 1.0, seed=13)
        z0 = np.ones((3, 24))
        ref_lam, ref_z = halfstep(A, d, U, z0, [])
        gaps = d - d.min(axis=1, keepdims=True)
        root = np.linalg.eigvalsh(A)[:, 0] - d.min(axis=1)
        mu, z = posmap.positivity._secular_newton(gaps, U, root + [1e-3, -1.0, 1e-3])
        assert np.isnan(mu[1]) and np.isnan(z[1]).all()
        assert np.isfinite(mu[::2]).all() and np.isfinite(z[::2]).all()
        exact = posmap.positivity._secular_newton

        def mutant(gaps, U, mu):
            return exact(gaps, U, mu - np.array([0.0, 1.0, 0.0]))

        monkeypatch.setattr(posmap.positivity, "_secular_newton", mutant)
        dense_rows = []
        lam, z = halfstep(A, d, U, z0, dense_rows)
        assert dense_rows == [1]
        evals, evecs = np.linalg.eigh(A[1:2])
        assert lam[1].tobytes() == evals[0, 0].tobytes()
        assert z[1].tobytes() == evecs[0, :, 0].tobytes()
        for r in (0, 2):
            assert lam[r].tobytes() == ref_lam[r].tobytes()
            assert z[r].tobytes() == ref_z[r].tobytes()

    def test_solve_flags_only_the_rows_it_cannot_take(self):
        d, U, A = low_rank_stack(16, 2, 4, complex, 1.0, seed=17)
        U[2, d[2].argmin()] = 0.0
        _, _, bad = _secular_eigenpairs(d, U, np.ones((4, 16)))
        assert bad.tolist() == [False, False, True, False]


class TestMonotonicityGuards:
    """An exact half-step that raises the objective is an anomaly, not a result."""

    @staticmethod
    def spoil_eigh(monkeypatch, call, row):
        """Raise the smallest eigenvalue of one stacked row on the given eigh call (1-based)."""
        exact = np.linalg.eigh
        calls = []

        def eigh(a):
            evals, evecs = exact(a)
            calls.append(None)
            if len(calls) == call:
                evals = evals.copy()
                evals[row, 0] += 1.0
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    # Odd calls are y steps and even calls x steps; the first y step has nothing to exceed.
    @pytest.mark.parametrize("call, step", [(2, "x"), (3, "y"), (6, "x")])
    def test_raised_eigenvalue_is_an_anomaly(self, monkeypatch, call, step):
        self.spoil_eigh(monkeypatch, call, row=1)
        with pytest.raises(NumericalAnomalyError,
                           match=f"see-saw objective increased on the {step} step"):
            seesaw_minimize(TauMap(MapSpec(4, 2).coupling), starts=4, seed=0)

    def test_cli_exits_4(self, monkeypatch, capsys):
        self.spoil_eigh(monkeypatch, 2, row=1)
        self.check_cli_exits_4(capsys, 4, 2)

    @staticmethod
    def check_cli_exits_4(capsys, n, k):
        code = posmap.cli.main(["positivity", "--n", str(n), "--k", str(k), "--starts", "4"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(
            "posmap: anomaly: see-saw objective increased on the x step")

    @staticmethod
    def spoil_secular_root(monkeypatch, call, row, fallback_raise=1.0):
        """From n = 16 on, raise one row's smallest eigenvalue by 1 on the given secular solve (1-based).

        The residual check sends that row to eigh, so while the same
        half-step lasts eigh raises each row it is given by fallback_raise.
        Returns the list of stack sizes eigh was given in that half-step.
        """
        exact_newton, exact_eigh = posmap.positivity._secular_newton, np.linalg.eigh
        calls, fallback_rows = [], []

        def secular_newton(gaps, U, mu):
            mu, z = exact_newton(gaps, U, mu)
            calls.append(None)
            if len(calls) == call:
                mu = mu.copy()
                mu[row] += 1.0
            return mu, z

        def eigh(a):
            evals, evecs = exact_eigh(a)
            if len(calls) == call:
                fallback_rows.append(len(a))
                evals = evals.copy()
                evals[:, 0] += fallback_raise
            return evals, evecs

        monkeypatch.setattr(posmap.positivity, "_secular_newton", secular_newton)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return fallback_rows

    @pytest.mark.parametrize("call, step", [(2, "x"), (3, "y"), (6, "x")])
    def test_raised_eigenvalue_is_an_anomaly_from_n_16(self, monkeypatch, call, step):
        fallback_rows = self.spoil_secular_root(monkeypatch, call, row=1)
        with pytest.raises(NumericalAnomalyError,
                           match=f"see-saw objective increased on the {step} step"):
            seesaw_minimize(TauMap(MapSpec(16, 4).coupling), starts=4, seed=0)
        assert fallback_rows == [1]

    def test_raised_secular_root_alone_takes_eigh(self, monkeypatch):
        """A raised secular root is no eigenvalue: the residual check sends its row to eigh."""
        map_ = TauMap(MapSpec(16, 4).coupling)
        ref = seesaw_minimize(map_, starts=4, seed=0)
        fallback_rows = self.spoil_secular_root(monkeypatch, 2, row=1, fallback_raise=0.0)
        got = seesaw_minimize(map_, starts=4, seed=0)
        assert fallback_rows == [1]
        assert got.verdict == ref.verdict
        assert abs(got.min_value - ref.min_value) <= 1e-12

    def test_cli_exits_4_from_n_16(self, monkeypatch, capsys):
        self.spoil_secular_root(monkeypatch, 2, row=1)
        self.check_cli_exits_4(capsys, 16, 4)

    @pytest.mark.parametrize("coupling", [[1e6, 1, 0], 1e5 * MapSpec(8, 3).coupling,
                                          1e50 * MapSpec(16, 5).coupling],
                             ids=["Phi[1e6,1,0]", "eigh-1e5-tau(8,3)", "secular-1e50-tau(16,5)"])
    def test_row_of_any_scale_is_positive_evidence(self, coupling):
        """Rounding scales with the half-step matrix, so a positive map of a large row raises nothing."""
        assert seesaw_minimize(TauMap(coupling), starts=16, seed=0).verdict == "positive-evidence"

    @pytest.mark.parametrize("n", [4, _SECULAR_MIN_N])
    @pytest.mark.parametrize("rise, raises", [(2.0, True), (0.5, False)])
    def test_rise_is_judged_against_the_rounding_bound(self, monkeypatch, n, rise, raises):
        """An x step set to rise * slack above its y step raises exactly when rise > 1.

        slack = 8 n eps sigma, sigma = max c + max_i G_ii = (n - 2) + 1 for tau_{n,2}.
        """
        map_ = TauMap(MapSpec(n, 2).coupling)
        slack = 8 * n * np.finfo(float).eps * (n - 2 + 1)
        exact, lams = posmap.positivity._halfstep, []

        def halfstep(dense, factors, v, z0):
            lam, z = exact(dense, factors, v, z0)
            if len(lams) == 1:
                lam = lams[0] + rise * slack
            lams.append(lam)
            return lam, z

        monkeypatch.setattr(posmap.positivity, "_halfstep", halfstep)
        if raises:
            with pytest.raises(NumericalAnomalyError, match="see-saw objective increased on the x step"):
                seesaw_minimize(map_, starts=4, seed=0)
        else:
            assert seesaw_minimize(map_, starts=4, seed=0).verdict == "positive-evidence"
        assert len(lams) >= 2


class TestDiagonalProfile:
    def test_shift_coupling_gives_profile(self):
        assert np.array_equal(coupling_matrix(MapSpec(3, 1).coupling) @ [1.0, 2.0, 3.0], [4.0, 7.0, 7.0])

    def test_rejects_negative_entries(self):
        for fn in (f_value, analytic_det):
            with pytest.raises(DomainError):
                fn(MapSpec(3, 1).coupling, [1.0, -0.5, 2.0])

    def test_rejects_wrong_length(self):
        for fn in (f_value, analytic_det):
            with pytest.raises(DimensionMismatchError):
                fn(MapSpec(3, 1).coupling, [1.0, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        for fn in (f_value, analytic_det):
            for profile in ([bad, 1.0, 1.0], [1.0, 1.0, bad]):
                with pytest.raises(DomainError, match="finite"):
                    fn(MapSpec(3, 1).coupling, profile)

    @pytest.mark.parametrize("profile", [[1 + 1j, 1, 1], ["a", 1, 1], ["1", 1, 1], [None, 1, 1], [10**400, 1, 1]],
                             ids=["complex", "str", "numeric-str", "None", "int-beyond-float"])
    def test_rejects_entries_that_are_not_real_numbers(self, profile):
        for fn in (f_value, analytic_det):
            with pytest.raises(DomainError, match="each diagonal entry must be a real number"):
                fn([1, 1, 0], profile)


class TestFValue:
    def test_uniform_profile_is_exactly_one(self):
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 4)]:
            assert f_value(MapSpec(n, k).coupling, np.ones(n)) == 1.0

    def test_frozen_rational_fixtures(self):
        assert f_value(MapSpec(3, 1).coupling, (1.0, 2.0, 4.0)) == 17.0 / 18.0
        assert f_value(MapSpec(4, 2).coupling, (1.0, 1.0, 2.0, 4.0)) == 341.0 / 360.0
        assert f_value(MapSpec(3, 2).coupling, (2.0, 1.0, 1.0)) == 1.0

    def test_scale_invariance(self):
        spec = MapSpec(4, 2)
        X = np.array([0.3, 1.1, 0.25, 2.0])
        assert f_value(spec.coupling, 8.0 * X) == f_value(spec.coupling, X)

    def test_extreme_profile_no_overflow(self):
        spec = MapSpec(5, 2)
        X = np.array([1e300, 1e-300, 1.0, 1e150, 1e-150])
        value = f_value(spec.coupling, X)
        assert np.isfinite(value)
        assert 0.0 < value <= 1.0 + 1e-12

    def test_vanishing_window_rejected(self):
        with pytest.raises(DomainError):
            f_value(MapSpec(4, 1).coupling, (0.0, 0.0, 1.0, 1.0))

    def test_zero_profile_rejected(self):
        with pytest.raises(DomainError):
            f_value(MapSpec(3, 1).coupling, (0.0, 0.0, 0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quotient_overflow_is_inf(self):
        """With c_0 = 0, D_0 = X_1 can be subnormal while X_0 = 1: f is unbounded, not a warning."""
        assert f_value([0.0, 1.0, 0.0], [1.0, 1e-320, 1.0]) == np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [144, 1000, 4099])
    def test_uniform_profile_at_large_n(self, n):
        """One rounding of the exact quotient sum: no product of n profile entries to overflow."""
        assert abs(f_value(MapSpec(n, 2).coupling, np.ones(n)) - 1.0) <= 2 * np.spacing(1.0)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 4)])
    def test_bounded_by_one_on_random_profiles(self, n, k):
        rng = np.random.default_rng([41, n, k])
        spec = MapSpec(n, k)
        for _ in range(300):
            X = np.exp(rng.normal(scale=3.0, size=n))
            assert f_value(spec.coupling, X) <= 1.0 + 1e-12


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
        assert analytic_det(MapSpec(3, 1).coupling, (1.0, 1.0, 0.0)) == 1.0
        assert analytic_det(MapSpec(3, 1).coupling, (1.0, 2.0, 3.0)) == 7.0
        assert analytic_det(MapSpec(3, 1).coupling, (1.0, 1.0, 1.0)) == 0.0

    def test_degenerate_window_evaluates_exactly(self):
        assert analytic_det(MapSpec(4, 1).coupling, (0.0, 0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [144, 4099])
    def test_overflowing_product_is_a_domain_error(self, n):
        """prod_i D_i = n^n overflows float64 from n = 144 on the uniform profile."""
        with pytest.raises(DomainError, match=f"overflows float64 at n = {n}"):
            analytic_det(MapSpec(n, 2).coupling, np.ones(n))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 2)])
    def test_matches_numeric_determinant(self, n, k):
        rng = np.random.default_rng([43, n, k])
        spec = MapSpec(n, k)
        for _ in range(100):
            X = np.exp(rng.normal(size=n))
            root = np.sqrt(X)
            numeric = np.linalg.det(np.diag(coupling_matrix(spec.coupling) @ X) - np.outer(root, root))
            analytic = analytic_det(spec.coupling, X)
            assert abs(analytic - numeric) <= 1e-10 * max(1.0, abs(numeric))


class TestHessianCoupling:
    def test_3_1_frozen(self):
        S, s_prime, S_hat = hessian_shat(MapSpec(3, 1).coupling)
        assert s_prime == 3.0
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(S_hat, expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_edges_vanish_identically(self, n):
        for k in (0, n - 1):
            _, _, S_hat = hessian_shat(MapSpec(n, k).coupling)
            assert np.abs(S_hat).max() == 0.0

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (7, 4)])
    def test_psd_with_one_dimensional_kernel(self, n, k):
        _, _, S_hat = hessian_shat(MapSpec(n, k).coupling)
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
        assert N.dtype == np.float64
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
            (502, 4, 498.0, 0.0),
            (1002, 4, 998.0, 0.0),
            (1022, 510, 512.0, 0.0),
            (300, 4, 295.5, 0.25),
            (502, 4, 498.1, (498 - 498.1) / 2),
            (1022, 2, 1020.1, (1020 - 1020.1) / 2),
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

    @pytest.mark.parametrize("t", [np.float32(2.1), np.float16(2.5), np.int64(3), 3],
                             ids=["float32", "float16", "int64", "int"])
    def test_weight_is_read_back_as_a_float(self, t):
        """The value uses the weight HadamardPerturbation keeps, a float, whatever type t has."""
        value, _ = parity_witness_value(4, 2, t)
        assert type(value) is float
        assert value == (2 - float(t)) / 2

    def test_perturbed_direction_fails_the_residual_check(self, monkeypatch):
        """A direction 1e-9 longer than v1 moves N 1 off the closed form, far above the bound."""
        monkeypatch.setattr(posmap.positivity, "alternating_vector",
                            lambda n: alternating_vector(n) * (1.0 + 1e-9))
        with pytest.raises(NumericalAnomalyError, match="disagrees with the closed-form eigenvalue"):
            parity_witness_value(4, 2, 2.0)
