"""Maps built from coupling rows other than tau_{n,k}'s.

Cho, Kye and Lee (Linear Algebra Appl. 171, 1992) settle positivity of the
generalized Choi maps Phi[a, b, c](X) = Diag(C diag X) - X on M_3, with
C = a I + b P + c P^2 and (P v)_i = v_{i+1}, that is the coupling row
(a, b, c): Phi[a, b, c] is positive iff a >= 1, a + b + c >= 3 and, when
1 <= a <= 2, b c >= (2 - a)^2.  Phi[2, 1, 0] is tau_{3,1}, Choi's map.  The
theorem is an oracle from outside this code for the see-saw and for the
ratio-sum criterion max f <= 1.  The mutants of tau_{n,k}, each built from
a row or a weight, must each flip a verdict that the unmutated map passes.
"""

import numpy as np
import pytest

from posmap import (
    DomainError,
    HadamardPerturbation,
    MapSpec,
    TauMap,
    alternating_vector,
    f_value,
    form_value,
    seesaw_minimize,
    unimodular_pairs,
)


def cho_kye_lee_positive(a, b, c):
    return a >= 1 and a + b + c >= 3 and (not 1 <= a <= 2 or b * c >= (2 - a) ** 2)


def boundary_points():
    """Points 10 % either side of each piece of the boundary, and four maps on it."""
    points = [(0.95, 5.0, 5.0), (1.05, 5.0, 5.0)]
    points += [(a, s, s) for a, sides in ((1.5, (0.675, 0.825)), (2.5, (0.225, 0.275))) for s in sides]
    points += [(a, b, f * (2 - a) ** 2 / b)
               for a, b in ((1.5, 2.0), (1.2, 3.0), (1.0, 4.0), (1.8, 1.5)) for f in (0.9, 1.1)]
    return points + [(2.0, 1.0, 0.0), (2.0, 0.0, 1.0), (1.0, 1.0, 1.0), (3.0, 0.0, 0.0)]


def row_id(row):
    return "-".join(f"{v:.4g}" for v in row)


# The 66 profiles of the simplex grid with spacing 1/10.
SIMPLEX_GRID = [np.array([i, j, 10 - i - j]) / 10.0 for i in range(11) for j in range(11 - i)]


class TestChoKyeLee:
    def test_tau_3_1_is_choi_map(self):
        assert np.array_equal(MapSpec(3, 1).coupling, [2.0, 1.0, 0.0])

    def test_the_points_straddle_each_boundary_piece(self):
        verdicts = [cho_kye_lee_positive(*p) for p in boundary_points()]
        assert verdicts == [False, True] * 7 + [True] * 4

    @pytest.mark.parametrize("row", boundary_points(), ids=row_id)
    def test_seesaw_verdict_follows_the_theorem(self, row):
        report = seesaw_minimize(TauMap(row), starts=64, seed=0)
        expected = "positive-evidence" if cho_kye_lee_positive(*row) else "negative-certificate"
        assert report.verdict == expected

    @pytest.mark.parametrize("row", boundary_points(), ids=row_id)
    def test_ratio_sum_criterion_follows_the_theorem(self, row):
        values = []
        for X in SIMPLEX_GRID:
            try:
                values.append(f_value(row, X))
            except DomainError:  # some D_i vanishes on this profile
                pass
        assert (max(values) <= 1.0 + 1e-12) == cho_kye_lee_positive(*row)

    @pytest.mark.parametrize("row, snapped", [((2.0, 1.0, 0.0), 21), ((2.0, 0.0, 1.0), 20)])
    def test_window_snap_ends_on_an_exact_zero(self, row, snapped):
        """The window family of a coupling that is not tau's: Phi[2,0,1]'s window of j is {j, j+2}."""
        report = seesaw_minimize(TauMap(row), starts=64, seed=0)
        assert report.min_value == 0.0
        assert (report.starts_snapped, report.starts_capped) == (snapped, 0)


MUTANT_SPECS = [(4, 2), (5, 2), (6, 2), (6, 4), (7, 3), (8, 2)]


def verdict(row, pert=None):
    return seesaw_minimize(TauMap(row, pert), starts=8, seed=0).verdict


def v1(n, t):
    return HadamardPerturbation([alternating_vector(n)], [t])


class TestMutants:
    @pytest.mark.parametrize("n, k", MUTANT_SPECS)
    def test_diagonal_lowered_to_n_minus_k_minus_1(self, n, k):
        row = MapSpec(n, k).coupling
        lowered = row - np.eye(n)[0]
        assert verdict(row) == "positive-evidence"
        assert verdict(lowered) == "negative-certificate"
        assert f_value(row, np.ones(n)) == 1.0
        assert abs(f_value(lowered, np.ones(n)) - n / (n - 1)) <= 4 * np.spacing(1.0)

    @pytest.mark.parametrize("n, k", MUTANT_SPECS)
    def test_window_widened_by_one(self, n, k):
        spec = MapSpec(n, k)
        row = spec.coupling
        widened = row + np.eye(n)[k + 1]
        for x, y in unimodular_pairs(spec):
            assert abs(form_value(TauMap(row), x, y)) <= 1e-14
            assert abs(form_value(TauMap(widened), x, y) - 1.0 / n) <= 1e-14

    @pytest.mark.parametrize("n, k", [(n, k) for n, k in MUTANT_SPECS if n % 2 == 0])
    def test_v1_weight_doubled(self, n, k):
        row = MapSpec(n, k).coupling
        assert verdict(row, v1(n, n - k)) == "positive-evidence"
        assert verdict(row, v1(n, 2.0 * (n - k))) == "negative-certificate"

    @pytest.mark.parametrize("n, k", [(n, k) for n, k in MUTANT_SPECS if n % 2 == 0])
    def test_hadamard_term_dropped(self, n, k):
        row = MapSpec(n, k).coupling
        assert verdict(row, v1(n, n - k + 0.5)) == "negative-certificate"
        assert verdict(row) == "positive-evidence"
