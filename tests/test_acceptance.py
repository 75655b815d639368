"""Acceptance gate: twelve stated criteria, one test each.

Every test collects its sub-checks into a failure list and asserts the list
is empty, so a failure message carries every violated sub-check at once.
conftest.py turns the outcomes into one `[criterion NN] PASS/FAIL` summary
line per criterion at the end of the run.  Tolerances are the stated ones;
exact fixtures use plain equality.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from posmap import (
    HadamardPerturbation,
    MapSpec,
    TauMap,
    alternating_vector,
)
from posmap.certify import build_circulant, certify_optimality, conjecture_probe
from posmap.positivity import (
    analytic_det,
    f_value,
    form_value,
    hessian_shat,
    parity_witness_value,
    seesaw_minimize,
)
from posmap.spanning import build_spanning_set

jsonschema = pytest.importorskip("jsonschema")

from posmap.cli import REPORT_SCHEMA  # noqa: E402


def _dense_circulant(c):
    """M[i][j] = first_row[(j - i) mod n], the matrix build_circulant never forms."""
    idx = np.arange(len(c.first_row))
    return c.first_row[(idx - idx[:, None]) % len(idx)]


def _random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.conj().T


def basis_matrix(n, i, j):
    E = np.zeros((n, n), dtype=np.complex128)
    E[i, j] = 1.0
    return E


COUPLING_3_1 = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
COUPLING_4_2 = np.array(
    [
        [2.0, 1.0, 1.0, 0.0],
        [0.0, 2.0, 1.0, 1.0],
        [1.0, 0.0, 2.0, 1.0],
        [1.0, 1.0, 0.0, 2.0],
    ]
)


def test_c01_basis_images_exact():
    """Entrywise-exact images of every matrix unit for the three reference maps."""
    failures = []

    def check(map_, n, coupling, schur, tag):
        for i in range(n):
            for j in range(n):
                expected = np.zeros((n, n), dtype=np.complex128)
                if i == j:
                    expected += np.diag(coupling[:, j].astype(np.complex128))
                expected[i, j] -= schur[i, j]
                got = map_.apply(basis_matrix(n, i, j))
                if not np.array_equal(got, expected):
                    failures.append(f"{tag}: image of unit ({i},{j}) differs")

    check(TauMap(MapSpec(3, 1)), 3, COUPLING_3_1, np.ones((3, 3)), "tau(3,1)")
    check(TauMap(MapSpec(4, 2)), 4, COUPLING_4_2, np.ones((4, 4)), "tau(4,2)")

    parity = np.array([[0.5 if (i - j) % 2 else 1.5 for j in range(4)] for i in range(4)])
    pert = HadamardPerturbation([alternating_vector(4)], [2.0])
    check(TauMap(MapSpec(4, 2), pert), 4, COUPLING_4_2, parity, "corrected tau(4,2) at t=2")

    assert not failures, "\n".join(failures)


def test_c02_diagonal_unitary_covariance():
    """Conjugating by any diagonal unitary commutes with every map, n <= 6."""
    failures = []
    for n in range(2, 7):
        for k in range(n):
            spec = MapSpec(n, k)
            rng = np.random.default_rng([2, n, k])
            worst = 0.0
            for _ in range(1000):
                X = _random_hermitian(rng, n)
                U = np.diag(np.exp(2j * np.pi * rng.random(n)))
                lhs = TauMap(spec).apply(U @ X @ U.conj().T)
                rhs = U @ TauMap(spec).apply(X) @ U.conj().T
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
            if worst > 1e-12:
                failures.append(f"(n={n}, k={k}): residual {worst:.3e} exceeds 1e-12")
    assert not failures, "\n".join(failures)


def test_c03_determinant_oracle():
    """Closed-form determinant against the numeric one on random profiles."""
    failures = []
    if analytic_det(MapSpec(3, 1), (1.0, 1.0, 0.0)) != 1.0:
        failures.append("fixture analytic_det((3,1),(1,1,0)) != 1")
    from posmap import shift_coupling

    for n in range(2, 7):
        for k in range(n):
            spec = MapSpec(n, k)
            S = shift_coupling(spec)
            rng = np.random.default_rng([3, n, k])
            worst = 0.0
            for _ in range(1000):
                X = np.exp(rng.normal(size=n))
                D = S @ X
                root = np.sqrt(X)
                numeric = float(np.linalg.det(np.diag(D) - np.outer(root, root)))
                analytic = analytic_det(spec, X)
                # scale by the term magnitude: at the two edge members the
                # determinant vanishes identically, so the result itself is
                # pure cancellation and cannot serve as the denominator
                scale = max(1.0, abs(numeric), float(np.prod(np.abs(D))))
                rel = abs(analytic - numeric) / scale
                worst = max(worst, rel)
            if worst > 1e-10:
                failures.append(f"(n={n}, k={k}): relative error {worst:.3e} exceeds 1e-10")
    assert not failures, "\n".join(failures)


def test_c04_ratio_sum_bounded_by_one():
    """f equals 1 exactly at the uniform profile and never exceeds 1 + 1e-12."""
    failures = []
    for n in range(2, 7):
        for k in range(1, n):
            spec = MapSpec(n, k)
            if f_value(spec, np.ones(n)) != 1.0:
                failures.append(f"(n={n}, k={k}): f at the uniform profile is not exactly 1")
            rng = np.random.default_rng([4, n, k])
            samples = np.exp(rng.normal(scale=2.0, size=(10_000, n)))
            worst = max(f_value(spec, X) for X in samples)
            if worst > 1.0 + 1e-12:
                failures.append(f"(n={n}, k={k}): max f {worst!r} exceeds 1 + 1e-12")
    assert not failures, "\n".join(failures)


def test_c05_curvature_at_uniform_profile():
    """Coupling curvature matrix PSD with one-dimensional kernel; f concave at 1."""
    failures = []
    h = 1e-3

    def fd_hessian(spec):
        n = spec.n
        base = np.ones(n)
        H = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                pp = base.copy(); pp[i] += h; pp[j] += h
                pm = base.copy(); pm[i] += h; pm[j] -= h
                mp = base.copy(); mp[i] -= h; mp[j] += h
                mm = base.copy(); mm[i] -= h; mm[j] -= h
                val = (
                    f_value(spec, pp) - f_value(spec, pm)
                    - f_value(spec, mp) + f_value(spec, mm)
                ) / (4.0 * h * h)
                H[i, j] = val
                H[j, i] = val
        return H

    for n in range(2, 9):
        for k in (0, n - 1):
            _, _, S_hat = hessian_shat(MapSpec(n, k))
            if np.abs(S_hat).max() != 0.0:
                failures.append(f"(n={n}, k={k}): edge member curvature matrix not identically 0")
        for k in range(1, n - 1):
            spec = MapSpec(n, k)
            _, _, S_hat = hessian_shat(spec)
            eigs = np.linalg.eigvalsh(S_hat)
            if eigs.min() < -1e-10:
                failures.append(f"(n={n}, k={k}): curvature matrix min eigenvalue {eigs.min():.3e}")
            if int((eigs < 1e-8).sum()) != 1:
                failures.append(f"(n={n}, k={k}): kernel dimension is not exactly 1")
            H = fd_hessian(spec)
            h_eigs = np.linalg.eigvalsh(H)
            if h_eigs.max() > 1e-6:
                failures.append(f"(n={n}, k={k}): Hessian max eigenvalue {h_eigs.max():.3e}")
            ones = np.ones(n) / math.sqrt(n)
            along = abs(float(ones @ (H @ ones)))
            if along > 1e-6:
                failures.append(f"(n={n}, k={k}): Hessian along the uniform direction {along:.3e}")
    assert not failures, "\n".join(failures)


def test_c06_spanning_ranks():
    """Frozen spanning ranks, stable across ten seeds."""
    failures = []
    low_rank = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 4)]
    full_rank = [(3, 2), (4, 3), (5, 4)]
    for n, k in low_rank:
        want = n * n - n + 1
        for seed in range(10):
            got = build_spanning_set(MapSpec(n, k), seed=seed).gram_rank
            if got != want:
                failures.append(f"(n={n}, k={k}, seed={seed}): rank {got}, expected {want}")
    for n, k in full_rank:
        for seed in range(10):
            got = build_spanning_set(MapSpec(n, k), seed=seed).gram_rank
            if got != n * n:
                failures.append(f"(n={n}, k={k}, seed={seed}): rank {got}, expected {n * n}")
    assert not failures, "\n".join(failures)


def test_c07_circulant_certificates():
    """Kernel dimension, leading eigenvalue, closed-form spectrum, and the
    three entrywise circulant fixtures with integer determinants 2, 1, 2."""
    failures = []
    for n in range(2, 13):
        for k in range(1, n):
            spec = MapSpec(n, k)
            c = build_circulant(spec)
            d = spec.gcd
            if len(c.kernel) != d - 1:
                failures.append(f"(n={n}, k={k}): kernel dimension {len(c.kernel)} != {d - 1}")
            if c.eigenvalues[0] != complex(n - k):
                failures.append(f"(n={n}, k={k}): leading eigenvalue {c.eigenvalues[0]!r}")
            M = _dense_circulant(c)
            idx = np.arange(n)
            for j in range(n):
                fourier = np.exp(2j * np.pi * j * idx / n) / math.sqrt(n)
                if np.linalg.norm(M @ fourier - c.eigenvalues[j] * fourier) > 1e-10:
                    failures.append(f"(n={n}, k={k}): eigenvalue {j} fails numerically")

    fixtures = {
        (3, 1): (np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=float), 2),
        (4, 3): (np.eye(4), 1),
        (5, 3): (
            np.array(
                [
                    [1, 1, 0, 0, 0],
                    [0, 1, 1, 0, 0],
                    [0, 0, 1, 1, 0],
                    [0, 0, 0, 1, 1],
                    [1, 0, 0, 0, 1],
                ],
                dtype=float,
            ),
            2,
        ),
    }
    for (n, k), (M, det) in fixtures.items():
        dense = _dense_circulant(build_circulant(MapSpec(n, k)))
        if not np.array_equal(dense, M):
            failures.append(f"fixture matrix (n={n}, k={k}) differs entrywise")
        if round(float(np.linalg.det(dense))) != det:
            failures.append(f"fixture determinant (n={n}, k={k}) != {det}")
    assert not failures, "\n".join(failures)


def test_c08_optimality_verdicts():
    failures = []
    certified = []
    for n in range(2, 9):
        certified.append((n, 1))
        certified.append((n, n - 1))
    for n in (3, 5, 7, 9):
        certified.append((n, n - 2))
    not_certified = [(4, 2), (6, 2), (6, 3), (6, 4), (8, 2), (8, 4), (8, 6), (9, 3), (9, 6)]
    for n, k in certified:
        verdict = certify_optimality(MapSpec(n, k)).verdict
        if verdict != "optimal-certified":
            failures.append(f"(n={n}, k={k}): verdict {verdict}, expected optimal-certified")
    for n, k in not_certified:
        verdict = certify_optimality(MapSpec(n, k)).verdict
        if verdict != "not-certified":
            failures.append(f"(n={n}, k={k}): verdict {verdict}, expected not-certified")
    assert not failures, "\n".join(failures)


def test_c09_seesaw_engine():
    """Multistart see-saw: near-zero floors for the plain maps, and on the
    corrected (4, 2) map at weight 2.1 a negative certificate at the form's
    closed-form minimum over unit pairs, plus the analytic witness value.

    With v = alternating_vector(n), |v_j|^2 = 1/n, so on unit x and y
    F_t(x, y) = F_{n-k}(x, y) - (t - (n - k)) |sum_j conj(v_j) x_j y_j|^2
              >= F_{n-k}(x, y) - (t - (n - k)) / n.
    F_{n-k} >= 0 (checked numerically at (4, 2) by criterion 10), so
    F_2.1 >= -0.1 / 4 = -0.025 on unit pairs, and x = y = mu = (1, 0, 1, 0)
    attains it: the witness eigenvalue -0.05 over |mu|^2 = 2.  The see-saw
    must reach that minimum and must not overshoot it.
    """
    failures = []
    for n in range(2, 7):
        for k in range(n):
            report = seesaw_minimize(TauMap(MapSpec(n, k)), starts=64, seed=0)
            if not (-1e-9 <= report.min_value <= 1e-6):
                failures.append(
                    f"(n={n}, k={k}): min_value {report.min_value!r} outside [-1e-9, 1e-6]"
                )

    n, k, t = 4, 2, 2.1
    map_ = TauMap(MapSpec(n, k), HadamardPerturbation([alternating_vector(n)], [t]))
    report = seesaw_minimize(map_, starts=64, seed=0)
    if report.verdict != "negative-certificate":
        failures.append(f"corrected map at t=2.1: verdict {report.verdict}")

    witness, _ = parity_witness_value(n, k, t)
    if abs(witness - (-0.05)) > 1e-15:
        failures.append(f"analytic witness at t=2.1: {witness!r} differs from -0.05")

    expected = witness / (n // 2)
    if abs(report.min_value - expected) > 1e-9:
        failures.append(
            f"corrected map at t=2.1: min_value {report.min_value!r} is more than 1e-9 "
            f"from the closed-form minimum {expected!r}; on unit pairs "
            "F_t >= F_{n-k} - (t - (n - k))/n = -0.025, attained at x = y = mu"
        )
    mu = np.zeros(n)
    mu[0::2] = 1.0
    attained = form_value(map_, mu, mu)
    if abs(attained - expected) > 1e-15:
        failures.append(
            f"corrected map at t=2.1: F(mu, mu) = {attained!r} does not attain "
            f"the closed-form minimum {expected!r}"
        )

    assert not failures, "\n".join(failures)


def test_c10_weight_probes():
    failures = []
    for n, k in [(4, 2), (6, 2), (6, 4), (8, 2)]:
        ev = conjecture_probe(MapSpec(n, k), seed=0, starts=64)
        if ev.verdict != "evidence-positive":
            failures.append(f"(n={n}, k={k}): verdict {ev.verdict}")
        if ev.seesaw.min_value < -1e-7:
            failures.append(f"(n={n}, k={k}): seesaw min {ev.seesaw.min_value!r} below -1e-7")
        if ev.witness_value_at_t != 0.0:
            failures.append(f"(n={n}, k={k}): witness at the critical weight is {ev.witness_value_at_t!r}")
        if not ev.witness_value_above_max < 0.0:
            failures.append(f"(n={n}, k={k}): witness above the critical weight not negative")
    assert not failures, "\n".join(failures)


def test_c11_schur_subtractions_vanish_on_phase_pairs():
    """Random PSD matrices with zero entry sum annihilate the ones vector,
    and every member corrected by one vanishes on unimodular phase pairs."""
    failures = []
    rng = np.random.default_rng(11)
    form_checks = 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        ones = np.ones(n)
        P = np.eye(n) - np.outer(ones, ones) / n
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # The columns of P A sum to zero, so L = P A A^dag P.
        pert = HadamardPerturbation((P @ A).T, [1.0] * n)
        L = pert.matrix
        row = float(np.abs(L @ ones).max())
        if row > 1e-9:
            failures.append(f"trial {trial}: ||L 1|| = {row:.3e} exceeds 1e-9")
            continue
        if form_checks < 100:
            form_checks += 1
            x = np.exp(2j * np.pi * rng.random(n))
            for k in range(n):
                value = form_value(TauMap(MapSpec(n, k), pert), x, x.conj())
                if abs(value) > 1e-10:
                    failures.append(f"trial {trial}, k={k}: form value {value!r} exceeds 1e-10")
    if form_checks != 100:
        failures.append(f"only {form_checks} phase-pair form checks ran")
    assert not failures, "\n".join(failures)


def test_c12_cli_determinism_and_schema(tmp_path):
    failures = []
    X = np.diag([1.0, 2.0, 3.0]).astype(complex)
    matrix_path = tmp_path / "x.json"
    matrix_path.write_text(
        json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in X])
    )
    cases = [
        ("apply", "--n", "3", "--k", "1", "--input", str(matrix_path)),
        ("positivity", "--n", "3", "--k", "1", "--starts", "8"),
        ("positivity", "--n", "4", "--k", "2", "--perturb", "v1", "--t", "2.1", "--starts", "8"),
        ("spanning", "--n", "3", "--k", "2"),
        ("certify", "--n", "6", "--k", "3"),
        ("conjecture", "--n", "4", "--k", "2", "--starts", "8"),
        ("conjecture", "--n", "6", "--k", "3", "--experimental", "--grid", "0:1:2", "--starts", "4"),
    ]
    for case in cases:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "posmap", *case],
                capture_output=True, text=True,
            )
            for _ in range(2)
        ]
        tag = " ".join(case)
        for p in runs:
            if p.returncode != 0:
                failures.append(f"{tag}: exit code {p.returncode}: {p.stderr.strip()}")
        if runs[0].stdout != runs[1].stdout:
            failures.append(f"{tag}: reruns differ")
        try:
            jsonschema.validate(json.loads(runs[0].stdout), REPORT_SCHEMA)
        except Exception as exc:
            failures.append(f"{tag}: schema validation failed: {exc}")
    assert not failures, "\n".join(failures)
