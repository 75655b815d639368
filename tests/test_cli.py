"""Tests for the command-line interface: reports, determinism, exit codes."""

import argparse
import contextlib
import copy
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import posmap
import posmap.spanning
from posmap import MapSpec, TauMap, alternating_vector
from posmap.cli import (
    REPORT_SCHEMA,
    build_parser,
    dumps_report,
    load_matrix,
    main,
    render_text,
)


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("POSMAP_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "posmap", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write_matrix(path, M):
    data = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]
    path.write_text(json.dumps(data))
    return str(path)


class TestSerialization:
    def test_floats_render_as_shortest_repr(self):
        assert dumps_report({"x": 0.1}) == '{"x": 0.1}'
        assert dumps_report({"x": 1e-9}) == '{"x": 1e-09}'
        assert dumps_report({"x": 1.0}) == '{"x": 1.0}'

    def test_round_trip_keeps_type_and_sign(self):
        values = [1.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        back = json.loads(dumps_report({"v": values}))["v"]
        assert all(type(b) is float for b in back)
        assert back == values
        assert math.copysign(1.0, back[1]) == -1.0

    def test_keys_are_sorted(self):
        assert dumps_report({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_nested_structures(self):
        doc = {"v": [[1.5, -0.5], [0.0, 2.0]], "flag": True, "none": None}
        assert dumps_report(doc) == '{"flag": true, "none": null, "v": [[1.5, -0.5], [0.0, 2.0]]}'

    def test_non_finite_rejected(self):
        from posmap import NumericalAnomalyError

        with pytest.raises(NumericalAnomalyError):
            dumps_report({"x": float("nan")})
        with pytest.raises(NumericalAnomalyError, match="non-finite value in report"):
            dumps_report({"m": [[[1.0, 0.0], [float("inf"), 0.0]]]})

    def test_render_text_is_lossless_flat(self):
        doc = {"config": {"n": 3, "tol": 1e-9}, "result": {"rank": 7}}
        text = render_text(doc)
        assert text.splitlines() == [
            "config.n: 3",
            "config.tol: 1e-09",
            "result.rank: 7",
        ]


class TestLoadMatrix:
    def test_round_trip(self, tmp_path):
        M = np.array([[1.0, 0.5 - 2.0j], [0.5 + 2.0j, 3.0]])
        path = write_matrix(tmp_path / "m.json", M)
        assert np.array_equal(load_matrix(path, 2), M)

    def test_wrong_row_count(self, tmp_path):
        from posmap.cli import InputDataError

        path = tmp_path / "m.json"
        path.write_text("[[[1.0, 0.0]]]")
        with pytest.raises(InputDataError, match="expected 2 rows"):
            load_matrix(str(path), 2)

    def test_malformed_entry(self, tmp_path):
        from posmap.cli import InputDataError

        path = tmp_path / "m.json"
        path.write_text('[[[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0, 0.0]]]')
        with pytest.raises(InputDataError, match="re, im"):
            load_matrix(str(path), 2)

    def test_not_json(self, tmp_path):
        from posmap.cli import InputDataError

        path = tmp_path / "m.json"
        path.write_text("nonsense{")
        with pytest.raises(InputDataError, match="not valid JSON"):
            load_matrix(str(path), 2)

    @pytest.mark.parametrize("entry", ["[true, 0.0]", '["1.0", 0.0]', "[null, 0.0]",
                                       "[1.0, 0.0, 0.0]", "1.0"])
    def test_entries_that_are_no_number_pairs(self, tmp_path, entry):
        from posmap.cli import InputDataError

        path = tmp_path / "m.json"
        path.write_text(f"[[[1.0, 0.0], {entry}], [[1.0, 0.0], [1.0, 0.0]]]")
        with pytest.raises(InputDataError, match=r"\[re, im\]"):
            load_matrix(str(path), 2)

    def test_signed_zeros_and_integers_kept(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[[-0.0, 0.0], [2, -0.0]], [[2, 0], [18446744073709551616, 0]]]")
        M = load_matrix(str(path), 2)
        assert M.tolist() == [[complex(-0.0, 0.0), complex(2, -0.0)],
                              [complex(2, 0), complex(2**64, 0)]]
        assert np.signbit(M.real[0, 0]) and np.signbit(M.imag[0, 1])


class TestExitCodes:
    def test_k_out_of_range(self):
        p = run_cli("apply", "--n", "3", "--k", "9")
        assert p.returncode == 2
        assert "k out of range" in p.stderr
        assert p.stderr.count("\n") == 1

    def test_missing_input_flag(self):
        p = run_cli("apply", "--n", "3", "--k", "1")
        assert p.returncode == 2
        assert "requires --input" in p.stderr

    def test_unreadable_input_file(self):
        p = run_cli("apply", "--n", "3", "--k", "1", "--input", "/no/such/file.json")
        assert p.returncode == 3

    def test_non_hermitian_input(self, tmp_path):
        path = write_matrix(tmp_path / "m.json", np.array([[1.0, 1.0], [0.0, 1.0]]))
        p = run_cli("apply", "--n", "2", "--k", "1", "--input", path)
        assert p.returncode == 3
        assert "not Hermitian" in p.stderr

    def test_weight_without_direction(self):
        p = run_cli("positivity", "--n", "4", "--k", "2", "--t", "1.0")
        assert p.returncode == 2
        assert "--t requires --perturb" in p.stderr

    def test_direction_without_weight(self):
        p = run_cli("positivity", "--n", "4", "--k", "2", "--perturb", "v1")
        assert p.returncode == 2
        assert "--perturb requires --t" in p.stderr

    def test_alternating_direction_needs_even_n(self):
        p = run_cli("positivity", "--n", "5", "--k", "2", "--perturb", "v1", "--t", "1.0")
        assert p.returncode == 2
        assert "even n" in p.stderr

    def test_unknown_command(self):
        p = run_cli("frobnicate", "--n", "3", "--k", "1")
        assert p.returncode == 2

    def test_grid_required_for_experimental(self):
        p = run_cli("conjecture", "--n", "6", "--k", "3", "--experimental")
        assert p.returncode == 2
        assert "--grid" in p.stderr

    def test_malformed_grid(self):
        p = run_cli("conjecture", "--n", "6", "--k", "3", "--experimental", "--grid", "nope")
        assert p.returncode == 2

    def test_negative_grid_start(self):
        p = run_cli(
            "conjecture", "--n", "6", "--k", "3", "--experimental", "--grid=-1:1:3"
        )
        assert p.returncode == 2
        assert "grid weights" in p.stderr

    def test_threads_flag_is_rejected(self):
        p = run_cli("certify", "--n", "4", "--k", "2", "--threads", "2")
        assert p.returncode == 2
        assert "unrecognized arguments: --threads 2" in p.stderr

    def test_thread_env_is_ignored(self):
        plain = run_cli("certify", "--n", "4", "--k", "2")
        with_env = run_cli("certify", "--n", "4", "--k", "2", env_extra={"POSMAP_THREADS": "7"})
        assert plain.returncode == with_env.returncode == 0
        assert with_env.stdout == plain.stdout

    def test_probe_needs_shared_factor_two(self):
        p = run_cli("conjecture", "--n", "5", "--k", "2")
        assert p.returncode == 2
        assert "gcd" in p.stderr


class TestReports:
    def test_apply_fixture(self, tmp_path):
        X = np.array([[2.0, -1.0j, 0.5], [1.0j, 3.0, 0.0], [0.5, 0.0, 1.0]])
        path = write_matrix(tmp_path / "x.json", X)
        p = run_cli("apply", "--n", "3", "--k", "1", "--input", path)
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["schema"] == "posmap-report/2"
        assert doc["command"] == "apply"
        assert doc["result"]["matrix"] == [
            [[5.0, 0.0], [0.0, 1.0], [-0.5, 0.0]],
            [[0.0, -1.0], [4.0, 0.0], [0.0, 0.0]],
            [[-0.5, 0.0], [0.0, 0.0], [3.0, 0.0]],
        ]

    def test_positivity_report_fields(self):
        p = run_cli("positivity", "--n", "3", "--k", "1", "--starts", "8")
        doc = json.loads(p.stdout)
        res = doc["result"]
        assert res["verdict"] == "positive-evidence"
        assert res["min_value"] == 0.0
        assert res["starts_capped"] == 0
        assert res["starts_snapped"] == 2
        assert "starts_used" not in res
        assert "seed" not in res
        assert len(res["witness_x"]) == 3
        assert len(res["witness_y"]) == 3

    def test_negative_certificate_report(self):
        p = run_cli(
            "positivity", "--n", "4", "--k", "2",
            "--perturb", "v1", "--t", "2.1", "--starts", "16",
        )
        doc = json.loads(p.stdout)
        assert doc["result"]["verdict"] == "negative-certificate"
        assert doc["result"]["min_value"] == -0.024999999998564674
        assert doc["result"]["perturbation"]["weight"] == 2.1

    def test_spanning_report(self):
        p = run_cli("spanning", "--n", "3", "--k", "1")
        doc = json.loads(p.stdout)
        assert doc["result"]["rank"] == 7
        assert doc["result"]["spanning_property"] is False
        assert doc["result"]["pairs_outside_sigma"] == 0

    def test_spanning_full_rank_report(self):
        p = run_cli("spanning", "--n", "3", "--k", "2")
        doc = json.loads(p.stdout)
        assert doc["result"]["rank"] == 9
        assert doc["result"]["spanning_property"] is True
        assert doc["result"]["pairs_outside_sigma"] > 0

    def test_certify_report(self):
        p = run_cli("certify", "--n", "4", "--k", "2")
        doc = json.loads(p.stdout)
        res = doc["result"]
        assert res["verdict"] == "not-certified"
        assert res["gcd"] == 2
        assert res["kernel_dim"] == 1
        assert res["zero_indices"] == [2]
        assert res["kernel_basis"] == [[[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0], [-0.5, 0.0]]]
        assert res["first_row"] == [1, 1, 0, 0]
        assert "candidates" not in res

    def test_conjecture_report(self):
        p = run_cli("conjecture", "--n", "4", "--k", "2", "--starts", "8")
        doc = json.loads(p.stdout)
        res = doc["result"]
        assert res["verdict"] == "evidence-positive"
        assert res["t"] == 2.0
        assert res["witness_value_at_t"] == 0.0
        assert res["witness_value_above_max"] == -0.050000000000000044
        assert res["counterexample_mu"] is None

    def test_conjecture_counterexample_report(self):
        p = run_cli("conjecture", "--n", "4", "--k", "2", "--t", "2.5", "--starts", "8")
        doc = json.loads(p.stdout)
        res = doc["result"]
        assert res["verdict"] == "counterexample-found"
        assert res["counterexample_mu"] == [1.0, 0.0, 1.0, 0.0]

    def test_experimental_sweep_report(self):
        p = run_cli(
            "conjecture", "--n", "6", "--k", "3",
            "--experimental", "--grid", "0:1:2", "--starts", "4",
        )
        doc = json.loads(p.stdout)
        res = doc["result"]
        assert res["experimental"] is True
        assert res["axes"] == 2
        assert len(res["points"]) == 4
        assert res["verdict"] == "not-asserted"
        for point in res["points"]:
            assert point["negative_certificate"] is False

    def test_text_output_mode(self):
        p = run_cli("certify", "--n", "4", "--k", "2", "--output", "text")
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert "command: \"certify\"" in lines
        assert "result.gcd: 2" in lines
        assert "result.verdict: \"not-certified\"" in lines


class TestLargeWeights:
    """Any finite nonnegative --t builds a subtraction; the see-saw's checks scale with it."""

    def test_apply_subtracts_large_weight(self, tmp_path):
        n, t = 6, 1e7
        X = np.diag(np.arange(1.0, n + 1))
        path = write_matrix(tmp_path / "x.json", X)
        p = run_cli("apply", "--n", str(n), "--k", "2", "--perturb", "v1", "--t", "1e7", "--input", path)
        assert p.returncode == 0, p.stderr
        got = np.array(json.loads(p.stdout)["result"]["matrix"]).view(complex)[..., 0]
        v = alternating_vector(n)
        expected = TauMap(MapSpec(n, 2).coupling).apply(X) - t * np.outer(v, v.conj()) * X
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_positivity_at_large_weight(self):
        p = run_cli("positivity", "--n", "6", "--k", "2", "--perturb", "v1", "--t", "1e7", "--starts", "8")
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["result"]["verdict"] == "negative-certificate"

    def test_experimental_grid_at_large_weight(self):
        p = run_cli(
            "conjecture", "--n", "6", "--k", "3",
            "--experimental", "--grid", "0:1e7:2", "--starts", "2",
        )
        assert p.returncode == 0, p.stderr

    @pytest.mark.parametrize("n", [4, 6])
    def test_seesaw_minimum_at_huge_weight(self, n):
        """At t = 1e12 one ulp of F exceeds an absolute monotonicity slack of 1e-10."""
        k, t = 2, 1e12
        p = run_cli("positivity", "--n", str(n), "--k", str(k), "--perturb", "v1", "--t", "1e12", "--starts", "8")
        assert p.returncode == 0, p.stderr
        res = json.loads(p.stdout)["result"]
        assert res["verdict"] == "negative-certificate"
        ref = ((n - k) - t) / n
        assert ref - 1e-9 * t <= res["min_value"] <= ref + 1e-6 * t

    @pytest.mark.parametrize(
        "n, k, t, verdict",
        [
            (16, 4, "1e300", "negative-certificate"),
            (16, 4, "1e-300", "positive-evidence"),
            (24, 6, "1e300", "negative-certificate"),
            (24, 6, "1e-300", "positive-evidence"),
        ],
    )
    def test_extreme_weights_from_n_16(self, n, k, t, verdict):
        """The secular solve of the half-steps works on each matrix scaled by a power of two."""
        p = run_cli(
            "positivity", "--n", str(n), "--k", str(k), "--perturb", "v1", "--t", t,
            env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert p.returncode == 0, p.stderr
        assert p.stderr == ""
        assert json.loads(p.stdout)["result"]["verdict"] == verdict


class TestGoldenBytes:
    """Full stdout of three invocations, frozen: the byte-identity contract itself."""

    GOLDEN = {
        ("certify", "--n", "4", "--k", "2"): (
            '{"command": "certify", "config": {"experimental": false, "grid": null, '
            '"input": null, "k": 2, "n": 4, "output": "json", "perturb": null, '
            '"samples": 64, "seed": 0, "starts": 64, "t": null, "tol": 1e-09}, '
            '"result": {"eigenvalues": [[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], '
            '[0.9999999999999998, -1.0]], "first_row": [1, 1, 0, 0], "gcd": 2, '
            '"kernel_basis": [[[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0], [-0.5, 0.0]]], '
            '"kernel_dim": 1, "verdict": "not-certified", "zero_indices": [2]}, '
            '"schema": "posmap-report/2", "version": "0.1.0"}\n'
        ),
        ("spanning", "--n", "3", "--k", "1"): (
            '{"command": "spanning", "config": {"experimental": false, "grid": null, '
            '"input": null, "k": 1, "n": 3, "output": "json", "perturb": null, '
            '"samples": 36, "seed": 0, "starts": 64, "t": null, "tol": 1e-09}, '
            '"result": {"pairs_admitted": 39, "pairs_outside_sigma": 0, "rank": 7, '
            '"spanning_property": false}, '
            '"schema": "posmap-report/2", "version": "0.1.0"}\n'
        ),
        ("positivity", "--n", "3", "--k", "1", "--starts", "8"): (
            '{"command": "positivity", "config": {"experimental": false, "grid": null, '
            '"input": null, "k": 1, "n": 3, "output": "json", "perturb": null, '
            '"samples": 36, "seed": 0, "starts": 8, "t": null, "tol": 1e-09}, '
            '"result": {"iterations": 32, "min_value": 0.0, '
            '"perturbation": null, "starts_capped": 0, "starts_snapped": 2, '
            '"verdict": "positive-evidence", '
            '"witness_x": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], '
            '"witness_y": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, '
            '"schema": "posmap-report/2", "version": "0.1.0"}\n'
        ),
    }

    @pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: c[0])
    def test_stdout_is_frozen(self, case):
        p = run_cli(*case)
        assert p.returncode == 0
        assert p.stdout == self.GOLDEN[case]


class TestLargeReportDigests:
    """sha256 of the full stdout of reports that are mostly float arrays, frozen.

    The apply input is Hermitian with a small-integer diagonal, so that the
    image's diagonal C @ diag X is exact whichever OpenBLAS kernel runs; its
    off-diagonal entries are rng.random() differences, so most floats need
    all 17 digits.  Each child runs in tmp_path, so config.input is the same
    relative name on every run.
    """

    SHA256 = {
        ("certify", "--n", "240", "--k", "96"):
            "3cad66aad5547d76b20c086d9fa6b7163c6929144773484114325c18a6438a17",
        ("certify", "--n", "120", "--k", "60"):
            "343a2b84fcb6255722ff6898b9ae4511e9012b37f25ca1e4d9d0cf8c780bd14d",
        ("certify", "--n", "120", "--k", "60", "--output", "text"):
            "6cba83e41cb6d3b7b474ef3e2b89b43b176638f97af4e02372cab04bf7e998ed",
        ("apply", "--n", "128", "--k", "40", "--perturb", "v1", "--t", "88.0", "--input", "h128.json"):
            "eca8b9c03eb2c9d68044569599ef2c9ab92b62d570c5ca0d2c233ae2be13d101",
    }

    @staticmethod
    def hermitian_input(n):
        rng = np.random.default_rng(0)
        A = (rng.random((n, n)) - 0.5) + 1j * (rng.random((n, n)) - 0.5)
        X = A + A.conj().T
        X[np.diag_indices(n)] = np.arange(n) % 7 - 3
        return X

    @pytest.mark.parametrize("argv", list(SHA256), ids=lambda argv: "-".join(argv[:5] + argv[6:7]))
    def test_stdout_digest(self, tmp_path, argv):
        if argv[0] == "apply":
            write_matrix(tmp_path / "h128.json", self.hermitian_input(128))
        env = dict(os.environ)
        env.pop("POSMAP_THREADS", None)
        src = str(Path(posmap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        p = subprocess.run([sys.executable, "-m", "posmap", *argv], capture_output=True, cwd=tmp_path, env=env)
        assert (p.returncode, p.stderr) == (0, b"")
        assert hashlib.sha256(p.stdout).hexdigest() == self.SHA256[argv]


class TestDeterminismAndSchema:
    CASES = [
        ("positivity", "--n", "3", "--k", "1", "--starts", "8"),
        ("spanning", "--n", "3", "--k", "2"),
        ("certify", "--n", "6", "--k", "3"),
        ("conjecture", "--n", "4", "--k", "2", "--starts", "8"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_reruns_are_byte_identical(self, case):
        first = run_cli(*case)
        second = run_cli(*case)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_reports_validate_against_schema(self, case):
        p = run_cli(*case)
        jsonschema.validate(json.loads(p.stdout), REPORT_SCHEMA)

    def test_apply_validates_and_repeats(self, tmp_path):
        path = write_matrix(tmp_path / "x.json", np.diag([1.0, 2.0, 3.0]))
        args = ("apply", "--n", "3", "--k", "2", "--input", path)
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        jsonschema.validate(json.loads(first.stdout), REPORT_SCHEMA)


class TestSchemaRejects:
    """REPORT_SCHEMA turns away a report that lacks a required result key or names no subcommand."""

    # Written out here, not read from the schema, so that a schema with no per-command checks fails.
    REQUIRED = {
        "apply": ["matrix"],
        "positivity": ["verdict", "min_value", "witness_x", "witness_y", "iterations", "starts_capped"],
        "spanning": ["rank", "spanning_property"],
        "certify": ["gcd", "kernel_dim", "verdict"],
        "conjecture": ["verdict"],
    }
    VALIDATOR = jsonschema.Draft7Validator(REPORT_SCHEMA)

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        path = write_matrix(tmp_path_factory.mktemp("apply") / "x.json", np.diag([1.0, 2.0, 3.0]))
        argvs = {
            "apply": ["--n", "3", "--k", "1", "--input", path],
            "positivity": ["--n", "3", "--k", "1", "--starts", "4"],
            "spanning": ["--n", "3", "--k", "1"],
            "certify": ["--n", "3", "--k", "1"],
            "conjecture": ["--n", "4", "--k", "2", "--starts", "4"],
        }
        reports = {}
        for command, argv in argvs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, *argv]) == 0
            reports[command] = json.loads(out.getvalue())
        return reports

    @pytest.mark.parametrize("command", list(REQUIRED))
    def test_real_report_is_valid(self, reports, command):
        assert self.VALIDATOR.is_valid(reports[command])

    @pytest.mark.parametrize("command,key", [(c, key) for c, keys in REQUIRED.items() for key in keys])
    def test_missing_required_result_key_is_invalid(self, reports, command, key):
        report = copy.deepcopy(reports[command])
        del report["result"][key]
        assert not self.VALIDATOR.is_valid(report)

    def test_unknown_command_is_invalid(self, reports):
        report = dict(reports["certify"], command="frobnicate")
        assert not self.VALIDATOR.is_valid(report)


class TestMainInProcess:
    def test_returns_zero_on_success(self, capsys):
        assert main(["certify", "--n", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"]["verdict"] == "optimal-certified"

    def test_config_echo_is_complete(self, capsys):
        """Keys whose flag the subcommand lacks still echo their defaults."""
        main(["spanning", "--n", "3", "--k", "1", "--seed", "2"])
        doc = json.loads(capsys.readouterr().out)
        config = doc["config"]
        assert config["n"] == 3
        assert config["k"] == 1
        assert config["seed"] == 2
        assert config["starts"] == 64
        assert config["tol"] == 1e-9
        assert config["samples"] == 36
        assert "threads" not in config
        assert config["output"] == "json"
        assert config["experimental"] is False
        assert sorted(config) == sorted(REPORT_SCHEMA["properties"]["config"]["properties"])

    FLAGS = {
        "apply": ["--n", "--k", "--seed", "--input", "--perturb", "--t", "--output"],
        "positivity": ["--n", "--k", "--seed", "--starts", "--tol", "--perturb", "--t", "--output"],
        "spanning": ["--n", "--k", "--seed", "--output"],
        "certify": ["--n", "--k", "--seed", "--output"],
        "conjecture": ["--n", "--k", "--seed", "--starts", "--tol", "--t", "--experimental",
                       "--grid", "--output"],
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:")[1]
        assert re.findall(r"(?<![\w-])--[a-z]+", options) == ["--help"] + self.FLAGS[command]

    def test_readme_command_table_matches_the_parser(self):
        """README's flag table lists exactly the flags each subcommand accepts: no removed flag stays documented."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        documented = {command: flags.split()
                      for command, flags in re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", readme, re.M)}
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            command: [flag for action in sub._actions for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"]
            for command, sub in subparsers.choices.items()
        }
        assert accepted == self.FLAGS
        assert documented == accepted

    def test_readme_library_tour_prints_what_its_comments_say(self):
        """README's "Library tour" block runs and prints the five lines its comments promise."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(tour, "README.md", "exec"), {})
        assert out.getvalue() == (
            "positive-evidence 0.0\n"
            "positive-evidence 0.0\n"
            "13 False\n"
            "not-certified\n"
            "2.0\n"
        )

    @pytest.mark.parametrize("n,k,t", [(502, 4, 498.0), (1002, 4, 998.0), (502, 248, 254.0)])
    def test_conjecture_witness_check_holds_at_large_n(self, capsys, n, k, t):
        """The parity witness check holds at large n, where N's row sums round by more than 1e-12."""
        assert main(["conjecture", "--n", str(n), "--k", str(k), "--starts", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        res = json.loads(captured.out)["result"]
        assert res["verdict"] == "evidence-positive"
        assert res["t"] == res["t_max_witnessed"] == t
        assert res["witness_value_at_t"] == 0.0
        assert abs(res["witness_value_above_max"] + 0.05) <= 1e-12

    DEAD_FLAGS = [
        ("certify", "--starts", "8"),
        ("certify", "--tol", "1e-6"),
        ("certify", "--samples", "9"),
        ("spanning", "--tol", "1e-6"),
        ("spanning", "--starts", "8"),
        ("spanning", "--samples", "9"),
        ("apply", "--samples", "9"),
        ("positivity", "--input", "x.json"),
        ("positivity", "--samples", "9"),
        ("conjecture", "--samples", "9"),
    ]

    @pytest.mark.parametrize("command,flag,value", DEAD_FLAGS)
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag, value):
        assert main([command, "--n", "4", "--k", "2", flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--grid", "0:1:2"], "--grid requires --experimental"),
        (["--experimental", "--grid", "0:1:1", "--t", "5"],
         "--experimental sweeps --grid and takes no --t"),
    ])
    def test_conjecture_flag_the_mode_ignores_exits_2(self, capsys, flags, message):
        assert main(["conjecture", "--n", "4", "--k", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"posmap: error: {message}\n"

    BAD_FILES = {
        "integer-beyond-float": b"[[[1" + b"0" * 400 + b", 0], [0, 0]], [[0, 0], [1, 0]]]",
        "integer-beyond-digit-limit": b"[[[" + b"1" * 5000 + b", 0], [0, 0]], [[0, 0], [1, 0]]]",
        "not-utf8": b"\xff\xfe[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]",
    }

    @pytest.mark.parametrize("case", list(BAD_FILES))
    def test_unparseable_input_file_exits_3(self, capsys, tmp_path, case):
        path = tmp_path / "m.json"
        path.write_bytes(self.BAD_FILES[case])
        assert main(["apply", "--n", "2", "--k", "1", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("posmap: error:")
        assert err.count("\n") == 1

    def test_hermitian_check_is_relative(self, capsys, tmp_path):
        """A 1e-13 matrix that is all asymmetry exits 3; a 1e20 one with one ulp of asymmetry exits 0."""
        tiny = write_matrix(tmp_path / "tiny.json", np.array([[0.0, 1e-13], [0.0, 0.0]]))
        assert main(["apply", "--n", "2", "--k", "1", "--input", tiny]) == 3
        assert "not Hermitian" in capsys.readouterr().err
        H = np.array([[1e20, 5e19], [5e19, 1e20]])
        H[0, 1] = np.nextafter(H[0, 1], np.inf)
        large = write_matrix(tmp_path / "large.json", H)
        assert main(["apply", "--n", "2", "--k", "1", "--input", large]) == 0
        assert capsys.readouterr().err == ""
        # Anti-Hermitian at 1e308: A - A^* overflows, which is a rejection, not a RuntimeWarning.
        anti = write_matrix(tmp_path / "anti.json", np.array([[0.0, 1e308], [-1e308, 0.0]]))
        assert main(["apply", "--n", "2", "--k", "1", "--input", anti]) == 3
        err = capsys.readouterr().err
        assert "not Hermitian" in err and err.count("\n") == 1

    def test_error_paths_return_codes(self, capsys, tmp_path):
        assert main(["certify", "--n", "4", "--k", "0"]) == 2
        assert main(["apply", "--n", "2", "--k", "1", "--input", "/none.json"]) == 3
        for token in ("NaN", "Infinity"):
            path = tmp_path / f"{token}.json"
            path.write_text(f"[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{token}, 0.0]]]")
            assert main(["apply", "--n", "2", "--k", "1", "--input", str(path)]) == 3
        for value in ("nan", "inf"):
            assert main(["positivity", "--n", "4", "--k", "2", "--perturb", "v1",
                         "--t", value]) == 2
            assert main(["conjecture", "--n", "4", "--k", "2", "--t", value]) == 2
            assert main(["positivity", "--n", "4", "--k", "2", "--tol", value]) == 2
        assert main(["conjecture", "--n", "6", "--k", "3", "--experimental",
                     "--grid", "0:nan:2"]) == 2
        # Finite input whose image overflows: the serializer meets inf and reports an
        # anomaly, with no RuntimeWarning for the overflow or the NaN it breeds.
        path = write_matrix(tmp_path / "huge.json", np.diag([1e308, 1e308, 1e308, 1e308]))
        assert main(["apply", "--n", "4", "--k", "2", "--input", path]) == 4
        assert main(["positivity", "--n", "4", "--k", "2", "--starts", "0"]) == 2
        assert main(["positivity", "--n", "4", "--k", "2", "--tol", "0"]) == 2
        assert main(["positivity", "--n", "4", "--k", "2", "--perturb", "v1", "--t", "-1"]) == 2
        assert main(["certify", "--n", "4", "--k", "2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "starts must be positive, got 0" in err
        assert "tol must be finite and positive, got 0.0" in err
        assert "weight must be finite and nonnegative, got -1.0" in err
        assert "seed must be nonnegative, got -1" in err
        assert "non-finite entries" in err
        assert "finite and nonnegative" in err
        assert "tol must be finite" in err
        assert "grid weights must be finite" in err
        assert "posmap: anomaly: non-finite value in report" in err

    @pytest.mark.parametrize("command", ["positivity", "certify"])
    def test_n_too_large_for_an_array_exits_2(self, capsys, command):
        assert main([command, "--n", "10000000000", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "posmap: error: n = 10000000000 is too large for an n x n complex matrix\n"

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 5.82 TiB for an array"),
         "posmap: error: Unable to allocate 5.82 TiB for an array\n"),
        (MemoryError(), "posmap: error: out of memory\n"),
    ])
    def test_allocation_failure_exits_2(self, capsys, monkeypatch, exc, line):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(posmap.spanning, "unimodular_pairs", fail)
        assert main(["spanning", "--n", "8", "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line


class TestFreshInterpreter:
    """What a command costs and reports when it starts in a new process, as a user runs it."""

    def test_no_command_loads_numpy_random(self, tmp_path):
        """No subcommand draws from numpy.random: the see-saw starts come from start_moduli.

        The child imports numpy.random itself last, the control that the check sees the import.
        """
        path = tmp_path / "x.json"
        write_matrix(path, np.eye(4))
        argvs = [
            ["apply", "--n", "4", "--k", "2", "--input", str(path)],
            ["positivity", "--n", "4", "--k", "2", "--starts", "2"],
            ["spanning", "--n", "8", "--k", "3"],
            ["spanning", "--n", "12", "--k", "11"],
            ["certify", "--n", "12", "--k", "8"],
            ["conjecture", "--n", "4", "--k", "2", "--starts", "2"],
            ["conjecture", "--n", "6", "--k", "3", "--experimental", "--grid", "0:1:2", "--starts", "2"],
        ]
        child = (
            "import contextlib, io, sys, posmap.cli\n"
            "def loads_random(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert posmap.cli.main(argv) == 0, argv\n"
            "    return 'numpy.random' in sys.modules\n"
            f"flags = [loads_random(argv) for argv in {argvs!r}]\n"
            "import numpy.random\n"
            "print(flags, 'numpy.random' in sys.modules)\n"
        )
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == f"{[False] * len(argvs)} True\n"

    def test_no_command_loads_dataclasses(self, tmp_path):
        """No subcommand imports dataclasses, whose class decorator compiles code at every start.

        The child imports dataclasses itself last, the control that the check sees the import.
        """
        argvs = [
            ["apply", "--n", "4", "--k", "2", "--perturb", "v1", "--t", "1.0",
             "--input", write_matrix(tmp_path / "x.json", np.eye(4))],
            ["positivity", "--n", "4", "--k", "2", "--starts", "2"],
            ["spanning", "--n", "8", "--k", "3"],
            ["certify", "--n", "12", "--k", "8"],
            ["conjecture", "--n", "4", "--k", "2", "--starts", "2"],
            ["conjecture", "--n", "6", "--k", "3", "--experimental", "--grid", "0:1:2", "--starts", "2"],
        ]
        child = (
            "import contextlib, io, sys, posmap.cli\n"
            "def loads_dataclasses(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert posmap.cli.main(argv) == 0, argv\n"
            "    return 'dataclasses' in sys.modules\n"
            f"flags = [loads_dataclasses(argv) for argv in {argvs!r}]\n"
            "import dataclasses\n"
            "print(flags, 'dataclasses' in sys.modules)\n"
        )
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == f"{[False] * len(argvs)} True\n"

    @pytest.mark.parametrize("argv", [
        ("--n", "8", "--k", "3"),
        ("--n", "12", "--k", "11"),
    ])
    def test_spanning_report_does_not_depend_on_the_seed(self, argv):
        """--seed is accepted and echoed as config.seed; every other byte is the same."""
        reports = {}
        for seed in ("0", "1", "7"):
            p = run_cli("spanning", *argv, "--seed", seed)
            assert (p.returncode, p.stderr) == (0, "")
            assert json.loads(p.stdout)["config"]["seed"] == int(seed)
            reports[seed] = p.stdout.replace(f'"seed": {seed},', '"seed": 0,', 1)
        assert reports["1"] == reports["0"] and reports["7"] == reports["0"]

    @pytest.mark.parametrize("argv,modules", [
        (["apply", "--n", "4", "--k", "2"], []),
        (["positivity", "--n", "4", "--k", "2", "--starts", "2"], ["positivity"]),
        (["spanning", "--n", "8", "--k", "3"], ["spanning"]),
        (["certify", "--n", "12", "--k", "8"], ["certify"]),
        (["conjecture", "--n", "4", "--k", "2", "--starts", "2"], ["certify", "positivity"]),
    ], ids=["apply", "positivity", "spanning", "certify", "conjecture"])
    def test_each_command_loads_only_its_own_modules(self, tmp_path, argv, modules):
        if argv[0] == "apply":
            argv = argv + ["--input", write_matrix(tmp_path / "x.json", np.eye(4))]
        child = (
            "import contextlib, io, sys, posmap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert posmap.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'posmap'))\n"
        )
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        expected = ["posmap", "posmap.cli", "posmap.maps"] + [f"posmap.{m}" for m in modules]
        assert p.stdout == f"{sorted(expected)!r}\n"

    def test_import_posmap_loads_no_submodule_and_no_numpy(self):
        child = ("import sys, posmap\n"
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('posmap', 'numpy')))\n")
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == "['posmap']\n"

    def test_public_names_resolve_on_first_access(self):
        """dir lists every name of __all__ before any is touched; each then resolves to its home's object."""
        child = (
            "import posmap\n"
            "unlisted = sorted(set(posmap.__all__) - set(dir(posmap)))\n"
            "for name in posmap.__all__:\n"
            "    value = getattr(posmap, name)\n"
            "    home = getattr(value, '__module__', 'posmap')\n"
            "    assert value is getattr(__import__(home, fromlist=[name]), name), name\n"
            "print(unlisted, len(posmap.__all__))\n"
        )
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == f"[] {len(posmap.__all__)}\n"


class TestPackageNames:
    """posmap's public names, resolved from their submodules on first access."""

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'posmap' has no attribute 'no_such_name'"):
            posmap.no_such_name
        assert not hasattr(posmap, "maps_and_more")

    def test_star_import_binds_every_name_in_all(self):
        namespace = {}
        exec("from posmap import *", namespace)
        assert set(posmap.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(posmap, name) for name in posmap.__all__)


class TestEntryPoint:
    """`posmap`, `python -m posmap` and `python -m posmap.cli` run posmap.run, which wraps main for one process."""

    def test_main_runs_with_the_import_heap_frozen(self):
        child = ("import gc, posmap, posmap.cli as cli; "
                 "cli.main = lambda: print(gc.get_freeze_count()) or 0; posmap.run()")
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert (p.returncode, p.stderr) == (0, "")
        assert int(p.stdout) > 0

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["certify", "--n", "3", "--k", "1"]) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_what_dunder_main_runs(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["posmap"]
        module, _, attr = target.partition(":")

        class Ran(Exception):
            pass

        def stub():
            raise Ran

        # Were __main__ to run something else, it would meet no subcommand, not pytest's argv.
        monkeypatch.setattr(sys, "argv", ["posmap"])
        monkeypatch.setattr(importlib.import_module(module), attr, stub)
        with pytest.raises(Ran):
            runpy.run_module("posmap", run_name="__main__")
        assert gc.isenabled()

    def test_entry_point_imports_without_collecting(self):
        """posmap.run imports NumPy and posmap.cli with no collection; main runs on a frozen heap.

        The child counts collections through gc.callbacks, split by whether
        the heap was frozen yet; its closing gc.collect() shows the count works.
        """
        child = (
            "import gc, json, sys\n"
            "import posmap\n"
            "seen = {'unfrozen': 0, 'frozen': 0, 'main': None}\n"
            "def count(phase, info):\n"
            "    if phase == 'start':\n"
            "        seen['frozen' if gc.get_freeze_count() else 'unfrozen'] += 1\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name == 'main' \\\n"
            "            and frame.f_globals['__name__'] == 'posmap.cli':\n"
            "        seen['main'] = [gc.isenabled(), gc.get_freeze_count() > 0]\n"
            "        sys.setprofile(None)\n"
            "gc.callbacks.append(count)\n"
            "sys.argv = ['posmap', 'certify', '--n', '4', '--k', '2']\n"
            "sys.setprofile(profile)\n"
            "try:\n"
            "    posmap.run()\n"
            "except SystemExit as exc:\n"
            "    seen['code'] = exc.code\n"
            "gc.collect()\n"
            "print(json.dumps(seen, sort_keys=True), file=sys.stderr)\n"
        )
        p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["command"] == "certify"
        seen = json.loads(p.stderr)
        assert seen["unfrozen"] == 0 and seen["frozen"] >= 1
        assert seen["main"] == [True, True] and seen["code"] == 0

    def test_cli_module_runs_the_entry_function(self):
        """`python -m posmap.cli` prints `python -m posmap`'s bytes; without its __main__ guard, nothing.

        cli.py runs once, as __main__: posmap.run's import of posmap.cli finds
        it, so -X importtime lists no posmap.cli import.
        """
        argv = ("certify", "--n", "4", "--k", "2")
        p = subprocess.run([sys.executable, "-X", "importtime", "-m", "posmap.cli", *argv],
                           capture_output=True, text=True)
        assert (p.returncode, p.stdout) == (0, TestGoldenBytes.GOLDEN[argv])
        imports = p.stderr.splitlines()
        assert imports and all(line.startswith("import time:") for line in imports)
        assert [line for line in imports if line.endswith("| posmap.certify")]
        assert not [line for line in imports if line.endswith("| posmap.cli")]

    # Stands for the help text: argparse writes it to stderr when sys.stdout is None.
    HELP = object()

    CLOSED_STREAMS = {
        # fd closed at start, argv: exit code, stdout, stderr
        "stdout-report": (1, ("certify", "--n", "4", "--k", "2"),
                          (1, "", "posmap: error: cannot write report: stdout is closed\n")),
        "stdout-config-error": (1, ("certify", "--n", "4", "--k", "9"),
                                (2, "", "posmap: error: k out of range for n=4: 9\n")),
        "stdout-usage-error": (1, ("frobnicate", "--n", "4", "--k", "2"), (2, "", None)),
        "stderr-config-error": (2, ("certify", "--n", "4", "--k", "9"), (2, "", "")),
        "stderr-usage-error": (2, ("frobnicate", "--n", "4", "--k", "2"), (2, "", "")),
        "stderr-input-error": (2, ("apply", "--n", "3", "--k", "1", "--input", "/no/such.json"), (3, "", "")),
        "stderr-report": (2, ("certify", "--n", "4", "--k", "2"),
                          (0, TestGoldenBytes.GOLDEN[("certify", "--n", "4", "--k", "2")], "")),
        "stdout-help": (1, ("certify", "--help"), (0, "", HELP)),
    }

    @pytest.mark.parametrize("case", list(CLOSED_STREAMS))
    def test_closed_stream_at_start(self, case):
        """A process started without stdout or stderr keeps main's code and writes no line to the wrong stream.

        With no stderr, print(file=None) would put the error line on stdout;
        with no stdout, a finished report has nowhere to go, which is exit 1,
        while help, which needs no stdout, is exit 0.
        """
        fd, argv, (code, out, err) = self.CLOSED_STREAMS[case]
        p = subprocess.run([sys.executable, "-m", "posmap", *argv], capture_output=True, text=True,
                           preexec_fn=lambda: os.close(fd))
        assert (p.returncode, p.stdout) == (code, out)
        if err is None:
            assert p.stderr.startswith("posmap: error:") and p.stderr.count("\n") == 1
        elif err is self.HELP:
            helped = subprocess.run([sys.executable, "-m", "posmap", *argv], capture_output=True, text=True)
            assert (helped.returncode, helped.stderr) == (0, "")
            assert p.stderr == helped.stdout and p.stderr.startswith("usage: posmap certify")
        else:
            assert p.stderr == err

    def test_closed_stdout_exits_1_quietly(self):
        """A ~1 MB report overfills the pipe, so the write meets the closed reader."""
        argv = [sys.executable, "-m", "posmap", "certify", "--n", "240", "--k", "96"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{"command"'
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stdout_exits_1_with_one_line(self):
        argv = [sys.executable, "-m", "posmap", "certify", "--n", "4", "--k", "2"]
        with open("/dev/full", "w") as full:
            p = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert p.returncode == 1
        assert p.stderr == "posmap: error: cannot write report: No space left on device\n"
