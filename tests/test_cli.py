"""Tests for the command-line interface: reports, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import posmap.spanning
from posmap import MapSpec, TauMap, alternating_vector
from posmap.cli import (
    REPORT_SCHEMA,
    dumps_report,
    load_matrix,
    main,
    render_text,
)

jsonschema = pytest.importorskip("jsonschema")


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
        assert res["min_value"] == 4.760210664959707e-14
        assert res["starts_capped"] == 1
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
        assert doc["result"]["min_value"] == -0.024999999998625382
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
        expected = TauMap(MapSpec(n, 2)).apply(X) - t * np.outer(v, v.conj()) * X
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
            '"result": {"iterations": 13, "min_value": 4.760210664959707e-14, '
            '"perturbation": null, "starts_capped": 1, "verdict": "positive-evidence", '
            '"witness_x": [[-0.5773501626052768, 0.0], [-0.57735038089772, 0.0], '
            '[-0.5773502640658594, 0.0]], "witness_y": '
            '[[0.5773501523578249, 0.0], [0.5773501677290085, 0.0], [0.5773504874819818, 0.0]]}, '
            '"schema": "posmap-report/2", "version": "0.1.0"}\n'
        ),
    }

    @pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: c[0])
    def test_stdout_is_frozen(self, case):
        p = run_cli(*case)
        assert p.returncode == 0
        assert p.stdout == self.GOLDEN[case]


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
        "spanning": ["--n", "--k", "--seed", "--samples", "--output"],
        "certify": ["--n", "--k", "--seed", "--output"],
        "conjecture": ["--n", "--k", "--seed", "--starts", "--tol", "--t", "--experimental",
                       "--grid", "--output"],
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:")[1]
        assert re.findall(r"(?<![\w-])--[a-z]+", options) == ["--help"] + self.FLAGS[command]

    DEAD_FLAGS = [
        ("certify", "--starts", "8"),
        ("certify", "--tol", "1e-6"),
        ("certify", "--samples", "9"),
        ("spanning", "--tol", "1e-6"),
        ("spanning", "--starts", "8"),
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
        assert main(["spanning", "--n", "4", "--k", "2", "--samples", "0"]) == 2
        assert main(["positivity", "--n", "4", "--k", "2", "--perturb", "v1", "--t", "-1"]) == 2
        assert main(["certify", "--n", "4", "--k", "2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "starts must be positive, got 0" in err
        assert "tol must be finite and positive, got 0.0" in err
        assert "samples must be positive, got 0" in err
        assert "weight must be finite and nonnegative, got -1.0" in err
        assert "seed must be nonnegative, got -1" in err
        assert "non-finite entries" in err
        assert "finite and nonnegative" in err
        assert "tol must be finite" in err
        assert "grid weights must be finite" in err
        assert "posmap: anomaly: non-finite value in report" in err

    def test_size_numpy_cannot_describe_exits_2(self, capsys):
        """n = 10^6 asks for a 4 * 10^12 x 10^6 phase draw, refused before any allocation."""
        assert main(["spanning", "--n", "1000000", "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posmap: error: cannot draw 4000000000000 phase vectors")
        assert captured.err.count("\n") == 1

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
