"""Tests of the verdict oracle (real reports pass, damaged ones fail) and of the metric names.

    python3 -m pytest -q perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import posmap.cli  # noqa: E402

import oracle  # noqa: E402
from workloads import Invocation, write_matrix  # noqa: E402

jsonschema = pytest.importorskip("jsonschema")
VALIDATOR = jsonschema.Draft7Validator(posmap.cli.REPORT_SCHEMA)


def run(inv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = posmap.cli.main(inv.argv())
    return code, out.getvalue()


def problems(inv, code, text):
    return oracle.check(inv, code, text, VALIDATOR)


def edited(text, edit):
    report = json.loads(text)
    edit(report["result"])
    return json.dumps(report)


@pytest.fixture
def apply_inv(tmp_path):
    rng = np.random.default_rng(5)
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    inv = Invocation("apply", 6, 2, seed=3, perturb="v1", t=4.0,
                     input=str(tmp_path / "x.json"), matrix=(B + B.conj().T) / 2)
    write_matrix(Path(inv.input), inv.matrix)
    return inv


CORRECT = [
    Invocation("positivity", 4, 2, seed=1, starts=8),
    Invocation("positivity", 4, 2, seed=1, starts=8, perturb="v1", t=2.1),
    Invocation("conjecture", 6, 4, seed=2, starts=8, t=1.0),
    Invocation("conjecture", 6, 3, seed=2, starts=4, experimental=True, grid="0:1:2"),
    Invocation("spanning", 6, 2, seed=4),
    Invocation("spanning", 5, 4, seed=4),
    Invocation("certify", 12, 5),
    Invocation("certify", 12, 8),
]


@pytest.mark.parametrize("inv", CORRECT, ids=lambda inv: inv.label())
def test_correct_report_passes(inv):
    assert problems(inv, *run(inv)) == []


def test_correct_apply_passes(apply_inv):
    assert problems(apply_inv, *run(apply_inv)) == []


def test_flipped_positivity_verdict_fails():
    inv = CORRECT[1]
    code, text = run(inv)
    bad = edited(text, lambda r: r.update(verdict="positive-evidence"))
    assert any("verdict" in p for p in problems(inv, code, bad))


def test_flipped_certify_verdict_fails():
    inv = CORRECT[6]
    code, text = run(inv)
    bad = edited(text, lambda r: r.update(verdict="not-certified"))
    assert problems(inv, code, bad)


@pytest.mark.parametrize("delta", [-1, 1])
def test_rank_off_by_one_fails(delta):
    inv = CORRECT[4]
    code, text = run(inv)
    bad = edited(text, lambda r: r.update(rank=r["rank"] + delta))
    assert any("rank" in p for p in problems(inv, code, bad))


def test_perturbed_apply_entry_fails(apply_inv):
    code, text = run(apply_inv)

    def nudge(result):
        entry = result["matrix"][2][3]
        entry[0] = entry[0] * (1 + 1e-9) + 1e-9

    assert any("formula" in p for p in problems(apply_inv, code, edited(text, nudge)))


def test_witness_that_does_not_reproduce_min_value_fails():
    inv = CORRECT[1]
    code, text = run(inv)
    bad = edited(text, lambda r: r.update(min_value=r["min_value"] * 1.01))
    assert any("witness" in p for p in problems(inv, code, bad))


def test_nonzero_exit_and_schema_violation_fail():
    inv = CORRECT[0]
    code, text = run(inv)
    assert problems(inv, 4, text) == ["exit code 4"]
    report = json.loads(text)
    del report["version"]
    assert any(p.startswith("schema") for p in problems(inv, code, json.dumps(report)))


def test_benchmark_json_names_the_metrics_design_json_defines():
    here = Path(__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    design = json.loads((here / "design.json").read_text())
    for section in ("end_to_end", "per_layer"):
        units = {name: spec["unit"] for name, spec in design[section].items()}
        listed = {m["name"]: m["unit"] for m in bench[section]}
        assert listed == {n: u for n, u in units.items() if n in listed}
    assert [m["name"] for m in bench["per_layer"]] == list(design["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(design["workloads"])
    from spans import NEEDS

    assert set(NEEDS) | {"cli.import_s", "trace.overhead"} == set(design["per_layer"])
