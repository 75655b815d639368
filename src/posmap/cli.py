"""Command-line interface emitting deterministic posmap-report/2 documents.

Reports are JSON (or a lossless flattened text rendering) with sorted keys
and every float written as its shortest round-trip repr, so identical
invocations produce byte-identical output and each float parses back to
the same double.  Complex scalars appear as [re, im] pairs and
matrices as arrays of rows of pairs, the same format accepted for input
files.  Exit codes: 0 success, 2 configuration error (a MemoryError and a
spanning phase draw too large for NumPy included), 3 input-data error,
4 internal numerical anomaly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import build_circulant, certify_optimality, conjecture_probe
from .maps import (
    DomainError,
    DimensionMismatchError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    alternating_vector,
    require_hermitian,
)
from .positivity import DEFAULT_STARTS, NEGATIVITY_TOL, seesaw_minimize
from .spanning import build_spanning_set

SCHEMA_ID = "posmap-report/2"

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": SCHEMA_ID,
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "version", "command", "config", "result"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "version": {"type": "string"},
        "command": {"enum": ["apply", "positivity", "spanning", "certify", "conjecture"]},
        "config": {
            "type": "object",
            "required": ["n", "k", "seed", "starts", "tol", "samples", "output"],
            "properties": {
                "n": {"type": "integer"},
                "k": {"type": "integer"},
                "t": {"type": ["number", "null"]},
                "seed": {"type": "integer"},
                "starts": {"type": "integer"},
                "tol": {"type": "number"},
                "samples": {"type": "integer"},
                "input": {"type": ["string", "null"]},
                "output": {"enum": ["json", "text"]},
                "perturb": {"type": ["string", "null"]},
                "experimental": {"type": "boolean"},
                "grid": {"type": ["string", "null"]},
            },
        },
        "result": {"type": "object"},
    },
    "allOf": [
        {
            "if": {"properties": {"command": {"const": "apply"}}},
            "then": {"properties": {"result": {"required": ["matrix"]}}},
        },
        {
            "if": {"properties": {"command": {"const": "positivity"}}},
            "then": {
                "properties": {
                    "result": {
                        "required": [
                            "verdict", "min_value", "witness_x", "witness_y",
                            "iterations", "starts_capped",
                        ]
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "spanning"}}},
            "then": {"properties": {"result": {"required": ["rank", "spanning_property"]}}},
        },
        {
            "if": {"properties": {"command": {"const": "certify"}}},
            "then": {"properties": {"result": {"required": ["gcd", "kernel_dim", "verdict"]}}},
        },
        {
            "if": {"properties": {"command": {"const": "conjecture"}}},
            "then": {"properties": {"result": {"required": ["verdict"]}}},
        },
    ],
}


class InputDataError(Exception):
    """Unreadable or invalid input data (exit code 3)."""


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


def dumps_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, each float as its shortest round-trip repr."""
    try:
        return json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalAnomalyError(f"non-finite value in report: {exc}") from exc


def render_text(report: dict) -> str:
    """Lossless flat rendering, one dotted path per line, each leaf as its JSON text."""
    lines: list = []

    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(f"{prefix}.{key}" if prefix else key, obj[key])
        else:
            lines.append(f"{prefix}: {dumps_report(obj)}")

    walk("", report)
    return "\n".join(lines)


def pairs(a) -> list:
    """A complex array as nested lists with each scalar an [re, im] pair."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def load_matrix(path: str, n: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputDataError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal over the int parser's 4300-digit limit
        raise InputDataError(f"{path}: number out of float range: {exc}") from exc
    if not isinstance(data, list) or len(data) != n:
        raise InputDataError(f"{path}: expected {n} rows")
    try:
        M = np.array(data, dtype=np.float64)
    except OverflowError as exc:
        raise InputDataError(f"{path}: number out of float range: {exc}") from exc
    except (TypeError, ValueError):  # ragged rows or an entry that is no number
        M = None
    # The float64 conversion also accepts booleans and numeric strings, so leaf types are checked.
    leaves = itertools.chain.from_iterable(itertools.chain.from_iterable(data))
    if M is None or M.shape != (n, n, 2) or not set(map(type, leaves)) <= {int, float}:
        raise InputDataError(f"{path}: each row must hold {n} [re, im] pairs of numbers")
    return M.view(np.complex128).reshape(n, n)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"posmap: error: {message}", file=sys.stderr)
        raise SystemExit(2)


# Every posmap-report/2 config key besides n, k and output.  A subcommand
# without a flag for a key still echoes the key's default.
_OPTIONS = {
    "seed": {"type": int, "default": 0},
    "starts": {"type": int, "default": DEFAULT_STARTS},
    "tol": {"type": float, "default": NEGATIVITY_TOL},
    "samples": {"type": int, "default": None},
    "input": {"default": None},
    "perturb": {"choices": ("v1",), "default": None},
    "t": {"type": float, "default": None},
    "experimental": {"action": "store_true", "default": False},
    "grid": {"default": None},
}

# The flags each subcommand reads, besides --n, --k and --output.
_COMMAND_FLAGS = {
    "apply": ("seed", "input", "perturb", "t"),
    "positivity": ("seed", "starts", "tol", "perturb", "t"),
    "spanning": ("seed", "samples"),
    "certify": ("seed",),
    "conjecture": ("seed", "starts", "tol", "t", "experimental", "grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posmap", description="shift-coupled diagonal map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.set_defaults(**{key: opts["default"] for key, opts in _OPTIONS.items()})
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        for flag in flags:
            p.add_argument(f"--{flag}", **_OPTIONS[flag])
        p.add_argument("--output", choices=("json", "text"), default="json")
    return parser


def _resolve_config(args) -> tuple:
    """The validated map and the report's config: every parsed option besides the command."""
    spec = MapSpec(args.n, args.k)
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    config = {key: value for key, value in vars(args).items() if key != "command"}
    if config["samples"] is None:
        config["samples"] = 4 * spec.n * spec.n
    return spec, config


def _build_perturbation(config: dict) -> HadamardPerturbation | None:
    perturb, t = config["perturb"], config["t"]
    if perturb is None:
        if t is not None:
            raise ConfigError("--t requires --perturb")
        return None
    if t is None:
        raise ConfigError("--perturb requires --t")
    return HadamardPerturbation([alternating_vector(config["n"])], [t])


def _pert_summary(pert: HadamardPerturbation | None):
    if pert is None:
        return None
    return {
        "kind": "rank-one",
        "alpha": pairs(pert.alphas[0]),
        "weight": pert.weights[0],
    }


def cmd_apply(spec: MapSpec, config: dict) -> dict:
    pert = _build_perturbation(config)
    if config["input"] is None:
        raise ConfigError("apply requires --input")
    X = load_matrix(config["input"], spec.n)
    try:
        X = require_hermitian(X)
    except DomainError as exc:
        raise InputDataError(f"{config['input']}: {exc}")
    # An image beyond float range is reported once, as dumps_report's anomaly.
    with np.errstate(over="ignore", invalid="ignore"):
        out = TauMap(spec, pert).apply(X)
    return {"matrix": pairs(out), "perturbation": _pert_summary(pert)}


def cmd_positivity(spec: MapSpec, config: dict) -> dict:
    pert = _build_perturbation(config)
    report = seesaw_minimize(
        TauMap(spec, pert), starts=config["starts"], seed=config["seed"], tol=config["tol"]
    )
    return {
        "verdict": report.verdict,
        "min_value": report.min_value,
        "witness_x": pairs(report.witness_x),
        "witness_y": pairs(report.witness_y),
        "iterations": report.iterations,
        "starts_capped": report.starts_capped,
        "perturbation": _pert_summary(pert),
    }


def cmd_spanning(spec: MapSpec, config: dict) -> dict:
    ss = build_spanning_set(spec, seed=config["seed"], samples=config["samples"])
    outside = int(np.count_nonzero(~ss.sigma_membership))
    if not spec.is_reduction and outside:
        raise NumericalAnomalyError(
            f"{outside} admitted pair(s) escaped the phase-product span"
        )
    rank = ss.gram_rank
    return {
        "rank": rank,
        "spanning_property": rank == spec.n * spec.n,
        "pairs_admitted": len(ss.pairs),
        "pairs_outside_sigma": outside,
    }


def cmd_certify(spec: MapSpec, config: dict) -> dict:
    cert = certify_optimality(spec)
    constraint = cert.constraint
    return {
        "gcd": cert.gcd,
        "kernel_dim": cert.kernel_dim,
        "verdict": cert.verdict,
        "first_row": [int(v) for v in constraint.first_row],
        "eigenvalues": pairs(constraint.eigenvalues),
        "zero_indices": list(constraint.zero_indices),
        "kernel_basis": pairs(constraint.kernel),
    }


def _parse_grid(raw: str):
    try:
        start_s, stop_s, num_s = raw.split(":")
        start, stop, num = float(start_s), float(stop_s), int(num_s)
    except ValueError:
        raise ConfigError(f"--grid must be START:STOP:NUM, got {raw!r}")
    if num < 1:
        raise ConfigError(f"grid needs at least one point, got {num}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid weights must be finite, got {raw!r}")
    if start < 0 or stop < start:
        raise ConfigError(f"grid weights must satisfy 0 <= start <= stop, got {raw!r}")
    return np.linspace(start, stop, num)


def cmd_conjecture(spec: MapSpec, config: dict) -> dict:
    if config["experimental"]:
        if config["grid"] is None:
            raise ConfigError("--experimental requires --grid START:STOP:NUM")
        if config["t"] is not None:
            raise ConfigError("--experimental sweeps --grid and takes no --t")
        if spec.gcd < 2:
            raise ConfigError(f"no kernel directions to sweep: gcd(n, k) = {spec.gcd}")
        axes = spec.gcd - 1
        grid = _parse_grid(config["grid"])
        basis = build_circulant(spec).kernel
        points = []
        for weights in itertools.product(grid, repeat=axes):
            rep = seesaw_minimize(
                TauMap(spec, HadamardPerturbation(basis, weights)), starts=config["starts"],
                seed=config["seed"], tol=config["tol"],
            )
            points.append(
                {
                    "weights": [float(w) for w in weights],
                    "min_value": rep.min_value,
                    "negative_certificate": rep.verdict == "negative-certificate",
                    "starts_capped": rep.starts_capped,
                }
            )
        return {
            "experimental": True,
            "axes": axes,
            "points": points,
            "verdict": "not-asserted",
        }
    if config["grid"] is not None:
        raise ConfigError("--grid requires --experimental")
    evidence = conjecture_probe(
        spec, seed=config["seed"], t=config["t"],
        starts=config["starts"], tol=config["tol"],
    )
    mu = evidence.counterexample_mu
    return {
        "t": evidence.t,
        "t_max_witnessed": evidence.t_max_witnessed,
        "witness_value_at_t": evidence.witness_value_at_t,
        "witness_value_above_max": evidence.witness_value_above_max,
        "seesaw_min": evidence.seesaw.min_value,
        "seesaw_verdict": evidence.seesaw.verdict,
        "iterations": evidence.seesaw.iterations,
        "starts_capped": evidence.seesaw.starts_capped,
        "verdict": evidence.verdict,
        "counterexample_mu": None if mu is None else [float(v) for v in mu],
    }


_COMMANDS = {
    "apply": cmd_apply,
    "positivity": cmd_positivity,
    "spanning": cmd_spanning,
    "certify": cmd_certify,
    "conjecture": cmd_conjecture,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec, config = _resolve_config(args)
        report = {
            "schema": SCHEMA_ID,
            "version": __version__,
            "command": args.command,
            "config": config,
            "result": _COMMANDS[args.command](spec, config),
        }
        text = render_text(report) if config["output"] == "text" else dumps_report(report)
    except (ConfigError, DomainError, DimensionMismatchError, MemoryError) as exc:
        print(f"posmap: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except InputDataError as exc:
        print(f"posmap: error: {exc}", file=sys.stderr)
        return 3
    except NumericalAnomalyError as exc:
        print(f"posmap: anomaly: {exc}", file=sys.stderr)
        return 4
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
