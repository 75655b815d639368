"""Command-line interface emitting deterministic posmap-report/1 documents.

Reports are JSON (or a lossless flattened text rendering) with every float
written at 17 significant digits, so identical invocations produce
byte-identical output.  Complex scalars appear as [re, im] pairs and
matrices as arrays of rows of pairs, the same format accepted for input
files.  Exit codes: 0 success, 2 configuration error, 3 input-data error,
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
from .positivity import seesaw_minimize
from .spanning import build_spanning_set

SCHEMA_ID = "posmap-report/1"

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
                            "starts_used", "iterations", "seed",
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


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise NumericalAnomalyError(f"non-finite value in report: {v!r}")
    return format(float(v), ".17g")


def _emit_json(obj, parts: list):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit_json(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _emit_json(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, floats at 17 significant digits."""
    parts: list = []
    _emit_json(report, parts)
    return "".join(parts)


def render_text(report: dict) -> str:
    """Lossless flat rendering, one dotted path per line, same float format."""
    lines: list = []

    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(f"{prefix}.{key}" if prefix else key, obj[key])
        else:
            parts: list = []
            _emit_json(obj, parts)
            lines.append(f"{prefix}: {''.join(parts)}")

    walk("", report)
    return "\n".join(lines)


def pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_pairs(v) -> list:
    return [pair(z) for z in np.asarray(v).reshape(-1)]


def matrix_pairs(M) -> list:
    return [[pair(z) for z in row] for row in np.asarray(M)]


def load_matrix(path: str, n: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or len(data) != n:
        raise InputDataError(f"{path}: expected {n} rows")
    M = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise InputDataError(f"{path}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(u, (int, float)) and not isinstance(u, bool) for u in entry)
            ):
                raise InputDataError(f"{path}: entry ({i},{j}) must be a [re, im] pair")
            M[i, j] = complex(entry[0], entry[1])
    return M


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"posmap: error: {message}", file=sys.stderr)
        raise SystemExit(2)


# Every posmap-report/1 config key besides n, k and output.  A subcommand
# without a flag for a key still echoes the key's default.
_OPTIONS = {
    "seed": {"type": int, "default": 0},
    "starts": {"type": int, "default": 64},
    "tol": {"type": float, "default": 1e-9},
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


def _resolve_config(args) -> dict:
    spec = MapSpec(args.n, args.k)
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    if args.starts < 1:
        raise ConfigError(f"starts must be positive, got {args.starts}")
    if not 0 < args.tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {args.tol}")
    samples = args.samples if args.samples is not None else 4 * args.n * args.n
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    config = {
        "n": args.n,
        "k": args.k,
        "t": args.t,
        "seed": args.seed,
        "starts": args.starts,
        "tol": args.tol,
        "samples": samples,
        "input": args.input,
        "output": args.output,
        "perturb": args.perturb,
        "experimental": args.experimental,
        "grid": args.grid,
    }
    return spec, config


def _build_perturbation(args, n: int) -> HadamardPerturbation | None:
    perturb, t = args.perturb, args.t
    if perturb is None:
        if t is not None:
            raise ConfigError("--t requires --perturb")
        return None
    if t is None:
        raise ConfigError("--perturb requires --t")
    if t < 0:
        raise ConfigError(f"subtraction weight must be nonnegative, got {t}")
    return HadamardPerturbation.rank_one(alternating_vector(n), t)


def _pert_summary(pert: HadamardPerturbation | None):
    if pert is None:
        return None
    return {
        "kind": "rank-one",
        "alpha": vector_pairs(pert.alpha),
        "weight": pert.weight,
    }


def cmd_apply(args, spec: MapSpec, config: dict) -> dict:
    pert = _build_perturbation(args, spec.n)
    if config["input"] is None:
        raise ConfigError("apply requires --input")
    X = load_matrix(config["input"], spec.n)
    try:
        X = require_hermitian(X)
    except DomainError as exc:
        raise InputDataError(f"{config['input']}: {exc}")
    out = TauMap(spec, pert).apply(X)
    return {"matrix": matrix_pairs(out), "perturbation": _pert_summary(pert)}


def cmd_positivity(args, spec: MapSpec, config: dict) -> dict:
    pert = _build_perturbation(args, spec.n)
    report = seesaw_minimize(
        TauMap(spec, pert), starts=config["starts"], seed=config["seed"], tol=config["tol"]
    )
    return {
        "verdict": report.verdict,
        "min_value": report.min_value,
        "witness_x": vector_pairs(report.witness_x),
        "witness_y": vector_pairs(report.witness_y),
        "starts_used": report.starts_used,
        "iterations": report.iterations,
        "seed": report.seed,
        "perturbation": _pert_summary(pert),
    }


def cmd_spanning(args, spec: MapSpec, config: dict) -> dict:
    ss = build_spanning_set(spec, seed=config["seed"], samples=config["samples"])
    outside = sum(1 for m in ss.sigma_membership if not m)
    if spec.k < spec.n - 1 and outside:
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


def cmd_certify(args, spec: MapSpec, config: dict) -> dict:
    cert = certify_optimality(spec)
    constraint = cert.constraint
    basis = [vector_pairs(v) for v in constraint.kernel]
    return {
        "gcd": cert.gcd,
        "kernel_dim": cert.kernel_dim,
        "verdict": cert.verdict,
        "first_row": [int(v) for v in constraint.first_row],
        "eigenvalues": vector_pairs(constraint.eigenvalues),
        "zero_indices": list(constraint.zero_indices),
        "kernel_basis": basis,
        # Each kernel vector is a rank-one direction; its weight is the probe's business.
        "candidates": [{"kind": "rank-one", "alpha": a, "weight": 0.0} for a in basis],
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


def cmd_conjecture(args, spec: MapSpec, config: dict) -> dict:
    if config["experimental"]:
        if config["grid"] is None:
            raise ConfigError("--experimental requires --grid START:STOP:NUM")
        if spec.gcd < 2:
            raise ConfigError(f"no kernel directions to sweep: gcd(n, k) = {spec.gcd}")
        axes = spec.gcd - 1
        grid = _parse_grid(config["grid"])
        basis = build_circulant(spec).kernel
        points = []
        for weights in itertools.product(grid, repeat=axes):
            L = np.zeros((spec.n, spec.n), dtype=np.complex128)
            for w, v in zip(weights, basis):
                L += w * np.outer(v, v.conj())
            pert = HadamardPerturbation.full(L)
            rep = seesaw_minimize(
                TauMap(spec, pert), starts=config["starts"],
                seed=config["seed"], tol=config["tol"],
            )
            points.append(
                {
                    "weights": [float(w) for w in weights],
                    "min_value": rep.min_value,
                    "negative_certificate": rep.verdict == "negative-certificate",
                }
            )
        return {
            "experimental": True,
            "axes": axes,
            "points": points,
            "verdict": "not-asserted",
        }
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
            "result": _COMMANDS[args.command](args, spec, config),
        }
        text = render_text(report) if config["output"] == "text" else dumps_report(report)
    except (ConfigError, DomainError, DimensionMismatchError) as exc:
        print(f"posmap: error: {exc}", file=sys.stderr)
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
