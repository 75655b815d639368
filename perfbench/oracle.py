"""Verdict oracle: checks each posmap report against closed forms.

Nothing here calls posmap.  The expected verdicts, ranks, gcds and map
values are computed from the paper's formulas in NumPy; the only thing
taken from the program is its published JSON schema.  `check` returns the
list of problems found, so an empty list means the report passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

APPLY_REL_TOL = 1e-12
FORM_ABS_TOL = 1e-10
# conjecture_probe evaluates the parity witness at n - k + 0.1.
ABOVE_MAX_STEP = 0.1


def complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def alternating(n: int) -> np.ndarray:
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)


def tau(X: np.ndarray, n: int, k: int, t: float | None = None) -> np.ndarray:
    """The paper's map: diagonal (n-k-1) x_ii + x_{i+1,i+1} + ... + x_{i+k,i+k},
    off-diagonal -x_ij, minus t (v1 v1^T) o X when a v1 weight t is given."""
    d = np.diagonal(X)
    diag = (n - k - 1) * d + sum(np.roll(d, -m) for m in range(1, k + 1))
    out = -X.astype(np.complex128)
    out[np.diag_indices(n)] = diag
    if t is not None:
        a = alternating(n)
        out -= t * np.outer(a, a) * X
    return out


def form_value(x: np.ndarray, y: np.ndarray, n: int, k: int, t: float | None) -> float:
    """F(x, y) = <y, map(conj(x) conj(x)^dag) y> for normalized x and y."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    xb = x.conj()
    return float(np.real(np.vdot(y, tau(np.outer(xb, xb.conj()), n, k, t) @ y)))


def _positivity(inv, res, tol) -> list:
    n, k, t = inv.n, inv.k, inv.t if inv.perturb == "v1" else None
    problems = []
    want = "negative-certificate" if t is not None and t > n - k else "positive-evidence"
    if res["verdict"] != want:
        problems.append(f"verdict {res['verdict']!r}, expected {want!r}")
    F = form_value(complex_array(res["witness_x"]), complex_array(res["witness_y"]), n, k, t)
    if abs(F - res["min_value"]) > FORM_ABS_TOL:
        problems.append(f"F at the witness is {F!r}, report says {res['min_value']!r}")
    if (res["min_value"] < -tol) != (want == "negative-certificate"):
        problems.append(f"min_value {res['min_value']!r} contradicts tol {tol!r}")
    return problems


def _conjecture(inv, res, tol) -> list:
    n, k = inv.n, inv.k
    if inv.experimental:
        num = int(inv.grid.split(":")[2])
        axes = math.gcd(n, k) - 1
        problems = []
        if res["verdict"] != "not-asserted" or res["axes"] != axes:
            problems.append(f"verdict {res['verdict']!r} on {res['axes']} axes, expected 'not-asserted' on {axes}")
        if len(res["points"]) != num**axes:
            problems.append(f"{len(res['points'])} grid points, expected {num**axes}")
        for p in res["points"]:
            if p["negative_certificate"] != (p["min_value"] < -tol):
                problems.append(f"grid point {p['weights']} flag contradicts min_value {p['min_value']!r}")
        return problems
    problems = []
    t = float(n - k) if inv.t is None else inv.t
    if res["verdict"] != "evidence-positive":
        problems.append(f"verdict {res['verdict']!r}, expected 'evidence-positive'")
    if res["t_max_witnessed"] != n - k:
        problems.append(f"t_max_witnessed {res['t_max_witnessed']!r}, expected {n - k}")
    if not res["witness_value_above_max"] < 0:
        problems.append(f"witness_value_above_max {res['witness_value_above_max']!r} is not negative")
    for key, weight in (("witness_value_at_t", t), ("witness_value_above_max", n - k + ABOVE_MAX_STEP)):
        want = ((n - k) - weight) / 2.0
        if abs(res[key] - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"{key} {res[key]!r}, closed form {want!r}")
    return problems


def _spanning(inv, res, tol) -> list:
    n, k = inv.n, inv.k
    want = n * n if k == n - 1 else n * n - n + 1
    problems = []
    if res["rank"] != want:
        problems.append(f"rank {res['rank']}, expected {want}")
    if res["spanning_property"] != (want == n * n):
        problems.append(f"spanning_property {res['spanning_property']!r}, expected {want == n * n}")
    if k <= n - 2 and res["pairs_outside_sigma"] != 0:
        problems.append(f"{res['pairs_outside_sigma']} pairs outside sigma, expected 0")
    return problems


def _certify(inv, res, tol) -> list:
    d = math.gcd(inv.n, inv.k)
    want = "optimal-certified" if d == 1 else "not-certified"
    problems = []
    if res["gcd"] != d or res["kernel_dim"] != d - 1 or len(res["kernel_basis"]) != d - 1:
        problems.append(
            f"gcd {res['gcd']}, kernel_dim {res['kernel_dim']}, {len(res['kernel_basis'])} "
            f"kernel vectors; expected {d}, {d - 1}, {d - 1}"
        )
    if res["verdict"] != want:
        problems.append(f"verdict {res['verdict']!r}, expected {want!r}")
    return problems


def _apply(inv, res, tol) -> list:
    t = inv.t if inv.perturb == "v1" else None
    want = tau(inv.matrix, inv.n, inv.k, t)
    got = np.array([complex_array(row) for row in res["matrix"]])
    if got.shape != want.shape:
        return [f"matrix shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want).max()
    scale = np.abs(want).max()
    if err > APPLY_REL_TOL * scale:
        return [f"apply differs from the formula by {err:.3e} (scale {scale:.3e})"]
    return []


_CHECKS = {
    "positivity": _positivity,
    "conjecture": _conjecture,
    "spanning": _spanning,
    "certify": _certify,
    "apply": _apply,
}


def check(inv, returncode: int, stdout: str, validator) -> list:
    """Problems with one invocation's outcome; [] when it passes.

    validator is a jsonschema validator built from the program's REPORT_SCHEMA.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"no JSON report on stdout: {exc}"]
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if problems:
        return problems
    cfg = report["config"]
    if (report["command"], cfg["n"], cfg["k"], cfg["seed"]) != (inv.command, inv.n, inv.k, inv.seed):
        return [f"report is for {report['command']} {cfg['n']},{cfg['k']} seed {cfg['seed']}"]
    try:
        return _CHECKS[inv.command](inv, report["result"], cfg["tol"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]
