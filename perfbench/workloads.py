"""The benchmark's workloads: lists of CLI invocations derived from a seed.

Each workload is a fixed mix of (n, k, t) configs.  The seed decides only
each invocation's --seed and the Hermitian input matrices of `apply`, so
the same (workload, seed) always gives the same inputs.  Why each
workload exists, and which layers it loads or bypasses, is recorded in
design.json next to this file.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (command, n, k, options); options hold the flags other than --n/--k/--seed.
# seesaw-small makes thousands of eigh calls of size 8 x 8 or smaller per
# invocation, so per-call overhead dominates; it spans weights below, at and
# above the critical weight n - k.
_SEESAW_SMALL = [
    ("positivity", 4, 2, {"starts": 16}),
    ("positivity", 4, 2, {"starts": 16, "perturb": "v1", "t": 1.5}),
    ("positivity", 4, 2, {"starts": 16, "perturb": "v1", "t": 2.0}),
    ("positivity", 4, 2, {"starts": 16, "perturb": "v1", "t": 2.1}),
    ("positivity", 5, 2, {"starts": 16}),
    ("positivity", 6, 2, {"starts": 16, "perturb": "v1", "t": 4.0}),
    ("positivity", 6, 4, {"starts": 16, "perturb": "v1", "t": 2.5}),
    ("positivity", 8, 2, {"starts": 16, "perturb": "v1", "t": 5.0}),
    ("positivity", 8, 6, {"starts": 16, "perturb": "v1", "t": 2.5}),
    ("conjecture", 4, 2, {"starts": 16}),
    ("conjecture", 6, 4, {"starts": 16, "t": 1.0}),
    ("conjecture", 8, 6, {"starts": 16}),
    ("conjecture", 6, 3, {"starts": 8, "experimental": True, "grid": "0:1:2"}),
]

# Same see-saw code at sizes where LAPACK eigh dominates; fewer starts on larger n.
_SEESAW_LARGE = [
    ("positivity", 24, 6, {"starts": 12, "perturb": "v1", "t": 20.0}),
    ("positivity", 32, 8, {"starts": 8}),
    ("positivity", 32, 8, {"starts": 8, "perturb": "v1", "t": 25.0}),
    ("positivity", 48, 12, {"starts": 4}),
    ("positivity", 64, 16, {"starts": 2}),
]

# Both polish branches: k <= n - 2 (rank n^2 - n + 1) and the reduction k = n - 1 (rank n^2).
# Five invocations, so that the median of a pass is one of them: with four it
# was the mean of (12,11) and (16,5), whose times differ twofold.
_SPANNING = [
    ("spanning", 8, 3, {}),
    ("spanning", 16, 5, {}),
    ("spanning", 24, 7, {}),
    ("spanning", 12, 11, {}),
    ("spanning", 16, 15, {}),
]

# Short invocations: process start, JSON in and out, circulant build.
_CERTIFY_IO = [
    ("certify", 12, 5, {}),
    ("certify", 30, 12, {}),
    ("certify", 61, 7, {}),
    ("certify", 120, 60, {}),
    ("certify", 240, 96, {}),
    ("apply", 64, 16, {}),
    ("apply", 64, 16, {"perturb": "v1", "t": 48.0}),
    ("apply", 128, 40, {}),
    ("apply", 128, 40, {"perturb": "v1", "t": 88.0}),
]

WORKLOADS = {
    "seesaw-small": _SEESAW_SMALL,
    "seesaw-large": _SEESAW_LARGE,
    "spanning": _SPANNING,
    "certify-io": _CERTIFY_IO,
}


@dataclass
class Invocation:
    """One `python -m posmap` call and the data its oracle needs."""

    command: str
    n: int
    k: int
    seed: int = 0
    starts: int | None = None
    perturb: str | None = None
    t: float | None = None
    experimental: bool = False
    grid: str | None = None
    input: str | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def argv(self) -> list:
        args = [self.command, "--n", str(self.n), "--k", str(self.k), "--seed", str(self.seed)]
        if self.starts is not None:
            args += ["--starts", str(self.starts)]
        if self.perturb is not None:
            args += ["--perturb", self.perturb]
        if self.t is not None:
            args += ["--t", repr(self.t)]
        if self.experimental:
            args += ["--experimental", "--grid", self.grid]
        if self.input is not None:
            args += ["--input", self.input]
        return args

    def label(self) -> str:
        return " ".join(a for a in self.argv() if a != self.input)


# The no-work invocation timed as setup_s: process start, `import posmap.cli`,
# argument parsing and one tiny report.
SETUP = Invocation("certify", 2, 1)


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (B + B.conj().T) / 2.0


def write_matrix(path: Path, M: np.ndarray) -> None:
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    path.write_text(json.dumps(rows), encoding="utf-8")


def invocations(workload: str, seed: int, input_dir: Path) -> list:
    """The invocations every pass of a run makes; `apply` inputs are written under input_dir.

    Paths of input files are returned relative to the checkout root, which is
    the working directory of every invocation.
    """
    tag = zlib.crc32(workload.encode())
    rng = np.random.default_rng([tag, seed])
    out = []
    for idx, (command, n, k, opts) in enumerate(WORKLOADS[workload]):
        inv = Invocation(command, n, k, seed=int(rng.integers(0, 2**31 - 1)), **opts)
        if command == "apply":
            inv.matrix = _hermitian(rng, n)
            path = input_dir / f"apply-{workload}-{idx}.json"
            write_matrix(path, inv.matrix)
            inv.input = str(path)
        out.append(inv)
    return out
