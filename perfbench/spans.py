"""Spans around calls into posmap's modules, installed from outside the package.

`Tracer.install` rebinds module and class attributes to timing wrappers;
every posmap module that imported the same function object gets the
wrapper, so calls through `from .x import f` aliases are traced too.  Each
span records its name, start, end, parent span, invocation id and an
optional count taken from the call's arguments or result.  Spans stay in
memory; `layer_metrics` reduces one pass of them to the per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
from time import perf_counter


def _sweeps(args, kwargs, result):
    # _seesaw_single(map_, x0, max_sweeps, improve_tol) -> (value, x, y, sweeps)
    max_sweeps = kwargs["max_sweeps"] if "max_sweeps" in kwargs else args[2]
    return (result[3], result[3] >= max_sweeps)


# (module, attribute path, span name, count taken at the boundary)
HOOKS = [
    ("posmap.maps", "_EntrywiseMap.on_projector", "maps.on_projector", None),
    ("posmap.maps", "_EntrywiseMap.quadratic_form", "maps.quadratic_form", None),
    ("posmap.maps", "_EntrywiseMap.apply", "maps.apply", None),
    ("posmap.maps", "HadamardPerturbation.__init__", "maps.perturbation", None),
    ("posmap.positivity", "seesaw_minimize", "positivity.seesaw_minimize", None),
    ("posmap.positivity", "_seesaw_single", "positivity.start", _sweeps),
    ("numpy.linalg", "eigh", "positivity.eigh", None),
    ("posmap.spanning", "unimodular_pairs", "spanning.pairs", None),
    ("posmap.spanning", "degenerate_pairs", "spanning.pairs", None),
    ("posmap.spanning", "_harvest_zero_pairs", "spanning.harvest",
     lambda args, kwargs, result: (len(result), args[1])),
    ("posmap.spanning", "build_spanning_set", "spanning.build",
     lambda args, kwargs, result: len(result.pairs)),
    ("posmap.spanning", "gram_rank", "spanning.rank", lambda args, kwargs, result: len(args[0])),
    ("posmap.certify", "build_circulant", "certify.build_circulant", None),
    ("posmap.certify", "certify_optimality", "certify.certify_optimality", None),
    ("posmap.certify", "conjecture_probe", "certify.conjecture_probe", None),
    ("posmap.cli", "dumps_report", "cli.serialize", lambda args, kwargs, result: len(result.encode())),
    ("posmap.cli", "load_matrix", "cli.load_matrix", None),
]

# The span names each per-layer metric is computed from.
NEEDS = {
    "maps.on_projector.calls": ["maps.on_projector"],
    "maps.on_projector.s": ["maps.on_projector"],
    "maps.quadratic_form.calls": ["maps.quadratic_form"],
    "maps.quadratic_form.s": ["maps.quadratic_form"],
    "maps.perturbation.calls": ["maps.perturbation"],
    "maps.perturbation.s": ["maps.perturbation"],
    "maps.apply.s": ["maps.apply"],
    "positivity.seesaw_minimize.s": ["positivity.seesaw_minimize"],
    "positivity.eigh.calls": ["positivity.seesaw_minimize", "positivity.eigh"],
    "positivity.eigh.s": ["positivity.seesaw_minimize", "positivity.eigh"],
    "positivity.halfstep_us": ["positivity.seesaw_minimize", "positivity.eigh"],
    "positivity.sweeps_per_start.p50": ["positivity.seesaw_minimize", "positivity.start"],
    "positivity.sweeps_per_start.max": ["positivity.seesaw_minimize", "positivity.start"],
    "positivity.starts_capped": ["positivity.seesaw_minimize", "positivity.start"],
    "positivity.capped_sweep_share": ["positivity.seesaw_minimize", "positivity.start"],
    "spanning.pairs.s": ["spanning.pairs"],
    "spanning.harvest.s": ["spanning.harvest"],
    "spanning.harvest.yield": ["spanning.harvest"],
    "spanning.pairs_admitted": ["spanning.build"],
    "spanning.membership.s": ["spanning.build", "spanning.pairs", "spanning.harvest", "spanning.rank"],
    "spanning.rank.s": ["spanning.rank"],
    "spanning.product_rows": ["spanning.rank"],
    "certify.build_circulant.s": ["certify.build_circulant"],
    "certify.certify_optimality.s": ["certify.certify_optimality"],
    "certify.conjecture_probe.s": ["certify.conjecture_probe"],
    "cli.serialize.s": ["cli.serialize"],
    "cli.report_bytes": ["cli.serialize"],
    "cli.load_matrix.s": ["cli.load_matrix"],
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the HOOKS wrappers and collects spans while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, invocation, count]
        self.invocation = 0
        self.missing = {}  # span name -> reason its hook could not be installed
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    rec[5] = count(args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the traced call
                    self.missing.setdefault(name, f"count at {name} failed: {exc!r}")
            return result

        return wrapper

    def install(self) -> None:
        for module, path, name, count in HOOKS:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"hook {module}.{path} not found: {exc}"
                continue
            wrapper = self._wrap(name, fn, count)
            owners = [owner]
            if owner is sys.modules.get(module):
                # Rebind every `from module import attr` alias inside posmap as well.
                owners += [
                    m for key, m in list(sys.modules.items())
                    if key.startswith("posmap") and m is not owner and getattr(m, attr, None) is fn
                ]
            for o in owners:
                setattr(o, attr, wrapper)
                self._undo.append((o, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, invocation, count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (times in s unless named otherwise).

    Sums, ratios and percentiles over an empty set read 0: the workload
    does not call that layer.
    """
    groups = {}
    under_seesaw = [False] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        groups.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += end - start
            under_seesaw[i] = under_seesaw[parent] or spans[parent][0] == "positivity.seesaw_minimize"

    def select(name, seesaw_only=False):
        return [spans[i] for i in groups.get(name, []) if under_seesaw[i] or not seesaw_only]

    def total(name, seesaw_only=False):
        return sum(s[2] - s[1] for s in select(name, seesaw_only))

    def counts(name, seesaw_only=False):
        return [s[5] for s in select(name, seesaw_only) if s[5] is not None]

    sweeps = [sw for sw, _ in counts("positivity.start", True)]
    capped = [sw for sw, hit in counts("positivity.start", True) if hit]
    harvest = counts("spanning.harvest")
    seesaw_s = total("positivity.seesaw_minimize")
    eigh_calls = len(select("positivity.eigh", True))
    builds = groups.get("spanning.build", [])
    return {
        "maps.on_projector.calls": len(select("maps.on_projector")),
        "maps.on_projector.s": total("maps.on_projector"),
        "maps.quadratic_form.calls": len(select("maps.quadratic_form")),
        "maps.quadratic_form.s": total("maps.quadratic_form"),
        "maps.perturbation.calls": len(select("maps.perturbation")),
        "maps.perturbation.s": total("maps.perturbation"),
        "maps.apply.s": total("maps.apply"),
        "positivity.seesaw_minimize.s": seesaw_s,
        "positivity.eigh.calls": eigh_calls,
        "positivity.eigh.s": total("positivity.eigh", True),
        "positivity.halfstep_us": 1e6 * _ratio(seesaw_s, eigh_calls),
        "positivity.sweeps_per_start.p50": statistics.median(sweeps) if sweeps else 0,
        "positivity.sweeps_per_start.max": max(sweeps, default=0),
        "positivity.starts_capped": len(capped),
        "positivity.capped_sweep_share": _ratio(sum(capped), sum(sweeps)),
        "spanning.pairs.s": total("spanning.pairs"),
        "spanning.harvest.s": total("spanning.harvest"),
        "spanning.harvest.yield": _ratio(sum(a for a, _ in harvest), sum(n for _, n in harvest)),
        "spanning.pairs_admitted": sum(counts("spanning.build")),
        "spanning.membership.s": sum(spans[i][2] - spans[i][1] - child_time[i] for i in builds),
        "spanning.rank.s": total("spanning.rank"),
        "spanning.product_rows": sum(counts("spanning.rank")),
        "certify.build_circulant.s": total("certify.build_circulant"),
        "certify.certify_optimality.s": total("certify.certify_optimality"),
        "certify.conjecture_probe.s": total("certify.conjecture_probe"),
        "cli.serialize.s": total("cli.serialize"),
        "cli.report_bytes": sum(counts("cli.serialize")),
        "cli.load_matrix.s": total("cli.load_matrix"),
    }
