"""Shift-coupled diagonal maps: positivity analysis, spanning sets, optimality certificates.

Each public name is imported from its submodule on first access (PEP 562),
so `import posmap` alone loads neither NumPy nor any submodule.
"""

import gc
import importlib
import os
import sys

__version__ = "0.1.0"

# The public names of each submodule, in the order of __all__.
_EXPORTS = {
    "maps": (
        "DimensionMismatchError",
        "DomainError",
        "NumericalAnomalyError",
        "MapSpec",
        "HadamardPerturbation",
        "TauMap",
        "alternating_vector",
        "coupling_matrix",
        "as_square_matrix",
        "require_hermitian",
    ),
    "positivity": (
        "PositivityReport",
        "form_value",
        "seesaw_minimize",
        "f_value",
        "analytic_det",
        "hessian_shat",
        "degenerate_det_bound",
        "parity_witness_value",
    ),
    "spanning": (
        "SpanningSet",
        "unimodular_pairs",
        "degenerate_pairs",
        "build_spanning_set",
        "gram_rank",
    ),
    "certify": (
        "CirculantConstraint",
        "OptimalityCertificate",
        "ConjectureEvidence",
        "build_circulant",
        "certify_optimality",
        "conjecture_probe",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def run() -> None:
    """Run cli.main as the whole of one process: `posmap`, `python -m posmap` and `python -m posmap.cli`."""
    # NumPy and posmap.cli import with the collector off: nearly every object
    # they make lives until exit.  Frozen, that heap is skipped by every later
    # collection, the one at interpreter exit included; main runs with the collector on.
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    try:
        code = cli.main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # With stdout on devnull, the flush at shutdown prints no "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            cli.print_error(f"posmap: error: cannot write report: {exc.strerror or exc}")
        code = 1
    sys.exit(code)
