"""Shift-coupled diagonal maps: positivity analysis, spanning sets, optimality certificates."""

from .maps import (
    DimensionMismatchError,
    DomainError,
    HadamardPerturbation,
    MapSpec,
    NumericalAnomalyError,
    TauMap,
    alternating_vector,
    as_square_matrix,
    coupling_matrix,
    require_hermitian,
)
from .positivity import (
    PositivityReport,
    analytic_det,
    degenerate_det_bound,
    f_value,
    form_value,
    hessian_shat,
    parity_witness_value,
    seesaw_minimize,
)
from .spanning import (
    SpanningSet,
    build_spanning_set,
    degenerate_pairs,
    gram_rank,
    unimodular_pairs,
)
from .certify import (
    CirculantConstraint,
    ConjectureEvidence,
    OptimalityCertificate,
    build_circulant,
    certify_optimality,
    conjecture_probe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "PositivityReport",
    "form_value",
    "seesaw_minimize",
    "f_value",
    "analytic_det",
    "hessian_shat",
    "degenerate_det_bound",
    "parity_witness_value",
    "SpanningSet",
    "unimodular_pairs",
    "degenerate_pairs",
    "build_spanning_set",
    "gram_rank",
    "CirculantConstraint",
    "OptimalityCertificate",
    "ConjectureEvidence",
    "build_circulant",
    "certify_optimality",
    "conjecture_probe",
]
