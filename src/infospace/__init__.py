"""Information-space diagrams for bipartite quantum states.

Formation and extraction resource curves (information against quantum
communication), decomposition-based bounds, closed-form values for the
Bell-mixture family, and the second-order transition signature in its
susceptibility.

The package namespace is lazy (PEP 562, as in Scientific Python SPEC 1):
``_EXPORTS`` names the submodule that defines each public name, and a name
is imported from there on first access, then kept in this namespace. So
``import infospace`` costs next to nothing, and code that touches only the
closed forms and curves (``phase_scan``, ``bell_formation_points``) never
imports numpy. ``__all__`` and ``dir()`` are read from the same table: they
list every public name and every submodule in it, so ``from infospace import
*`` binds the submodule names too, as it did when the imports were eager.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closed_forms": ("bell_formation_points", "bell_mixture_ec", "binary_entropy"),
    "cli": (),
    "curves": (
        "ChiSlope",
        "DegenerateFamilyError",
        "InformationCurve",
        "PhaseScanResult",
        "PointKind",
        "ProtocolPoint",
        "ScanSample",
        "build_lower_envelope",
        "chi",
        "formation_endpoints",
        "phase_scan",
        "pure_extraction_line",
    ),
    "ensembles": (
        "AssumedExactValues",
        "ComponentCost",
        "ComponentCostUnknown",
        "Ensemble",
        "LocalOrthogonality",
        "NotApplicable",
        "NotCertifiedOrthogonal",
        "assumed_exact_values",
        "ensemble_average",
        "formation_point",
        "formation_surplus_bound",
        "local_orthogonality_check",
        "reversible_cost_bound",
    ),
    "families": (
        "Classification",
        "ProductBasis",
        "ProductBasisResult",
        "StateCategory",
        "bell_mixture",
        "classically_correlated",
        "classify",
        "product_eigenbasis_check",
        "pure_schmidt",
    ),
    "linalg": (
        "DensityOperator",
        "EigenConvergenceError",
        "NotHermitian",
        "NotPositive",
        "PureState",
        "TraceNotOne",
        "ValidationError",
        "hermitian_eigensystem",
        "partial_trace",
        "partial_transpose",
        "schmidt_coefficients",
        "spectrum_probabilities",
        "support_projector",
        "validate_density",
    ),
    "measures": (
        "MeasureReport",
        "concurrence_2q",
        "eof_2q",
        "information_content",
        "local_entropies",
        "measure_report",
        "pure_state_entanglement",
        "shannon_entropy",
        "von_neumann_entropy",
    ),
    "serialize": (
        "dump_state",
        "ensemble_from_dict",
        "ensemble_to_dict",
        "load_state",
        "state_from_dict",
        "state_to_dict",
    ),
    "tolerances": ("DEFAULT", "Tolerances"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_ORIGIN, *_EXPORTS})


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _EXPORTS:  # a submodule, as after an eager import
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
