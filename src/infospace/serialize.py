"""Flat-file formats: the state and ensemble JSON, CSV schemas, float rendering.

This is the one module that knows the two file formats. The text formatters
need only the standard library; the document readers and writers import
numpy, ``linalg`` and ``ensembles`` when first called.
"""

from __future__ import annotations

import json
import numbers
import sys
from typing import TYPE_CHECKING

from .curves import InformationCurve, PhaseScanResult, ProtocolPoint
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:
    from .ensembles import Ensemble
    from .linalg import DensityOperator


def fmt(x) -> str:
    """Nine-significant-digit, locale-free decimal rendering of a number."""
    # a plain float skips the ABC check, which is the slow part of a call;
    # numpy registers its integer scalars as Integral
    if type(x) is not float and isinstance(x, numbers.Integral):
        return str(int(x))
    out = f"{float(x):.9g}"  # nan, inf and -inf print as themselves
    return "0" if out == "-0" else out


def fnum(x) -> float:
    """Float rounded through :func:`fmt`, for deterministic JSON payloads."""
    return float(fmt(x))


def _document(doc, what: str, *keys) -> tuple:
    """dim_a, dim_b, then the values at ``keys``, of a state or ensemble file.

    dims must be two positive ints: 2.9, true and "2" are refused.
    """
    try:
        dims = doc["dims"]
        pair = isinstance(dims, (list, tuple)) and len(dims) == 2
        if not (pair and all(type(x) is int and x > 0 for x in dims)):
            raise ValueError(
                f"malformed {what} document: dims must be two positive integers, got {dims!r}"
            )
        return (*dims, *[doc[key] for key in keys])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc


def _document_numbers(values, what: str) -> None:
    """Refuse nested lists from a state or ensemble file unless every entry is a finite number.

    The float cast that reads the files would take "0.5", true and NaN, and
    ``np.asarray(..., dtype=float)`` hides a false among floats.
    """
    pending = [values]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending.extend(reversed(x))
        # type() refuses bools; the comparison is false for NaN, the infinities and huge ints
        elif type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"malformed {what} document: expected a finite number, got {x!r}")


def _float_array(values, shape: tuple, where: str):
    """Nested lists from a document as a float array of ``shape``; ``where`` names the part."""
    import numpy as np

    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged lists, say
        raise ValueError(f"malformed {where}: {exc}") from exc
    if a.shape != shape:
        raise ValueError(f"malformed {where}: shape {a.shape} differs from {shape}")
    return a


def state_to_dict(rho: DensityOperator) -> dict:
    """State-file form: dims plus real and imaginary parts, row by row."""
    return {
        "dims": [rho.dim_a, rho.dim_b],
        "matrix_re": [[float(z.real) for z in row] for row in rho.matrix],
        "matrix_im": [[float(z.imag) for z in row] for row in rho.matrix],
    }


def state_from_dict(d: dict, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Parse and fully validate a state-file document."""
    from .linalg import _require_dim, validate_density

    dim_a, dim_b, *parts = _document(d, "state", "matrix_re", "matrix_im")
    dim = dim_a * dim_b
    _require_dim(dim, tol)  # before the arrays: a document past the cap builds no matrix
    re, im = (_float_array(x, (dim, dim), "state document") for x in parts)
    _document_numbers(parts, "state")
    return validate_density(re + 1j * im, dim_a, dim_b, tol)


def ensemble_to_dict(e: Ensemble) -> dict:
    """Ensemble-file form: weights plus pure vectors or mixed matrices, as [re, im] pairs."""
    import numpy as np

    from .linalg import PureState

    components = []
    for w, s in e.components:
        kind, values = ("pure", s.amplitudes) if isinstance(s, PureState) else ("mixed", s.matrix)
        data = np.stack([values.real, values.imag], axis=-1).tolist()
        components.append({"weight": float(w), "type": kind, "data": data})
    return {"dims": list(e.dims), "components": components}


def ensemble_from_dict(d: dict, tol: Tolerances = DEFAULT) -> Ensemble:
    """Parse an ensemble-file document, validating every component."""
    from .ensembles import Ensemble
    from .linalg import PureState, _require_dim, validate_density

    dim_a, dim_b, raw = _document(d, "ensemble", "components")
    dim = dim_a * dim_b
    # before any component: a pure one costs O(d) in the file but O(d^2) in memory
    _require_dim(dim, tol)
    if not isinstance(raw, list):
        raise ValueError("malformed ensemble document: components must be a list")
    components = []
    for k, entry in enumerate(raw):
        if not (isinstance(entry, dict) and all(key in entry for key in ("weight", "type", "data"))):
            raise ValueError(
                f"malformed ensemble document: component {k} must be an object "
                "with weight, type and data"
            )
        kind = entry["type"]
        if kind not in ("pure", "mixed"):
            raise ValueError(f"component type must be 'pure' or 'mixed', got {kind!r}")
        _document_numbers([entry["weight"], entry["data"]], "ensemble")
        where = f"ensemble document: component {k}"
        weight = float(_float_array(entry["weight"], (), where))
        pairs = _float_array(entry["data"], (dim, 2) if kind == "pure" else (dim, dim, 2), where)
        values = pairs.view(complex)[..., 0]  # each [re, im] pair as one complex number
        if kind == "pure":
            components.append((weight, PureState(values, dim_a, dim_b)))
        else:
            components.append((weight, validate_density(values, dim_a, dim_b, tol)))
    return Ensemble(tuple(components))


def dump_state(rho: DensityOperator, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho), fh, indent=2)
        fh.write("\n")


def _load(path: str, from_dict, tol: Tolerances = DEFAULT):
    """Read a state or ensemble file through ``state_from_dict`` or ``ensemble_from_dict``."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh), tol)


def load_state(path: str, tol: Tolerances = DEFAULT) -> DensityOperator:
    return _load(path, state_from_dict, tol)


def points_csv(
    points: list[ProtocolPoint], envelopes: list[tuple[str, InformationCurve]] = ()
) -> str:
    """CSV with one row per protocol point, then per envelope vertex.

    Columns: kind,label,q,i. Labels are short identifiers without commas.
    """
    lines = ["kind,label,q,i"]
    for p in points:
        lines.append(f"{p.kind.value},{p.label},{fmt(p.q)},{fmt(p.i)}")
    for name, curve in envelopes:
        for q, i in curve.envelope:
            lines.append(f"EnvelopeVertex,{name},{fmt(q)},{fmt(i)}")
    return "\n".join(lines) + "\n"


def scan_csv(result: PhaseScanResult) -> str:
    """CSV with one row per scan sample and a trailing divergence summary."""
    lines = ["p,q_at,slope,chi"]
    for s in result.samples:
        lines.append(f"{fmt(s.p)},{fmt(s.q_at)},{fmt(s.slope)},{fmt(s.chi)}")
    lines.append(f"# divergence_flag={'true' if result.divergence_flag else 'false'}")
    return "\n".join(lines) + "\n"
