"""Flat-file formats: the state JSON, CSV schemas, float rendering.

The ensemble JSON is read and written in ``ensembles``. The text formatters
need only the standard library; the state-file readers import numpy and
``linalg`` when first called.
"""

from __future__ import annotations

import json
import numbers
from typing import TYPE_CHECKING

from .curves import InformationCurve, PhaseScanResult, ProtocolPoint
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:
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


def state_to_dict(rho: DensityOperator) -> dict:
    """State-file form: dims plus real and imaginary parts, row by row."""
    return {
        "dims": [rho.dim_a, rho.dim_b],
        "matrix_re": [[float(z.real) for z in row] for row in rho.matrix],
        "matrix_im": [[float(z.imag) for z in row] for row in rho.matrix],
    }


def state_from_dict(d: dict, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Parse and fully validate a state-file document."""
    import numpy as np

    from .linalg import _document_dims, _document_numbers, _require_dim, validate_density

    dim_a, dim_b = _document_dims(d, "state")
    # before the arrays, as in ensemble_from_dict: a document past the cap builds no matrix
    _require_dim(dim_a * dim_b, tol)
    try:
        re = np.asarray(d["matrix_re"], dtype=float)
        im = np.asarray(d["matrix_im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    _document_numbers([d["matrix_re"], d["matrix_im"]], "state")
    if re.shape != im.shape:
        raise ValueError(f"matrix_re shape {re.shape} differs from matrix_im shape {im.shape}")
    return validate_density(re + 1j * im, dim_a, dim_b, tol)


def dump_state(rho: DensityOperator, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho), fh, indent=2)
        fh.write("\n")


def load_state(path: str, tol: Tolerances = DEFAULT) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh), tol)


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
