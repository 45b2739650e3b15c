"""Scalar information and entanglement quantities; all logarithms are base 2."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    PureState,
    hermitian_eigensystem,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    spectrum_probabilities,
)
from .tolerances import DEFAULT, Tolerances

# sigma_y tensor sigma_y, the two-qubit spin-flip operator (real)
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs a probability, got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    # evaluate on the smaller branch; 1 - x is exact for x >= 1/2 (Sterbenz),
    # so H(x) == H(1 - x) whenever the complement is itself representable
    s = x if x <= 0.5 else 1.0 - x
    b = 1.0 - s
    return -(s * math.log2(s)) - (b * math.log2(b))


def shannon_entropy(p, tol: Tolerances = DEFAULT) -> float:
    """Base-2 entropy of a probability vector (clipped per the shared rules)."""
    w = spectrum_probabilities(p, tol)
    w = w[w > tol.zero_eigenvalue]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w))) + 0.0


def von_neumann_entropy(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Entropy of the eigenvalue spectrum of a density operator."""
    w, _ = hermitian_eigensystem(rho.matrix, tol)
    return shannon_entropy(w, tol)


def information_content(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Pure qubits recoverable by compression: qubit count minus entropy."""
    return rho.n_qubits - von_neumann_entropy(rho, tol)


def local_entropies(rho: DensityOperator, tol: Tolerances = DEFAULT) -> tuple[float, float]:
    """Entropies of the two reduced states, as ``(s_a, s_b)``."""
    s_a = von_neumann_entropy(partial_trace(rho, "A"), tol)
    s_b = von_neumann_entropy(partial_trace(rho, "B"), tol)
    return s_a, s_b


def pure_state_entanglement(psi: PureState, tol: Tolerances = DEFAULT) -> float:
    """Entropy of entanglement, the reduced-state entropy of either side."""
    coeffs = schmidt_coefficients(psi)
    return shannon_entropy(coeffs**2, tol)


def _require_two_qubits(rho: DensityOperator) -> None:
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError(f"two-qubit operation on dims ({rho.dim_a}, {rho.dim_b})")


def concurrence_2q(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Wootters concurrence of a two-qubit state.

    The spin-flip spectrum of rho (Y(x)Y) rho* (Y(x)Y) equals the singular
    values of A^T (Y(x)Y) A for any square root A of rho. Taking those
    singular values directly keeps absolute accuracy near rank-deficient
    states, where taking square roots of near-zero eigenvalues would amplify
    noise.
    """
    _require_two_qubits(rho)
    w, v = hermitian_eigensystem(rho.matrix, tol)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    sig = np.linalg.svd(root.T @ _YY @ root, compute_uv=False)  # descending
    c = float(sig[0] - sig[1] - sig[2] - sig[3])
    return min(1.0, max(0.0, c))


def _eof_from_concurrence(c: float) -> float:
    """Wootters closed form E_F = H(1/2 + sqrt(1 - C^2)/2)."""
    return binary_entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def eof_2q(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Entanglement of formation from the concurrence closed form."""
    return _eof_from_concurrence(concurrence_2q(rho, tol))


def bell_mixture_ec(p: float) -> float:
    """Closed-form entanglement cost of the two-Bell-state mixture family."""
    p = float(p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"mixing parameter must lie in [0, 1/2], got {p}")
    return binary_entropy(0.5 + math.sqrt(p * (1.0 - p)))


@dataclass(frozen=True)
class MeasureReport:
    """Per-state scalar summary; two-qubit-only fields are None elsewhere."""

    n: int
    s_total: float
    s_a: float
    s_b: float
    info: float
    concurrence: float | None
    eof: float | None
    ppt_min_eig: float


def measure_report(rho: DensityOperator, tol: Tolerances = DEFAULT) -> MeasureReport:
    """Assemble the full scalar report for one state."""
    n = rho.n_qubits
    s_total = von_neumann_entropy(rho, tol)
    s_a, s_b = local_entropies(rho, tol)
    conc = eof = None
    if (rho.dim_a, rho.dim_b) == (2, 2):
        conc = concurrence_2q(rho, tol)
        eof = _eof_from_concurrence(conc)
    pt_eigs, _ = hermitian_eigensystem(partial_transpose(rho, "B"), tol)
    return MeasureReport(
        n=n,
        s_total=s_total,
        s_a=s_a,
        s_b=s_b,
        info=n - s_total,
        concurrence=conc,
        eof=eof,
        ppt_min_eig=float(pt_eigs[0]),
    )
