"""Scalar information and entanglement quantities; all logarithms are base 2."""

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import _entropy_bits
from .linalg import (
    DensityOperator,
    PureState,
    partial_trace,
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


def shannon_entropy(p, tol: Tolerances = DEFAULT) -> float:
    """Base-2 entropy of a probability vector (clipped per the shared rules)."""
    w = spectrum_probabilities(p, tol)
    w = w[w > tol.zero_eigenvalue]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w))) + 0.0


def von_neumann_entropy(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Entropy of the eigenvalue spectrum of a density operator."""
    w, _ = rho.eigensystem(tol)
    return shannon_entropy(w, tol)


def information_content(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Pure qubits recoverable by compression: qubit count minus entropy."""
    return rho.n_qubits - von_neumann_entropy(rho, tol)


def local_entropies(
    rho: DensityOperator | PureState, tol: Tolerances = DEFAULT
) -> tuple[float, float]:
    """Entropies of the two reduced states, as ``(s_a, s_b)``; a pure state needs no projector."""
    s_a = von_neumann_entropy(partial_trace(rho, "A"), tol)
    s_b = von_neumann_entropy(partial_trace(rho, "B"), tol)
    return s_a, s_b


def pure_state_entanglement(psi: PureState, tol: Tolerances = DEFAULT) -> float:
    """Entropy of entanglement, the reduced-state entropy of either side.

    Zero when c_2 <= tol.schmidt, the product rule of ``classify``. Otherwise no
    term is cut, and log2(1 - r), r = sum_{k>=2} c_k^2, is read through log1p.
    """
    c = schmidt_coefficients(psi)
    if c.size < 2 or c[1] <= tol.schmidt:
        return 0.0
    w = c[1:] ** 2 / float(np.dot(c, c))  # PureState admits a norm drift of DEFAULT.trace
    w = w[w > 0.0]
    r = float(w.sum())
    return float(-np.sum(w * np.log2(w))) - (1.0 - r) * math.log1p(-r) / math.log(2.0)


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
    w, v = rho.eigensystem(tol)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    sig = np.linalg.svd(root.T @ _YY @ root, compute_uv=False)  # descending
    c = float(sig[0] - sig[1] - sig[2] - sig[3])
    # the sigmas carry roundoff of a few ulps of |A|^2, the largest eigenvalue: C within it is 0
    return min(1.0, c) if c > 64 * math.ulp(w[-1]) else 0.0


def _eof_from_concurrence(c: float) -> float:
    """Wootters closed form E_F = H(1/2 + sqrt(1 - C^2)/2), on the smaller branch.

    That branch is C^2 / (2 (1 + sqrt(1 - C^2))), so nothing cancels as C -> 0.
    """
    return _entropy_bits(c * c / (2.0 + 2.0 * math.sqrt(max(0.0, 1.0 - c * c))))


def eof_2q(rho: DensityOperator, tol: Tolerances = DEFAULT) -> float:
    """Entanglement of formation from the concurrence closed form."""
    return _eof_from_concurrence(concurrence_2q(rho, tol))


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
    w, v = rho.eigensystem(tol)
    s_total = shannon_entropy(w, tol)
    if w.size < 2 or w[-2] <= tol.zero_eigenvalue:  # pure within the cut that zeroes s_total
        s_a = s_b = pure_state_entanglement(PureState(v[:, -1], rho.dim_a, rho.dim_b), tol)
    else:
        s_a, s_b = local_entropies(rho, tol)
    conc = eof = None
    if (rho.dim_a, rho.dim_b) == (2, 2):
        conc = concurrence_2q(rho, tol)
        eof = _eof_from_concurrence(conc)
    pt_eigs = rho.partial_transpose_spectrum(tol)
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
