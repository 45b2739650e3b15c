"""Parameterized state generators and coarse state classification."""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .curves import DegenerateFamilyError, PointKind, ProtocolPoint
from .ensembles import ProductBasis, product_eigenbasis_check
from .linalg import (
    DensityOperator,
    PureState,
    hermitian_eigensystem,
    partial_transpose,
    validate_density,
)
from .measures import bell_mixture_ec, binary_entropy, pure_state_entanglement
from .tolerances import DEFAULT, Tolerances

FAMILY_NAMES = ("bell-mixture", "pure-schmidt", "classical", "raw")

_INPUT_DRIFT = 1e-6  # user-typed coefficients get renormalized up to this drift


def bell_mixture(p: float, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Rank-two mixture of the two phase-opposite Bell states.

    Entries: 1/2 on the |00> and |11> diagonal, p - 1/2 on the corners;
    eigenvalues {p, 1-p, 0, 0}.
    """
    p = float(p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"mixing parameter must lie in [0, 1/2], got {p}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = p - 0.5
    return validate_density(m, 2, 2, tol)


def bell_formation_points(p: float) -> list[ProtocolPoint]:
    """The three formation protocol points of the Bell-mixture family.

    Minimal-communication endpoint (E_c, 2), split-decomposition point
    (1-2p, 2-2p), reversible endpoint (1, 2-H(p)). Defined on the open
    interval only; the boundary states degenerate to other families.
    """
    p = float(p)
    if not 0.0 < p < 0.5:
        raise DegenerateFamilyError(
            f"formation points need 0 < p < 1/2, got {p}: p=0 is the pure Bell state "
            "(pure-schmidt family), p=1/2 the classical mixture (classical family)"
        )
    ec = bell_mixture_ec(p)
    return [
        ProtocolPoint(ec, 2.0, PointKind.FORMATION_ENDPOINT_EC, "min-communication"),
        ProtocolPoint(1.0 - 2.0 * p, 2.0 - 2.0 * p, PointKind.FORMATION_INTERMEDIATE, "split-decomposition"),
        ProtocolPoint(1.0, 2.0 - binary_entropy(p), PointKind.FORMATION_ENDPOINT_ER, "reversible"),
    ]


def _embedding_dim(k: int) -> int:
    d = 2
    while d < k:
        d *= 2
    return d


def _clean_weights(values, what: str) -> np.ndarray:
    w = np.asarray(values, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValueError(f"{what} vector is empty")
    if w.min() < 0.0:
        raise ValueError(f"{what} entries must be nonnegative, got {w.min()}")
    drift = abs(float(w.sum()) - 1.0)
    if drift > _INPUT_DRIFT:
        raise ValueError(f"{what} must sum to 1, drift {drift:.3g}")
    return w / w.sum()


def pure_schmidt(coeffs) -> PureState:
    """Pure state sum_k c_k |kk> on the smallest power-of-two dimensions."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.size and c.min() < 0.0:
        raise ValueError(f"Schmidt coefficients must be nonnegative, got {c.min()}")
    c = np.sqrt(_clean_weights(c**2, "squared Schmidt coefficients"))
    # absorb the square-root roundoff into the largest coefficient so the
    # squared coefficients sum to 1 exactly where representable
    k = int(np.argmax(c))
    rest = float(sum(float(ck) ** 2 for i, ck in enumerate(c) if i != k))
    c[k] = math.sqrt(max(0.0, 1.0 - rest))
    d = _embedding_dim(c.size)
    amplitudes = np.zeros(d * d, dtype=complex)
    for k, ck in enumerate(c):
        amplitudes[k * d + k] = ck
    return PureState(amplitudes, d, d)


def classically_correlated(probs) -> DensityOperator:
    """Classically correlated mixture sum_k p_k |kk><kk|; zero formation cost."""
    p = _clean_weights(probs, "probabilities")
    d = _embedding_dim(p.size)
    m = np.zeros((d * d, d * d), dtype=complex)
    for k, pk in enumerate(p):
        m[k * d + k, k * d + k] = pk
    return validate_density(m, d, d)


class StateCategory(enum.Enum):
    PURE_PRODUCT = "PureProduct"
    PURE_ENTANGLED = "PureEntangled"
    CLASSICALLY_CORRELATED = "ClassicallyCorrelated"
    MIXED_NPT = "MixedNPT"
    MIXED_PPT = "MixedPPT"


@dataclass(frozen=True)
class Classification:
    """Category plus the evidence values the thresholds were applied to."""

    category: StateCategory
    purity: float
    product_eigenbasis: str
    ppt_min_eig: float


def _correlated_labels(basis, tol: Tolerances) -> bool:
    """True when the support's product labels pair off one-to-one.

    Both sides' label vectors must be pairwise orthogonal, which is the
    sum_k p_k |kk><kk| structure up to local relabeling.
    """
    support = [(a, b) for val, a, b in basis if val > tol.support_cutoff]
    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            if abs(complex(np.vdot(support[i][0], support[j][0]))) > tol.overlap:
                return False
            if abs(complex(np.vdot(support[i][1], support[j][1]))) > tol.overlap:
                return False
    return True


def classify(rho: DensityOperator, tol: Tolerances = DEFAULT) -> Classification:
    """Coarse taxonomy: pure product/entangled, classically correlated, NPT/PPT.

    Purity is decided first; mixed two-qubit states are then split by the
    product-eigenbasis structure and the partial-transpose spectrum. The
    product-eigenbasis evidence is the exact verdict of
    ``product_eigenbasis_check``, "product" or "no"; it reads "not-checked"
    for pure states and beyond two qubits. Beyond two qubits the
    partial-transpose evidence is still reported but only the Pure*/Mixed*
    categories are assigned.
    """
    purity = rho.purity()
    pt_eigs, _ = hermitian_eigensystem(partial_transpose(rho, "B"), tol)
    ppt_min = float(pt_eigs[0])
    npt = ppt_min < -abs(tol.positivity_floor)
    peb = "not-checked"
    if purity >= 1.0 - tol.purity:
        _, v = hermitian_eigensystem(rho.matrix, tol)
        psi = PureState(v[:, -1], rho.dim_a, rho.dim_b)
        entangled = pure_state_entanglement(psi, tol) > tol.overlap
        category = StateCategory.PURE_ENTANGLED if entangled else StateCategory.PURE_PRODUCT
    elif (rho.dim_a, rho.dim_b) == (2, 2):
        result = product_eigenbasis_check(rho, tol)
        peb = result.status.value
        if result.status is ProductBasis.PRODUCT and _correlated_labels(result.basis, tol):
            category = StateCategory.CLASSICALLY_CORRELATED
        elif npt:
            category = StateCategory.MIXED_NPT
        else:
            category = StateCategory.MIXED_PPT
    else:
        category = StateCategory.MIXED_NPT if npt else StateCategory.MIXED_PPT
    return Classification(
        category=category, purity=purity, product_eigenbasis=peb, ppt_min_eig=ppt_min
    )


@dataclass(frozen=True)
class FamilySpec:
    """Resolved family selection: one kind plus its parameters."""

    kind: str
    p: float | None = None
    coeffs: tuple[float, ...] | None = None
    probs: tuple[float, ...] | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.kind!r}; choose one of {FAMILY_NAMES}")
        needed = {
            "bell-mixture": self.p is not None,
            "pure-schmidt": self.coeffs is not None,
            "classical": self.probs is not None,
            "raw": self.path is not None,
        }
        if not needed[self.kind]:
            raise ValueError(f"family {self.kind!r} is missing its parameter")
