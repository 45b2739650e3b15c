"""Parameterized state generators, coarse classification and the product-eigenbasis decision."""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    PureState,
    _decided,
    _read_only,
    _require_dim,
    schmidt_coefficients,
    validate_density,
)
from .tolerances import DEFAULT, Tolerances

_INPUT_DRIFT = 1e-6  # user-typed coefficients get renormalized up to this drift


def bell_mixture(p: float, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Rank-two mixture p |phi+><phi+| + (1-p) |phi-><phi-|, |phi+-> = (|00> +- |11>)/sqrt2.

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


def _embedding_dim(k: int) -> int:
    """Power-of-two local dimension for k labels; refused above the cap before any allocation."""
    d = 2
    while d < k:
        d *= 2
    _require_dim(d * d, DEFAULT)
    return d


def _clean_weights(values, what: str) -> np.ndarray:
    w = np.asarray(values, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValueError(f"{what} vector is empty")
    if w.min() < 0.0:
        raise ValueError(f"{what} entries must be nonnegative, got {w.min()}")
    with np.errstate(over="ignore"):  # 1e308 + 1e308 sums to inf, which the drift check refuses
        drift = abs(float(w.sum()) - 1.0)
    if not drift <= _INPUT_DRIFT:  # NaN fails it
        raise ValueError(f"{what} must sum to 1, drift {drift:.3g}")
    return w / w.sum()


def pure_schmidt(coeffs) -> PureState:
    """Pure state sum_k c_k |kk> on the smallest power-of-two dimensions."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.size and c.min() < 0.0:
        raise ValueError(f"Schmidt coefficients must be nonnegative, got {c.min()}")
    with np.errstate(over="ignore"):  # 1e200**2 is inf, which the drift check refuses
        squares = c**2
    c = np.sqrt(_clean_weights(squares, "squared Schmidt coefficients"))
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


@dataclass(frozen=True, slots=True)
class Classification:
    """Category plus the evidence values the thresholds were applied to."""

    category: StateCategory
    purity: float
    product_eigenbasis: str
    ppt_min_eig: float


class ProductBasis(enum.Enum):
    PRODUCT = "product"
    NO = "no"


@dataclass(frozen=True, slots=True)
class ProductBasisResult:
    """Verdict plus, for PRODUCT, the product eigenbasis itself.

    ``basis`` reads as (eigenvalue, a_factor, b_factor) triples covering the
    whole space, eigenspace by eigenspace. They are kept compactly: the k
    eigenvalues, and one read-only (k, 2, 2) array whose row k holds a_k and
    b_k.
    """

    status: ProductBasis
    values: tuple[float, ...] = ()
    factors: np.ndarray | None = None

    @property
    def basis(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...] | None:
        if self.factors is None:
            return None
        return tuple((val, f[0], f[1]) for val, f in zip(self.values, self.factors))


def _schmidt_factors(vec: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Second Schmidt coefficient and the dominant product factors of a two-qubit vector."""
    # the singular value itself, not sqrt(1 - s0^2), which would lift ~1e-16
    # of roundoff to ~1e-8 and fail the tol.schmidt test on product vectors
    u, s, vh = np.linalg.svd(vec.reshape(2, 2))
    return float(s[1]), u[:, 0], vh[0]


def _qubit_complement(x: np.ndarray) -> np.ndarray:
    """The unit qubit vector orthogonal to ``x``."""
    return np.array([-x[1].conjugate(), x[0].conjugate()])


def _product_pair(v1: np.ndarray, v2: np.ndarray, tol: Tolerances):
    """Orthonormal product basis of span{v1, v2} in C^2 (x) C^2, or None.

    The product vectors x v1 + y v2 are the roots [x:y] of the binary
    quadratic det(x M1 + y M2) = qa x^2 + qb xy + qc y^2, with M the vector
    reshaped to 2x2. A form that vanishes identically means the span is
    a (x) C^2 or C^2 (x) b, where every vector, v1 and v2 included, is
    product. Otherwise the span holds at most two product directions, and it
    has a product basis exactly when they are orthogonal.
    """
    m1, m2 = v1.reshape(2, 2), v2.reshape(2, 2)
    qa = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    qc = m2[0, 0] * m2[1, 1] - m2[0, 1] * m2[1, 0]
    qb = m1[0, 0] * m2[1, 1] + m2[0, 0] * m1[1, 1] - m1[0, 1] * m2[1, 0] - m2[0, 1] * m1[1, 0]
    # |det M| = s1 s2 for a unit vector: the coefficients live on the Schmidt scale
    if max(abs(qa), abs(qb), abs(qc)) <= tol.schmidt:
        return [_schmidt_factors(v)[1:] for v in (v1, v2)]
    # homogeneous roots [t : qa] and [qc : t] with t^2 + qb t + qa qc = 0;
    # the sign keeps qb and the discriminant root from cancelling
    d = cmath.sqrt(qb * qb - 4.0 * qa * qc)
    if (qb.conjugate() * d).real < 0.0:
        d = -d
    t = -(qb + d) / 2.0
    r1, r2 = t * v1 + qa * v2, qc * v1 + t * v2
    n1, n2 = float(np.linalg.norm(r1)), float(np.linalg.norm(r2))
    # a double root leaves one product direction (the other root vector is 0)
    if n1 * n2 == 0.0 or abs(complex(np.vdot(r1, r2))) > tol.overlap * n1 * n2:
        return None
    return [_schmidt_factors(r / n)[1:] for r, n in ((r1, n1), (r2, n2))]


@_decided
def product_eigenbasis_check(rho: DensityOperator, /, tol: Tolerances = DEFAULT) -> ProductBasisResult:
    """Decide whether a two-qubit state has an orthonormal product eigenbasis.

    The decision is exact, eigenspace by eigenspace (2 (x) 2 has no
    unextendible product bases): a 1-dim eigenspace by the Schmidt rank of
    its vector, a 2-dim one by the roots of a binary quadratic (see
    ``_product_pair``), a 3-dim one by its 1-dim complement, and the 4-dim
    space always has the computational basis. The verdict is PRODUCT, with
    the basis (read-only factors), or NO.

    Stored on ``rho`` per ``tol`` value (see :func:`infospace.linalg._decided`),
    so ``classify``, ``assumed_exact_values`` and repeated calls share one
    decision.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError(f"product-eigenbasis check needs a two-qubit state, got dims "
                         f"({rho.dim_a}, {rho.dim_b})")
    w, v = rho.eigensystem(tol)
    groups: list[list[int]] = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[groups[-1][-1]] <= tol.eigen_residual:
            groups[-1].append(k)
        else:
            groups.append([k])
    basis: list[tuple[float, np.ndarray, np.ndarray]] = []
    for group in groups:
        if len(group) == 1:
            c2, a, b = _schmidt_factors(v[:, group[0]])
            if c2 > tol.schmidt:
                return ProductBasisResult(ProductBasis.NO)
            basis.append((float(w[group[0]]), a, b))
    for group in groups:
        mean_val = float(np.mean(w[group]))
        if len(group) == 2:
            pair = _product_pair(v[:, group[0]], v[:, group[1]], tol)
            if pair is None:
                return ProductBasisResult(ProductBasis.NO)
            basis.extend((mean_val, a, b) for a, b in pair)
        elif len(group) == 3:
            _, a, b = basis[0]  # the 1-dim complement, product by now
            a_perp, b_perp = _qubit_complement(a), _qubit_complement(b)
            basis.extend((mean_val, x, y) for x, y in ((a_perp, b), (a, b_perp), (a_perp, b_perp)))
        elif len(group) == 4:
            e = np.eye(2, dtype=complex)
            basis.extend((mean_val, e[i], e[j]) for i in range(2) for j in range(2))
    # one new array: a stored factor must not keep its SVD's or np.eye's whole matrix alive
    factors = _read_only(np.array([(a, b) for _, a, b in basis], dtype=complex))
    return ProductBasisResult(ProductBasis.PRODUCT, tuple(val for val, _, _ in basis), factors)


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


@_decided
def classify(rho: DensityOperator, /, tol: Tolerances = DEFAULT) -> Classification:
    """Coarse taxonomy: pure product/entangled, classically correlated, NPT/PPT.

    Purity is decided first; mixed two-qubit states are then split by the
    product-eigenbasis structure and the partial-transpose spectrum. The
    product-eigenbasis evidence is the exact verdict of
    ``product_eigenbasis_check``, "product" or "no"; it reads "not-checked"
    for pure states and beyond two qubits. Beyond two qubits the
    partial-transpose evidence is still reported but only the Pure*/Mixed*
    categories are assigned.

    Stored on ``rho`` per ``tol`` value.
    """
    purity = rho.purity()
    ppt_min = float(rho.partial_transpose_spectrum(tol)[0])
    npt = ppt_min < -abs(tol.positivity_floor)
    peb = "not-checked"
    if purity >= 1.0 - tol.purity:
        _, v = rho.eigensystem(tol)
        # the product rule product_eigenbasis_check applies to eigenvectors; the
        # entropy, about c^2 log(1/c^2), would read c = 1e-6 as product
        coeffs = schmidt_coefficients(PureState(v[:, -1], rho.dim_a, rho.dim_b))
        entangled = coeffs.size > 1 and coeffs[1] > tol.schmidt
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

