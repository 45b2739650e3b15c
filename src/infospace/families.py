"""Parameterized state generators, coarse classification and the product-eigenbasis decision."""

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

    The basis covers the whole space, as {ab, ab', a'c, a'c'} or its mirror
    image {ab, a'b, cb', c'b'}: ``values`` holds its four eigenvalues, and the
    read-only (4, 2, 2) array ``factors`` holds a_k and b_k in row k. For NO
    they are ``()`` and None.
    """

    status: ProductBasis
    values: tuple[float, ...] = ()
    factors: np.ndarray | None = None


def _qubit_complement(x: np.ndarray) -> np.ndarray:
    """The unit qubit vector orthogonal to ``x``."""
    return np.array([-x[1].conjugate(), x[0].conjugate()])


def _bloch_ket(n: np.ndarray) -> np.ndarray:
    """The unit qubit ket whose Bloch vector points along ``n``; |0> when ``n`` is 0."""
    r = float(np.linalg.norm(n))
    if r == 0.0:
        return np.array([1.0, 0.0], dtype=complex)
    x, y, z = n / r
    # (1 + z, x + iy) and (x - iy, 1 - z) are the same ray; take the one that does not cancel
    ket = np.array([1.0 + z, x + 1j * y]) if z >= 0.0 else np.array([x - 1j * y, 1.0 - z])
    return ket / np.linalg.norm(ket)


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
# row 4i + j is (sigma_i (x) sigma_j)^T flattened: row . vec(rho) = tr(rho sigma_i (x) sigma_j)
_PAULI_PRODUCTS = np.array(
    [np.kron(si, sj).T.ravel() for si in _PAULIS for sj in _PAULIS], dtype=complex
)


def _correlations(rho: DensityOperator) -> np.ndarray:
    """The real 4x4 Pauli correlation matrix C_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I.

    Row 0 past its first entry is B's Bloch vector, column 0 is A's, and
    rho = sum_ij C_ij sigma_i (x) sigma_j / 4.
    """
    return (_PAULI_PRODUCTS @ rho.matrix.ravel()).real.reshape(4, 4)


def _classical_side_basis(c: np.ndarray, bound: float):
    """Product eigenbasis when the side indexing the rows of ``c`` is classical, else None.

    The triples are (value, x, y) with x on that side. The side is classical,
    rho = sum_k |x_k><x_k| (x) rho_k with {x_0, x_1} orthonormal, exactly when
    the 3x4 block c[1:] has rank one: then c[1:] = n m^T with n the Bloch axis
    of x_0. The other side's block <x|rho|x> is (row_0 I + row . sigma)/4 with
    row = c[0] +- n . c[1:], so its eigenvalues are (row_0 +- |row|)/4 on the
    Bloch kets of +-row.
    """
    u, s, _ = np.linalg.svd(c[1:])
    if s[1] > bound:
        return None
    axis = u[:, 0] if s[0] > bound else np.array([0.0, 0.0, 1.0])
    x = _bloch_ket(axis)
    basis = []
    for xk, sign in ((x, 1.0), (_qubit_complement(x), -1.0)):
        row = c[0] + sign * (axis @ c[1:])
        r0, r = float(row[0]), float(np.linalg.norm(row[1:]))
        y = _bloch_ket(row[1:])
        basis += [((r0 + r) / 4.0, xk, y), ((r0 - r) / 4.0, xk, _qubit_complement(y))]
    return basis


@_decided
def product_eigenbasis_check(rho: DensityOperator, /, tol: Tolerances = DEFAULT) -> ProductBasisResult:
    """Decide whether a two-qubit state has an orthonormal product eigenbasis.

    Every orthonormal product basis of C^2 (x) C^2 is {ab, ab', a'c, a'c'}
    up to swapping the sides, so rho has one exactly when it is classical on
    one side: block-diagonal in some basis {a, a'} of it. That is a rank test
    on the Pauli correlation matrix (the zero-discord criterion of Dakic,
    Vedral and Brukner, PRL 105, 190502 (2010)): side A qualifies when the
    second singular value of C[1:, :] is at most 2 tol.schmidt, side B reads
    C transposed. On a pure state that singular value is 2 c_1 c_2, so the
    verdict agrees with the Schmidt rule of ``classify``. The verdict is
    PRODUCT, with the basis (read-only factors), or NO.

    Stored on ``rho`` per ``tol`` value (see :func:`infospace.linalg._decided`),
    so ``classify``, ``assumed_exact_values`` and repeated calls share one
    decision.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError(f"product-eigenbasis check needs a two-qubit state, got dims "
                         f"({rho.dim_a}, {rho.dim_b})")
    rho.eigensystem(tol)  # stored; certifies the state under this tol, or raises
    c = _correlations(rho)
    bound = 2.0 * tol.schmidt
    # T = C[1:, 1:] is a block of both sides' matrices: its singular values bound theirs from below
    if np.linalg.svd(c[1:, 1:], compute_uv=False)[1] > bound:
        return ProductBasisResult(ProductBasis.NO)
    basis = _classical_side_basis(c, bound)
    if basis is None:
        basis = _classical_side_basis(c.T, bound)
        if basis is None:
            return ProductBasisResult(ProductBasis.NO)
        basis = [(val, a, b) for val, b, a in basis]
    factors = _read_only(np.array([(a, b) for _, a, b in basis], dtype=complex))
    return ProductBasisResult(ProductBasis.PRODUCT, tuple(val for val, _, _ in basis), factors)


def _correlated_labels(result: ProductBasisResult, tol: Tolerances) -> bool:
    """True when the support's product labels pair off one-to-one.

    Both sides' label vectors must be pairwise orthogonal, which is the
    sum_k p_k |kk><kk| structure up to local relabeling.
    """
    support = [f for val, f in zip(result.values, result.factors) if val > tol.support_cutoff]
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
        # the Schmidt rule, which product_eigenbasis_check reads as 2 c1 c2 <= 2 tol.schmidt;
        # the entropy, about c^2 log(1/c^2), would read c = 1e-6 as product
        coeffs = schmidt_coefficients(PureState(v[:, -1], rho.dim_a, rho.dim_b))
        entangled = coeffs.size > 1 and coeffs[1] > tol.schmidt
        category = StateCategory.PURE_ENTANGLED if entangled else StateCategory.PURE_PRODUCT
    elif (rho.dim_a, rho.dim_b) == (2, 2):
        result = product_eigenbasis_check(rho, tol)
        peb = result.status.value
        if result.status is ProductBasis.PRODUCT and _correlated_labels(result, tol):
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

