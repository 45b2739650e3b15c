"""Decompositions of a state into weighted components and the bounds they imply.

Local orthogonality is certified only through the sufficient condition of
pairwise-orthogonal local supports; the general operational notion (correlate
to an ancilla and reset, all by local means) is not decidable here. A positive
certificate is sound, a negative one is inconclusive.
"""

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .curves import PointKind, ProtocolPoint
from .linalg import (
    DensityOperator,
    PureState,
    hermitian_eigensystem,
    partial_trace,
    support_projector,
    validate_density,
)
from .measures import eof_2q, pure_state_entanglement, von_neumann_entropy
from .tolerances import DEFAULT, Tolerances

# Bell basis columns: (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
_BELL_BASIS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / math.sqrt(2.0)


class ComponentCostUnknown(ValueError):
    """No rule yields the formation cost of a mixture component."""


class NotCertifiedOrthogonal(ValueError):
    """The operation needs a locally-orthogonal decomposition certificate."""


class NotApplicable(ValueError):
    """The closed-form values do not apply to this state."""


def _as_density(state) -> DensityOperator:
    return state.projector() if isinstance(state, PureState) else state


@dataclass(frozen=True)
class Ensemble:
    """Weighted mixture of component states on one pair of dimensions."""

    components: tuple[tuple[float, DensityOperator | PureState], ...]

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("ensemble needs at least one component")
        dims = {(s.dim_a, s.dim_b) for _, s in comps}
        if len(dims) != 1:
            raise ValueError(f"components live on different dimensions: {sorted(dims)}")
        weights = np.array([w for w, _ in comps])
        if weights.min() < -DEFAULT.probability_drift:
            raise ValueError(f"negative component weight {weights.min()}")
        drift = abs(float(weights.sum()) - 1.0)
        if drift > DEFAULT.probability_drift:
            raise ValueError(f"component weights sum to {weights.sum()}, drift {drift:.3g}")
        object.__setattr__(self, "components", comps)

    @property
    def dims(self) -> tuple[int, int]:
        _, s = self.components[0]
        return s.dim_a, s.dim_b


@dataclass(frozen=True)
class ComponentCost:
    """Formation bookkeeping for one component.

    ``resettable`` records whether the component's own pure-state
    decomposition is locally orthogonal, i.e. whether the instruction set
    used to prepare it can be reclaimed.
    """

    ec: float
    s: float
    resettable: bool


@dataclass(frozen=True)
class LocalOrthogonality:
    """Outcome of the pairwise local-support orthogonality certificate."""

    certified: bool
    side: str | None = None


def ensemble_average(e: Ensemble, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Weighted average of the components, validated as a density operator."""
    dim_a, dim_b = e.dims
    total = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w, s in e.components:
        total += w * _as_density(s).matrix
    return validate_density(total, dim_a, dim_b, tol)


def local_orthogonality_check(e: Ensemble, tol: Tolerances = DEFAULT) -> LocalOrthogonality:
    """Certify pairwise-orthogonal component supports on one side.

    Returns the first side ('A' before 'B') on which every pair of reduced
    component supports has projector overlap within tolerance. A negative
    result is inconclusive for the general operational definition.
    """
    for side in ("A", "B"):
        projectors = [
            support_projector(partial_trace(_as_density(s), side).matrix, tol)
            for _, s in e.components
        ]
        ok = all(
            float(np.linalg.norm(projectors[i] @ projectors[j])) <= tol.overlap
            for i in range(len(projectors))
            for j in range(i + 1, len(projectors))
        )
        if ok:
            return LocalOrthogonality(True, side)
    return LocalOrthogonality(False, None)


class ProductBasis(enum.Enum):
    PRODUCT = "product"
    NO = "no"


@dataclass(frozen=True)
class ProductBasisResult:
    """Verdict plus, for PRODUCT, the product eigenbasis itself.

    ``basis`` holds (eigenvalue, a_factor, b_factor) triples covering the
    whole space, eigenspace by eigenspace.
    """

    status: ProductBasis
    basis: tuple[tuple[float, np.ndarray, np.ndarray], ...] | None = None


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


def product_eigenbasis_check(rho: DensityOperator, tol: Tolerances = DEFAULT) -> ProductBasisResult:
    """Decide whether a two-qubit state has an orthonormal product eigenbasis.

    The decision is exact, eigenspace by eigenspace (2 (x) 2 has no
    unextendible product bases): a 1-dim eigenspace by the Schmidt rank of
    its vector, a 2-dim one by the roots of a binary quadratic (see
    ``_product_pair``), a 3-dim one by its 1-dim complement, and the 4-dim
    space always has the computational basis. The verdict is PRODUCT, with
    the basis, or NO.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError(f"product-eigenbasis check needs a two-qubit state, got dims "
                         f"({rho.dim_a}, {rho.dim_b})")
    w, v = hermitian_eigensystem(rho.matrix, tol)
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
    return ProductBasisResult(ProductBasis.PRODUCT, tuple(basis))


def _component_cost(state, tol: Tolerances) -> ComponentCost:
    """Formation cost of a single component under the computable rules.

    Pure components cost their entanglement. A mixed component whose spectral
    decomposition is locally orthogonal costs the weighted entanglement of its
    eigenvectors, and its entropy stays reclaimable. A two-qubit
    Bell-diagonal component falls back to the formation-entanglement oracle,
    but its internal instruction set cannot be reclaimed. Anything else is a
    hard error: no point gets emitted without a protocol behind it.
    """
    if isinstance(state, PureState):
        return ComponentCost(ec=pure_state_entanglement(state, tol), s=0.0, resettable=True)
    purity = state.purity()
    if purity >= 1.0 - tol.purity:
        _, v = hermitian_eigensystem(state.matrix, tol)
        psi = PureState(v[:, -1], state.dim_a, state.dim_b)
        return ComponentCost(ec=pure_state_entanglement(psi, tol), s=0.0, resettable=True)
    w, v = hermitian_eigensystem(state.matrix, tol)
    keep = w > tol.support_cutoff
    weights = w[keep] / float(np.sum(w[keep]))
    vectors = [PureState(v[:, k], state.dim_a, state.dim_b) for k in np.nonzero(keep)[0]]
    sub = Ensemble(tuple(zip(weights, vectors)))
    if local_orthogonality_check(sub, tol).certified:
        ec = float(sum(wk * pure_state_entanglement(psi, tol) for wk, psi in zip(weights, vectors)))
        return ComponentCost(ec=ec, s=von_neumann_entropy(state, tol), resettable=True)
    if (state.dim_a, state.dim_b) == (2, 2) and _is_bell_diagonal(state, tol):
        return ComponentCost(
            ec=eof_2q(state, tol), s=von_neumann_entropy(state, tol), resettable=False
        )
    raise ComponentCostUnknown(
        "component is mixed, not certified locally decomposable, and not Bell-diagonal"
    )


def _is_bell_diagonal(rho: DensityOperator, tol: Tolerances) -> bool:
    m = _BELL_BASIS.conj().T @ rho.matrix @ _BELL_BASIS
    return float(np.max(np.abs(m - np.diag(np.diagonal(m))))) <= tol.overlap


def formation_point(e: Ensemble, tol: Tolerances = DEFAULT) -> ProtocolPoint:
    """Intermediate formation point of a decomposition.

    Communication is the weighted component cost. The information cost is the
    qubit count minus whatever entropy the protocol can reclaim: component
    entropies whose instruction sets reset locally, or the full mixture
    entropy when the whole decomposition is certified locally orthogonal
    (then formation is reversible).
    """
    avg = ensemble_average(e, tol)
    n = avg.n_qubits
    costs = [(w, _component_cost(s, tol)) for w, s in e.components]
    q = float(sum(w * c.ec for w, c in costs))
    if all(c.resettable for _, c in costs) and local_orthogonality_check(e, tol).certified:
        info_cost = n - von_neumann_entropy(avg, tol)
    else:
        info_cost = n - float(sum(w * c.s for w, c in costs if c.resettable))
    return ProtocolPoint(
        q=max(q, 0.0),
        i=max(info_cost, 0.0),
        kind=PointKind.FORMATION_INTERMEDIATE,
        label="decomposition",
    )


def reversible_cost_bound(e: Ensemble, tol: Tolerances = DEFAULT) -> float:
    """Communication at which formation from this decomposition is reversible.

    Requires the local-orthogonality certificate; the value is the smaller of
    the two sides' weighted reduced-component entropies. Upper-bounds the
    true reversibility cost, evaluated on this decomposition only.
    """
    if not local_orthogonality_check(e, tol).certified:
        raise NotCertifiedOrthogonal("decomposition is not certified locally orthogonal")
    sums = []
    for side in ("A", "B"):
        sums.append(
            float(
                sum(
                    w * von_neumann_entropy(partial_trace(_as_density(s), side), tol)
                    for w, s in e.components
                )
            )
        )
    return min(sums)


def formation_surplus_bound(e: Ensemble, tol: Tolerances = DEFAULT) -> float:
    """Weighted component entropy: dissipation bound for this decomposition.

    Requires the local-orthogonality certificate and never exceeds the
    entropy of the averaged state.
    """
    if not local_orthogonality_check(e, tol).certified:
        raise NotCertifiedOrthogonal("decomposition is not certified locally orthogonal")
    value = float(sum(w * von_neumann_entropy(_as_density(s), tol) for w, s in e.components))
    ceiling = von_neumann_entropy(ensemble_average(e, tol), tol)
    if value > ceiling + 1e-9:
        raise ArithmeticError(
            f"component-entropy bound {value} exceeds the mixture entropy {ceiling}"
        )
    return value


@dataclass(frozen=True)
class AssumedExactValues:
    """Surplus and reversibility cost under the maximal-dissipation assumption."""

    surplus: float
    reversible_cost: float
    assumption_dependent: bool = True


def assumed_exact_values(rho: DensityOperator, tol: Tolerances = DEFAULT) -> AssumedExactValues:
    """Closed-form surplus S(rho) and reversible cost min(S_A, S_B).

    Applies only to mixed two-qubit states without a product eigenbasis, and
    only under the assumption that the decomposition bounds are tight; the
    result is flagged accordingly. Pure states are guarded out: their surplus
    is exactly zero and their single point comes from formation_point.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise NotApplicable(f"two-qubit closed form, got dims ({rho.dim_a}, {rho.dim_b})")
    if rho.purity() >= 1.0 - tol.purity:
        raise NotApplicable("pure state: the surplus vanishes identically")
    status = product_eigenbasis_check(rho, tol).status
    if status is not ProductBasis.NO:
        raise NotApplicable(f"product-eigenbasis check returned {status.value!r}")
    s_total = von_neumann_entropy(rho, tol)
    s_a = von_neumann_entropy(partial_trace(rho, "A"), tol)
    s_b = von_neumann_entropy(partial_trace(rho, "B"), tol)
    return AssumedExactValues(surplus=s_total, reversible_cost=min(s_a, s_b))


def ensemble_to_dict(e: Ensemble) -> dict:
    """JSON-ready form: weights plus pure vectors or mixed matrices."""
    dim_a, dim_b = e.dims
    components = []
    for w, s in e.components:
        if isinstance(s, PureState):
            data = [[float(z.real), float(z.imag)] for z in s.amplitudes]
            components.append({"weight": float(w), "type": "pure", "data": data})
        else:
            data = [[[float(z.real), float(z.imag)] for z in row] for row in s.matrix]
            components.append({"weight": float(w), "type": "mixed", "data": data})
    return {"dims": [dim_a, dim_b], "components": components}


def ensemble_from_dict(d: dict, tol: Tolerances = DEFAULT) -> Ensemble:
    """Parse the ensemble JSON schema, validating every component."""
    try:
        dim_a, dim_b = (int(x) for x in d["dims"])
        raw = d["components"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed ensemble document: {exc}") from exc
    components: list[tuple[float, DensityOperator | PureState]] = []
    for entry in raw:
        weight = float(entry["weight"])
        kind = entry["type"]
        data = entry["data"]
        if kind == "pure":
            amplitudes = np.array([complex(re, im) for re, im in data])
            components.append((weight, PureState(amplitudes, dim_a, dim_b)))
        elif kind == "mixed":
            matrix = np.array([[complex(re, im) for re, im in row] for row in data])
            components.append((weight, validate_density(matrix, dim_a, dim_b, tol)))
        else:
            raise ValueError(f"component type must be 'pure' or 'mixed', got {kind!r}")
    return Ensemble(tuple(components))
