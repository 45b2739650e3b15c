"""Decompositions of a state into weighted components and the bounds they imply.

Local orthogonality is certified only through the sufficient condition of
pairwise-orthogonal local supports; the general operational notion (correlate
to an ancilla and reset, all by local means) is not decidable here. A positive
certificate is sound, a negative one is inconclusive.

A decomposition reads what its components store. A pure component's reduced
states come straight from its amplitudes and keep their decompositions, so no
component ever becomes a d x d projector. Every result here is a stored
decision, under the one rule of :func:`infospace.linalg._decided`: a mixed
component's formation cost on the component, the closed-form values on the
state, and the local-orthogonality certificate, the formation point and the
two bounds on the :class:`Ensemble`, so the three share one certificate. The
averaged state is not stored: it is built afresh by the first call of each
function that needs it.
"""

from dataclasses import dataclass

import numpy as np

from .curves import PointKind, ProtocolPoint
from .families import ProductBasis, _correlations, product_eigenbasis_check
from .linalg import (
    DensityOperator,
    PureState,
    _decided,
    _document_dims,
    _document_numbers,
    _require_dim,
    _stored,
    partial_trace,
    support_projector,
    validate_density,
)
from .measures import eof_2q, local_entropies, pure_state_entanglement, von_neumann_entropy
from .tolerances import DEFAULT, Tolerances

class ComponentCostUnknown(ValueError):
    """No rule yields the formation cost of a mixture component."""


class NotCertifiedOrthogonal(ValueError):
    """The operation needs a locally-orthogonal decomposition certificate."""


class NotApplicable(ValueError):
    """The closed-form values do not apply to this state."""


@dataclass(frozen=True)
class Ensemble:
    """Weighted mixture of component states on one pair of dimensions.

    Like a :class:`DensityOperator`, it keeps a table of the decisions made
    about it (see :func:`infospace.linalg._decided`).
    """

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
        if not drift <= DEFAULT.probability_drift:  # NaN fails it
            raise ValueError(f"component weights sum to {weights.sum()}, drift {drift:.3g}")
        object.__setattr__(self, "components", comps)

    @property
    def dims(self) -> tuple[int, int]:
        _, s = self.components[0]
        return s.dim_a, s.dim_b

    @_stored
    def _decisions(self) -> dict:
        """The stored decisions; see :func:`infospace.linalg._decided`."""
        return {}


@dataclass(frozen=True, slots=True)
class ComponentCost:
    """Formation bookkeeping for one component.

    ``resettable`` records whether the component's own pure-state
    decomposition is locally orthogonal, i.e. whether the instruction set
    used to prepare it can be reclaimed.
    """

    ec: float
    s: float
    resettable: bool


@dataclass(frozen=True, slots=True)
class LocalOrthogonality:
    """Outcome of the pairwise local-support orthogonality certificate."""

    certified: bool
    side: str | None = None


def ensemble_average(e: Ensemble, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Weighted average of the components, validated as a density operator."""
    dim_a, dim_b = e.dims
    total = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w, s in e.components:
        if isinstance(s, PureState):
            total += w * np.outer(s.amplitudes, s.amplitudes.conj())
        else:
            total += w * s.matrix
    return validate_density(total, dim_a, dim_b, tol)


@_decided
def local_orthogonality_check(e: Ensemble, /, tol: Tolerances = DEFAULT) -> LocalOrthogonality:
    """Certify pairwise-orthogonal component supports on one side.

    Returns the first side ('A' before 'B') on which every pair of reduced
    component supports has projector overlap within tolerance. A negative
    result is inconclusive for the general operational definition. Stored on
    ``e`` per ``tol`` value.
    """
    for side in ("A", "B"):
        projectors = [
            support_projector(partial_trace(s, side), tol)
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


def _component_cost(state, tol: Tolerances) -> ComponentCost:
    """Formation cost of a single component under the computable rules.

    Pure components cost their entanglement. A mixed component's cost is
    decided by :func:`_mixed_component_cost` once per ``tol`` value and
    stored on the component.
    """
    if isinstance(state, PureState):
        return ComponentCost(ec=pure_state_entanglement(state, tol), s=0.0, resettable=True)
    return _mixed_component_cost(state, tol)


@_decided
def _mixed_component_cost(state: DensityOperator, /, tol: Tolerances = DEFAULT) -> ComponentCost:
    """Cost of a mixed component; a component that no rule covers raises.

    A mixed component whose spectral decomposition is locally orthogonal
    costs the weighted entanglement of its eigenvectors, and its entropy stays
    reclaimable. On two qubits with a product eigenbasis, that basis is the
    decomposition: eigh's basis inside a degenerate eigenspace is arbitrary,
    and would make the verdict change under local unitaries. A two-qubit
    component that is Bell-diagonal up to local unitaries falls back to the
    formation-entanglement oracle, but its internal instruction set cannot be
    reclaimed. Anything else is a hard error: no point gets emitted without a
    protocol behind it.
    """
    purity = state.purity()
    if purity >= 1.0 - tol.purity:
        _, v = state.eigensystem(tol)
        psi = PureState(v[:, -1], state.dim_a, state.dim_b)
        return ComponentCost(ec=pure_state_entanglement(psi, tol), s=0.0, resettable=True)
    two_qubit = (state.dim_a, state.dim_b) == (2, 2)
    result = product_eigenbasis_check(state, tol) if two_qubit else None
    if result is not None and result.status is ProductBasis.PRODUCT:
        pairs = zip(result.values, [np.kron(a, b) for a, b in result.factors])
    else:
        w, v = state.eigensystem(tol)
        pairs = zip(w, v.T)
    support = [(val, vec) for val, vec in pairs if val > tol.support_cutoff]
    total = float(sum(val for val, _ in support))
    sub = Ensemble(
        tuple((val / total, PureState(vec, state.dim_a, state.dim_b)) for val, vec in support)
    )
    if local_orthogonality_check(sub, tol).certified:
        ec = float(sum(wk * pure_state_entanglement(psi, tol) for wk, psi in sub.components))
        return ComponentCost(ec=ec, s=von_neumann_entropy(state, tol), resettable=True)
    if two_qubit and _is_bell_diagonal(state, tol):
        return ComponentCost(
            ec=eof_2q(state, tol), s=von_neumann_entropy(state, tol), resettable=False
        )
    raise ComponentCostUnknown(
        "component is mixed, not certified locally decomposable, and not Bell-diagonal"
    )


def _is_bell_diagonal(rho: DensityOperator, tol: Tolerances) -> bool:
    """Bell-diagonal up to local unitaries: both local Bloch vectors vanish.

    Then C = 1 (+) T, and local rotations diagonalize T (Horodecki and
    Horodecki, PRA 54, 1838 (1996)).
    """
    c = _correlations(rho)
    return float(np.max(np.abs(np.concatenate((c[1:, 0], c[0, 1:]))))) <= tol.overlap


@_decided
def formation_point(e: Ensemble, /, tol: Tolerances = DEFAULT) -> ProtocolPoint:
    """Intermediate formation point of a decomposition.

    Communication is the weighted component cost. The information cost is the
    qubit count minus whatever entropy the protocol can reclaim: component
    entropies whose instruction sets reset locally, or the full mixture
    entropy when the whole decomposition is certified locally orthogonal
    (then formation is reversible). Stored on ``e`` per ``tol`` value.
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


@_decided
def reversible_cost_bound(e: Ensemble, /, tol: Tolerances = DEFAULT) -> float:
    """Communication at which formation from this decomposition is reversible.

    Requires the local-orthogonality certificate; the value is the smaller of
    the two sides' weighted reduced-component entropies. Upper-bounds the
    true reversibility cost, evaluated on this decomposition only. Stored on
    ``e`` per ``tol`` value.
    """
    if not local_orthogonality_check(e, tol).certified:
        raise NotCertifiedOrthogonal("decomposition is not certified locally orthogonal")
    entropies = [(w, local_entropies(s, tol)) for w, s in e.components]
    return min(float(sum(w * pair[k] for w, pair in entropies)) for k in (0, 1))


@_decided
def formation_surplus_bound(e: Ensemble, /, tol: Tolerances = DEFAULT) -> float:
    """Weighted component entropy: dissipation bound for this decomposition.

    Requires the local-orthogonality certificate and never exceeds the
    entropy of the averaged state. A pure component's entropy is 0. Stored on
    ``e`` per ``tol`` value.
    """
    if not local_orthogonality_check(e, tol).certified:
        raise NotCertifiedOrthogonal("decomposition is not certified locally orthogonal")
    value = float(
        sum(w * von_neumann_entropy(s, tol) for w, s in e.components if not isinstance(s, PureState))
    )
    ceiling = von_neumann_entropy(ensemble_average(e, tol), tol)
    if value > ceiling + 1e-9:
        raise ArithmeticError(
            f"component-entropy bound {value} exceeds the mixture entropy {ceiling}"
        )
    return value


@dataclass(frozen=True, slots=True)
class AssumedExactValues:
    """Surplus and reversibility cost under the maximal-dissipation assumption."""

    surplus: float
    reversible_cost: float
    assumption_dependent: bool = True


@_decided
def assumed_exact_values(rho: DensityOperator, /, tol: Tolerances = DEFAULT) -> AssumedExactValues:
    """Closed-form surplus S(rho) and reversible cost min(S_A, S_B).

    Applies only to mixed two-qubit states without a product eigenbasis, and
    only under the assumption that the decomposition bounds are tight; the
    result is flagged accordingly. Pure states are guarded out: their surplus
    is exactly zero and their single point comes from formation_point.
    Stored on ``rho`` per ``tol`` value.
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise NotApplicable(f"two-qubit closed form, got dims ({rho.dim_a}, {rho.dim_b})")
    if rho.purity() >= 1.0 - tol.purity:
        raise NotApplicable("pure state: the surplus vanishes identically")
    status = product_eigenbasis_check(rho, tol).status
    if status is not ProductBasis.NO:
        raise NotApplicable(f"product-eigenbasis check returned {status.value!r}")
    return AssumedExactValues(
        surplus=von_neumann_entropy(rho, tol), reversible_cost=min(local_entropies(rho, tol))
    )


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
    dim_a, dim_b = _document_dims(d, "ensemble")
    try:
        raw = d["components"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ensemble document: {exc}") from exc
    # before any component: a pure one costs O(d) in the file but O(d^2) in memory
    _require_dim(dim_a * dim_b, tol)
    if not isinstance(raw, list):
        raise ValueError("malformed ensemble document: components must be a list")
    components: list[tuple[float, DensityOperator | PureState]] = []
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
        try:
            weight = float(entry["weight"])
            if kind == "pure":
                values = np.array([complex(re, im) for re, im in entry["data"]])
            else:
                values = np.array([[complex(re, im) for re, im in row] for row in entry["data"]])
        except (TypeError, ValueError) as exc:  # data that is not (re, im) pairs, say
            raise ValueError(f"malformed ensemble document: component {k}: {exc}") from exc
        if kind == "pure":
            components.append((weight, PureState(values, dim_a, dim_b)))
        else:
            components.append((weight, validate_density(values, dim_a, dim_b, tol)))
    return Ensemble(tuple(components))
