import json

import numpy as np
import pytest

from infospace import (
    ComponentCostUnknown,
    DensityOperator,
    Ensemble,
    NotApplicable,
    NotCertifiedOrthogonal,
    ProductBasis,
    PureState,
    assumed_exact_values,
    bell_mixture,
    bell_mixture_ec,
    classically_correlated,
    ensemble_average,
    ensemble_from_dict,
    ensemble_to_dict,
    eof_2q,
    formation_point,
    formation_surplus_bound,
    local_entropies,
    local_orthogonality_check,
    product_eigenbasis_check,
    reversible_cost_bound,
    validate_density,
    von_neumann_entropy,
)
from helpers import BELL_MINUS, BELL_PLUS, KET_00, KET_11, random_unitary, split_decomposition

H_QUARTER = 0.8112781244591328


def classical_pair() -> Ensemble:
    return Ensemble(((0.5, PureState(KET_00, 2, 2)), (0.5, PureState(KET_11, 2, 2))))


def bell_blocks_4x4() -> Ensemble:
    """Two maximally entangled states on locally orthogonal 2x2 blocks."""
    amp1 = np.zeros(16, dtype=complex)
    amp1[0 * 4 + 0] = amp1[1 * 4 + 1] = 1 / np.sqrt(2)
    amp2 = np.zeros(16, dtype=complex)
    amp2[2 * 4 + 2] = amp2[3 * 4 + 3] = 1 / np.sqrt(2)
    return Ensemble(((0.5, PureState(amp1, 4, 4)), (0.5, PureState(amp2, 4, 4))))


def mixed_blocks() -> Ensemble:
    """Two maximally mixed one-qubit-equivalent blocks, flagged on side A."""
    b1 = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2, 2)
    b2 = DensityOperator(np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex), 2, 2)
    return Ensemble(((0.5, b1), (0.5, b2)))


class TestEnsembleType:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.5, PureState(KET_00, 2, 2)), (0.4, PureState(KET_11, 2, 2))))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Ensemble(((-0.1, PureState(KET_00, 2, 2)), (1.1, PureState(KET_11, 2, 2))))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            Ensemble(
                (
                    (0.5, PureState(KET_00, 2, 2)),
                    (0.5, PureState(np.array([1, 0, 0, 0, 0, 0], dtype=complex), 2, 3)),
                )
            )


class TestEnsembleAverage:
    def test_classical_pair(self):
        avg = ensemble_average(classical_pair())
        assert np.max(np.abs(avg.matrix - np.diag([0.5, 0, 0, 0.5]))) < 1e-15

    def test_split_matches_bell_mixture(self):
        for p in np.linspace(0.0, 0.5, 50):
            avg = ensemble_average(split_decomposition(p))
            assert np.max(np.abs(avg.matrix - bell_mixture(p).matrix)) <= 1e-12

    def test_single_component_identity(self):
        rho = bell_mixture(0.3)
        avg = ensemble_average(Ensemble(((1.0, rho),)))
        assert np.array_equal(avg.matrix, rho.matrix)


class TestLocalOrthogonality:
    def test_classical_pair_certified(self):
        result = local_orthogonality_check(classical_pair())
        assert result.certified and result.side == "A"

    def test_overlapping_bell_pair(self):
        e = Ensemble(((0.5, PureState(BELL_PLUS, 2, 2)), (0.5, PureState(BELL_MINUS, 2, 2))))
        assert not local_orthogonality_check(e).certified

    def test_single_component_vacuous(self):
        result = local_orthogonality_check(Ensemble(((1.0, bell_mixture(0.2)),)))
        assert result.certified and result.side == "A"

    def test_blocks_certified(self):
        assert local_orthogonality_check(bell_blocks_4x4()).certified


class TestProductEigenbasis:
    def test_classical_diagonal(self):
        rho = validate_density(np.diag([0.5, 0, 0, 0.5]), 2, 2)
        assert product_eigenbasis_check(rho).status is ProductBasis.PRODUCT

    def test_bell_mixture_has_none(self):
        # nondegenerate entangled eigenvectors settle it outright
        assert product_eigenbasis_check(bell_mixture(0.25)).status is ProductBasis.NO

    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4, 2, 2)
        result = product_eigenbasis_check(rho)
        assert result.status is ProductBasis.PRODUCT
        assert len(result.basis) == 4

    def test_basis_vectors_are_eigenvectors(self):
        rho = classically_correlated([0.25, 0.75])
        result = product_eigenbasis_check(rho)
        assert result.status is ProductBasis.PRODUCT
        for val, a, b in result.basis:
            vec = np.kron(a, b)
            assert np.max(np.abs(rho.matrix @ vec - val * vec)) < 1e-9

    def test_pure_entangled_has_none(self):
        assert (
            product_eigenbasis_check(PureState(BELL_PLUS, 2, 2).projector()).status
            is ProductBasis.NO
        )

    def test_wrong_dims(self):
        with pytest.raises(ValueError, match="two-qubit"):
            product_eigenbasis_check(DensityOperator(np.eye(6) / 6, 2, 3))

    def test_locally_rotated_diagonal_states(self):
        # (U_a (x) U_b) diag(p) (U_a (x) U_b)^dag has a product eigenbasis by
        # construction; testing sqrt(1 - lambda_max) of the eigenvectors against
        # tol.schmidt turned eigensolver roundoff into a NO for most of them
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = np.sort(rng.dirichlet(np.ones(4)))
            assert np.min(np.diff(p)) > 1e-6  # nondegenerate, as the probe intends
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rho = validate_density((u * p) @ u.conj().T, 2, 2)
            assert product_eigenbasis_check(rho).status is ProductBasis.PRODUCT
            with pytest.raises(NotApplicable):
                assumed_exact_values(rho)


class TestFormationPoint:
    def test_split_decomposition_quarter(self):
        point = formation_point(split_decomposition(0.25))
        assert point.q == pytest.approx(0.5, abs=1e-9)
        assert point.i == pytest.approx(1.5, abs=1e-9)

    def test_single_pure_component(self):
        point = formation_point(Ensemble(((1.0, PureState(BELL_PLUS, 2, 2)),)))
        assert point.q == pytest.approx(1.0, abs=1e-9)
        assert point.i == pytest.approx(2.0, abs=1e-9)

    def test_classical_pair_resets_instruction_set(self):
        point = formation_point(classical_pair())
        assert point.q == pytest.approx(0.0, abs=1e-12)
        assert point.i == pytest.approx(1.0, abs=1e-9)

    def test_single_bell_diagonal_component(self):
        # the component's optimal decomposition is not locally orthogonal, so
        # none of its entropy comes back: this lands on the costly endpoint
        point = formation_point(Ensemble(((1.0, bell_mixture(0.25)),)))
        assert point.q == pytest.approx(bell_mixture_ec(0.25), abs=1e-9)
        assert point.i == pytest.approx(2.0, abs=1e-9)

    def test_unknown_component_cost(self):
        odd = validate_density(
            0.5 * PureState(BELL_PLUS, 2, 2).projector().matrix
            + 0.5 * PureState(KET_00, 2, 2).projector().matrix,
            2,
            2,
        )
        with pytest.raises(ComponentCostUnknown):
            formation_point(Ensemble(((1.0, odd),)))

    def test_never_beats_formation_entanglement(self):
        ensembles = [split_decomposition(p) for p in (0.05, 0.15, 0.25, 0.35, 0.45)]
        ensembles += [classical_pair(), Ensemble(((1.0, bell_mixture(0.3)),))]
        for e in ensembles:
            point = formation_point(e)
            assert point.q >= eof_2q(ensemble_average(e)) - 1e-9


CERTIFIED = [
    classical_pair,
    bell_blocks_4x4,
    mixed_blocks,
    lambda: Ensemble(((1.0, PureState(BELL_PLUS, 2, 2)),)),
    lambda: Ensemble(((1.0, classically_correlated([0.3, 0.7])),)),
]


class TestDecompositionBounds:
    def test_classical_pair_costs_nothing(self):
        assert reversible_cost_bound(classical_pair()) == pytest.approx(0.0, abs=1e-12)
        assert formation_surplus_bound(classical_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_single_bell_component(self):
        e = Ensemble(((1.0, PureState(BELL_PLUS, 2, 2)),))
        assert reversible_cost_bound(e) == pytest.approx(1.0, abs=1e-9)

    def test_block_ensemble_weighted_mean(self):
        assert reversible_cost_bound(bell_blocks_4x4()) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_blocks_surplus(self):
        e = mixed_blocks()
        assert formation_surplus_bound(e) == pytest.approx(1.0, abs=1e-9)
        assert von_neumann_entropy(ensemble_average(e)) == pytest.approx(2.0, abs=1e-9)

    def test_requires_certificate(self):
        e = Ensemble(((0.5, PureState(BELL_PLUS, 2, 2)), (0.5, PureState(BELL_MINUS, 2, 2))))
        with pytest.raises(NotCertifiedOrthogonal):
            reversible_cost_bound(e)
        with pytest.raises(NotCertifiedOrthogonal):
            formation_surplus_bound(e)

    def test_bound_chains(self):
        for make in CERTIFIED:
            e = make()
            avg = ensemble_average(e)
            surplus = formation_surplus_bound(e)
            cost = reversible_cost_bound(e)
            assert surplus <= von_neumann_entropy(avg) + 1e-9
            assert 0.0 <= cost <= min(local_entropies(avg)) + 1e-9


class TestAssumedExactValues:
    def test_bell_mixture_quarter(self):
        values = assumed_exact_values(bell_mixture(0.25))
        assert values.surplus == pytest.approx(H_QUARTER, abs=1e-9)
        assert values.reversible_cost == pytest.approx(1.0, abs=1e-9)
        assert values.assumption_dependent

    def test_classical_boundary_not_applicable(self):
        with pytest.raises(NotApplicable):
            assumed_exact_values(bell_mixture(0.5))

    def test_pure_entangled_guarded(self):
        with pytest.raises(NotApplicable):
            assumed_exact_values(PureState(BELL_PLUS, 2, 2).projector())

    def test_larger_dims_not_applicable(self):
        with pytest.raises(NotApplicable):
            assumed_exact_values(validate_density(np.eye(16) / 16, 4, 4))


class TestEnsembleJson:
    def test_round_trip(self):
        e = split_decomposition(0.2)
        doc = json.loads(json.dumps(ensemble_to_dict(e)))
        back = ensemble_from_dict(doc)
        assert np.max(np.abs(ensemble_average(back).matrix - ensemble_average(e).matrix)) < 1e-12
        kinds = [entry["type"] for entry in doc["components"]]
        assert kinds == ["mixed", "pure"]

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            ensemble_from_dict({"components": []})

    def test_unknown_component_type(self):
        doc = {"dims": [2, 2], "components": [{"weight": 1.0, "type": "thermal", "data": []}]}
        with pytest.raises(ValueError, match="pure"):
            ensemble_from_dict(doc)
