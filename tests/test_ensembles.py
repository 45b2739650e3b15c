import json

import mpmath as mp
import numpy as np
import pytest

from infospace import (
    DEFAULT,
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
    classify,
    ensemble_average,
    ensemble_from_dict,
    ensemble_to_dict,
    eof_2q,
    formation_point,
    formation_surplus_bound,
    local_entropies,
    local_orthogonality_check,
    partial_trace,
    product_eigenbasis_check,
    reversible_cost_bound,
    validate_density,
    von_neumann_entropy,
)
from helpers import (
    BELL_MINUS,
    BELL_PLUS,
    KET_00,
    KET_11,
    global_aabb,
    random_hermitian,
    random_local_unitary,
    random_state_vector,
    random_unitary,
    rotated_spectrum,
    split_decomposition,
)

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
        # one nondegenerate spectrum, then every degenerate eigenspace shape:
        # 2+2 (all three product-diagonal patterns), 3+1, rank 3 and 4
        spectra = [
            [0.1, 0.2, 0.3, 0.4],
            [0.1, 0.1, 0.4, 0.4],
            [0.1, 0.4, 0.1, 0.4],
            [0.1, 0.4, 0.4, 0.1],
            [0.4, 0.2, 0.2, 0.2],
            [0.0, 1 / 3, 1 / 3, 1 / 3],
            [0.25] * 4,
        ]
        rng = np.random.default_rng(6)
        states = [classically_correlated([0.25, 0.75]), bell_mixture(0.5)]
        for _ in range(6):
            u = random_local_unitary(rng)
            states += [validate_density(rotated_spectrum(u, p), 2, 2) for p in spectra]
        for rho in states:
            result = product_eigenbasis_check(rho)
            assert result.status is ProductBasis.PRODUCT
            vectors = np.array([np.kron(a, b) for _, a, b in result.basis]).T
            assert vectors.shape == (4, 4)
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) <= DEFAULT.overlap
            for val, a, b in result.basis:
                vec = np.kron(a, b)
                assert np.max(np.abs(rho.matrix @ vec - val * vec)) <= DEFAULT.eigen_residual

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


def _qubit_pair(rng, overlap):
    """Two unit qubit vectors with |<x1|x2>| = overlap, in a Haar-random frame."""
    u = random_unitary(rng, 2)
    return u[:, 0], overlap * u[:, 0] + np.sqrt(1.0 - overlap**2) * u[:, 1]


def _eigenspace_state(columns, inside=0.35, outside=0.15):
    """Eigenvalue ``inside`` on span(columns) and ``outside`` on its complement."""
    q, _ = np.linalg.qr(np.array(columns).T)
    proj = q @ q.conj().T
    m = inside * proj + outside * (np.eye(4) - proj)
    return validate_density((m + m.conj().T) / 2, 2, 2)


def _perturbed(rng, m, size):
    """m plus a traceless Hermitian perturbation of entrywise size ~``size``."""
    h = random_hermitian(rng, 4)
    h -= np.trace(h).real / 4 * np.eye(4)
    return m + size * h / np.max(np.abs(h))


class TestExactProductDecision:
    """The closed-form 2 (x) 2 decision against states whose answer is known."""

    @pytest.mark.parametrize("seed", range(5))
    def test_global_aabb_has_none(self, seed):
        # a Haar-random degenerate pair of 2-dim eigenspaces holds two
        # non-orthogonal product directions each: the verdict is NO, not a
        # search that gives up
        rng = np.random.default_rng(100 + seed)
        for a in (0.05, 0.15, 0.3, 0.45):
            rho = validate_density(global_aabb(rng, a), 2, 2)
            assert product_eigenbasis_check(rho).status is ProductBasis.NO
            assert classify(rho).product_eigenbasis == "no"

    @pytest.mark.parametrize(
        "overlap_a, overlap_b",
        [(0.0, 0.6), (0.6, 0.0), (0.0, 0.0), (2e-3, 0.5), (1e-3, 1e-3), (2e-6, 0.5)],
    )
    def test_span_of_two_product_vectors(self, overlap_a, overlap_b):
        # span{a1 (x) b1, a2 (x) b2} with a1 not parallel to a2 and b1 not
        # parallel to b2 holds exactly these two product directions, so it has
        # a product basis iff <a1|a2><b1|b2> = 0; the overlaps 1e-3 and 1e-6
        # sit far above the 1e-9 tolerance. The complement of such a span is
        # product too when the overlap vanishes.
        rng = np.random.default_rng(int(1e7 * (overlap_a + 2 * overlap_b)))
        for _ in range(20):
            a1, a2 = _qubit_pair(rng, overlap_a)
            b1, b2 = _qubit_pair(rng, overlap_b)
            rho = _eigenspace_state([np.kron(a1, b1), np.kron(a2, b2)])
            want = ProductBasis.PRODUCT if overlap_a * overlap_b == 0 else ProductBasis.NO
            assert product_eigenbasis_check(rho).status is want

    @pytest.mark.parametrize("pattern", ["aabb", "abab", "abba"])
    def test_product_diagonal_patterns(self, pattern):
        # aabb: |k> (x) C^2, abab: C^2 (x) |k> (the quadratic vanishes),
        # abba: span{|00>, |11>} and span{|01>, |10>} (two orthogonal roots)
        rng = np.random.default_rng(len(pattern) + ord(pattern[2]))
        for a in (0.05, 0.2, 0.3, 0.45):
            values = {"a": a, "b": 0.5 - a}
            spectrum = [values[c] for c in pattern]
            for u in (np.eye(4), random_local_unitary(rng), random_local_unitary(rng)):
                rho = validate_density(rotated_spectrum(u, spectrum), 2, 2)
                result = product_eigenbasis_check(rho)
                assert result.status is ProductBasis.PRODUCT
                assert len(result.basis) == 4

    def test_double_root_has_one_product_direction(self):
        # span{|00>, (|01> + |10>)/sqrt2}: the quadratic is a nonzero square,
        # so the span holds |00> and no second product vector
        psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        rng = np.random.default_rng(8)
        for u in (np.eye(4), random_local_unitary(rng), random_local_unitary(rng)):
            rho = _eigenspace_state([u @ KET_00, u @ psi])
            assert product_eigenbasis_check(rho).status is ProductBasis.NO

    @pytest.mark.parametrize("single, rest", [(0.0, 1 / 3), (0.1, 0.3), (0.4, 0.2)])
    def test_three_dim_eigenspace(self, single, rest):
        # rank 3 and 3+1 spectra: decided by the 1-dim complement alone
        rng = np.random.default_rng(int(10 * single) + 1)
        for _ in range(10):
            u = random_local_unitary(rng)
            for psi, want in (
                (u[:, 0], ProductBasis.PRODUCT),
                (random_state_vector(rng, 4), ProductBasis.NO),
            ):
                rho = _eigenspace_state([psi], single, rest)
                assert product_eigenbasis_check(rho).status is want

    def test_maximally_mixed_basis_is_computational(self):
        result = product_eigenbasis_check(validate_density(np.eye(4) / 4, 2, 2))
        vectors = np.array([np.kron(a, b) for _, a, b in result.basis]).T
        assert np.array_equal(vectors, np.eye(4))

    def test_verdict_invariance_sweep(self):
        # verdicts of states away from a boundary survive random local
        # unitaries and a 1e-13 Hermitian perturbation
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(8):
            a = float(rng.uniform(0.05, 0.2))
            u = random_local_unitary(rng)
            cases.append((global_aabb(rng, a), ProductBasis.NO))
            for spectrum in ([a, a, 0.5 - a, 0.5 - a], [a, 0.5 - a, a, 0.5 - a], [a, 0.5 - a, 0.5 - a, a]):
                cases.append((rotated_spectrum(u, spectrum), ProductBasis.PRODUCT))
            cases.append((rotated_spectrum(u, [0.0, 1 / 3, 1 / 3, 1 / 3]), ProductBasis.PRODUCT))
            cases.append((rotated_spectrum(random_unitary(rng, 4), [0.4, 0.2, 0.2, 0.2]), ProductBasis.NO))
        for m, want in cases:
            assert product_eigenbasis_check(validate_density(m, 2, 2)).status is want
            for _ in range(3):
                u = random_local_unitary(rng)
                r = u @ m @ u.conj().T
                rotated = validate_density((r + r.conj().T) / 2, 2, 2)
                assert product_eigenbasis_check(rotated).status is want
            perturbed = validate_density(_perturbed(rng, m, 1e-13), 2, 2)
            assert product_eigenbasis_check(perturbed).status is want


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

    @pytest.mark.parametrize("seed", range(3))
    def test_global_aabb_values(self, seed):
        # no product eigenbasis, so the closed form applies: H(lambda) and
        # min(S_A, S_B), with mpmath at 40 digits as the reference
        rng = np.random.default_rng(300 + seed)
        a = float(rng.uniform(0.05, 0.45))
        m = global_aabb(rng, a)
        values = assumed_exact_values(validate_density(m, 2, 2))

        def entropy(probs):
            return -sum(p * mp.log(p, 2) for p in probs if p > 0)

        with mp.workdps(40):
            surplus = entropy([mp.mpf(a)] * 2 + [mp.mpf(0.5) - mp.mpf(a)] * 2)
            local = [
                entropy(mp.eigh(mp.matrix(partial_trace(DensityOperator(m, 2, 2), side).matrix.tolist()),
                                eigvals_only=True))
                for side in ("A", "B")
            ]
        assert values.surplus == pytest.approx(float(surplus), abs=1e-12)
        assert values.reversible_cost == pytest.approx(float(min(local)), abs=1e-12)

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
