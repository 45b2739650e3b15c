import numpy as np
import pytest

from infospace import (
    DEFAULT,
    DegenerateFamilyError,
    DensityOperator,
    PointKind,
    ProductBasis,
    PureState,
    StateCategory,
    bell_formation_points,
    bell_mixture,
    bell_mixture_ec,
    binary_entropy,
    classically_correlated,
    classify,
    hermitian_eigensystem,
    information_content,
    partial_transpose,
    product_eigenbasis_check,
    pure_schmidt,
    pure_state_entanglement,
    validate_density,
    von_neumann_entropy,
)
from helpers import BELL_MINUS, BELL_PLUS, random_local_unitary

EC_QUARTER = 0.3545789026652699


class TestBellMixture:
    def test_pure_endpoint(self):
        rho = bell_mixture(0.0)
        assert np.max(np.abs(rho.matrix - np.outer(BELL_MINUS, BELL_MINUS.conj()))) < 1e-12

    def test_classical_endpoint(self):
        assert np.max(np.abs(bell_mixture(0.5).matrix - np.diag([0.5, 0, 0, 0.5]))) < 1e-15

    def test_quarter_entries_and_spectrum(self):
        rho = bell_mixture(0.25)
        assert rho.matrix[0, 3] == pytest.approx(-0.25)
        assert rho.matrix[0, 0] == pytest.approx(0.5)
        w, _ = hermitian_eigensystem(rho.matrix)
        assert np.max(np.abs(w - [0.0, 0.0, 0.25, 0.75])) < 1e-12

    @pytest.mark.parametrize("p", [-0.1, 0.6])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            bell_mixture(p)

    def test_npt_across_family(self):
        for p in np.linspace(0.0, 0.5, 26):
            w, _ = hermitian_eigensystem(partial_transpose(bell_mixture(p)))
            assert abs(w[0] - (p - 0.5)) < 1e-9
        w, _ = hermitian_eigensystem(partial_transpose(bell_mixture(0.5)))
        assert w[0] >= -1e-12  # PPT exactly at the classical endpoint


class TestBellFormationPoints:
    def test_quarter(self):
        pts = bell_formation_points(0.25)
        coords = [(p.q, p.i) for p in pts]
        assert coords[0] == pytest.approx((EC_QUARTER, 2.0), abs=1e-9)
        assert coords[1] == pytest.approx((0.5, 1.5), abs=1e-12)
        assert coords[2] == pytest.approx((1.0, 2.0 - binary_entropy(0.25)), abs=1e-12)
        assert [p.kind for p in pts] == [
            PointKind.FORMATION_ENDPOINT_EC,
            PointKind.FORMATION_INTERMEDIATE,
            PointKind.FORMATION_ENDPOINT_ER,
        ]

    def test_near_half(self):
        pts = bell_formation_points(0.49)
        assert pts[0].q == pytest.approx(0.0014731664298693015, abs=1e-9)
        assert (pts[1].q, pts[1].i) == pytest.approx((0.02, 1.02), abs=1e-12)
        assert pts[2].i == pytest.approx(2.0 - 0.9997114417528099, abs=1e-9)

    def test_intermediate_strictly_below_chord(self):
        # the split decomposition undercuts mixing the extremes, strictly
        for p in np.arange(0.05, 0.5, 0.05):
            ec = bell_mixture_ec(p)
            q_mid = 1.0 - 2.0 * p
            chord = 2.0 + (q_mid - ec) / (1.0 - ec) * (-binary_entropy(p))
            assert chord - (2.0 - 2.0 * p) > 0.0

    def test_boundary_error_mentions_alternatives(self):
        with pytest.raises(DegenerateFamilyError, match="pure-schmidt"):
            bell_formation_points(0.0)


class TestPureSchmidt:
    def test_single_coefficient(self):
        psi = pure_schmidt([1.0])
        assert (psi.dim_a, psi.dim_b) == (2, 2)
        assert np.array_equal(psi.amplitudes, np.array([1, 0, 0, 0], dtype=complex))

    def test_balanced_pair_is_maximally_entangled(self):
        psi = pure_schmidt([2**-0.5, 2**-0.5])
        assert np.max(np.abs(psi.amplitudes - BELL_PLUS)) < 1e-9
        assert pure_state_entanglement(psi) == pytest.approx(1.0, abs=1e-12)

    def test_skewed_pair(self):
        psi = pure_schmidt([np.sqrt(0.9), np.sqrt(0.1)])
        assert pure_state_entanglement(psi) == pytest.approx(0.4689955935892812, abs=1e-9)

    def test_three_coefficients_embed_in_four(self):
        psi = pure_schmidt([0.6, 0.6, np.sqrt(1 - 2 * 0.36)])
        assert (psi.dim_a, psi.dim_b) == (4, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pure_schmidt([0.9, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            pure_schmidt([0.9, 0.9])

    def test_rejects_nan_before_building_amplitudes(self):
        with pytest.raises(ValueError, match="sum"):
            pure_schmidt([np.nan, 1.0])


class TestClassicallyCorrelated:
    def test_balanced(self):
        rho = classically_correlated([0.5, 0.5])
        assert np.max(np.abs(rho.matrix - np.diag([0.5, 0, 0, 0.5]))) < 1e-15
        assert information_content(rho) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        rho = classically_correlated([1.0, 0.0])
        assert information_content(rho) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sum"):
            classically_correlated([np.nan, 1.0])

    def test_skewed(self):
        rho = classically_correlated([0.25, 0.75])
        assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)
        assert information_content(rho) == pytest.approx(1.1887218755408671, abs=1e-12)


class TestClassify:
    def test_pure_entangled(self):
        from infospace import PureState

        result = classify(PureState(BELL_PLUS, 2, 2).projector())
        assert result.category is StateCategory.PURE_ENTANGLED
        assert result.purity == pytest.approx(1.0, abs=1e-12)

    def test_pure_product(self):
        result = classify(pure_schmidt([1.0]).projector())
        assert result.category is StateCategory.PURE_PRODUCT

    def test_bell_mixture_is_npt(self):
        result = classify(bell_mixture(0.25))
        assert result.category is StateCategory.MIXED_NPT
        assert result.ppt_min_eig == pytest.approx(-0.25, abs=1e-9)
        assert result.product_eigenbasis == "no"

    def test_classical_boundary(self):
        result = classify(bell_mixture(0.5))
        assert result.category is StateCategory.CLASSICALLY_CORRELATED
        assert result.product_eigenbasis == "product"

    def test_skewed_classical(self):
        assert (
            classify(classically_correlated([0.3, 0.7])).category
            is StateCategory.CLASSICALLY_CORRELATED
        )

    def test_maximally_mixed_is_ppt(self):
        # product basis exists, but its labels repeat on both sides: this is
        # uncorrelated noise, not one-to-one classical correlation
        result = classify(validate_density(np.eye(4) / 4, 2, 2))
        assert result.category is StateCategory.MIXED_PPT
        assert result.product_eigenbasis == "product"

    def test_swap_invariance(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        for p in (0.1, 0.3, 0.5):
            rho = bell_mixture(p)
            swapped = validate_density(swap @ rho.matrix @ swap.T, 2, 2)
            assert classify(swapped).category is classify(rho).category

    def test_larger_dims_restricted_categories(self):
        rho = DensityOperator(np.eye(8) / 8, 2, 4)
        result = classify(rho)
        assert result.category is StateCategory.MIXED_PPT
        assert result.product_eigenbasis == "not-checked"

    @pytest.mark.parametrize("c2", [1e-10, 5e-10, 8e-10, 1.2e-9, 2e-9, 1e-8, 1e-6, 1e-3])
    def test_pure_verdict_matches_product_eigenbasis(self, c2):
        # both paths decide "product" by the second Schmidt coefficient against
        # tol.schmidt; the entanglement entropy, ~c2^2 log(1/c2^2), reads 1e-6 as 0
        rng = np.random.default_rng(int(-np.log10(c2)))
        psi = pure_schmidt([np.sqrt(1.0 - c2 * c2), c2])
        for _ in range(5):
            rotated = PureState(random_local_unitary(rng) @ psi.amplitudes, 2, 2)
            rho = validate_density(rotated.projector().matrix, 2, 2)
            product = product_eigenbasis_check(rho).status is ProductBasis.PRODUCT
            assert product is (c2 <= DEFAULT.schmidt)
            expected = StateCategory.PURE_PRODUCT if product else StateCategory.PURE_ENTANGLED
            assert classify(rho).category is expected
