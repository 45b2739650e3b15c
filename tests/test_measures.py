import math

import mpmath as mp
import numpy as np
import pytest

import infospace.measures
from infospace.measures import _eof_from_concurrence
from infospace import (
    DensityOperator,
    PureState,
    bell_mixture,
    bell_mixture_ec,
    binary_entropy,
    concurrence_2q,
    eof_2q,
    information_content,
    local_entropies,
    measure_report,
    pure_state_entanglement,
    shannon_entropy,
    validate_density,
    von_neumann_entropy,
)
from helpers import (
    BELL_PLUS,
    KET_00,
    mp_bell_ec,
    mp_small_entropy,
    random_density_matrix,
    random_state_vector,
    random_unitary,
)

# frozen against the 40-digit oracle below
H_QUARTER = 0.8112781244591328
EC_QUARTER = 0.3545789026652699
H_09 = 0.4689955935892812


def oracle_binary_entropy(x) -> float:
    """Independent high-precision evaluation of the binary entropy."""
    with mp.workdps(40):
        x = mp.mpf(x)
        if x == 0 or x == 1:
            return 0.0
        return float(-x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2))


class TestBinaryEntropy:
    def test_half_is_maximal(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-12)
        assert binary_entropy(0.25) == pytest.approx(oracle_binary_entropy("0.25"), abs=1e-13)

    def test_matches_oracle_on_grid(self):
        for k in range(1, 100):
            x = k / 100
            assert binary_entropy(x) == pytest.approx(oracle_binary_entropy(x), abs=1e-12)

    def test_symmetry(self):
        # bitwise equality whenever the complement is itself a representable
        # float; elsewhere the defect is the complement's rounding, not ours
        for k in range(1001):
            x = k / 1000
            c = 1.0 - x
            if 1.0 - c == x:
                assert binary_entropy(x) == binary_entropy(c)
            else:
                assert binary_entropy(x) == pytest.approx(binary_entropy(c), abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestShannonEntropy:
    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform(self):
        assert shannon_entropy([0.25] * 4) == 2.0

    def test_matches_binary(self):
        assert shannon_entropy([0.25, 0.75, 0.0, 0.0]) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_normalization_violation(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])

    @pytest.mark.parametrize("p", [[math.nan, 1.0], [0.5, math.nan]])
    def test_nan_rejected(self, p):
        with pytest.raises(ValueError):
            shannon_entropy(p)


class TestVonNeumannEntropy:
    def test_pure_states_vanish(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            psi = PureState(random_state_vector(rng, 4), 2, 2)
            assert abs(von_neumann_entropy(psi.projector())) < 1e-9

    def test_maximally_mixed(self):
        assert von_neumann_entropy(validate_density(np.eye(4) / 4, 2, 2)) == 2.0

    def test_bell_mixture(self):
        assert von_neumann_entropy(bell_mixture(0.25)) == pytest.approx(H_QUARTER, abs=1e-12)


class TestInformationContent:
    def test_two_qubit_pure(self):
        assert information_content(PureState(BELL_PLUS, 2, 2).projector()) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_pure_noise_has_none(self):
        assert information_content(validate_density(np.eye(4) / 4, 2, 2)) == 0.0

    def test_bell_mixture(self):
        assert information_content(bell_mixture(0.25)) == pytest.approx(
            2.0 - H_QUARTER, abs=1e-12
        )

    def test_requires_power_of_two_dims(self):
        rho = DensityOperator(np.eye(6) / 6, 2, 3)
        with pytest.raises(ValueError, match="powers of two"):
            information_content(rho)

    def test_additive_over_tensor_products(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            a = DensityOperator(random_density_matrix(rng, 4), 2, 2)
            b = DensityOperator(random_density_matrix(rng, 4), 2, 2)
            joint = DensityOperator(np.kron(a.matrix, b.matrix), 4, 4)
            lhs = information_content(joint)
            rhs = information_content(a) + information_content(b)
            assert abs(lhs - rhs) < 1e-9


class TestLocalEntropies:
    def test_bell_state(self):
        s_a, s_b = local_entropies(PureState(BELL_PLUS, 2, 2).projector())
        assert (s_a, s_b) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_product_pure(self):
        s_a, s_b = local_entropies(PureState(KET_00, 2, 2).projector())
        assert abs(s_a) < 1e-9 and abs(s_b) < 1e-9

    def test_bell_mixture(self):
        assert local_entropies(bell_mixture(0.25)) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(41)
        states = [DensityOperator(random_density_matrix(rng, 4), 2, 2) for _ in range(10)]
        states += [bell_mixture(p) for p in (0.0, 0.2, 0.5)]
        for rho in states:
            s_a, s_b = local_entropies(rho)
            assert von_neumann_entropy(rho) <= s_a + s_b + 1e-9


class TestPureStateEntanglement:
    def test_bell(self):
        assert pure_state_entanglement(PureState(BELL_PLUS, 2, 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product(self):
        assert pure_state_entanglement(PureState(KET_00, 2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_09(self):
        psi = PureState(np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)]), 2, 2)
        assert pure_state_entanglement(psi) == pytest.approx(H_09, abs=1e-9)
        assert pure_state_entanglement(psi) == pytest.approx(oracle_binary_entropy("0.9"), abs=1e-9)

    def test_side_symmetric(self):
        rng = np.random.default_rng(43)
        psi = PureState(random_state_vector(rng, 4), 2, 2)
        s_a, s_b = local_entropies(psi.projector())
        assert pure_state_entanglement(psi) == pytest.approx(s_a, abs=1e-9)
        assert abs(s_a - s_b) < 1e-9


def brute_force_concurrence(rho: np.ndarray) -> float:
    """Direct spin-flip route: eigenvalues of rho rho~ via a general solver."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    flipped = yy @ rho.conj() @ yy
    evals = np.linalg.eigvals(rho @ flipped)
    lam = np.sqrt(np.abs(np.sort(evals.real)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence_2q(PureState(BELL_PLUS, 2, 2).projector()) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_maximally_mixed(self):
        assert concurrence_2q(validate_density(np.eye(4) / 4, 2, 2)) == 0.0

    def test_bell_mixture(self):
        # Bell-diagonal closed form: C = 2 max eigenvalue - 1 = 1 - 2p
        assert concurrence_2q(bell_mixture(0.25)) == pytest.approx(0.5, abs=1e-9)
        assert brute_force_concurrence(bell_mixture(0.25).matrix) == pytest.approx(0.5, abs=1e-9)

    def test_matches_brute_force(self):
        # the direct route sqrts near-zero eigenvalues of rho rho~, so its own
        # noise floor sits near sqrt(eps); compare at that level
        rng = np.random.default_rng(47)
        for _ in range(20):
            m = random_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
            rho = DensityOperator(m, 2, 2)
            assert concurrence_2q(rho) == pytest.approx(brute_force_concurrence(m), abs=5e-8)

    def test_matches_brute_force_full_rank(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            m = 0.8 * random_density_matrix(rng, 4) + 0.2 * np.eye(4) / 4
            rho = DensityOperator(m, 2, 2)
            assert concurrence_2q(rho) == pytest.approx(brute_force_concurrence(m), abs=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(53)
        rho = bell_mixture(0.15)
        base = concurrence_2q(rho)
        for _ in range(8):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = validate_density(u @ rho.matrix @ u.conj().T, 2, 2)
            assert abs(concurrence_2q(rotated) - base) < 1e-9

    def test_wrong_dimensions(self):
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence_2q(DensityOperator(np.eye(6) / 6, 2, 3))


class TestEof:
    def test_separable(self):
        rho = validate_density(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)
        assert eof_2q(rho) == 0.0

    def test_bell_state(self):
        assert eof_2q(PureState(BELL_PLUS, 2, 2).projector()) == pytest.approx(1.0, abs=1e-9)

    def test_bell_mixture(self):
        assert eof_2q(bell_mixture(0.25)) == pytest.approx(EC_QUARTER, abs=1e-9)


class TestBellMixtureEc:
    def test_pure_limit(self):
        assert bell_mixture_ec(0.0) == 1.0

    def test_separable_limit(self):
        assert bell_mixture_ec(0.5) == 0.0

    def test_quarter(self):
        assert bell_mixture_ec(0.25) == pytest.approx(EC_QUARTER, abs=1e-12)
        x = mp.mpf("0.5") + mp.sqrt(mp.mpf("0.25") * mp.mpf("0.75"))
        assert bell_mixture_ec(0.25) == pytest.approx(oracle_binary_entropy(x), abs=1e-12)

    @pytest.mark.parametrize("p", [-0.01, 0.51, 1.0])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            bell_mixture_ec(p)

    def test_oracle_equivalence_grid(self):
        # two routes to the same number: spin-flip concurrence vs closed form
        for p in np.linspace(0.0, 0.5, 50):
            assert abs(eof_2q(bell_mixture(p)) - bell_mixture_ec(p)) <= 1e-9


def relative_error(value: float, exact) -> float:
    return float(abs((mp.mpf(value) - exact) / exact))


# 10^-k from both ends; the closed forms cancel near p = 1/2 and C = 0 unless
# their smaller branch is formed without subtraction
_NEAR = [10.0**-k for k in range(1, 17)]


class TestRelativeAccuracyAtTheEnds:
    """Relative error against 60-digit references, bounded at 1e-14."""

    @pytest.mark.parametrize("d", _NEAR)
    def test_bell_mixture_ec(self, d):
        with mp.workdps(60):
            for p in (0.5 - d, d):
                assert relative_error(bell_mixture_ec(p), mp_bell_ec(p)) <= 1e-14

    @pytest.mark.parametrize("d", _NEAR + [1e-30, 1e-100, 1e-300])
    def test_binary_entropy(self, d):
        with mp.workdps(60):
            assert relative_error(binary_entropy(d), mp_small_entropy(mp.mpf(d))) <= 1e-14
            # 1 - d rounds, so the reference takes the complement of what x holds
            x = 1.0 - d
            if x < 1.0:
                exact = mp_small_entropy(1 - mp.mpf(x))
                assert relative_error(binary_entropy(x), exact) <= 1e-14

    @pytest.mark.parametrize("d", _NEAR)
    def test_eof_from_concurrence(self, d):
        with mp.workdps(60):
            for c in (d, 1.0 - d):
                c_mp = mp.mpf(c)
                s = c_mp**2 / (2 * (1 + mp.sqrt(1 - c_mp**2)))
                assert relative_error(_eof_from_concurrence(c), mp_small_entropy(s)) <= 1e-14


class TestMeasureReport:
    def test_bell_mixture_report(self):
        rep = measure_report(bell_mixture(0.25))
        assert rep.n == 2
        assert rep.info == rep.n - rep.s_total  # identity by construction
        assert rep.s_total == pytest.approx(H_QUARTER, abs=1e-12)
        assert rep.concurrence == pytest.approx(0.5, abs=1e-9)
        assert rep.eof == pytest.approx(EC_QUARTER, abs=1e-9)
        assert rep.ppt_min_eig == pytest.approx(-0.25, abs=1e-9)

    def test_ranges(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            rho = DensityOperator(random_density_matrix(rng, 4), 2, 2)
            rep = measure_report(rho)
            assert 0.0 <= rep.s_total <= rep.n + 1e-9
            assert 0.0 <= rep.s_a <= 1.0 + 1e-9
            assert 0.0 <= rep.s_b <= 1.0 + 1e-9

    def test_concurrence_evaluated_once(self, monkeypatch):
        calls = []
        concurrence = infospace.measures.concurrence_2q

        def counted(rho, tol):
            calls.append(rho)
            return concurrence(rho, tol)

        monkeypatch.setattr(infospace.measures, "concurrence_2q", counted)
        rep = measure_report(bell_mixture(0.25))
        assert len(calls) == 1
        assert rep.eof == pytest.approx(EC_QUARTER, abs=1e-9)

    def test_larger_dims_skip_two_qubit_fields(self):
        rho = DensityOperator(np.eye(8) / 8, 2, 4)
        rep = measure_report(rho)
        assert rep.concurrence is None and rep.eof is None
        assert rep.n == 3
