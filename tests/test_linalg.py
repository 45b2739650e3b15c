import dataclasses

import mpmath as mp
import numpy as np
import pytest

from infospace import (
    DEFAULT,
    DensityOperator,
    EigenConvergenceError,
    NotHermitian,
    NotPositive,
    PureState,
    Tolerances,
    TraceNotOne,
    bell_mixture,
    hermitian_eigensystem,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    spectrum_probabilities,
    validate_density,
    von_neumann_entropy,
)
from infospace.cli import main
from helpers import (
    BELL_PLUS,
    random_density_matrix,
    random_hermitian,
    random_state_vector,
    random_unitary,
)


def mp_eigenvalues(m) -> list:
    """Eigenvalues of an exactly Hermitian float matrix at 40 digits, ascending."""
    with mp.workdps(40):
        return sorted(mp.eigh(mp.matrix(m.tolist()), eigvals_only=True))


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = PureState(BELL_PLUS, 2, 2).projector()
        for side in ("A", "B"):
            red = partial_trace(rho, side)
            assert np.max(np.abs(red.matrix - np.eye(2) / 2)) < 1e-12

    def test_product_state_factor_recovery(self):
        rng = np.random.default_rng(5)
        sigma = random_density_matrix(rng, 2)
        tau = random_density_matrix(rng, 2)
        rho = DensityOperator(np.kron(sigma, tau), 2, 2)
        assert np.max(np.abs(partial_trace(rho, "A").matrix - sigma)) < 1e-12
        assert np.max(np.abs(partial_trace(rho, "B").matrix - tau)) < 1e-12

    def test_bell_mixture_reduction(self):
        # both Bell components reduce to I/2, so any mixture does too
        red = partial_trace(bell_mixture(0.25), "A")
        assert np.max(np.abs(red.matrix - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for dim_a, dim_b in ((2, 2), (2, 3), (4, 2)):
            rho = DensityOperator(random_density_matrix(rng, dim_a * dim_b), dim_a, dim_b)
            for side in ("A", "B"):
                tr = complex(np.trace(partial_trace(rho, side).matrix))
                assert abs(tr - 1.0) < 1e-10

    def test_schmidt_symmetry(self):
        # both reductions of a pure state carry the same nonzero spectrum
        rng = np.random.default_rng(13)
        for dim_a, dim_b in ((2, 2), (2, 4), (3, 2)):
            psi = PureState(random_state_vector(rng, dim_a * dim_b), dim_a, dim_b)
            wa, _ = hermitian_eigensystem(partial_trace(psi.projector(), "A").matrix)
            wb, _ = hermitian_eigensystem(partial_trace(psi.projector(), "B").matrix)
            k = min(dim_a, dim_b)
            assert np.max(np.abs(np.sort(wa)[::-1][:k] - np.sort(wb)[::-1][:k])) < 1e-9

    def test_bad_selector(self):
        with pytest.raises(ValueError, match="selector"):
            partial_trace(bell_mixture(0.1), "C")


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(17)
        sigma = random_density_matrix(rng, 2)
        tau = random_density_matrix(rng, 2)
        rho = DensityOperator(np.kron(sigma, tau), 2, 2)
        assert np.max(np.abs(partial_transpose(rho) - np.kron(sigma, tau.T))) < 1e-14

    def test_bell_minimum_eigenvalue(self):
        pt = partial_transpose(PureState(BELL_PLUS, 2, 2).projector())
        w, _ = hermitian_eigensystem(pt)
        assert abs(w[0] + 0.5) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_bell_mixture_spectrum(self, p):
        # explicit 4x4 computation gives {1/2, 1/2, 1/2 - p, p - 1/2}
        w, _ = hermitian_eigensystem(partial_transpose(bell_mixture(p)))
        expected = np.sort([0.5, 0.5, 0.5 - p, p - 0.5])
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_involution_is_exact(self):
        rng = np.random.default_rng(19)
        rho = DensityOperator(random_density_matrix(rng, 6), 2, 3)
        once = partial_transpose(rho)
        twice = partial_transpose(DensityOperator(once, 2, 3))
        assert np.array_equal(twice, rho.matrix)

    def test_hermiticity_and_trace_preserved(self):
        rng = np.random.default_rng(23)
        rho = DensityOperator(random_density_matrix(rng, 4), 2, 2)
        pt = partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        assert abs(complex(np.trace(pt)) - 1.0) < 1e-12


class TestEigensystem:
    def test_diagonal(self):
        w, _ = hermitian_eigensystem(np.diag([0.25, 0.75]))
        assert np.array_equal(w, [0.25, 0.75])

    def test_bell_mixture_spectrum(self):
        # rank two by construction, weights p and 1 - p
        w, _ = hermitian_eigensystem(bell_mixture(0.25).matrix)
        assert np.max(np.abs(w - [0.0, 0.0, 0.25, 0.75])) < 1e-12

    def test_pauli_x(self):
        w, v = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.max(np.abs(w - [-1.0, 1.0])) < 1e-14
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_reconstruction_and_residuals(self):
        rng = np.random.default_rng(29)
        for dim in (2, 4, 8, 16):
            m = random_hermitian(rng, dim)
            w, v = hermitian_eigensystem(m)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-8
            assert np.max(np.abs(m @ v - v * w)) < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-9
            # mpmath at 40 digits as an independent oracle on the spectrum
            exact = np.array([float(x) for x in mp_eigenvalues(m)])
            assert np.max(np.abs(w - exact)) < 1e-12

    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize("small", [0.0, 1e-14, 1e-10])
    def test_low_rank_entropy_matches_mpmath(self, dim, small):
        # near-pure and rank-deficient spectra, where only the absolute accuracy
        # of the smallest eigenvalues decides the entropy
        u = random_unitary(np.random.default_rng(dim), dim)
        for head in ([1.0], [0.6, 0.4]):
            p = np.zeros(dim)
            p[: len(head)] = head
            p[0] -= small
            p[len(head)] = small
            m = (u * p) @ u.conj().T
            m = (m + m.conj().T) / 2
            with mp.workdps(40):
                # the package's convention: eigenvalues <= zero_eigenvalue count as 0
                kept = [x for x in mp_eigenvalues(m) if x > DEFAULT.zero_eigenvalue]
                exact = float(-mp.fsum(x * mp.log(x, 2) for x in kept))
            got = von_neumann_entropy(DensityOperator(m, 2, dim // 2))
            assert abs(got - exact) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_certificate_fires(self):
        strict = dataclasses.replace(DEFAULT, eigen_residual=1e-30)
        m = random_hermitian(np.random.default_rng(37), 8)
        with pytest.raises(EigenConvergenceError, match="residual"):
            hermitian_eigensystem(m, strict)

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenConvergenceError):
            hermitian_eigensystem(np.eye(2))
        assert main(["entropy", "--family", "bell-mixture", "--p", "0.25"]) == 2
        assert "did not converge" in capsys.readouterr().err


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4, 2, 2)
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        assert rho.n_qubits == 2

    def test_negative_eigenvalue(self):
        with pytest.raises(NotPositive) as err:
            validate_density(np.diag([0.5, 0.6, -0.1, 0.0]), 2, 2)
        assert abs(err.value.residual - 0.1) < 1e-12

    def test_bell_mixture_matrix(self):
        m = bell_mixture(0.3).matrix
        validate_density(m, 2, 2)

    def test_trace_error_names_residual(self):
        with pytest.raises(TraceNotOne) as err:
            validate_density(np.diag([0.45, 0.0, 0.0, 0.45]), 2, 2)
        assert "residual=0.1" in str(err.value)

    def test_hermiticity_error(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            validate_density(m, 2, 2)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            validate_density(np.eye(128) / 128, 8, 16)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            validate_density(np.eye(4) / 4, 2, 3)


class TestSpectrumProbabilities:
    def test_clips_negative_dust(self):
        w = spectrum_probabilities([-5e-10, 1.0 + 5e-10])
        assert w[0] == 0.0
        assert abs(float(w.sum()) - 1.0) < 1e-9

    def test_renormalizes_moderate_drift(self):
        w = spectrum_probabilities([0.3, 0.7 + 3e-10])
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_keeps_tiny_drift(self):
        w = np.array([0.5, 0.5 + 1e-13])
        out = spectrum_probabilities(w)
        assert np.array_equal(out, w)

    def test_rejects_large_drift(self):
        with pytest.raises(TraceNotOne):
            spectrum_probabilities([0.5, 0.5 + 2e-9])

    def test_rejects_real_negatives(self):
        with pytest.raises(NotPositive):
            spectrum_probabilities([-2e-9, 1.0])

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [0.5, np.nan]])
    def test_rejects_nan(self, w):
        with pytest.raises(TraceNotOne):
            spectrum_probabilities(w)


class TestStateTypes:
    def test_pure_state_norm_check(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 0.5, 0.0, 0.0]), 2, 2)

    def test_pure_state_norm_reads_the_trace_tolerance(self):
        # ||psi||^2 is the trace of |psi><psi|, so there is no separate norm field
        PureState(np.array([np.sqrt(1.0 + DEFAULT.trace / 2), 0.0, 0.0, 0.0]), 2, 2)
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([np.sqrt(1.0 + 2 * DEFAULT.trace), 0.0, 0.0, 0.0]), 2, 2)
        with pytest.raises(TypeError):
            Tolerances(norm=1e-3)

    def test_density_operator_immutable(self):
        rho = bell_mixture(0.2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_qubit_count_requires_power_of_two(self):
        rho = DensityOperator(np.eye(6) / 6, 2, 3)
        with pytest.raises(ValueError, match="powers of two"):
            rho.n_qubits

    def test_schmidt_coefficients_descending(self):
        psi = PureState(np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)]), 2, 2)
        coeffs = schmidt_coefficients(psi)
        assert np.max(np.abs(coeffs**2 - [0.9, 0.1])) < 1e-12

    def test_schmidt_coefficients_resolve_tiny_values(self):
        # locally rotated near-product states: square roots of reduced-state
        # eigenvalues would lift the 1e-12 coefficient to roundoff size ~1e-8
        rng = np.random.default_rng(41)
        c = 1e-12
        for dim_a, dim_b in ((2, 2), (4, 2)):
            core = np.zeros(dim_a * dim_b)
            core[0], core[dim_b + 1] = np.sqrt(1.0 - c * c), c
            u = np.kron(random_unitary(rng, dim_a), random_unitary(rng, dim_b))
            coeffs = schmidt_coefficients(PureState(u @ core, dim_a, dim_b))
            assert coeffs.shape == (dim_a,)
            assert np.max(np.abs(coeffs - np.pad([1.0, c], (0, dim_a - 2)))) < 1e-14
