"""Dense complex-Hermitian linear algebra on small bipartite systems.

Everything here is a pure function on immutable inputs; eigensystems come from
LAPACK's Hermitian solver, each one checked against its eigenpair residual.
"""

from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances


class ValidationError(ValueError):
    """A density-operator invariant failed; carries the measured residual."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"{type(self).__name__} residual={self.residual:.9g}")


class NotHermitian(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class EigenConvergenceError(RuntimeError):
    """The eigensolver failed, or an eigenpair residual exceeded its tolerance."""


def check_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DensityOperator:
    """Bipartite density matrix plus its subsystem dimensions.

    Construction checks shape compatibility only; run untrusted input through
    :func:`validate_density` to enforce Hermiticity, unit trace and positivity.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        a = check_matrix(self.matrix)
        d = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1 or a.shape != (d, d):
            raise ValueError(
                f"matrix shape {a.shape} incompatible with dims ({self.dim_a}, {self.dim_b})"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def n_qubits(self) -> int:
        """Total qubit count log2(dim_a * dim_b); requires power-of-two dims."""
        if not (_is_pow2(self.dim_a) and _is_pow2(self.dim_b)):
            raise ValueError(
                f"qubit count undefined for dims ({self.dim_a}, {self.dim_b}); "
                "subsystem dimensions must be powers of two"
            )
        return (self.dim_a.bit_length() - 1) + (self.dim_b.bit_length() - 1)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class PureState:
    """Bipartite state vector, unit norm within tolerance."""

    amplitudes: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"amplitude vector of length {v.size} incompatible with dims "
                f"({self.dim_a}, {self.dim_b})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        residual = abs(float(np.vdot(v, v).real) - 1.0)
        if residual > DEFAULT.norm:
            raise ValueError(f"state vector not normalized, | ||psi||^2 - 1 | = {residual:.3g}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def projector(self) -> DensityOperator:
        """Rank-one density operator |psi><psi|."""
        return DensityOperator(
            np.outer(self.amplitudes, self.amplitudes.conj()), self.dim_a, self.dim_b
        )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two operators; dimensions multiply."""
    return np.kron(check_matrix(a), check_matrix(b))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state of the kept subsystem, ``keep`` in {'A', 'B'}."""
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    side = str(keep).upper()
    if side == "A":
        return DensityOperator(np.einsum("ijkj->ik", r), rho.dim_a, 1)
    if side == "B":
        return DensityOperator(np.einsum("ijil->jl", r), 1, rho.dim_b)
    raise ValueError(f"subsystem selector must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho: DensityOperator, side) -> np.ndarray:
    """Transpose one tensor factor; the result may fail positivity."""
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    s = str(side).upper()
    if s == "A":
        out = r.transpose(2, 1, 0, 3)
    elif s == "B":
        out = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"transpose side must be 'A' or 'B', got {side!r}")
    return np.ascontiguousarray(out.reshape(rho.dim, rho.dim))


def hermitian_eigensystem(m, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns.

    LAPACK's Hermitian solver (``numpy.linalg.eigh``) on the Hermitian part of
    the input, certified a posteriori: every eigenpair must satisfy
    ``max|M v - v lambda| <= tol.eigen_residual``. Raises
    :class:`EigenConvergenceError` if LAPACK fails or the certificate does not
    hold, and :class:`NotHermitian` for inputs outside the Hermiticity
    tolerance.
    """
    a = check_matrix(m)
    d = a.shape[0]
    if a.shape[1] != d:
        raise ValueError(f"eigensystem needs a square matrix, got shape {a.shape}")
    residual = float(np.max(np.abs(a - a.conj().T))) if d else 0.0
    if residual > tol.hermiticity:
        raise NotHermitian(residual)
    a = (a + a.conj().T) / 2.0  # scrub roundoff asymmetry
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    eig_residual = float(np.max(np.abs(a @ v - v * w))) if d else 0.0
    if eig_residual > tol.eigen_residual:
        raise EigenConvergenceError(
            f"eigenpair residual {eig_residual:.3g} exceeds {tol.eigen_residual:.3g}"
        )
    return w, v


def validate_density(m, dim_a: int, dim_b: int, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Check the three density-operator invariants and wrap the matrix.

    Raises :class:`NotHermitian`, :class:`TraceNotOne` or :class:`NotPositive`
    (in that order) with the measured residual on the first violation.
    """
    a = check_matrix(m)
    d = dim_a * dim_b
    if dim_a < 1 or dim_b < 1 or a.shape != (d, d):
        raise ValueError(f"matrix shape {a.shape} incompatible with dims ({dim_a}, {dim_b})")
    if d > tol.max_dim:
        raise ValueError(f"dimension {d} exceeds the configured cap of {tol.max_dim}")
    herm = float(np.max(np.abs(a - a.conj().T)))
    if herm > tol.hermiticity:
        raise NotHermitian(herm)
    tr_residual = abs(complex(np.trace(a)) - 1.0)
    if tr_residual > tol.trace:
        raise TraceNotOne(tr_residual)
    w, _ = hermitian_eigensystem(a, tol)
    if w.size and w[0] < tol.positivity_floor:
        raise NotPositive(-float(w[0]))
    return DensityOperator(a, dim_a, dim_b)


def spectrum_probabilities(eigenvalues, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Clip an eigenvalue spectrum into a probability vector.

    Negative roundoff dust above the positivity floor is zeroed; total drift
    beyond ``renormalize_drift`` (but within ``probability_drift``) is
    renormalized away, anything worse raises.
    """
    w = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValueError("empty probability vector")
    if float(w.min()) < tol.positivity_floor:
        raise NotPositive(-float(w.min()))
    w = np.clip(w, 0.0, 1.0)
    drift = abs(float(w.sum()) - 1.0)
    if drift >= tol.probability_drift:
        raise TraceNotOne(drift)
    if drift > tol.renormalize_drift:
        w = w / w.sum()
    return w


def support_projector(m, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Projector onto the span of eigenvectors above the support cutoff."""
    w, v = hermitian_eigensystem(m, tol)
    cols = v[:, w > tol.support_cutoff]
    return cols @ cols.conj().T


def schmidt_coefficients(psi: PureState, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Schmidt coefficients of a bipartite pure state, descending.

    The singular values of the amplitudes as a dim_a x dim_b matrix, padded
    with zeros to length dim_a.
    """
    s = np.linalg.svd(psi.amplitudes.reshape(psi.dim_a, psi.dim_b), compute_uv=False)
    return np.concatenate([s, np.zeros(psi.dim_a - s.size)])
