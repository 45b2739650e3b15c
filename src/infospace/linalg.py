"""Dense complex-Hermitian linear algebra on small bipartite systems.

Eigensystems come from LAPACK's Hermitian solver. A decomposition itself takes
no tolerances: it records the Hermiticity residual of its input and the
eigenpair residual of its result, and every caller's ``tol`` is checked
against those on every call. A :class:`DensityOperator` is immutable, so it
decomposes its matrix, and the B-side partial transpose of it, at most once,
on first use, and keeps the read-only results. It also keeps its two reduced
states, which store and certify their own decompositions the same way, and a
table of the decisions made about it, as does an
:class:`infospace.ensembles.Ensemble`: every function decorated with
:func:`_decided`, which states the storage rule, stores its result there. A
:class:`PureState` keeps its two reduced states too, built from its
amplitudes with no d x d projector.
"""

import functools
import sys
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


def _hermiticity_residual(a: np.ndarray) -> float:
    """max |M - M^dag| over the entries; 0 for an empty matrix."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def _decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """LAPACK's eigh of the Hermitian part of ``a``, plus its eigenpair residual.

    Takes no tolerances: the residual max|M v - v lambda| is returned for
    :func:`_certified` to check. A LAPACK failure raises
    :class:`EigenConvergenceError`.
    """
    a = (a + a.conj().T) / 2.0  # scrub roundoff asymmetry
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    residual = float(np.max(np.abs(a @ v - v * w))) if a.size else 0.0
    return w, v, residual


def _require_dim(dim: int, tol: Tolerances) -> None:
    if dim > tol.max_dim:
        raise ValueError(f"dimension {dim} exceeds the configured cap of {tol.max_dim}")


def _document_dims(doc, what: str) -> tuple[int, int]:
    """The dims of a state or ensemble file: two positive ints; 2.9, true and "2" are refused."""
    try:
        dims = doc["dims"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc
    pair = isinstance(dims, (list, tuple)) and len(dims) == 2
    if not (pair and all(type(x) is int and x > 0 for x in dims)):
        raise ValueError(
            f"malformed {what} document: dims must be two positive integers, got {dims!r}"
        )
    return dims[0], dims[1]


def _document_numbers(values, what: str) -> None:
    """Refuse nested lists from a state or ensemble file unless every entry is a finite number.

    The float and complex casts that read the files would take "0.5", true and
    NaN, and ``np.asarray(..., dtype=float)`` hides a false among floats.
    """
    pending = [values]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending.extend(reversed(x))
        # type() refuses bools; the comparison is false for NaN, the infinities and huge ints
        elif type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"malformed {what} document: expected a finite number, got {x!r}")


def _require_hermitian(residual: float, tol: Tolerances) -> None:
    if residual > tol.hermiticity:
        raise NotHermitian(residual)


def _certified(decomposition, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and vectors of a decomposition whose residual passes ``tol``."""
    w, v, residual = decomposition
    if residual > tol.eigen_residual:
        raise EigenConvergenceError(
            f"eigenpair residual {residual:.3g} exceeds {tol.eigen_residual:.3g}"
        )
    return w, v


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _stored:
    """Compute an attribute on first read and keep it in the instance dict.

    ``functools.cached_property`` without the class-wide lock it takes on every
    first read before Python 3.12: most operators are read once, and racing
    threads would only compute the same immutable value twice.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Bipartite density matrix plus its subsystem dimensions.

    Construction checks shape compatibility only; run untrusted input through
    :func:`validate_density` to enforce Hermiticity, unit trace and positivity.
    Equality and hashing go by identity. The eigendecompositions of the matrix
    and of its B-side partial transpose are computed at most once each, on
    first use, and certified against the caller's tolerances on every call.
    The two reduced states are built at most once each and are operators of
    their own, so their decompositions are stored and certified alike. Its
    category, product-eigenbasis verdict, closed-form values and, as a mixed
    component, formation cost are stored decisions (see :func:`_decided`).
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
        object.__setattr__(self, "matrix", _read_only(a.copy()))

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

    @_stored
    def _hermiticity(self) -> float:
        return _hermiticity_residual(self.matrix)

    @_stored
    def _decomposition(self):
        w, v, residual = _decompose(self.matrix)
        return _read_only(w), _read_only(v), residual

    @_stored
    def _pt_decomposition(self):
        w, _, residual = _decompose(partial_transpose(self))
        return _read_only(w), None, residual

    @_stored
    def _reduced_a(self) -> "DensityOperator":
        r = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return DensityOperator(np.einsum("ijkj->ik", r), self.dim_a, 1)

    @_stored
    def _reduced_b(self) -> "DensityOperator":
        r = self.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return DensityOperator(np.einsum("ijil->jl", r), 1, self.dim_b)

    @_stored
    def _decisions(self) -> dict:
        """The stored decisions; see :func:`_decided`."""
        return {}

    def eigensystem(self, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
        """Certified eigenvalues (ascending) and eigenvector columns, read-only.

        Same checks and errors as :func:`hermitian_eigensystem` on the matrix.
        """
        _require_hermitian(self._hermiticity, tol)
        return _certified(self._decomposition, tol)

    def partial_transpose_spectrum(self, tol: Tolerances = DEFAULT) -> np.ndarray:
        """Certified eigenvalues (ascending, read-only) of the B-side partial transpose.

        Same checks and errors as :func:`hermitian_eigensystem` on
        ``partial_transpose(rho)``.
        """
        # the partial transpose permutes the entries of M - M^dag, so it has
        # exactly the matrix's Hermiticity residual
        _require_hermitian(self._hermiticity, tol)
        return _certified(self._pt_decomposition, tol)[0]


def _decided(decide):
    """Store what ``decide(obj, tol)`` returns on ``obj``, once per ``tol`` value.

    The one storage rule of every stored decision. ``obj`` is a
    :class:`DensityOperator` or an ``Ensemble``, each with a ``_decisions``
    table, keyed by (decision, ``Tolerances`` value), where the decision is
    the public function this returns. A call with an equal ``tol`` returns
    the stored result itself, a call with any other ``tol`` decides afresh,
    with every check, and a decision that raises stores nothing. Only small
    immutable results go in. ``decide`` takes ``obj`` positional-only and
    ``tol`` defaulting to ``DEFAULT``, like the function returned.
    """

    @functools.wraps(decide)
    def decided(obj, /, tol: Tolerances = DEFAULT):
        key = (decided, tol)
        result = obj._decisions.get(key)
        if result is None:
            result = obj._decisions[key] = decide(obj, tol)
        return result

    return decided


@dataclass(frozen=True, eq=False)
class PureState:
    """Bipartite state vector, unit norm within tolerance; compared by identity.

    Its two reduced states are built at most once each, straight from the
    amplitudes (with M the amplitudes as a dim_a x dim_b matrix, M M^dag and
    M^T conj(M)), and store and certify their decompositions like any
    :class:`DensityOperator`; no d x d projector is formed.
    """

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
        if residual > DEFAULT.trace:
            raise ValueError(f"state vector not normalized, | ||psi||^2 - 1 | = {residual:.3g}")
        object.__setattr__(self, "amplitudes", _read_only(v.copy()))

    @_stored
    def _reduced_a(self) -> DensityOperator:
        m = self.amplitudes.reshape(self.dim_a, self.dim_b)
        return DensityOperator(m @ m.conj().T, self.dim_a, 1)

    @_stored
    def _reduced_b(self) -> DensityOperator:
        m = self.amplitudes.reshape(self.dim_a, self.dim_b)
        return DensityOperator(m.T @ m.conj(), 1, self.dim_b)

    def projector(self) -> DensityOperator:
        """Rank-one density operator |psi><psi|."""
        return DensityOperator(
            np.outer(self.amplitudes, self.amplitudes.conj()), self.dim_a, self.dim_b
        )


def partial_trace(rho: DensityOperator | PureState, keep) -> DensityOperator:
    """Reduced state of the kept subsystem, ``keep`` in {'A', 'B'}; ``rho`` keeps it.

    A :class:`PureState` is taken the same way as an operator, without
    forming its projector.
    """
    side = str(keep).upper()
    if side == "A":
        return rho._reduced_a
    if side == "B":
        return rho._reduced_b
    raise ValueError(f"subsystem selector must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho: DensityOperator) -> np.ndarray:
    """Transpose the B factor; the result may fail positivity."""
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    return np.ascontiguousarray(r.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim))


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
    if a.shape[1] != a.shape[0]:
        raise ValueError(f"eigensystem needs a square matrix, got shape {a.shape}")
    _require_hermitian(_hermiticity_residual(a), tol)
    return _certified(_decompose(a), tol)


def validate_density(m, dim_a: int, dim_b: int, tol: Tolerances = DEFAULT) -> DensityOperator:
    """Check the three density-operator invariants and wrap the matrix.

    Raises :class:`NotHermitian`, :class:`TraceNotOne` or :class:`NotPositive`
    (in that order) with the measured residual on the first violation. The
    positivity check decomposes the returned operator, which keeps the result.
    """
    rho = DensityOperator(m, dim_a, dim_b)
    _require_dim(rho.dim, tol)
    _require_hermitian(rho._hermiticity, tol)
    tr_residual = abs(complex(np.trace(rho.matrix)) - 1.0)
    if tr_residual > tol.trace:
        raise TraceNotOne(tr_residual)
    w, _ = rho.eigensystem(tol)
    if w.size and w[0] < tol.positivity_floor:
        raise NotPositive(-float(w[0]))
    return rho


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
    if not drift < tol.probability_drift:  # NaN fails it
        raise TraceNotOne(drift)
    if drift > tol.renormalize_drift:
        w = w / w.sum()
    return w


def support_projector(rho: DensityOperator, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Projector onto the span of ``rho``'s eigenvectors above the support cutoff."""
    w, v = rho.eigensystem(tol)
    cols = v[:, w > tol.support_cutoff]
    return cols @ cols.conj().T


def schmidt_coefficients(psi: PureState) -> np.ndarray:
    """Schmidt coefficients of a bipartite pure state, descending.

    The singular values of the amplitudes as a dim_a x dim_b matrix, padded
    with zeros to length dim_a.
    """
    s = np.linalg.svd(psi.amplitudes.reshape(psi.dim_a, psi.dim_b), compute_uv=False)
    return np.concatenate([s, np.zeros(psi.dim_a - s.size)])
