"""Central numerical tolerance settings shared across the package."""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Single knob for the numerical thresholds used by the toolkit.

    Property tests tweak one instance instead of hunting for magic numbers.
    A few thresholds still live outside it; the README lists them where it
    describes the tolerances. Instances key the stored decisions, so the hash of the field values is
    computed once, at construction.
    """

    hermiticity: float = 1e-10        # max entrywise |M - M^dag|
    trace: float = 1e-10              # |tr(rho) - 1|; also | ||psi||^2 - 1 |, the trace of |psi><psi|
    positivity_floor: float = -1e-9   # smallest admissible eigenvalue
    eigen_residual: float = 1e-9      # |M v - lambda v| per eigenpair (no check groups eigenvalues)
    support_cutoff: float = 1e-10     # eigenvalue > cutoff counts toward the support
    overlap: float = 1e-9             # support-projector overlap certification; also the local
                                      # Bloch vectors of a Bell-diagonal component
    schmidt: float = 1e-9             # second Schmidt coefficient of a product vector; twice
                                      # it bounds a two-qubit correlation block's second
                                      # singular value
    zero_eigenvalue: float = 1e-12    # eigenvalues at or below this are 0 inside entropies
    probability_drift: float = 1e-9   # worst admissible normalization drift
    renormalize_drift: float = 1e-12  # drift above this (and below probability_drift) renormalizes
    purity: float = 1e-9              # 1 - tr(rho^2) threshold for pure classification
    max_dim: int = 64                 # total dimension cap for dense operators

    def __post_init__(self):
        # the value dataclass would hash on every call: the tuple of the fields
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self):
        return self._hash


DEFAULT = Tolerances()
