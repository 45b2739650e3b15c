"""Closed forms that need only ``math``: the binary entropy and the Bell-mixture curve.

Nothing here imports numpy, so the Bell-mixture formation diagram and its
phase scan run on the standard library alone.
"""

import math

from .curves import EC, ER, INTERMEDIATE, DegenerateFamilyError, ProtocolPoint


def _entropy_bits(x: float) -> float:
    """H(x) for a float x already known to lie in [0, 1]; no check."""
    if x == 0.0 or x == 1.0:
        return 0.0
    # evaluate on the smaller branch; 1 - x is exact for x >= 1/2 (Sterbenz),
    # so H(x) == H(1 - x) whenever the complement is itself representable
    s = x if x <= 0.5 else 1.0 - x
    b = 1.0 - s
    return -(s * math.log2(s)) - (b * math.log2(b))


def _ec_bits(p: float) -> float:
    """E_c of the Bell mixture for a float p already known to lie in [0, 1/2]."""
    # p (1 - p) <= 1/4 after rounding too, so the argument stays in [1/2, 1]
    return _entropy_bits(0.5 + math.sqrt(p * (1.0 - p)))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs a probability, got {x}")
    return _entropy_bits(x)


def bell_mixture_ec(p: float) -> float:
    """Closed-form entanglement cost of the two-Bell-state mixture family."""
    p = float(p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"mixing parameter must lie in [0, 1/2], got {p}")
    return _ec_bits(p)


def bell_formation_points(p: float) -> list[ProtocolPoint]:
    """The three formation protocol points of the Bell-mixture family.

    Minimal-communication endpoint (E_c, 2), split-decomposition point
    (1-2p, 2-2p), reversible endpoint (1, 2-H(p)). Defined on the open
    interval only; the boundary states degenerate to other families.
    """
    p = float(p)
    if not 0.0 < p < 0.5:
        raise DegenerateFamilyError(
            f"formation points need 0 < p < 1/2, got {p}: p=0 is the pure Bell state "
            "(pure-schmidt family), p=1/2 the classical mixture (classical family)"
        )
    # p is checked once here; the entropy kernels below take it as given
    return [
        ProtocolPoint(_ec_bits(p), 2.0, EC, "min-communication"),
        ProtocolPoint(1.0 - 2.0 * p, 2.0 - 2.0 * p, INTERMEDIATE, "split-decomposition"),
        ProtocolPoint(1.0, 2.0 - _entropy_bits(p), ER, "reversible"),
    ]
