"""Closed forms that need only ``math``: the binary entropy and the Bell-mixture curve.

Nothing here imports numpy, so the Bell-mixture formation diagram and its
phase scan run on the standard library alone.
"""

import math

from .curves import EC, ER, INTERMEDIATE, DegenerateFamilyError, ProtocolPoint

_INV_LN2 = 1.0 / math.log(2.0)


def _entropy_bits(s: float) -> float:
    """H(s) on its smaller branch, for a float s already known to lie in [0, 1/2]; no check.

    Below 1/4, log1p keeps the (1 - s) term accurate where 1 - s would round.
    From 1/4 up, H = 1 - [e atanh(e) + log1p(-e^2)/2] / ln 2 with e = 1 - 2s
    exact (Sterbenz), so a value within an ulp of 1 rounds to it.
    """
    if s >= 0.25:
        e = 1.0 - 2.0 * s
        return 1.0 - (e * math.atanh(e) + 0.5 * math.log1p(-e * e)) * _INV_LN2
    if s == 0.0:
        return 0.0
    return -(s * math.log2(s)) - (1.0 - s) * math.log1p(-s) * _INV_LN2


def _ec_bits(p: float) -> float:
    """E_c of the Bell mixture for a float p already known to lie in [0, 1/2].

    E_c = H(1/2 + sqrt(p (1 - p))) (Vidal, Dur and Cirac, PRL 89, 027901 (2002)).
    Its smaller branch is eps^2 / (2 (1 + 2 sqrt(p (1 - p)))), eps = 1 - 2p
    exact for p >= 1/4 (Sterbenz), so nothing cancels as p -> 1/2.
    """
    eps = 1.0 - 2.0 * p
    return _entropy_bits(eps * eps / (2.0 + 4.0 * math.sqrt(p * (1.0 - p))))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs a probability, got {x}")
    # the smaller branch; 1 - x is exact for x >= 1/2 (Sterbenz), so H(x) == H(1 - x)
    # whenever the complement is itself representable
    return _entropy_bits(min(x, 1.0 - x))


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
