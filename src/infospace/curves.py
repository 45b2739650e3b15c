"""Resource curves in information space.

A protocol point is an achievable (Q, I) pair: qubits of quantum
communication against bits of information. Probabilistic mixing makes the
achievable set chord-closed, so the boundary of interest is the lower convex
hull over Q, computed in one place (``_formation_hull``) for both
``build_lower_envelope`` and ``phase_scan``. Formation resources are stored
as nonnegative magnitudes; the plotting convention that draws them in the
lower-left quadrant is applied only at render time.
"""

import bisect
import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence


class PointKind(enum.Enum):
    FORMATION_ENDPOINT_EC = "FormationEndpointEc"
    FORMATION_ENDPOINT_ER = "FormationEndpointEr"
    FORMATION_INTERMEDIATE = "FormationIntermediate"
    EXTRACTION_ZERO = "ExtractionZero"
    EXTRACTION_DISTILL = "ExtractionDistill"
    EXTRACTION_REVERSIBLE = "ExtractionReversible"


# module constants: each PointKind.X read is a class attribute lookup that costs
# about 0.1 us, several times per phase-scan sample
EC = PointKind.FORMATION_ENDPOINT_EC
ER = PointKind.FORMATION_ENDPOINT_ER
INTERMEDIATE = PointKind.FORMATION_INTERMEDIATE
FORMATION_KINDS = frozenset({EC, ER, INTERMEDIATE})

_VERTEX_SNAP = 1e-9  # distance below which a probe counts as sitting on a vertex


class DegenerateFamilyError(ValueError):
    """A family parameter where the curve collapses to a point or line."""


@dataclass(frozen=True)
class ProtocolPoint:
    """One achievable (q, i) resource pair with a role tag.

    The checks run in an explicit ``__init__`` that stores the fields itself
    (``dataclass`` keeps a class's own ``__init__``), which saves the
    generated one's separate ``__post_init__`` call; ``dataclasses.replace``
    goes through it too.
    """

    q: float
    i: float
    kind: PointKind
    label: str = ""

    def __init__(self, q: float, i: float, kind: PointKind, label: str = ""):
        if not (math.isfinite(q) and math.isfinite(i)):
            raise ValueError(f"protocol point coordinates must be finite, got ({q}, {i})")
        # the float test first: hashing the enum for the set test runs as Python code
        if (q < -1e-9 or i < -1e-9) and kind in FORMATION_KINDS:
            raise ValueError(f"formation points are nonnegative magnitudes, got ({q}, {i})")
        # a frozen instance refuses setattr; its dict takes the fields directly
        fields = self.__dict__
        fields["q"] = q
        fields["i"] = i
        fields["kind"] = kind
        fields["label"] = label


@dataclass(frozen=True)
class InformationCurve:
    """Protocol points plus their piecewise-linear lower envelope.

    ``envelope`` is an ordered (q, i) vertex list, ascending in q. A curve is
    a formation curve exactly when one of its points has a formation kind.
    """

    points: tuple[ProtocolPoint, ...]
    envelope: tuple[tuple[float, float], ...]


def formation_endpoints(
    info: float, surplus: float, ec: float, er: float
) -> tuple[ProtocolPoint, ProtocolPoint]:
    """Extreme formation points: minimal communication and reversibility.

    Returns ``(ec, info + surplus)`` and ``(er, info)``.
    """
    if surplus < 0.0:
        raise ValueError(f"information surplus must be nonnegative, got {surplus}")
    if ec > er + 1e-12:
        raise ValueError(f"cost ordering violated: ec={ec} exceeds er={er}")
    return (
        ProtocolPoint(ec, info + surplus, EC, "min-communication"),
        ProtocolPoint(er, info, ER, "reversible"),
    )


_BY_Q_THEN_I = operator.attrgetter("q", "i")


def _formation_hull(points: Sequence[ProtocolPoint]) -> list[tuple[float, float]]:
    """The lower convex hull over q of the points, as ascending vertices.

    The one hull routine: :func:`build_lower_envelope` wraps it in a curve,
    and :func:`phase_scan` reads the vertex list directly, so a steepest-probe
    sample builds no :class:`InformationCurve`.
    """
    if len(points) < 2:
        raise ValueError("envelope construction needs at least two protocol points")
    kinds = [p.kind for p in points]
    if EC not in kinds or ER not in kinds:
        raise ValueError("formation envelopes need both extreme points present")
    hull: list[tuple[float, float]] = []
    for p in sorted(points, key=_BY_Q_THEN_I):
        q, i = p.q, p.i
        # one vertex per q: only the lowest point can lie on a function graph
        if hull and hull[-1][0] == q:
            continue
        # pop while the last vertex lies strictly above the chord to (q, i)
        while len(hull) >= 2:
            (q0, i0), (q1, i1) = hull[-2], hull[-1]
            if (q1 - q0) * (i - i0) - (i1 - i0) * (q - q0) >= 0.0:
                break
            hull.pop()
        hull.append((q, i))
    return hull


def build_lower_envelope(points: Sequence[ProtocolPoint]) -> InformationCurve:
    """Formation curve: the lower convex hull over q of the supplied points.

    Chords between achievable points are achievable, so this is the boundary
    of the achievable region. Points exactly on a chord stay as vertices,
    which makes re-running the construction on its own output a no-op. Both
    extreme formation points must be among the inputs, so the curve is a
    formation curve; its points keep the order they were given in. The hull
    itself is :func:`_formation_hull`, shared with :func:`phase_scan`.
    """
    return InformationCurve(tuple(points), tuple(_formation_hull(points)))


class ChiSlope(NamedTuple):
    chi: float
    slope: float


def _segment_slope(v1: tuple[float, float], v2: tuple[float, float]) -> float:
    return (v2[1] - v1[1]) / (v2[0] - v1[0])


def _chi_of_slope(slope: float) -> float:
    if slope == 0.0:
        return math.copysign(math.inf, slope)  # flat segment: divergence flagged as +/-inf
    return 1.0 / slope


def chi(curve: InformationCurve, q: float, side: str | None = None) -> ChiSlope:
    """Susceptibility along the envelope: slope dI/dQ of a segment and 1/slope.

    The envelope is piecewise linear, so the derivative is two-valued at a
    vertex; probing within 1e-9 of one requires ``side`` ('left' or 'right')
    to pick the adjacent segment.
    """
    env = curve.envelope
    if len(env) < 2:
        raise ValueError("degenerate single-point curve has no slope")
    lo, hi = env[0][0], env[-1][0]
    near = next((k for k, v in enumerate(env) if abs(q - v[0]) <= _VERTEX_SNAP), None)
    if near is None:
        if not lo < q < hi:
            raise ValueError(f"q={q} outside the open envelope domain ({lo}, {hi})")
        qs = [v[0] for v in env]
        k = bisect.bisect_right(qs, q)
        slope = _segment_slope(env[k - 1], env[k])
        return ChiSlope(_chi_of_slope(slope), slope)
    if side is None:
        raise ValueError(
            f"q={q} sits on a vertex; pass side='left' or side='right' for the one-sided value"
        )
    if side == "left":
        if near == 0:
            raise ValueError("no segment to the left of the first vertex")
        slope = _segment_slope(env[near - 1], env[near])
    elif side == "right":
        if near == len(env) - 1:
            raise ValueError("no segment to the right of the last vertex")
        slope = _segment_slope(env[near], env[near + 1])
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return ChiSlope(_chi_of_slope(slope), slope)


def pure_extraction_line(n: float, e: float) -> InformationCurve:
    """Constant-slope extraction line of a pure state with entanglement e.

    I(Q) = n - e - Q on Q in [-e, e]: using the channel e times recovers all
    n bits, channel-free extraction leaves n - e, and distilling e singlets
    leaves n - 2e alongside them. One local bit rides on each singlet, so the
    line saturates the complementarity bound with slope -1 throughout.
    """
    if e < 0.0 or e > n / 2.0 + 1e-12:
        raise ValueError(f"entanglement must lie in [0, n/2] = [0, {n / 2}], got {e}")
    pts = (
        ProtocolPoint(-e, n, PointKind.EXTRACTION_REVERSIBLE, "channel-assisted"),
        ProtocolPoint(0.0, n - e, PointKind.EXTRACTION_ZERO, "locc-extraction"),
        ProtocolPoint(e, n - 2.0 * e, PointKind.EXTRACTION_DISTILL, "distillation"),
    )
    vertices: list[tuple[float, float]] = []
    for p in pts:
        if not vertices or vertices[-1] != (p.q, p.i):
            vertices.append((p.q, p.i))
    return InformationCurve(pts, tuple(vertices))


class ScanSample(NamedTuple):
    """Slope probe of one family member."""

    p: float
    q_at: float
    slope: float
    chi: float
    degenerate: bool = False


@dataclass(frozen=True)
class PhaseScanResult:
    """Per-parameter slope/chi samples with a divergence diagnostic."""

    samples: tuple[ScanSample, ...]
    divergence_flag: bool


def phase_scan(
    points_for: Callable[[float], Sequence[ProtocolPoint]],
    p_grid: Sequence[float],
    probe: str | float = "steepest",
    divergence_threshold: float = 50.0,
) -> PhaseScanResult:
    """Sweep a one-parameter family and probe the formation-curve slope.

    ``points_for`` maps a parameter to the family's formation protocol
    points. Their lower hull comes from the routine behind
    :func:`build_lower_envelope`, and the ``"steepest"`` probe reads the
    midpoint of the segment with the largest |slope| (the first on a tie)
    straight off its vertex list. Parameters where the family degenerates to
    a point or line yield slope-0 samples flagged degenerate. The divergence
    flag fires when the final |slope| exceeds the threshold and |slope|
    grows strictly over the last quartile of the grid.
    """
    steepest = probe == "steepest"
    samples: list[ScanSample] = []
    for p in sorted(float(x) for x in p_grid):
        try:
            pts = points_for(p)
        except DegenerateFamilyError:
            samples.append(ScanSample(p, 0.0, 0.0, math.inf, True))
            continue
        env = _formation_hull(pts)
        if len(env) < 2:
            samples.append(ScanSample(p, env[0][0], 0.0, math.inf, True))
            continue
        if steepest:
            # the segment with the largest |slope|; the first one wins a tie
            best_abs = -1.0
            q1, i1 = env[0]
            for q2, i2 in env[1:]:
                segment = (i2 - i1) / (q2 - q1)
                if abs(segment) > best_abs:
                    best_abs = abs(segment)
                    slope = segment
                    q_at = 0.5 * (q1 + q2)
                q1, i1 = q2, i2
        else:
            q_at = float(probe)
            curve = InformationCurve(tuple(pts), tuple(env))
            # chi reads side only on a vertex; the first vertex has only a right segment
            side = "right" if abs(q_at - env[0][0]) <= _VERTEX_SNAP else "left"
            slope = chi(curve, q_at, side=side).slope
        samples.append(ScanSample(p, q_at, slope, _chi_of_slope(slope)))
    live = [abs(s.slope) for s in samples if not s.degenerate]
    flag = False
    if len(live) >= 2 and live[-1] > divergence_threshold:
        tail = live[(3 * len(live)) // 4 :]
        if len(tail) < 2:
            tail = live[-2:]
        flag = all(b > a for a, b in zip(tail, tail[1:]))
    return PhaseScanResult(samples=tuple(samples), divergence_flag=flag)
