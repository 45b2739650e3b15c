import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from infospace import (
    DegenerateFamilyError,
    InformationCurve,
    PointKind,
    ProtocolPoint,
    ScanSample,
    bell_formation_points,
    bell_mixture_ec,
    build_lower_envelope,
    chi,
    formation_endpoints,
    phase_scan,
    pure_extraction_line,
)
from infospace.curves import FORMATION_KINDS
from helpers import envelope_at, mp_bell_ec

EC_QUARTER = 0.3545789026652699
I_QUARTER = 1.1887218755408671  # 2 - H(1/4)
SLOPE_QUARTER = -3.438290654959786
CHI_QUARTER = -0.2908421946694602
H_09 = 0.4689955935892812


def bell_curve(p: float) -> InformationCurve:
    return build_lower_envelope(bell_formation_points(p))


class TestProtocolPointType:
    def test_fields_are_frozen(self):
        point = ProtocolPoint(0.5, 1.5, PointKind.FORMATION_INTERMEDIATE, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.q = 0.25
        assert point.q == 0.5

    @pytest.mark.parametrize("field", ["q", "i"])
    def test_replace_runs_the_checks(self, field):
        point = ProtocolPoint(0.5, 1.5, PointKind.FORMATION_INTERMEDIATE, "x")
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(point, **{field: math.nan})
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(point, **{field: -0.1})
        assert dataclasses.replace(point, label="y").label == "y"

    def test_eq_hash_and_repr_follow_the_fields(self):
        kind = PointKind.FORMATION_ENDPOINT_EC
        point = ProtocolPoint(0.5, 1.5, kind, "x")
        assert point == ProtocolPoint(0.5, 1.5, kind, "x") == ProtocolPoint(q=0.5, i=1.5, kind=kind, label="x")
        assert point != ProtocolPoint(0.5, 1.5, kind, "y")
        assert hash(point) == hash((0.5, 1.5, kind, "x"))
        assert repr(point) == f"ProtocolPoint(q=0.5, i=1.5, kind={kind!r}, label='x')"
        assert ProtocolPoint(0.0, 2.0, kind).label == ""
        assert [f.name for f in dataclasses.fields(point)] == ["q", "i", "kind", "label"]


class TestFormationEndpoints:
    def test_bell_quarter(self):
        low, high = formation_endpoints(I_QUARTER, 2.0 - I_QUARTER, EC_QUARTER, 1.0)
        assert (low.q, low.i) == pytest.approx((EC_QUARTER, 2.0), abs=1e-9)
        assert (high.q, high.i) == pytest.approx((1.0, I_QUARTER), abs=1e-9)
        assert low.kind is PointKind.FORMATION_ENDPOINT_EC
        assert high.kind is PointKind.FORMATION_ENDPOINT_ER

    def test_pure_state_collapses(self):
        low, high = formation_endpoints(2.0, 0.0, 1.0, 1.0)
        assert (low.q, low.i) == (high.q, high.i) == (1.0, 2.0)

    def test_classically_correlated(self):
        low, high = formation_endpoints(1.0, 0.0, 0.0, 0.0)
        assert (low.q, low.i) == (high.q, high.i) == (0.0, 1.0)

    def test_ordering_violation(self):
        with pytest.raises(ValueError, match="ordering"):
            formation_endpoints(1.0, 0.5, 0.9, 0.3)


class TestLowerEnvelope:
    def test_two_point_segment(self):
        pts = formation_endpoints(I_QUARTER, 2.0 - I_QUARTER, EC_QUARTER, 1.0)
        curve = build_lower_envelope(pts)
        assert curve.envelope == ((EC_QUARTER, 2.0), (1.0, I_QUARTER))
        assert any(p.kind in FORMATION_KINDS for p in curve.points)

    def test_intermediate_vertex_retained(self):
        curve = bell_curve(0.25)
        assert (0.5, 1.5) in curve.envelope
        assert len(curve.envelope) == 3
        # the endpoint chord at q = 0.5 sits well above the retained vertex
        chord = 2.0 + (0.5 - EC_QUARTER) / (1.0 - EC_QUARTER) * (I_QUARTER - 2.0)
        assert chord == pytest.approx(1.8172093295529146, abs=1e-9)

    def test_dominated_point_excluded(self):
        pts = list(formation_endpoints(I_QUARTER, 2.0 - I_QUARTER, EC_QUARTER, 1.0))
        pts.append(ProtocolPoint(0.6, 1.97, PointKind.FORMATION_INTERMEDIATE, "above"))
        curve = build_lower_envelope(pts)
        assert all(v[0] != 0.6 for v in curve.envelope)

    def test_inputs_on_or_above(self):
        pts = bell_formation_points(0.3) + [
            ProtocolPoint(0.7, 1.9, PointKind.FORMATION_INTERMEDIATE),
            ProtocolPoint(0.9, 1.2, PointKind.FORMATION_INTERMEDIATE),
        ]
        curve = build_lower_envelope(pts)
        for p in pts:
            assert p.i >= envelope_at(curve, p.q) - 1e-9

    def test_idempotent(self):
        curve = bell_curve(0.25)
        kinds = [
            PointKind.FORMATION_ENDPOINT_EC,
            PointKind.FORMATION_INTERMEDIATE,
            PointKind.FORMATION_ENDPOINT_ER,
        ]
        again = build_lower_envelope(
            [ProtocolPoint(q, i, k) for (q, i), k in zip(curve.envelope, kinds)]
        )
        assert again.envelope == curve.envelope

    def test_points_keep_the_given_order(self):
        # at p = 1e-17 all three q round to 1 and the reversible point has the lowest i
        pts = bell_formation_points(1e-17)
        assert sorted(pts, key=lambda p: (p.q, p.i)) != pts
        curve = build_lower_envelope(pts)
        assert curve.points == tuple(pts)
        assert build_lower_envelope(curve.points) == curve

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            build_lower_envelope([ProtocolPoint(0.0, 1.0, PointKind.FORMATION_ENDPOINT_EC)])

    def test_formation_requires_endpoints(self):
        pts = [
            ProtocolPoint(0.1, 1.0, PointKind.FORMATION_INTERMEDIATE),
            ProtocolPoint(0.5, 0.5, PointKind.FORMATION_INTERMEDIATE),
        ]
        with pytest.raises(ValueError, match="extreme"):
            build_lower_envelope(pts)

    @pytest.mark.parametrize("kind", [PointKind.FORMATION_ENDPOINT_EC, PointKind.FORMATION_ENDPOINT_ER])
    def test_formation_requires_both_endpoints(self, kind):
        pts = [
            ProtocolPoint(0.1, 1.0, kind),
            ProtocolPoint(0.5, 0.5, PointKind.FORMATION_INTERMEDIATE),
        ]
        with pytest.raises(ValueError, match="extreme"):
            build_lower_envelope(pts)

    @pytest.mark.parametrize("p", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_convex_and_monotone(self, p):
        env = bell_curve(p).envelope
        for (q1, i1), (q2, i2), (q3, i3) in zip(env, env[1:], env[2:]):
            chord = i1 + (q2 - q1) / (q3 - q1) * (i3 - i1)
            assert i2 <= chord + 1e-9
        for (q1, i1), (q2, i2) in zip(env, env[1:]):
            assert i2 <= i1 + 1e-9  # more communication never costs more information


class TestPureExtractionLine:
    def test_bell_state_line(self):
        line = pure_extraction_line(2.0, 1.0)
        assert line.envelope == ((-1.0, 2.0), (0.0, 1.0), (1.0, 0.0))
        kinds = [p.kind for p in line.points]
        assert kinds == [
            PointKind.EXTRACTION_REVERSIBLE,
            PointKind.EXTRACTION_ZERO,
            PointKind.EXTRACTION_DISTILL,
        ]
        assert not any(p.kind in FORMATION_KINDS for p in line.points)

    def test_product_state_degenerates(self):
        line = pure_extraction_line(2.0, 0.0)
        assert line.envelope == ((0.0, 2.0),)

    def test_partially_entangled(self):
        e = H_09
        line = pure_extraction_line(2.0, e)
        assert line.envelope[0] == pytest.approx((-e, 2.0), abs=1e-12)
        assert line.envelope[1] == pytest.approx((0.0, 2.0 - e), abs=1e-12)
        assert line.envelope[2] == pytest.approx((e, 2.0 - 2 * e), abs=1e-12)

    def test_constant_slope(self):
        line = pure_extraction_line(2.0, 1.0)
        for q in (-0.7, -0.2, 0.3, 0.9):
            assert chi(line, q).slope == pytest.approx(-1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="entanglement"):
            pure_extraction_line(2.0, 1.5)
        with pytest.raises(ValueError, match="entanglement"):
            pure_extraction_line(2.0, -0.1)

    def test_saturation_across_parameters(self):
        # every line saturates the one-bit-per-singlet bound on q >= 0
        pairs = [(n, frac * n / 2.0) for n in (1.0, 2.0, 3.0, 4.0, 5.0) for frac in (0.2, 0.5, 0.8, 1.0)]
        assert len(pairs) == 20
        for n, e in pairs:
            line = pure_extraction_line(n, e)
            for q in np.linspace(0.0, e, 12)[1:-1]:
                # the margin I(0) - (I(q) + q) of the bound I(q) + q <= I(0)
                margin = envelope_at(line, 0.0) - (envelope_at(line, q) + q)
                assert abs(margin) <= 1e-9


class TestChi:
    def test_pure_line_everywhere(self):
        line = pure_extraction_line(2.0, 1.0)
        value = chi(line, 0.42)
        assert value.slope == pytest.approx(-1.0, abs=1e-12)
        assert value.chi == pytest.approx(-1.0, abs=1e-12)

    def test_bell_first_segment(self):
        value = chi(bell_curve(0.25), 0.42)
        assert value.slope == pytest.approx(SLOPE_QUARTER, abs=1e-9)
        assert value.chi == pytest.approx(CHI_QUARTER, abs=1e-9)

    def test_flat_segment_infinite_chi(self):
        pts = [
            ProtocolPoint(0.0, 1.0, PointKind.FORMATION_ENDPOINT_EC),
            ProtocolPoint(1.0, 1.0, PointKind.FORMATION_ENDPOINT_ER),
        ]
        value = chi(build_lower_envelope(pts), 0.5)
        assert value.slope == 0.0 and math.isinf(value.chi)

    def test_vertex_needs_side(self):
        curve = bell_curve(0.25)
        with pytest.raises(ValueError, match="side"):
            chi(curve, 0.5)
        left = chi(curve, 0.5, side="left")
        right = chi(curve, 0.5, side="right")
        assert left.slope == pytest.approx(SLOPE_QUARTER, abs=1e-9)
        assert right.slope == pytest.approx((0.5 - 0.8112781244591328) / 0.5, abs=1e-9)

    def test_degenerate_curve(self):
        point = InformationCurve(
            (ProtocolPoint(1.0, 2.0, PointKind.FORMATION_ENDPOINT_EC),),
            ((1.0, 2.0),),
        )
        with pytest.raises(ValueError, match="degenerate"):
            chi(point, 1.0)

    def test_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            chi(bell_curve(0.25), 0.2)

    def test_matches_central_difference(self):
        curve = bell_curve(0.25)
        h = 1e-7
        for q in (0.42, 0.75):
            numeric = (envelope_at(curve, q + h) - envelope_at(curve, q - h)) / (2 * h)
            assert chi(curve, q).slope == pytest.approx(numeric, abs=1e-6)


class TestPhaseScan:
    def test_bell_family_slopes(self):
        result = phase_scan(bell_formation_points, [0.25, 0.4, 0.49])
        slopes = {round(s.p, 2): s.slope for s in result.samples}
        for p, expected in ((0.25, SLOPE_QUARTER), (0.4, -6.749284376304162), (0.49, -52.896248907852986)):
            assert slopes[p] == pytest.approx(expected, abs=1e-6)
        assert result.divergence_flag

    def test_chi_slope_product(self):
        result = phase_scan(bell_formation_points, np.linspace(0.05, 0.49, 23))
        for s in result.samples:
            assert abs(s.chi * s.slope - 1.0) <= 1e-9

    def test_degenerate_boundary_sample(self):
        result = phase_scan(bell_formation_points, [0.0, 0.25])
        first = result.samples[0]
        assert first.degenerate and first.slope == 0.0

    def test_constant_family_never_diverges(self):
        pts = bell_formation_points(0.25)
        result = phase_scan(lambda p: pts, np.linspace(0.1, 0.4, 7))
        slopes = {s.slope for s in result.samples}
        assert len(slopes) == 1
        assert not result.divergence_flag

    @pytest.mark.parametrize("k", range(1, 16))
    def test_steepest_slope_near_half(self, k):
        # the steepest segment joins (E_c, 2) to (1 - 2p, 2 - 2p): slope 2p / (E_c - eps)
        p = 0.5 - 10.0**-k
        sample = phase_scan(bell_formation_points, [p]).samples[0]
        with mp.workdps(60):
            p_mp = mp.mpf(p)
            exact = 2 * p_mp / (mp_bell_ec(p) - (1 - 2 * p_mp))
            assert float(abs((mp.mpf(sample.slope) - exact) / exact)) <= 1e-14

    def test_fixed_q_probe(self):
        result = phase_scan(bell_formation_points, [0.25], probe=0.75)
        sample = result.samples[0]
        assert sample.q_at == 0.75
        assert sample.slope == pytest.approx((0.5 - 0.8112781244591328) / 0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "q, side",
        [
            (EC_QUARTER, "right"),  # first vertex: only a segment to its right
            (0.5, "left"),
            (0.5 + 5e-10, "left"),
            (1.0, "left"),
            (0.42, None),
            (0.75, None),
        ],
    )
    def test_fixed_probe_reads_chi(self, q, side):
        sample = phase_scan(bell_formation_points, [0.25], probe=q).samples[0]
        assert sample.slope == chi(bell_curve(0.25), q, side=side).slope

    def test_steepest_segment_is_first(self):
        result = phase_scan(bell_formation_points, [0.25])
        sample = result.samples[0]
        assert bell_mixture_ec(0.25) < sample.q_at < 0.5


# a seeded grid plus the boundaries and the small p where the split point
# leaves the envelope (below p ~ 0.03 it has two vertices, not three)
SCAN_GRID = sorted([*np.random.default_rng(9).uniform(0.0, 0.5, 400), 0.0, 0.01, 0.02, 0.5])


def _reference_chi(slope: float) -> float:
    return math.copysign(math.inf, slope) if slope == 0.0 else 1.0 / slope


def reference_sample(points_for, p: float, probe) -> ScanSample:
    """One scan sample from the public envelope and a max-|slope| segment search."""
    try:
        pts = points_for(p)
    except DegenerateFamilyError:
        return ScanSample(p, 0.0, 0.0, math.inf, True)
    curve = build_lower_envelope(pts)
    env = curve.envelope
    if len(env) < 2:
        return ScanSample(p, env[0][0], 0.0, math.inf, True)
    if probe != "steepest":
        side = "right" if abs(probe - env[0][0]) <= 1e-9 else "left"
        value = chi(curve, probe, side=side)
        return ScanSample(p, probe, value.slope, value.chi)
    slopes = [(v2[1] - v1[1]) / (v2[0] - v1[0]) for v1, v2 in zip(env, env[1:])]
    k = max(range(len(slopes)), key=lambda j: abs(slopes[j]))  # max keeps the first on a tie
    return ScanSample(p, 0.5 * (env[k][0] + env[k + 1][0]), slopes[k], _reference_chi(slopes[k]))


class TestPhaseScanEquivalence:
    def test_steepest_matches_envelope_search(self):
        samples = phase_scan(bell_formation_points, SCAN_GRID).samples
        assert len(samples) == len(SCAN_GRID)
        for sample, p in zip(samples, SCAN_GRID):
            assert sample == reference_sample(bell_formation_points, p, "steepest")
        assert {len(bell_curve(p).envelope) for p in SCAN_GRID if 0.0 < p < 0.5} == {2, 3}

    def test_fixed_probe_matches_chi(self):
        grid = [p for p in SCAN_GRID if not 0.0 < p < 0.5 or bell_mixture_ec(p) < 0.9]
        samples = phase_scan(bell_formation_points, grid, probe=0.9).samples
        for sample, p in zip(samples, grid):
            assert sample == reference_sample(bell_formation_points, p, 0.9)

    def test_probe_on_first_vertex_matches_chi(self):
        for p in SCAN_GRID[1:-1]:
            q = bell_mixture_ec(p)
            (sample,) = phase_scan(bell_formation_points, [p], probe=q).samples
            assert sample == reference_sample(bell_formation_points, p, q)

    @pytest.mark.parametrize("probe", ["steepest", 0.7])
    def test_single_vertex_envelope_is_degenerate(self, probe):
        e = 0.7
        points = formation_endpoints(2.0, 0.0, e, e)  # EC and ER share q
        (sample,) = phase_scan(lambda p: points, [0.3], probe=probe).samples
        assert sample == ScanSample(0.3, e, 0.0, math.inf, True)

    def test_equally_steep_collinear_segments_first_wins(self):
        points = [
            ProtocolPoint(1.0, 1.0, PointKind.FORMATION_ENDPOINT_ER),
            ProtocolPoint(0.5, 1.5, PointKind.FORMATION_INTERMEDIATE),
            ProtocolPoint(0.0, 2.0, PointKind.FORMATION_ENDPOINT_EC),
        ]
        assert build_lower_envelope(points).envelope == ((0.0, 2.0), (0.5, 1.5), (1.0, 1.0))
        (sample,) = phase_scan(lambda p: points, [0.2]).samples
        assert sample == ScanSample(0.2, 0.25, -1.0, -1.0)


class TestScanSample:
    def test_positional_and_keyword_construction(self):
        by_position = ScanSample(0.25, 0.4, -3.0, -1 / 3)
        by_keyword = ScanSample(p=0.25, q_at=0.4, slope=-3.0, chi=-1 / 3)
        assert by_position == by_keyword
        assert (by_position.p, by_position.q_at, by_position.slope) == (0.25, 0.4, -3.0)
        assert by_position.degenerate is False
        assert ScanSample(0.0, 0.0, 0.0, math.inf, degenerate=True).degenerate is True

    def test_field_order(self):
        assert ScanSample._fields == ("p", "q_at", "slope", "chi", "degenerate")
        assert tuple(ScanSample(0.1, 0.2, 0.3, 0.4)) == (0.1, 0.2, 0.3, 0.4, False)

    def test_immutable_and_hashable(self):
        sample = ScanSample(0.25, 0.4, -3.0, -1 / 3)
        with pytest.raises(AttributeError):
            sample.slope = 1.0
        assert len({sample, ScanSample(0.25, 0.4, -3.0, -1 / 3)}) == 1


class TestProtocolPoint:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ProtocolPoint(math.nan, 1.0, PointKind.FORMATION_INTERMEDIATE)

    def test_formation_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProtocolPoint(-0.5, 1.0, PointKind.FORMATION_ENDPOINT_EC)

    def test_extraction_may_go_negative(self):
        ProtocolPoint(-1.0, 2.0, PointKind.EXTRACTION_REVERSIBLE)


class TestDegenerateFamily:
    def test_boundaries_raise(self):
        for p in (0.0, 0.5):
            with pytest.raises(DegenerateFamilyError):
                bell_formation_points(p)

    def test_near_pure_limit_consistency(self):
        pts = bell_formation_points(1e-6)
        for p in pts:
            assert abs(p.q - 1.0) < 1e-4
            assert abs(p.i - 2.0) < 1e-4
