import math
import tracemalloc

import numpy as np
import pytest

from infospace import bell_mixture, load_state, state_from_dict, state_to_dict
from infospace.curves import PointKind, ProtocolPoint, build_lower_envelope
from infospace.serialize import dump_state, fmt, fnum, points_csv


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(0.8112781244591328) == "0.811278124"
        assert fmt(1.1887218755408671) == "1.18872188"

    def test_integers_stay_clean(self):
        assert fmt(2) == "2"
        assert fmt(2.0) == "2"
        assert fmt(1.0) == "1"
        assert fmt(np.int64(3)) == "3" and fmt(np.uint8(7)) == "7"  # numbers.Integral

    def test_negative_zero_normalized(self):
        assert fmt(-0.0) == "0"

    def test_specials(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(math.nan) == "nan"
        assert fmt(-math.nan) == "nan"

    def test_tiny_values_fall_back_to_scientific(self):
        assert fmt(2.220446049250313e-16) == "2.22044605e-16"

    @pytest.mark.parametrize(
        "x, text",
        [
            (1 / 3, "0.333333333"),
            (123456789012.0, "1.23456789e+11"),
            (5e-324, "4.94065646e-324"),
            (np.float64(0.8112781244591328), "0.811278124"),
            (np.float64(2.0), "2"),
            (np.float64(-0.0), "0"),
            (np.float32(0.1), "0.100000001"),
            (np.float32(-0.0), "0"),
            (True, "1"),
            (False, "0"),
            (np.int64(-5), "-5"),
            (np.int64(2**40), "1099511627776"),
            (-0.0, "0"),
            (math.nan, "nan"),
            (np.float64("nan"), "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (np.float64("-inf"), "-inf"),
        ],
    )
    def test_rendering_by_type(self, x, text):
        # the plain-float fast path and the Integral branch must agree with float(x)
        assert fmt(x) == text

    def test_fnum_round_trips(self):
        assert fnum(0.8112781244591328) == 0.811278124


class TestStateFile:
    def test_round_trip_exact(self, tmp_path):
        rho = bell_mixture(0.3)
        path = tmp_path / "state.json"
        dump_state(rho, str(path))
        back = load_state(str(path))
        assert np.array_equal(back.matrix, rho.matrix)
        assert (back.dim_a, back.dim_b) == (2, 2)

    def test_document_shape(self):
        doc = state_to_dict(bell_mixture(0.25))
        assert doc["dims"] == [2, 2]
        assert len(doc["matrix_re"]) == 4 and len(doc["matrix_re"][0]) == 4
        assert doc["matrix_re"][0][3] == -0.25
        assert doc["matrix_im"][0][3] == 0.0

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            state_from_dict({"dims": [2, 2]})

    def test_mismatched_parts(self):
        doc = state_to_dict(bell_mixture(0.25))
        doc["matrix_im"] = [[0.0] * 4] * 3
        with pytest.raises(ValueError, match="differs"):
            state_from_dict(doc)

    def test_validation_applies_on_load(self):
        doc = state_to_dict(bell_mixture(0.25))
        doc["matrix_re"][0][0] = 0.4  # breaks the trace
        with pytest.raises(ValueError, match="TraceNotOne"):
            state_from_dict(doc)

    def test_dims_over_the_cap_refused_before_the_arrays(self):
        zeros = [[0] * 256 for _ in range(256)]
        doc = {"dims": [16, 16], "matrix_re": zeros, "matrix_im": zeros}
        cap = "dimension 256 exceeds the configured cap of 64"
        with pytest.raises(ValueError, match=cap):
            state_from_dict(doc)  # imports and first-call caches stay out of the traced run
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=cap):
                state_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 256 x 256 float array alone is 512 KiB
        assert peak < 200_000


class TestCsv:
    def test_points_and_envelope_rows(self):
        pts = [
            ProtocolPoint(0.0, 2.0, PointKind.FORMATION_ENDPOINT_EC, "a"),
            ProtocolPoint(1.0, 1.0, PointKind.FORMATION_ENDPOINT_ER, "b"),
        ]
        curve = build_lower_envelope(pts)
        text = points_csv(pts, [("formation-envelope", curve)])
        lines = text.strip().split("\n")
        assert lines[0] == "kind,label,q,i"
        assert lines[1] == "FormationEndpointEc,a,0,2"
        assert lines[-1] == "EnvelopeVertex,formation-envelope,1,1"
        assert len(lines) == 5
