import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import infospace
from infospace import (
    bell_mixture,
    dump_state,
    ensemble_to_dict,
    load_state,
    pure_schmidt,
    state_to_dict,
    validate_density,
)
from infospace import cli
from infospace.cli import main
from helpers import global_aabb, split_decomposition

GOLDEN_CURVE_QUARTER = """\
kind,label,q,i
FormationEndpointEc,min-communication,0.354578903,2
FormationIntermediate,split-decomposition,0.5,1.5
FormationEndpointEr,reversible,1,1.18872188
EnvelopeVertex,formation-envelope,0.354578903,2
EnvelopeVertex,formation-envelope,0.5,1.5
EnvelopeVertex,formation-envelope,1,1.18872188
"""

GOLDEN_SCAN = """\
p,q_at,slope,chi
0.2,0.534497797,-3.05333241,-0.327511016
0.25,0.427289451,-3.43829065,-0.290842195
0.3,0.325112456,-4.00600665,-0.249625147
# divergence_flag=false
"""


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class TestEntropy:
    def test_bell_mixture_report(self, capsys):
        code, out, _ = run(["entropy", "--family", "bell-mixture", "--p", "0.25"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["n", "s_total", "s_a", "s_b", "info", "concurrence", "eof", "ppt_min_eig"]
        assert doc["n"] == 2
        assert doc["s_total"] == pytest.approx(0.811278124, abs=1e-9)
        assert doc["info"] == pytest.approx(1.18872188, abs=1e-8)
        assert doc["eof"] == pytest.approx(0.354578903, abs=1e-9)
        assert doc["ppt_min_eig"] == -0.25

    def test_eof_keeps_its_digits_near_half(self, capsys):
        # E_c = 3.466197599e-09 (Vidal, Dur and Cirac); 1 - 2p = 2e-05 cancels in the long branch
        code, out, _ = run(["entropy", "--family", "bell-mixture", "--p", "0.49999"], capsys)
        assert code == 0
        assert '"eof": 3.4661976e-09,' in out

    def test_classical_family(self, capsys):
        code, out, _ = run(["entropy", "--family", "classical", "--probs", "0.5,0.5"], capsys)
        assert code == 0
        assert json.loads(out)["info"] == 1.0

    def test_classical_concurrence_reads_zero(self, capsys):
        # C = 0 for this state; its roundoff, 5.6e-17, must not reach the report
        code, out, _ = run(["entropy", "--family", "classical", "--probs", "0.3,0.7"], capsys)
        assert code == 0
        assert '"concurrence": 0.0,' in out and '"eof": 0.0,' in out

    def test_pure_local_entropies_keep_their_digits(self, capsys):
        # E = 4.794968837e-13 at c2 = 1e-7, where the reduced spectra cut c2^2 at zero_eigenvalue
        code, out, _ = run(["entropy", "--family", "pure-schmidt", "--coeffs", "1,1e-7"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert doc["s_a"] == doc["s_b"] == doc["eof"] == 4.79496884e-13

    def test_pure_schmidt_family(self, capsys):
        code, out, _ = run(
            ["entropy", "--family", "pure-schmidt", "--coeffs", "0.70710678,0.70710678"], capsys
        )
        doc = json.loads(out)
        assert abs(doc["s_total"]) < 1e-9
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_trace_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "matrix_re": (np.diag([0.45, 0, 0, 0.45])).tolist(),
                    "matrix_im": np.zeros((4, 4)).tolist(),
                }
            )
        )
        code, _, err = run(["entropy", "--state", str(bad)], capsys)
        assert code == 1
        assert "TraceNotOne residual=0.1" in err

    def test_ensemble_average_report(self, capsys, tmp_path):
        doc = ensemble_to_dict(split_decomposition(0.25))
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["entropy", "--ensemble", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["s_total"] == pytest.approx(0.811278124, abs=1e-9)

    @pytest.mark.parametrize(
        "components",
        [
            [1],  # an entry that is not an object
            [{"weight": 1.0, "type": "pure"}],  # no data
            [{"weight": 1.0, "type": "pure", "data": [1, 0, 0, 0]}],  # numbers, not (re, im) pairs
            [{"weight": 1.0, "type": "mixed", "data": [[1, 0], [0, 0]]}],  # rows of numbers
            [{"weight": 1.0, "type": "pure", "data": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}],
        ],
    )
    def test_malformed_ensemble_exits_one(self, capsys, tmp_path, components):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"dims": [2, 2], "components": components}))
        code, out, err = run(["entropy", "--ensemble", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("malformed ensemble document: component 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "family, flag, values",
        [("pure-schmidt", "--coeffs", "1e200,1"), ("classical", "--probs", "1e308,1e308")],
    )
    def test_huge_entries_exit_one_without_a_warning(self, capsys, family, flag, values):
        # squaring 1e200 or summing 1e308 + 1e308 would overflow and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["entropy", "--family", family, flag, values], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "must sum to 1, drift inf" in err

    def test_missing_input(self, capsys):
        code, _, err = run(["entropy"], capsys)
        assert code == 1
        assert "select an input" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["entropy", "--state", "/nonexistent/state.json"], capsys)
        assert code == 1


class TestCurve:
    def test_bell_quarter_golden(self, capsys):
        code, out, _ = run(["curve", "--family", "bell-mixture", "--p", "0.25"], capsys)
        assert code == 0
        assert out == GOLDEN_CURVE_QUARTER

    def test_ec_keeps_its_digits_near_half(self, capsys):
        code, out, _ = run(["curve", "--family", "bell-mixture", "--p", "0.49999"], capsys)
        assert code == 0
        assert "FormationEndpointEc,min-communication,3.4661976e-09,2\n" in out
        assert "EnvelopeVertex,formation-envelope,3.4661976e-09,2\n" in out

    def test_pure_entanglement_keeps_its_digits(self, capsys):
        # E = 4.794968837e-13 at c2 = 1e-7; a cut of c2^2 at zero_eigenvalue printed 1.44154193e-14
        code, out, _ = run(["curve", "--family", "pure-schmidt", "--coeffs", "1,1e-7"], capsys)
        assert code == 0
        assert "FormationEndpointEc,min-communication,4.79496884e-13,2\n" in out
        assert "EnvelopeVertex,formation-envelope,4.79496884e-13,2\n" in out

    def test_pure_schmidt_extraction_line(self, capsys):
        code, out, _ = run(
            ["curve", "--family", "pure-schmidt", "--coeffs", "0.70710678,0.70710678"], capsys
        )
        assert code == 0
        env = [r for r in csv_rows(out) if r[0] == "EnvelopeVertex" and r[1] == "extraction-envelope"]
        assert [(float(r[2]), float(r[3])) for r in env] == [(-1.0, 2.0), (0.0, 1.0), (1.0, 0.0)]

    def test_classical_single_point_both_curves(self, capsys):
        code, out, _ = run(["curve", "--family", "classical", "--probs", "0.5,0.5"], capsys)
        rows = csv_rows(out)
        for name in ("formation-envelope", "extraction-envelope"):
            env = [r for r in rows if r[0] == "EnvelopeVertex" and r[1] == name]
            assert [(float(r[2]), float(r[3])) for r in env] == [(0.0, 1.0)]

    def test_no_extraction_flag(self, capsys):
        code, out, _ = run(
            [
                "curve",
                "--family",
                "pure-schmidt",
                "--coeffs",
                "1",
                "--no-include-extraction",
            ],
            capsys,
        )
        assert code == 0
        assert "extraction" not in out

    def test_raw_family_has_no_rules(self, capsys, tmp_path):
        from infospace.serialize import dump_state

        path = tmp_path / "s.json"
        dump_state(bell_mixture(0.25), str(path))
        code, _, err = run(["curve", "--state", str(path)], capsys)
        assert code == 1
        assert "no formation-point rules" in err

    def test_points_print_in_the_family_order(self, capsys):
        # at p = 1e-17 all three q round to 1: a (q, i) sort would put the reversible point first
        code, out, _ = run(["curve", "--family", "bell-mixture", "--p", "1e-17"], capsys)
        assert code == 0
        assert [r[0] for r in csv_rows(out)][:3] == [
            "FormationEndpointEc", "FormationIntermediate", "FormationEndpointEr"
        ]

    def test_unparsable_coefficients_exit_one(self, capsys):
        args = ["curve", "--family", "pure-schmidt", "--coeffs", "0.6,x"]
        assert run(args, capsys) == (1, "", "expected comma-separated numbers, got '0.6,x'\n")

    def test_degenerate_parameter_exits_one(self, capsys):
        code, _, err = run(["curve", "--family", "bell-mixture", "--p", "0"], capsys)
        assert code == 1

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["curve", "--family", "bell-mixture", "--p", "0.25", "--format", "json"], capsys
        )
        doc = json.loads(out)
        assert doc["envelopes"]["formation-envelope"][0] == [0.354578903, 2.0]
        assert len(doc["points"]) == 3

    def test_envelope_revalidates_as_convex(self, capsys):
        code, out, _ = run(["curve", "--family", "bell-mixture", "--p", "0.1"], capsys)
        env = [
            (float(r[2]), float(r[3]))
            for r in csv_rows(out)
            if r[0] == "EnvelopeVertex" and r[1] == "formation-envelope"
        ]
        assert env == sorted(env)
        for (q1, i1), (q2, i2), (q3, i3) in zip(env, env[1:], env[2:]):
            chord = i1 + (q2 - q1) / (q3 - q1) * (i3 - i1)
            assert i2 <= chord + 1e-9

    def test_svg_render(self, capsys, tmp_path):
        svg = tmp_path / "curve.svg"
        code, _, _ = run(
            ["curve", "--family", "pure-schmidt", "--coeffs", "1", "--svg", str(svg)], capsys
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}polyline")) >= 1
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert "Q [qubits]" in texts and "I [bits]" in texts


class TestPhaseScan:
    def test_three_step_golden(self, capsys):
        code, out, _ = run(
            ["phase-scan", "--p-min", "0.2", "--p-max", "0.3", "--steps", "3"], capsys
        )
        assert code == 0
        assert out == GOLDEN_SCAN

    def test_full_sweep_diverges(self, capsys):
        code, out, _ = run(
            ["phase-scan", "--p-min", "0.05", "--p-max", "0.49", "--steps", "45"], capsys
        )
        assert code == 0
        rows = csv_rows(out)
        magnitudes = [abs(float(r[2])) for r in rows]
        assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] == pytest.approx(52.896248907852986, abs=1e-3)
        assert out.strip().endswith("# divergence_flag=true")

    def test_domain_violation(self, capsys):
        code, _, err = run(
            ["phase-scan", "--p-min", "0.6", "--p-max", "0.7", "--steps", "3"], capsys
        )
        assert code == 1
        assert "p_min" in err

    def test_steps_floor(self, capsys):
        code, _, err = run(
            ["phase-scan", "--p-min", "0.1", "--p-max", "0.2", "--steps", "1"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("probe", ["abc", ""])
    def test_unreadable_probe_names_the_flag(self, capsys, probe):
        args = ["phase-scan", "--p-min", "0.2", "--p-max", "0.3", "--steps", "3", "--probe", probe]
        message = f"--probe takes 'steepest' or a number, got {probe!r}\n"
        assert run(args, capsys) == (1, "", message)

    def test_fixed_q_probe(self, capsys):
        code, out, _ = run(
            ["phase-scan", "--p-min", "0.2", "--p-max", "0.3", "--steps", "3", "--probe", "0.75"],
            capsys,
        )
        rows = csv_rows(out)
        assert all(float(r[1]) == 0.75 for r in rows)

    def test_svg_overlay(self, capsys, tmp_path):
        svg = tmp_path / "scan.svg"
        code, _, _ = run(
            [
                "phase-scan",
                "--p-min",
                "0.1",
                "--p-max",
                "0.4",
                "--steps",
                "4",
                "--svg",
                str(svg),
            ],
            capsys,
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 4


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class TestSvgBytes:
    @pytest.mark.parametrize(
        "args, golden",
        [
            (["curve", "--family", "bell-mixture", "--p", "0.25"], "curve_bell_quarter.svg"),
            # formation drawn in the lower-left quadrant, extraction as computed
            (
                ["curve", "--family", "pure-schmidt", "--coeffs", "0.6,0.8"],
                "curve_pure_schmidt.svg",
            ),
            (["curve", "--family", "classical", "--probs", "0.3,0.7"], "curve_classical.svg"),
            (
                ["phase-scan", "--p-min", "0.1", "--p-max", "0.4", "--steps", "5"],
                "phase_scan_five.svg",
            ),
        ],
    )
    def test_svg_bytes_are_pinned(self, args, golden, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run([*args, "--svg", str(svg)], capsys)
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
            assert svg.read_bytes() == fh.read()

    def test_ticks_end_below_the_float_spacing(self):
        from infospace.svgplot import _nice_ticks

        # the step, ~3e-17, is below the spacing of floats near 1: t + step == t
        ticks = _nice_ticks(1 - 1e-16, 1 + 1e-16)
        assert 1 <= len(ticks) <= 7
        assert all(1 - 1e-16 <= t <= 1 + 1e-16 for t in ticks)

    def test_svg_of_a_range_below_the_float_spacing(self, tmp_path):
        # all three q of the Bell mixture at p = 5e-17 lie within ~1e-16 of 1;
        # a child process limits its own address space, and the parent its
        # time, so a tick loop that never ends fails instead of exhausting memory
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from infospace.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        svg = tmp_path / "tiny.svg"
        src = os.path.dirname(os.path.dirname(infospace.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-c", child, "curve", "--family", "bell-mixture", "--p", "5e-17",
               "--svg", str(svg)]
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(cmd, capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        root = ET.parse(svg).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) >= 1

    def test_escape_matches_saxutils(self):
        from xml.sax.saxutils import escape as sax_escape

        from infospace.svgplot import escape

        for text in ["", "plain", "a & b", "<tag>", "q < 1 > 0", "&amp;", "\"quoted\" 'single'",
                     "& < > \" '", "p=0.25 & <x> \"y\" 'z' &&<<>>"]:
            assert escape(text) == sax_escape(text)


class TestClassify:
    def test_bell_mixture(self, capsys):
        code, out, _ = run(["classify", "--family", "bell-mixture", "--p", "0.25"], capsys)
        doc = json.loads(out)
        assert doc["category"] == "MixedNPT"
        assert doc["evidence"]["ppt_min_eig"] == -0.25

    def test_classical_boundary(self, capsys):
        code, out, _ = run(["classify", "--family", "bell-mixture", "--p", "0.5"], capsys)
        assert json.loads(out)["category"] == "ClassicallyCorrelated"

    def test_pure_product(self, capsys):
        code, out, _ = run(["classify", "--family", "pure-schmidt", "--coeffs", "1"], capsys)
        assert json.loads(out)["category"] == "PureProduct"

    def test_dump_state_reloads_to_the_classified_matrix(self, capsys, tmp_path):
        path = tmp_path / "classified.json"
        args = ["classify", "--family", "pure-schmidt", "--coeffs", "0.6,0.8"]
        code, _, _ = run([*args, "--dump-state", str(path)], capsys)
        assert code == 0
        back = load_state(str(path))
        assert (back.dim_a, back.dim_b) == (2, 2)
        assert np.array_equal(back.matrix, pure_schmidt([0.6, 0.8]).projector().matrix)

    def test_global_aabb_state_has_no_product_basis(self, capsys, tmp_path):
        # doubly degenerate spectrum in a Haar-random eigenbasis: decided, not searched
        path = tmp_path / "aabb.json"
        dump_state(validate_density(global_aabb(np.random.default_rng(11), 0.2), 2, 2), str(path))
        code, out, _ = run(["classify", "--state", str(path)], capsys)
        assert code == 0
        assert '"product_eigenbasis": "no"' in out


_MISSING = object()


def _file_with_dims(kind, dims, tmp_path):
    if kind == "state":
        doc = state_to_dict(bell_mixture(0.25))
    else:
        pure = {"weight": 1.0, "type": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        doc = {"dims": [2, 2], "components": [pure]}
    if dims is _MISSING:
        del doc["dims"]
    else:
        doc["dims"] = dims
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocumentDims:
    COMMANDS = {"state": ["classify", "--state"], "ensemble": ["entropy", "--ensemble"]}

    @pytest.mark.parametrize("kind", ["state", "ensemble"])
    @pytest.mark.parametrize(
        "dims",
        # int() per entry would read floats, [true, 4], ["2", "2"] and "22" as dims
        [[2.9, 2.2], [True, 4], ["2", "2"], [2], [0, 4], [2, 2, 1], "22", _MISSING],
        ids=["floats", "bool", "strings", "one", "zero", "three", "string", "missing"],
    )
    def test_malformed_dims_exit_one(self, capsys, tmp_path, kind, dims):
        path = _file_with_dims(kind, dims, tmp_path)
        code, out, err = run([*self.COMMANDS[kind], path], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"malformed {kind} document: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["state", "ensemble"])
    def test_integer_dims_still_load(self, capsys, tmp_path, kind):
        code, out, _ = run([*self.COMMANDS[kind], _file_with_dims(kind, [2, 2], tmp_path)], capsys)
        assert code == 0 and out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


_PURE_COMPONENT = {"weight": 1, "type": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}


def _edited(kind, key, index, value):
    """A valid state or ensemble document with one entry replaced by ``value``."""
    if kind == "state":
        doc = state_to_dict(bell_mixture(0.25))
        doc[key][index[0]][index[1]] = value
        return doc
    component = json.loads(json.dumps(_PURE_COMPONENT))
    if key == "weight":
        component["weight"] = value
    else:
        component["data"][index[0]][index[1]] = value
    return {"dims": [2, 2], "components": [component]}


class TestDocumentNumbers:
    COMMANDS = TestDocumentDims.COMMANDS

    @pytest.mark.parametrize(
        "kind, key, index, value",
        [
            ("state", "matrix_re", (0, 0), "0.5"),
            ("state", "matrix_re", (1, 1), True),
            ("state", "matrix_im", (0, 3), False),  # a cast to float reads it as 0.0
            ("state", "matrix_re", (2, 2), None),
            ("state", "matrix_im", (1, 2), float("nan")),
            ("ensemble", "weight", None, "1"),
            ("ensemble", "weight", None, True),
            ("ensemble", "data", (0, 0), True),
            ("ensemble", "data", (1, 1), False),
            ("ensemble", "data", (2, 0), float("inf")),
        ],
        ids=[
            "re-string", "re-true", "im-false", "re-null", "im-nan",
            "weight-string", "weight-true", "re-true-pair", "im-false-pair", "re-inf-pair",
        ],
    )
    def test_non_numbers_exit_one(self, capsys, tmp_path, kind, key, index, value):
        path = _write(tmp_path, f"{kind}.json", _edited(kind, key, index, value))
        code, out, err = run([*self.COMMANDS[kind], path], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"malformed {kind} document: expected a finite number, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, key", [("state", "matrix_re"), ("ensemble", "data")])
    def test_int_beyond_the_float_range_exits_one(self, capsys, tmp_path, kind, key):
        path = _write(tmp_path, f"{kind}.json", _edited(kind, key, (3, 1), 10**400))
        code, out, err = run([*self.COMMANDS[kind], path], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"malformed {kind} document: ") and err.count("\n") == 1

    def test_integer_entries_still_load(self, capsys, tmp_path):
        zeros = [[0] * 4 for _ in range(4)]
        state = {"dims": [2, 2], "matrix_re": [[1, 0, 0, 0]] + zeros[1:], "matrix_im": zeros}
        code, out, _ = run(["classify", "--state", _write(tmp_path, "s.json", state)], capsys)
        assert code == 0 and json.loads(out)["category"] == "PureProduct"
        ensemble = {"dims": [2, 2], "components": [_PURE_COMPONENT]}
        code, out, _ = run(["entropy", "--ensemble", _write(tmp_path, "e.json", ensemble)], capsys)
        assert code == 0 and json.loads(out)["s_total"] == 0


class TestMalformedDocuments:
    COMMANDS = TestDocumentDims.COMMANDS

    @pytest.mark.parametrize("kind", ["state", "ensemble"])
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            "x",
            {"dims": [2, 2]},
            {"dims": {"a": 2, "b": 2}},
            {"dims": [2, 2], "components": {}, "matrix_re": {}, "matrix_im": {}},
            {"dims": [2, 2], "components": [{"weight": 1, "type": "pure", "data": {}}]},
        ],
        ids=["list", "empty", "string", "dims-only", "dict-dims", "dict-parts", "dict-data"],
    )
    def test_exit_one_as_input_errors(self, capsys, tmp_path, kind, doc):
        # each one is refused by a check that raises ValueError, none by a stray KeyError
        code, out, err = run([*self.COMMANDS[kind], _write(tmp_path, "doc.json", doc)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1


# one input per row of cli._FAMILIES; STATE stands for a dumped state file
FAMILY_SAMPLES = {
    "bell-mixture": ["--family", "bell-mixture", "--p", "0.25"],
    "pure-schmidt": ["--family", "pure-schmidt", "--coeffs", "0.6,0.8"],
    "classical": ["--family", "classical", "--probs", "0.3,0.7"],
    "raw": ["--family", "raw", "--state", "STATE"],
}


class TestFamilySelection:
    def test_every_row_has_a_sample(self):
        assert set(FAMILY_SAMPLES) == set(cli._FAMILIES)

    @pytest.mark.parametrize("command", ["entropy", "classify", "curve"])
    @pytest.mark.parametrize("family", FAMILY_SAMPLES)
    def test_every_row_reaches_every_subcommand(self, capsys, tmp_path, command, family):
        path = str(tmp_path / "s.json")
        dump_state(bell_mixture(0.25), path)
        args = [path if a == "STATE" else a for a in FAMILY_SAMPLES[family]]
        code, out, err = run([command, *args], capsys)
        if (command, family) == ("curve", "raw"):
            message = "no formation-point rules for raw states; use the entropy or classify commands"
            assert (code, out, err) == (1, "", message + "\n")
        else:
            assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", ["entropy", "curve", "classify"])
    @pytest.mark.parametrize(
        "args, message",
        [
            ([], "select an input with --family or --state"),
            (["--family", "bell-mixture"], "family bell-mixture needs --p"),
            (["--family", "pure-schmidt"], "family pure-schmidt needs --coeffs"),
            (["--family", "classical"], "family classical needs --probs"),
            (["--family", "raw"], "family raw needs --state FILE"),
        ],
        ids=["none", "bell-mixture", "pure-schmidt", "classical", "raw"],
    )
    def test_missing_parameter_exits_one(self, capsys, command, args, message):
        assert run([command, *args], capsys) == (1, "", message + "\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["entropy", "--family", "pure-schmidt", "--coeffs", "0.6,0.8", "--state", "STATE"],
            ["curve", "--family", "bell-mixture", "--p", "0.2", "--coeffs", "1,0"],
            ["classify", "--state", "STATE", "--probs", "0.5,0.5"],
            ["entropy", "--ensemble", "ENSEMBLE", "--state", "STATE"],
            ["entropy", "--ensemble", "ENSEMBLE", "--family", "bell-mixture", "--p", "0.2"],
            ["entropy", "--ensemble", "ENSEMBLE", "--family", "bell-mixture"],
            ["entropy", "--ensemble", "ENSEMBLE", "--family", "raw"],
        ],
        ids=[
            "coeffs-state", "p-coeffs", "state-probs", "ensemble-state", "ensemble-p",
            "ensemble-family", "ensemble-raw",
        ],
    )
    def test_conflicting_inputs_exit_one(self, capsys, tmp_path, args):
        # a second input is refused, not ignored
        state = str(tmp_path / "s.json")
        dump_state(bell_mixture(0.25), state)
        ensemble = _write(tmp_path, "e.json", ensemble_to_dict(split_decomposition(0.25)))
        argv = [{"STATE": state, "ENSEMBLE": ensemble}.get(a, a) for a in args]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses two flags of one group
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (1, "") and err.count("\n") == 1

    def test_negative_coefficient_in_the_equals_form(self, capsys):
        # argparse reads "--coeffs -1,1" as an option; "--coeffs=-1,1" reaches pure_schmidt
        args = ["entropy", "--family", "pure-schmidt", "--coeffs=-1,1"]
        assert run(args, capsys) == (1, "", "Schmidt coefficients must be nonnegative, got -1.0\n")

    @pytest.mark.parametrize("command", ["entropy", "curve", "classify"])
    def test_unknown_family_exits_one(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "ghz", "--p", "0.25"])
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        # how argparse quotes the list of choices after this prefix varies by version
        prefix = f"infospace {command}: error: argument --family: invalid choice: 'ghz'"
        assert err.startswith(prefix) and err.count("\n") == 1


def _repeat(x, n):
    return ",".join([repr(x)] * n)


class TestDimensionCap:
    # nine labels embed in 16 (x) 16, dimension 256, above Tolerances.max_dim = 64
    CAP = "dimension 256 exceeds the configured cap of 64\n"

    @pytest.mark.parametrize("command", ["entropy", "curve", "classify"])
    def test_nine_coefficients_exit_one(self, capsys, command):
        args = [command, "--family", "pure-schmidt", "--coeffs", _repeat(1 / 3, 9)]
        assert run(args, capsys) == (1, "", self.CAP)

    @pytest.mark.parametrize("command", ["entropy", "curve", "classify"])
    def test_nine_probabilities_refused_before_allocating(self, capsys, command):
        args = [command, "--family", "classical", "--probs", _repeat(1 / 9, 9)]
        run(args, capsys)  # imports and first-call caches stay out of the traced run
        tracemalloc.start()
        try:
            result = run(args, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "", self.CAP)
        # a 256 x 256 complex matrix alone is 1 MiB
        assert peak < 200_000

    @pytest.mark.parametrize("command", ["entropy", "classify"])
    def test_state_file_over_the_cap_refused_before_its_matrix(self, capsys, tmp_path, command):
        # the cap is checked on the dims, before the 1 x 1 matrix is read
        doc = {"dims": [16, 16], "matrix_re": [[1]], "matrix_im": [[0]]}
        assert run([command, "--state", _write(tmp_path, "big.json", doc)], capsys) == (
            1, "", self.CAP
        )

    @pytest.mark.parametrize(
        "family, flag, values",
        [
            ("pure-schmidt", "--coeffs", _repeat(8**-0.5, 8)),
            ("classical", "--probs", _repeat(1 / 8, 8)),
        ],
    )
    def test_eight_labels_still_accepted(self, capsys, family, flag, values):
        code, out, _ = run(["entropy", "--family", family, flag, values], capsys)
        assert code == 0 and json.loads(out)["n"] == 6


class TestCliContract:
    def test_dump_state_round_trip(self, capsys, tmp_path):
        path = tmp_path / "dump.json"
        code, _, _ = run(
            ["entropy", "--family", "bell-mixture", "--p", "0.3", "--dump-state", str(path)],
            capsys,
        )
        assert code == 0
        back = load_state(str(path))
        assert np.max(np.abs(back.matrix - bell_mixture(0.3).matrix)) <= 1e-15

    def test_out_writes_file_not_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            ["entropy", "--family", "classical", "--probs", "1,0", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["info"] == 2.0

    def test_internal_key_error_propagates(self, monkeypatch):
        # input errors surface as ValueError or OSError; a KeyError is a bug, not exit 1
        def broken(rho):
            raise KeyError("s_total")

        monkeypatch.setattr("infospace.measure_report", broken)
        with pytest.raises(KeyError, match="s_total"):
            main(["entropy", "--family", "bell-mixture", "--p", "0.25"])

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["entropy", "--bogus"])
        assert err.value.code == 1

    def test_repeat_invocations_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(["curve", "--family", "bell-mixture", "--p", "0.25"], capsys)
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_subprocess_runs_are_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "infospace",
            "phase-scan",
            "--p-min",
            "0.05",
            "--p-max",
            "0.49",
            "--steps",
            "45",
        ]
        # the child imports the same infospace as this process, installed or not
        src = os.path.dirname(os.path.dirname(infospace.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        assert first.stdout.decode().strip().endswith("# divergence_flag=true")
