import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import infospace
from infospace import bell_mixture, dump_state, ensemble_to_dict, load_state, validate_density
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

    def test_classical_family(self, capsys):
        code, out, _ = run(["entropy", "--family", "classical", "--probs", "0.5,0.5"], capsys)
        assert code == 0
        assert json.loads(out)["info"] == 1.0

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

    def test_global_aabb_state_has_no_product_basis(self, capsys, tmp_path):
        # doubly degenerate spectrum in a Haar-random eigenbasis: decided, not searched
        path = tmp_path / "aabb.json"
        dump_state(validate_density(global_aabb(np.random.default_rng(11), 0.2), 2, 2), str(path))
        code, out, _ = run(["classify", "--state", str(path)], capsys)
        assert code == 0
        assert '"product_eigenbasis": "no"' in out


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
