"""Import footprint of the CLI and the lazy package namespace."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import infospace

# the public namespace of `import infospace` before it became lazy, less the deleted names
PUBLIC_NAMES = (
    "AssumedExactValues", "ChiSlope", "Classification", "ComponentCost",
    "ComponentCostUnknown", "DEFAULT", "DegenerateFamilyError", "DensityOperator",
    "EigenConvergenceError", "Ensemble", "InformationCurve", "LocalOrthogonality",
    "MeasureReport", "NotApplicable", "NotCertifiedOrthogonal", "NotHermitian", "NotPositive",
    "PhaseScanResult", "PointKind", "ProductBasis", "ProductBasisResult", "ProtocolPoint",
    "PureState", "ScanSample", "StateCategory", "Tolerances", "TraceNotOne", "ValidationError",
    "assumed_exact_values", "bell_formation_points", "bell_mixture", "bell_mixture_ec",
    "binary_entropy", "build_lower_envelope", "chi", "classically_correlated", "classify",
    "concurrence_2q", "curves", "dump_state", "ensemble_average", "ensemble_from_dict",
    "ensemble_to_dict", "ensembles", "eof_2q", "families", "formation_endpoints",
    "formation_point", "formation_surplus_bound", "hermitian_eigensystem", "information_content",
    "linalg", "load_state", "local_entropies", "local_orthogonality_check", "measure_report",
    "measures", "partial_trace", "partial_transpose", "phase_scan", "product_eigenbasis_check",
    "pure_extraction_line", "pure_schmidt", "pure_state_entanglement", "reversible_cost_bound",
    "schmidt_coefficients", "serialize", "shannon_entropy", "spectrum_probabilities",
    "state_from_dict", "state_to_dict", "support_projector", "tolerances", "validate_density",
    "von_neumann_entropy",
)
SUBMODULES = ("curves", "ensembles", "families", "linalg", "measures", "serialize", "tolerances")

# runs infospace.cli.main in a fresh interpreter and reports what it imported
_CHILD = """
import contextlib, io, json, sys
from infospace.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
loaded = sorted(sys.modules)
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": loaded}))
"""


def _child_env():
    # the child imports the same infospace as this process, installed or not
    src = os.path.dirname(os.path.dirname(infospace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_child(args, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        capture_output=True, check=True, cwd=tmp_path, env=_child_env(), text=True,
    )
    report = json.loads(proc.stdout)
    report["modules"] = set(report["modules"])
    return report


def loads_xml_sax(modules):
    return any(m == "xml.sax" or m.startswith("xml.sax.") for m in modules)


STDLIB_ONLY = [
    ["phase-scan", "--p-min", "0.1", "--p-max", "0.4", "--steps", "5"],
    ["phase-scan", "--p-min", "0.1", "--p-max", "0.4", "--steps", "5", "--svg", "scan.svg"],
    ["curve", "--family", "bell-mixture", "--p", "0.25"],
    ["curve", "--family", "bell-mixture", "--p", "0.25", "--format", "json"],
    ["curve", "--family", "bell-mixture", "--p", "0.25", "--svg", "curve.svg"],
]


class TestImportFootprint:
    @pytest.mark.parametrize("args", STDLIB_ONLY, ids=" ".join)
    def test_bell_commands_run_on_the_standard_library(self, args, tmp_path):
        report = run_child(args, tmp_path)
        assert report["code"] == 0
        assert report["stdout"] or "--svg" in args
        assert "numpy" not in report["modules"]
        assert not loads_xml_sax(report["modules"])
        if "--svg" in args:
            assert (tmp_path / args[-1]).read_text().startswith("<svg ")

    @pytest.mark.parametrize(
        "args",
        [
            ["curve", "--family", "pure-schmidt", "--coeffs", "0.6,0.8"],
            ["curve", "--family", "classical", "--probs", "0.3,0.7"],
        ],
        ids=" ".join,
    )
    def test_numpy_family_curves_load_no_ensembles_or_svgplot(self, args, tmp_path):
        report = run_child(args, tmp_path)
        assert report["code"] == 0 and report["stdout"]
        assert "numpy" in report["modules"]
        assert not {"infospace.ensembles", "infospace.svgplot"} & report["modules"]

    def test_bare_package_import_loads_no_submodule(self, tmp_path):
        code = "import sys, infospace; print(sorted(m for m in sys.modules if 'infospace' in m))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, check=True, cwd=tmp_path, env=_child_env(), text=True,
        )
        assert proc.stdout.strip() == "['infospace']"

    def test_entropy_loads_numpy_and_reports(self, tmp_path):
        report = run_child(["entropy", "--family", "bell-mixture", "--p", "0.25"], tmp_path)
        assert report["code"] == 0
        assert "numpy" in report["modules"] and not loads_xml_sax(report["modules"])
        assert "infospace.ensembles" not in report["modules"]
        doc = json.loads(report["stdout"])
        assert doc["eof"] == 0.354578903 and doc["ppt_min_eig"] == -0.25

    def test_entropy_of_an_ensemble_loads_ensembles(self, tmp_path):
        pure = {"weight": 1.0, "type": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        (tmp_path / "ens.json").write_text(json.dumps({"dims": [2, 2], "components": [pure]}))
        report = run_child(["entropy", "--ensemble", "ens.json"], tmp_path)
        assert report["code"] == 0
        assert "infospace.ensembles" in report["modules"]
        assert json.loads(report["stdout"])["s_total"] == 0

    def test_classify_loads_numpy_and_reports(self, tmp_path):
        report = run_child(["classify", "--family", "classical", "--probs", "0.3,0.7"], tmp_path)
        assert report["code"] == 0
        assert "numpy" in report["modules"]
        # the product-eigenbasis decision lives beside classify
        assert not {"infospace.ensembles", "infospace.measures"} & report["modules"]
        doc = json.loads(report["stdout"])
        assert doc["category"] == "ClassicallyCorrelated"
        assert doc["evidence"]["product_eigenbasis"] == "product"

    def test_numerical_failure_still_exits_two(self, tmp_path):
        # LAPACK fails: the error class main imports lazily still maps to 2
        code = (
            "import sys, numpy as np\n"
            "def fail(*args, **kwargs):\n"
            "    raise np.linalg.LinAlgError('injected')\n"
            "np.linalg.eigh = fail\n"
            "from infospace.cli import main\n"
            "sys.exit(main(['classify', '--family', 'bell-mixture', '--p', '0.2']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, cwd=tmp_path, env=_child_env(), text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "EigenConvergenceError" not in proc.stderr  # mapped, not a traceback


class TestLazyNamespace:
    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_public_name_resolves_to_its_definition(self, name):
        obj = getattr(infospace, name)
        if name in SUBMODULES:
            assert obj is sys.modules[f"infospace.{name}"]
            return
        home = obj.__module__
        assert home.startswith("infospace.")
        assert getattr(sys.modules[home], name) is obj

    def test_old_module_paths_are_gone(self):
        # the compatibility aliases are deleted: these resolve from the package and their home
        for module, name in (
            ("measures", "bell_mixture_ec"),
            ("families", "bell_formation_points"),
            ("ensembles", "ProductBasisResult"),
        ):
            assert not hasattr(importlib.import_module(f"infospace.{module}"), name)
        assert not hasattr(infospace, "FamilySpec")
        # a curve's role is read off its points' kinds
        assert not hasattr(infospace, "CurveKind")
        assert not hasattr(importlib.import_module("infospace.curves"), "CurveKind")
        # names that no package code called: gone from the package and from their home
        for module, name in (
            ("linalg", "tensor_product"),
            ("curves", "curve_value"),
            ("curves", "chord_mix"),
            ("curves", "complementarity_check"),
            ("curves", "ComplementarityCheck"),
        ):
            assert not hasattr(infospace, name) and name not in infospace.__all__
            assert not hasattr(importlib.import_module(f"infospace.{module}"), name)
        # the file formats live in serialize: these resolve there and from the package
        for name in ("ensemble_from_dict", "ensemble_to_dict"):
            assert not hasattr(importlib.import_module("infospace.ensembles"), name)
            assert getattr(infospace, name) is getattr(infospace.serialize, name)
        assert "CHORD" not in infospace.PointKind.__members__
        assert not hasattr(infospace.ProductBasisResult, "basis")
        assert infospace.cli is sys.modules["infospace.cli"] and "cli" in infospace.__all__

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from infospace import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(infospace.__all__)
        assert set(PUBLIC_NAMES) <= set(namespace)

    def test_dir_lists_all(self):
        assert set(infospace.__all__) <= set(dir(infospace))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            infospace.no_such_name
        assert not hasattr(infospace, "no_such_name")
