"""Command-line interface: entropy, curve, phase-scan and classify subcommands.

Exit codes: 0 success, 1 input or domain error, 2 numerical failure.
"""

import argparse
import json
import sys
from typing import Callable, NamedTuple

import infospace

from .closed_forms import bell_formation_points
from .curves import (
    FORMATION_KINDS,
    InformationCurve,
    PointKind,
    ProtocolPoint,
    formation_endpoints,
    build_lower_envelope,
    phase_scan,
    pure_extraction_line,
)
from .serialize import _load, dump_state, fmt, fnum, load_state, points_csv, scan_csv

# numpy-backed names are read off the lazy package namespace (infospace.<name>)
# when a command first calls them, and svgplot is imported inside _curve_svg,
# so phase-scan and the bell-mixture curve run on the standard library alone

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2, which is reserved for numerical failure
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _bell_curves(p: float, include_extraction: bool) -> list[tuple[str, InformationCurve]]:
    # no computable extraction rule for this mixed family
    return [("formation-envelope", build_lower_envelope(bell_formation_points(p)))]


def _pure_curves(coeffs, include_extraction: bool) -> list[tuple[str, InformationCurve]]:
    psi = infospace.pure_schmidt(coeffs)
    # pure_schmidt embeds in d (x) d with d a power of two, so d * d = 2**n
    n = float((psi.dim_a * psi.dim_b).bit_length() - 1)
    e = infospace.pure_state_entanglement(psi)
    curves = [("formation-envelope", build_lower_envelope(formation_endpoints(n, 0.0, e, e)))]
    if include_extraction:
        curves.append(("extraction-envelope", pure_extraction_line(n, e)))
    return curves


def _classical_curves(probs, include_extraction: bool) -> list[tuple[str, InformationCurve]]:
    info = infospace.information_content(infospace.classically_correlated(probs))
    endpoints = formation_endpoints(info, 0.0, 0.0, 0.0)
    curves = [("formation-envelope", build_lower_envelope(endpoints))]
    if include_extraction:
        zero = ProtocolPoint(0.0, info, PointKind.EXTRACTION_ZERO, "locc-extraction")
        curves.append(("extraction-envelope", InformationCurve((zero,), ((0.0, info),))))
    return curves


def _raw_curves(path: str, include_extraction: bool) -> list[tuple[str, InformationCurve]]:
    raise ValueError(
        "no formation-point rules for raw states; use the entropy or classify commands"
    )


class _Family(NamedTuple):
    """What the CLI knows of a family: its parameter and how to build from it."""

    flag: str  # the parameter flag; --state also selects raw when no --family is given
    parse: Callable  # the flag's text (or argparse's float) to the family's value
    state: Callable  # value -> DensityOperator
    curves: Callable  # (value, include_extraction) -> named curves, in print order


_FAMILIES = {
    "bell-mixture": _Family("--p", float, lambda p: infospace.bell_mixture(p), _bell_curves),
    "pure-schmidt": _Family(
        "--coeffs", _parse_floats, lambda c: infospace.pure_schmidt(c).projector(), _pure_curves
    ),
    "classical": _Family(
        "--probs", _parse_floats, lambda p: infospace.classically_correlated(p), _classical_curves
    ),
    "raw": _Family("--state FILE", str, load_state, _raw_curves),
}


def _family_input(args) -> tuple[str, _Family, object]:
    """The selected family's name, its row and its parsed value."""
    if args.family is None and args.state is None:
        raise ValueError("select an input with --family or --state")
    name = args.family or "raw"
    family = _FAMILIES[name]
    value = getattr(args, family.flag.split()[0].removeprefix("--"))
    if value is None:
        raise ValueError(f"family {name} needs {family.flag}")
    return name, family, family.parse(value)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_entropy(args) -> int:
    if args.ensemble and args.family is None:
        rho = infospace.ensemble_average(_load(args.ensemble, infospace.ensemble_from_dict))
    else:  # --ensemble with a --family: that family's flag is missing
        _, family, value = _family_input(args)
        rho = family.state(value)
    report = infospace.measure_report(rho)
    payload = {
        "n": report.n,
        "s_total": fnum(report.s_total),
        "s_a": fnum(report.s_a),
        "s_b": fnum(report.s_b),
        "info": fnum(report.info),
    }
    if report.concurrence is not None:
        payload["concurrence"] = fnum(report.concurrence)
        payload["eof"] = fnum(report.eof)
    payload["ppt_min_eig"] = fnum(report.ppt_min_eig)
    if args.dump_state:
        dump_state(rho, args.dump_state)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _oriented(q: float, i: float, formation: bool, paper_axes: bool) -> tuple[float, float]:
    if formation and paper_axes:
        return -q, -i  # resources used up: lower-left quadrant
    return q, i


def _curve_svg(points, curves, paper_axes: bool, title: str) -> str:
    from .svgplot import RenderSpec, render_chart

    series = []
    for name, curve in curves:
        formation = any(p.kind in FORMATION_KINDS for p in curve.points)
        series.append(
            (name, [_oriented(q, i, formation, paper_axes) for q, i in curve.envelope])
        )
    markers = [
        (p.label, *_oriented(p.q, p.i, p.kind in FORMATION_KINDS, paper_axes)) for p in points
    ]
    return render_chart(series, markers, RenderSpec(), title)


def cmd_curve(args) -> int:
    name, family, value = _family_input(args)
    curves = family.curves(value, args.include_extraction)
    points = [p for _, curve in curves for p in curve.points]
    if args.format == "json":
        payload = {
            "points": [
                {"kind": p.kind.value, "label": p.label, "q": fnum(p.q), "i": fnum(p.i)}
                for p in points
            ],
            "envelopes": {
                name: [[fnum(q), fnum(i)] for q, i in curve.envelope]
                for name, curve in curves
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(points_csv(points, curves), args.out)
    if args.svg:
        title = f"information-space curves ({name})"
        _emit(_curve_svg(points, curves, args.paper_axes, title), args.svg)
    return EXIT_OK


def cmd_phase_scan(args) -> int:
    if not 0.0 < args.p_min < args.p_max < 0.5:
        raise ValueError(
            f"scan needs 0 < p_min < p_max < 1/2, got p_min={args.p_min} p_max={args.p_max}"
        )
    if args.steps < 2:
        raise ValueError(f"scan needs at least 2 steps, got {args.steps}")
    step = (args.p_max - args.p_min) / (args.steps - 1)
    grid = [args.p_min + k * step for k in range(args.steps - 1)] + [args.p_max]
    try:
        probe = args.probe if args.probe == "steepest" else float(args.probe)
    except ValueError:
        raise ValueError(f"--probe takes 'steepest' or a number, got {args.probe!r}") from None
    result = phase_scan(
        bell_formation_points, grid, probe=probe, divergence_threshold=args.divergence_threshold
    )
    _emit(scan_csv(result), args.out)
    if args.svg:
        curves = [(f"p={fmt(p)}", build_lower_envelope(bell_formation_points(p))) for p in grid]
        svg = _curve_svg([], curves, args.paper_axes, "formation curves across the family")
        _emit(svg, args.svg)
    return EXIT_OK


def cmd_classify(args) -> int:
    _, family, value = _family_input(args)
    rho = family.state(value)
    result = infospace.classify(rho)
    payload = {
        "category": result.category.value,
        "evidence": {
            "purity": fnum(result.purity),
            "product_eigenbasis": result.product_eigenbasis,
            "ppt_min_eig": fnum(result.ppt_min_eig),
        },
    }
    if args.dump_state:
        dump_state(rho, args.dump_state)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _add_input_options(sub, ensemble: bool = False) -> None:
    sub.add_argument("--family", choices=_FAMILIES)
    # one input per command: a second one is refused, not ignored
    inputs = sub.add_mutually_exclusive_group()
    inputs.add_argument("--p", type=float, help="bell-mixture parameter in [0, 1/2]")
    inputs.add_argument("--coeffs", help="comma-separated Schmidt coefficients")
    inputs.add_argument("--probs", help="comma-separated probabilities")
    inputs.add_argument("--state", help="state JSON file (raw family)")
    if ensemble:
        inputs.add_argument("--ensemble", help="ensemble JSON file; reports on its average")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="infospace", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    entropy = commands.add_parser("entropy", help="entropy/information report for one state")
    _add_input_options(entropy, ensemble=True)
    entropy.add_argument("--out", help="write output here instead of stdout")
    entropy.add_argument("--dump-state", help="also write the resolved state as JSON")
    entropy.set_defaults(func=cmd_entropy)

    curve = commands.add_parser("curve", help="formation/extraction curve data")
    _add_input_options(curve)
    curve.add_argument(
        "--include-extraction",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="emit extraction data where a rule exists",
    )
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.add_argument("--out", help="write output here instead of stdout")
    curve.add_argument("--svg", help="additionally render an SVG chart to this path")
    curve.add_argument(
        "--paper-axes",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="draw formation data in the lower-left quadrant",
    )
    curve.set_defaults(func=cmd_curve)

    scan = commands.add_parser("phase-scan", help="slope/chi sweep over the Bell-mixture family")
    scan.add_argument("--p-min", type=float, required=True)
    scan.add_argument("--p-max", type=float, required=True)
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument(
        "--probe",
        default="steepest",
        help="'steepest' or a fixed q value at which to read the slope",
    )
    scan.add_argument("--divergence-threshold", type=float, default=50.0)
    scan.add_argument("--out", help="write output here instead of stdout")
    scan.add_argument("--svg", help="render the overlaid family curves to this path")
    scan.add_argument(
        "--paper-axes", action=argparse.BooleanOptionalAction, default=True
    )
    scan.set_defaults(func=cmd_phase_scan)

    cls = commands.add_parser("classify", help="coarse state taxonomy with evidence")
    _add_input_options(cls)
    cls.add_argument("--out", help="write output here instead of stdout")
    cls.add_argument("--dump-state", help="also write the resolved state as JSON")
    cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # only a command that loaded linalg can raise its error, so reading
        # it here costs nothing the command did not already pay for
        if not isinstance(exc, infospace.EigenConvergenceError):
            raise
        print(exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
