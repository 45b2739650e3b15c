"""cli: the four subcommands, each run in a fresh interpreter, one at a time.

Interpreter start plus ``import infospace`` (numpy above all) is most of the
380-440 ms a command takes, so this workload measures start-up, argument
handling, serialize and svgplot far more than linear algebra; it is also
the only workload that writes files. Every state stays at d <= 16 so that
``spectra`` remains the workload for the eigensolver.

One operation is one child running ``bench/cli_entry.py``, which calls
``infospace.cli.main`` as the installed ``infospace`` script does and reports
the child's own peak memory. A round is 15 invocations. The three 10000-step
phase scans (two writing the CSV with ``--out``, one to standard output) are
the slowest, and the 90th percentile falls in the middle of their block,
away from its edge with the two 16-dim ``--state`` commands below it. Outputs are checked against closed forms to the nine significant
digits the CLI prints; SVG files must parse as XML with the expected number
of polylines; dumped states must reload to the matrix that went in.

With tracing on, each invocation is repeated in process through
``infospace.cli.main(argv)`` (the command's own compute), and the layer
functions behind it (serialize, curves, svgplot) are called directly once.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import infospace as isp
import infospace.cli
import infospace.serialize
import infospace.svgplot

import oracles as ref

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join("bench", "out", "cli")  # relative to ROOT, where the children run
ENTRY = os.path.join("bench", "cli_entry.py")
POOL_ROUNDS = 8
SCAN_STEPS = 10000
SVG_SCAN_STEPS = 40
PROBE_CHILDREN = 5
_SVG_NS = "{http://www.w3.org/2000/svg}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv: list[str], stdout_path: str) -> tuple[int, int, str]:
    """Run one interpreter to its end; return (exit code, peak RSS in KiB or 0, stderr)."""
    with open(os.path.join(ROOT, stdout_path), "wb") as out:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.PIPE, check=False)
    lines = proc.stderr.decode("utf-8", errors="replace").splitlines()
    rss = int(lines.pop().split()[1]) if lines and lines[-1].startswith("peak_rss_kib ") else 0
    return proc.returncode, rss, "\n".join(lines)


def command(item: dict) -> list[str]:
    return [sys.executable, ENTRY, item["cmd"], *item["args"]]


def _fnum(x: float) -> str:
    return repr(float(x))


def _ec_float(p: float) -> float:
    x = 0.5 + math.sqrt(p * (1.0 - p))
    return -(x * math.log2(x)) - (1.0 - x) * math.log2(1.0 - x)


def _write_json(rel: str, payload) -> None:
    with open(os.path.join(ROOT, rel), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _bell_matrix(p: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = p - 0.5
    return m


def _bell_expect(p: float) -> dict:
    hp = ref.binary_entropy(p)
    return {
        "n": 2, "s_total": hp, "s_a": 1.0, "s_b": 1.0, "info": 2.0 - hp,
        "concurrence": 1.0 - 2.0 * p, "eof": ref.bell_ec(p), "ppt_min_eig": p - 0.5,
    }


def _make_round(rng, k: int, scan: dict) -> list[dict]:
    """Fifteen invocations with their expected outputs."""
    d = f"{OUT}/r{k}"
    os.makedirs(os.path.join(ROOT, d), exist_ok=True)
    p_ent, p_ens, p_curve, p_svg, p_cls = (float(x) for x in rng.uniform(0.05, 0.45, 5))
    c2 = rng.dirichlet(np.ones(2))
    c = np.sqrt(c2)
    q3 = rng.dirichlet(np.ones(3))
    q2 = rng.dirichlet(np.ones(2))

    # a dense 4x4 (16-dim) state file, kept away from the NPT/PPT threshold
    while True:
        lam = rng.dirichlet(np.ones(16))
        u = ref.haar_unitary(rng, 16)
        m16 = (u * lam) @ u.conj().T
        m16 = (m16 + m16.conj().T) / 2.0
        pt16 = ref.ppt_min(m16, 4, 4)
        if abs(pt16) > 1e-6:
            break
    state16 = f"{d}/state16.json"
    _write_json(state16, {"dims": [4, 4], "matrix_re": m16.real.tolist(), "matrix_im": m16.imag.tolist()})
    s16 = ref.entropy(lam)
    exp16 = {
        "n": 4, "s_total": s16, "info": 4.0 - s16, "ppt_min_eig": pt16,
        "s_a": ref.matrix_entropy(ref.reduced(m16, 4, 4, "A")),
        "s_b": ref.matrix_entropy(ref.reduced(m16, 4, 4, "B")),
    }

    # the split decomposition of a Bell mixture: its average is bell_mixture(p_ens)
    cc = [[[0.5, 0], [0, 0], [0, 0], [0, 0]], [[0, 0]] * 4, [[0, 0]] * 4, [[0, 0], [0, 0], [0, 0], [0.5, 0]]]
    r2 = 1.0 / math.sqrt(2.0)
    ensemble = f"{d}/ensemble.json"
    _write_json(ensemble, {"dims": [2, 2], "components": [
        {"weight": 2.0 * p_ens, "type": "mixed", "data": cc},
        {"weight": 1.0 - 2.0 * p_ens, "type": "pure", "data": [[r2, 0], [0, 0], [0, 0], [-r2, 0]]},
    ]})

    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = c[0], c[1]
    e_pure = ref.entropy(c2)
    h3 = ref.entropy(q3)
    diag3 = np.zeros(16)
    for j, qj in enumerate(q3):
        diag3[j * 4 + j] = qj

    ec_curve = ref.bell_ec(p_curve)
    hp_curve = ref.binary_entropy(p_curve)
    ec_svg = ref.bell_ec(p_svg)
    hp_svg = ref.binary_entropy(p_svg)
    coeffs = ",".join(_fnum(x) for x in c)

    def bell_points(ec, hp, p):
        return [
            ("FormationEndpointEc", "min-communication", ec, 2.0),
            ("FormationIntermediate", "split-decomposition", 1.0 - 2.0 * p, 2.0 - 2.0 * p),
            ("FormationEndpointEr", "reversible", 1.0, 2.0 - hp),
        ]

    inv = [
        {"cmd": "entropy", "args": ["--family", "bell-mixture", "--p", _fnum(p_ent)],
         "report": _bell_expect(p_ent), "dump": _bell_matrix(p_ent)},
        {"cmd": "entropy", "args": ["--family", "pure-schmidt", "--coeffs", coeffs],
         "report": {"n": 2, "s_total": 0.0, "s_a": e_pure, "s_b": e_pure, "info": 2.0,
                    "concurrence": 2.0 * float(c[0] * c[1]), "eof": e_pure,
                    "ppt_min_eig": -float(c[0] * c[1])},
         "dump": np.outer(psi, psi.conj())},
        {"cmd": "entropy", "args": ["--family", "classical", "--probs", ",".join(_fnum(x) for x in q3)],
         "report": {"n": 4, "s_total": h3, "s_a": h3, "s_b": h3, "info": 4.0 - h3, "ppt_min_eig": 0.0},
         "dump": np.diag(diag3).astype(complex)},
        {"cmd": "entropy", "args": ["--state", state16], "report": exp16, "dump": m16, "state": state16,
         "matrix": m16},
        {"cmd": "entropy", "args": ["--ensemble", ensemble], "report": _bell_expect(p_ens),
         "dump": _bell_matrix(p_ens)},
        {"cmd": "curve", "args": ["--family", "bell-mixture", "--p", _fnum(p_curve)], "format": "csv",
         "points": bell_points(ec_curve, hp_curve, p_curve),
         "envelopes": {"formation-envelope": [(ec_curve, 2.0), (1.0 - 2.0 * p_curve, 2.0 - 2.0 * p_curve),
                                              (1.0, 2.0 - hp_curve)]}},
        {"cmd": "curve", "args": ["--family", "pure-schmidt", "--coeffs", coeffs, "--format", "json"],
         "format": "json",
         "points": [("FormationEndpointEc", "min-communication", e_pure, 2.0),
                    ("FormationEndpointEr", "reversible", e_pure, 2.0),
                    ("ExtractionReversible", "channel-assisted", -e_pure, 2.0),
                    ("ExtractionZero", "locc-extraction", 0.0, 2.0 - e_pure),
                    ("ExtractionDistill", "distillation", e_pure, 2.0 - 2.0 * e_pure)],
         "envelopes": {"formation-envelope": [(e_pure, 2.0)],
                       "extraction-envelope": [(-e_pure, 2.0), (0.0, 2.0 - e_pure), (e_pure, 2.0 - 2.0 * e_pure)]}},
        {"cmd": "curve", "args": ["--family", "bell-mixture", "--p", _fnum(p_svg), "--format", "json"],
         "format": "json", "svg": 1, "points": bell_points(ec_svg, hp_svg, p_svg),
         "envelopes": {"formation-envelope": [(ec_svg, 2.0), (1.0 - 2.0 * p_svg, 2.0 - 2.0 * p_svg),
                                              (1.0, 2.0 - hp_svg)]}},
        {"cmd": "phase-scan", "args": ["--p-min", _fnum(scan["lo"]), "--p-max", _fnum(scan["hi"]),
                                       "--steps", str(SCAN_STEPS)], "scan": scan["big"]},
        {"cmd": "phase-scan", "args": ["--p-min", _fnum(scan["lo"]), "--p-max", _fnum(scan["hi"]),
                                       "--steps", str(SCAN_STEPS)], "scan": scan["big"], "to_stdout": True},
        {"cmd": "phase-scan", "args": ["--p-min", _fnum(scan["lo"]), "--p-max", _fnum(scan["hi"]),
                                       "--steps", str(SCAN_STEPS)], "scan": scan["big"]},
        {"cmd": "phase-scan", "args": ["--p-min", _fnum(scan["lo"]), "--p-max", _fnum(scan["hi"]),
                                       "--steps", str(SVG_SCAN_STEPS)], "scan": scan["small"],
         "svg": SVG_SCAN_STEPS},
        {"cmd": "classify", "args": ["--family", "bell-mixture", "--p", _fnum(p_cls)],
         "class": {"category": "MixedNPT", "product_eigenbasis": "no",
                   "purity": p_cls ** 2 + (1.0 - p_cls) ** 2, "ppt_min_eig": p_cls - 0.5}},
        {"cmd": "classify", "args": ["--family", "classical", "--probs", ",".join(_fnum(x) for x in q2)],
         "class": {"category": "ClassicallyCorrelated", "product_eigenbasis": "product",
                   "purity": float(np.sum(q2 ** 2)), "ppt_min_eig": 0.0}},
        {"cmd": "classify", "args": ["--state", state16], "state": state16, "matrix": m16,
         "class": {"category": "MixedNPT" if pt16 < 0 else "MixedPPT", "product_eigenbasis": "not-checked",
                   "purity": float(np.sum(lam ** 2)), "ppt_min_eig": pt16}},
    ]
    for j, item in enumerate(inv):
        item["stdout"] = f"{d}/{j}.out"
        if item["cmd"] == "entropy":
            item["dumped"] = f"{d}/{j}.dump.json"
            item["args"] += ["--dump-state", item["dumped"]]
        if item["cmd"] == "phase-scan" and item.get("to_stdout"):
            item["csv"] = item["stdout"]
        elif item["cmd"] == "phase-scan":
            item["csv"] = f"{d}/{j}.csv"
            item["args"] += ["--out", item["csv"]]
        if item.get("svg"):
            item["svg_path"] = f"{d}/{j}.svg"
            item["args"] += ["--svg", item["svg_path"]]
    return inv


def _scan_grid(lo: float, hi: float, steps: int) -> dict:
    step = (hi - lo) / (steps - 1)
    grid = [lo + k * step for k in range(steps - 1)] + [hi]
    rows = []
    for p in grid:
        ec = _ec_float(p)
        slope = 2.0 * p / (ec - 1.0 + 2.0 * p)
        rows.append((p, 0.5 * (ec + 1.0 - 2.0 * p), slope, 1.0 / slope))
    live = [abs(r[2]) for r in rows]
    tail = live[(3 * len(live)) // 4 :]
    flag = live[-1] > 50.0 and all(b > a for a, b in zip(tail, tail[1:]))
    return {"grid": grid, "rows": rows, "flag": flag}


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 3])
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    lo = float(rng.uniform(0.05, 0.1))
    hi = float(rng.uniform(0.48, 0.495))
    scan = {"lo": lo, "hi": hi, "big": _scan_grid(lo, hi, SCAN_STEPS),
            "small": _scan_grid(lo, hi, SVG_SCAN_STEPS)}
    rounds = [_make_round(rng, k, scan) for k in range(1 if tiny else POOL_ROUNDS)]
    if tiny:  # one invocation per subcommand, covering --state, --svg and a scan
        rounds = [[rounds[0][3], rounds[0][7], rounds[0][11], rounds[0][14]]]
    return {"rounds": rounds, "peak_rss_kib": 0}


def peak_rss_kib(plan) -> int:
    """The largest child: this workload's own process does none of the work."""
    return plan["peak_rss_kib"]


def warm_up(plan, rec) -> None:
    item = plan["rounds"][0][-3]  # classify on a family: a full start-up, nothing written
    run_child(command(item), item["stdout"])


def _check_values(tag, got: dict, want: dict, rec) -> None:
    for key, value in want.items():
        if key not in got:
            rec.check(False, f"{tag}: missing {key}")
        elif not ref.sig9_close(got[key], value):
            rec.check(False, f"{tag}: {key} = {got[key]!r}, want {value!r}")


def _check_dump(tag, path: str, want: np.ndarray, rec) -> None:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        doc = json.load(fh)
    m = np.asarray(doc["matrix_re"]) + 1j * np.asarray(doc["matrix_im"])
    rec.check(m.shape == want.shape and np.abs(m - want).max() <= 1e-12, f"{tag}: dumped state differs")


def _check_points(tag, points, envelopes, item, rec) -> None:
    want = item["points"]
    rec.check(len(points) == len(want), f"{tag}: {len(points)} points, want {len(want)}")
    for (kind, label, q, i), (wk, wl, wq, wi) in zip(points, want):
        rec.check((kind, label) == (wk, wl), f"{tag}: point {kind},{label}, want {wk},{wl}")
        rec.check(ref.sig9_close(q, wq) and ref.sig9_close(i, wi), f"{tag}: point {label} ({q}, {i}), want ({wq}, {wi})")
    rec.check(sorted(envelopes) == sorted(item["envelopes"]), f"{tag}: envelopes {sorted(envelopes)}")
    for name, verts in item["envelopes"].items():
        got = envelopes.get(name, [])
        ok = len(got) == len(verts) and all(
            ref.sig9_close(q, wq) and ref.sig9_close(i, wi) for (q, i), (wq, wi) in zip(got, verts)
        )
        rec.check(ok, f"{tag}: {name} vertices {got}, want {verts}")


def _check_svg(tag, path: str, polylines: int, rec) -> None:
    try:
        root = ET.parse(os.path.join(ROOT, path)).getroot()
    except ET.ParseError as exc:
        rec.check(False, f"{tag}: SVG does not parse: {exc}")
        return
    count = len(root.findall(f"{_SVG_NS}polyline"))
    rec.check(count == polylines, f"{tag}: SVG has {count} polylines, want {polylines}")


def _check_scan(tag, text: str, scan: dict, rec) -> None:
    lines = text.splitlines()
    rows = scan["rows"]
    if not rec.check(len(lines) == len(rows) + 2 and lines[0] == "p,q_at,slope,chi", f"{tag}: CSV shape"):
        return
    flag = "true" if scan["flag"] else "false"
    rec.check(lines[-1] == f"# divergence_flag={flag}", f"{tag}: {lines[-1]!r}, want flag {flag}")
    for line, want in zip(lines[1:-1], rows):
        got = [float(x) for x in line.split(",")]
        if not all(ref.sig9_close(g, w) for g, w in zip(got, want)):
            rec.check(False, f"{tag}: row {line!r}, want {want}")
            return


def check(item: dict, code: int, stderr: str, rec) -> None:
    tag = f"cli {item['cmd']} {' '.join(item['args'][:2])}"
    if not rec.check(code == 0, f"{tag}: exit {code}: {stderr.strip()[-200:]}"):
        return
    with open(os.path.join(ROOT, item["stdout"]), encoding="utf-8") as fh:
        text = fh.read()
    if "report" in item:
        _check_values(tag, json.loads(text), item["report"], rec)
        _check_dump(tag, item["dumped"], item["dump"], rec)
    elif "class" in item:
        doc = json.loads(text)
        want = item["class"]
        rec.check(doc["category"] == want["category"], f"{tag}: category {doc['category']}, want {want['category']}")
        ev = doc["evidence"]
        rec.check(ev["product_eigenbasis"] == want["product_eigenbasis"],
                  f"{tag}: product_eigenbasis {ev['product_eigenbasis']}, want {want['product_eigenbasis']}")
        _check_values(tag, ev, {"purity": want["purity"], "ppt_min_eig": want["ppt_min_eig"]}, rec)
    elif item["cmd"] == "curve":
        if item["format"] == "json":
            doc = json.loads(text)
            points = [(p["kind"], p["label"], p["q"], p["i"]) for p in doc["points"]]
            envelopes = doc["envelopes"]
        else:
            points, envelopes = [], {}
            for line in text.splitlines()[1:]:
                kind, label, q, i = line.split(",")
                if kind == "EnvelopeVertex":
                    envelopes.setdefault(label, []).append((float(q), float(i)))
                else:
                    points.append((kind, label, float(q), float(i)))
        _check_points(tag, points, envelopes, item, rec)
    else:
        with open(os.path.join(ROOT, item["csv"]), encoding="utf-8") as fh:
            _check_scan(tag, fh.read(), item["scan"], rec)
    if "svg_path" in item:
        _check_svg(tag, item["svg_path"], item["svg"], rec)


def _traced_extras(item: dict, rec) -> None:
    """In-process compute and direct layer calls for one invocation."""
    cmd = item["cmd"]
    name = cmd.replace("-", "_")
    with contextlib.redirect_stdout(io.StringIO()):
        with rec.span(f"cli.{name}.compute"):
            code = infospace.cli.main([cmd, *item["args"]])
    rec.check(code == 0, f"cli {cmd} in process: exit {code}")
    if "state" in item:
        with rec.span("serialize.load_state", d=16):
            rho = infospace.serialize.load_state(os.path.join(ROOT, item["state"]))
        rec.check(np.abs(rho.matrix - item["matrix"]).max() <= 1e-12, f"cli {cmd}: load_state differs")
    if "dumped" in item:
        with rec.span("serialize.load_state", d=item["dump"].shape[0]):
            rho = infospace.serialize.load_state(os.path.join(ROOT, item["dumped"]))
        redump = item["dumped"] + ".again.json"
        with rec.span("serialize.dump_state", d=rho.dim):
            infospace.serialize.dump_state(rho, os.path.join(ROOT, redump))
        _check_dump(f"cli {cmd} dump_state", redump, item["dump"], rec)
    if cmd == "phase-scan":
        grid = item["scan"]["grid"]
        with rec.span("curves.phase_scan", samples=len(grid)):
            result = isp.phase_scan(isp.bell_formation_points, grid)
        with rec.span("serialize.scan_csv", samples=len(grid)):
            text = infospace.serialize.scan_csv(result)
        with open(os.path.join(ROOT, item["csv"]), encoding="utf-8") as fh:
            rec.check(text == fh.read(), "cli phase-scan: scan_csv differs from the command's CSV")
        if "svg_path" in item:
            spec = infospace.svgplot.RenderSpec()
            series = []
            for p in grid:
                env = isp.build_lower_envelope(isp.bell_formation_points(p)).envelope
                series.append((f"p={infospace.serialize.fmt(p)}", [(-q, -i) for q, i in env]))
            with rec.span("svgplot.render_chart", series=len(series)):
                svg = infospace.svgplot.render_chart(series, [], spec, "formation curves across the family")
            with open(os.path.join(ROOT, item["svg_path"]), encoding="utf-8") as fh:
                rec.check(svg == fh.read(), "cli phase-scan: render_chart differs from the command's SVG")


def run_round(plan, index: int, rec) -> None:
    rounds = plan["rounds"]
    for item in rounds[index % len(rounds)]:
        name = item["cmd"].replace("-", "_")
        with rec.op(f"cli.{name}"):
            with rec.span(f"cli.{name}.wall"):
                code, rss_kib, stderr = run_child(command(item), item["stdout"])
        rec.check(rss_kib > 0, f"cli {item['cmd']}: the child reported no peak memory")
        plan["peak_rss_kib"] = max(plan["peak_rss_kib"], rss_kib)
        check(item, code, stderr, rec)
        if rec.trace:
            _traced_extras(item, rec)


def probe_startup(rec) -> None:
    """Bare interpreter and interpreter plus ``import infospace``, for the cli layer."""
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    out = f"{OUT}/probe.out"
    for _ in range(PROBE_CHILDREN):
        with rec.span("cli.interpreter"):
            run_child([sys.executable, "-c", "pass"], out)
        with rec.span("cli.import"):
            code, _, stderr = run_child([sys.executable, "-c", "import infospace"], out)
        rec.check(code == 0, f"cli import: {stderr.strip()[-200:]}")
