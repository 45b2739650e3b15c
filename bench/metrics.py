"""End-to-end and per-layer metrics, computed from a Recorder's timings and spans."""

import statistics
from collections import defaultdict

from timing import Span

CLI_COMMANDS = ("entropy", "curve", "phase_scan", "classify")


def end_to_end(op_ms: list[float], setup_s: float, peak_rss_kib: int) -> dict:
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "ops/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
    }


class _Spans:
    """Span lookups by name and tags; every reducer returns None when nothing matched."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def select(self, names, **tags) -> list[Span]:
        names = (names,) if isinstance(names, str) else names
        return [
            s for n in names for s in self.by_name.get(n, ())
            if all(s.tags.get(k) == v for k, v in tags.items())
        ]

    def mean_ms(self, names, **tags):
        hits = self.select(names, **tags)
        return sum(s.ms for s in hits) / len(hits) if hits else None

    def median_ms(self, names, **tags):
        hits = self.select(names, **tags)
        return statistics.median(s.ms for s in hits) if hits else None

    def layer(self, prefix: str) -> list[Span]:
        return [s for name, hits in self.by_name.items() if name.startswith(prefix) for s in hits]

    def calls(self, prefix: str):
        return len(self.layer(prefix)) or None

    def busy_ms(self, prefix: str):
        hits = self.layer(prefix)
        return sum(s.self_ms for s in hits) if hits else None


def _scale(value, factor):
    return None if value is None else value * factor


def layer_metrics(spans: list[Span]) -> dict:
    """name -> (value or None, unit), for every per-layer metric."""
    sp = _Spans(spans)
    m: dict[str, tuple] = {}
    for fn in ("hermitian_eigensystem", "validate_density"):
        for d in (4, 16, 64):
            m[f"linalg.{fn}.d{d}_ms"] = (sp.mean_ms(f"linalg.{fn}", d=d), "ms")
    m["linalg.calls"] = (sp.calls("linalg."), "count")
    m["linalg.busy_ms"] = (sp.busy_ms("linalg."), "ms")
    for d in (4, 16, 64):
        m[f"measures.measure_report.d{d}_ms"] = (sp.mean_ms("measures.measure_report", d=d), "ms")
    m["measures.concurrence_2q.ms"] = (sp.mean_ms("measures.concurrence_2q"), "ms")
    m["measures.eof_2q.ms"] = (sp.mean_ms("measures.eof_2q"), "ms")
    m["measures.calls"] = (sp.calls("measures."), "count")
    m["measures.busy_ms"] = (sp.busy_ms("measures."), "ms")
    for d in (4, 64):
        m[f"families.classify.d{d}_ms"] = (sp.mean_ms("families.classify", d=d), "ms")
    m["families.calls"] = (sp.calls("families."), "count")
    m["families.busy_ms"] = (sp.busy_ms("families."), "ms")
    checks = sp.select("ensembles.product_eigenbasis_check")
    decisive = [s for s in checks if s.tags.get("verdict") in ("product", "no")]
    m["ensembles.product_eigenbasis_check.ms"] = (sp.mean_ms("ensembles.product_eigenbasis_check"), "ms")
    m["ensembles.product_eigenbasis_check.max_ms"] = (max((s.ms for s in checks), default=None), "ms")
    m["ensembles.product_eigenbasis_check.calls"] = (len(checks) or None, "count")
    m["ensembles.product_eigenbasis_check.decisive_ratio"] = (
        len(decisive) / len(checks) if checks else None, "ratio")
    m["ensembles.assumed_exact_values.ms"] = (sp.mean_ms("ensembles.assumed_exact_values"), "ms")
    m["ensembles.formation_point.ms"] = (sp.mean_ms("ensembles.formation_point"), "ms")
    m["ensembles.bounds.ms"] = (
        sp.mean_ms(("ensembles.reversible_cost_bound", "ensembles.formation_surplus_bound")), "ms")
    m["ensembles.busy_ms"] = (sp.busy_ms("ensembles."), "ms")
    m["curves.build_lower_envelope.us"] = (_scale(sp.mean_ms("curves.build_lower_envelope"), 1e3), "us")
    scans = sp.select("curves.phase_scan")
    samples = sum(s.tags.get("samples", 0) for s in scans)
    m["curves.phase_scan.us_per_sample"] = (
        sum(s.ms for s in scans) * 1e3 / samples if samples else None, "us")
    m["curves.busy_ms"] = (sp.busy_ms("curves."), "ms")
    for fn in ("load_state", "dump_state", "scan_csv"):
        m[f"serialize.{fn}.ms"] = (sp.mean_ms(f"serialize.{fn}"), "ms")
    m["svgplot.render_chart.ms"] = (sp.mean_ms("svgplot.render_chart"), "ms")
    bare = sp.median_ms("cli.interpreter")
    with_import = sp.median_ms("cli.import")
    m["cli.interpreter_ms"] = (bare, "ms")
    m["cli.import_ms"] = (with_import - bare if bare is not None and with_import is not None else None, "ms")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_ms"] = (sp.mean_ms(f"cli.{cmd}.wall"), "ms")
        m[f"cli.{cmd}.compute_ms"] = (sp.mean_ms(f"cli.{cmd}.compute"), "ms")
    return m


def merge_layers(own: dict, fill: dict) -> tuple[dict, list[str]]:
    """Take each metric from the workload's own spans, else from the fill-in rounds."""
    merged, filled = {}, []
    for name, (value, unit) in own.items():
        if value is None:
            value = fill[name][0]
            filled.append(name)
        merged[name] = (value, unit)
    return merged, filled
