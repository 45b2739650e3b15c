"""Minimal self-contained SVG chart emitter: axes, ticks, polylines, markers."""

import math
from dataclasses import dataclass

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities, ``&`` first.

    The same output as ``xml.sax.saxutils.escape`` with no extra entities,
    without importing ``xml.sax`` (which pulls in urllib, email and http).
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size of a chart: width, height and the margin around the plot, in pixels."""

    width: int = 640
    height: int = 480
    margin: int = 64


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a step below the float spacing at t would never advance
            break
        t += step
    return ticks


def render_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    markers: list[tuple[str, float, float]],
    spec: RenderSpec,
    title: str,
) -> str:
    """Build a complete SVG document with one polyline per series."""
    xs = [p[0] for _, pts in series for p in pts] + [m[1] for m in markers]
    ys = [p[1] for _, pts in series for p in pts] + [m[2] for m in markers]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad_x = (hi_x - lo_x) * 0.08 or 0.5
    pad_y = (hi_y - lo_y) * 0.08 or 0.5
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    w, h, m = spec.width, spec.height, spec.margin

    def px(x: float) -> float:
        return m + (x - lo_x) / (hi_x - lo_x) * (w - 2 * m)

    def py(y: float) -> float:
        return h - m - (y - lo_y) / (hi_y - lo_y) * (h - 2 * m)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="{m / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]
    axis_style = 'stroke="#333333" stroke-width="1"'
    zero_style = 'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"'
    out.append(f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" {axis_style}/>')
    out.append(f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" {axis_style}/>')
    # zero lines when the origin is inside the frame
    if lo_x < 0.0 < hi_x:
        out.append(f'<line x1="{px(0):.2f}" y1="{m}" x2="{px(0):.2f}" y2="{h - m}" {zero_style}/>')
    if lo_y < 0.0 < hi_y:
        out.append(f'<line x1="{m}" y1="{py(0):.2f}" x2="{w - m}" y2="{py(0):.2f}" {zero_style}/>')
    for t in _nice_ticks(lo_x, hi_x):
        out.append(
            f'<line x1="{px(t):.2f}" y1="{h - m}" x2="{px(t):.2f}" y2="{h - m + 5}" {axis_style}/>'
        )
        out.append(
            f'<text x="{px(t):.2f}" y="{h - m + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    for t in _nice_ticks(lo_y, hi_y):
        out.append(f'<line x1="{m - 5}" y1="{py(t):.2f}" x2="{m}" y2="{py(t):.2f}" {axis_style}/>')
        out.append(
            f'<text x="{m - 8}" y="{py(t):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    out.append(
        f'<text x="{w / 2:.1f}" y="{h - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">Q [qubits]</text>'
    )
    out.append(
        f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {h / 2:.1f})">I [bits]</text>'
    )
    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        out.append(
            f'<text x="{w - m + 4}" y="{m + 16 * k + 12}" font-family="sans-serif" '
            f'font-size="10" fill="{color}">{escape(name)}</text>'
        )
    for label, x, y in markers:
        out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#222222"/>')
        if label:
            out.append(
                f'<text x="{px(x) + 5:.2f}" y="{py(y) - 5:.2f}" font-family="sans-serif" '
                f'font-size="10">{escape(label)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
