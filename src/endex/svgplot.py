"""Plot data for the index step function, and a small self-contained SVG.

Sampling is deterministic: every interval contributes one representative
point (midpoints inside, one unit past the outermost wall outside), and
every wall is straddled at a fixed offset, shrunk when walls are closer
than that.
"""

from __future__ import annotations

from .indexfn import IndexFunction

_STRADDLE = 0.05
# Size of the SVG drawing, in pixels.
_WIDTH, _HEIGHT = 640, 360


def plot_data(f: IndexFunction):
    """Step-function samples plus wall markers.

    Returns {"samples": [[delta, value], ...], "walls": [delta, ...]}.
    """
    ws = f.wall_deltas
    values = list(f.values)
    if not ws:
        return {"samples": [[-1.0, values[0]], [1.0, values[0]]], "walls": []}
    gaps = [b - a for a, b in zip(ws, ws[1:])]
    eps = min([_STRADDLE] + [g / 4 for g in gaps])
    pts = {}
    for i, w in enumerate(ws):
        pts[w - eps] = values[i]
        pts[w + eps] = values[i + 1]
    pts[ws[0] - 1.0] = values[0]
    pts[ws[-1] + 1.0] = values[-1]
    for i, g in enumerate(gaps):
        mid = ws[i] + g / 2
        pts[mid] = values[i + 1]
    samples = [[d, pts[d]] for d in sorted(pts)]
    return {"samples": samples, "walls": list(ws)}


def plot_text(data) -> str:
    lines = ["# delta index"]
    lines += [f"{d:.9g} {v}" for d, v in data["samples"]]
    lines.append("# walls")
    lines += [f"{w:.9g}" for w in data["walls"]]
    return "\n".join(lines) + "\n"


def render_svg(f: IndexFunction) -> str:
    """A self-contained SVG drawing of the step function."""
    width, height = _WIDTH, _HEIGHT
    ws = f.wall_deltas
    values = list(f.values)
    if ws:
        lo, hi = ws[0] - 1.0, ws[-1] + 1.0
    else:
        lo, hi = -1.0, 1.0
    vmin, vmax = min(values), max(values)
    if vmin == vmax:
        vmin -= 1
        vmax += 1
    pad = 40.0

    def sx(d):
        return pad + (d - lo) / (hi - lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - vmin) / (vmax - vmin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
    ]
    bounds = [lo] + ws + [hi]
    for i, v in enumerate(values):
        x1, x2 = sx(bounds[i]), sx(bounds[i + 1])
        y = sy(v)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y:.2f}" x2="{x2:.2f}" y2="{y:.2f}" '
            'stroke="#1f4e9c" stroke-width="2.5"/>'
        )
    for w in ws:
        x = sx(w)
        parts.append(
            f'<line x1="{x:.2f}" y1="{pad}" x2="{x:.2f}" y2="{height - pad}" '
            'stroke="#c03030" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad + 16}" font-size="11" '
            f'text-anchor="middle" fill="#c03030">{w:.4g}</text>'
        )
    seen = set()
    for v in values:
        if v in seen:
            continue
        seen.add(v)
        parts.append(
            f'<text x="{pad - 6}" y="{sy(v) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{v}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 8}" font-size="12" text-anchor="middle">'
        "weight</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
