"""Tiny self-contained SVG 1.1 writer for the figure command.

No plotting dependency: curves become polylines, node families become
marker rows. Fixed 960x360 viewBox, wide aspect. All coordinates are
formatted with two decimals so identical inputs give identical bytes.
The chart arithmetic runs on arrays, with the same IEEE operations in the
same order as on one float. A chart's x coordinates are formatted once,
into a template that each polyline fills with one ``%``; each marker row
is one ``%`` template mapped over its positions. ``'%.2f'`` and
``'{:.2f}'`` are the same correctly rounded conversion.
"""

from __future__ import annotations

import numpy as np

WIDTH = 960
HEIGHT = 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 56.0, 930.0, 42.0, 318.0

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">'
)
_STYLE = (
    "<style>text{font-family:sans-serif;font-size:12px;}"
    ".t{font-size:13px;font-weight:bold;}</style>"
)


def _fx(x: float) -> float:
    return _LEFT + x * (_RIGHT - _LEFT)


def _num(v: float) -> str:
    return f"{v:.2f}"


def _frame(parts, title):
    parts.append(_STYLE)
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{_num(_LEFT)}" y="{_num(_TOP)}" width="{_num(_RIGHT - _LEFT)}" '
        f'height="{_num(_BOTTOM - _TOP)}" fill="none" stroke="#888" stroke-width="1"/>'
    )
    parts.append(f'<text class="t" x="{_num(_LEFT)}" y="20">{title}</text>')
    for xv in (0.0, 0.25, 0.5, 0.75, 1.0):
        px = _fx(xv)
        parts.append(
            f'<line x1="{_num(px)}" y1="{_num(_BOTTOM)}" x2="{_num(px)}" '
            f'y2="{_num(_BOTTOM + 4)}" stroke="#888" stroke-width="1"/>'
        )
        parts.append(f'<text x="{_num(px - 8)}" y="{_num(_BOTTOM + 16)}">{xv:g}</text>')


def _legend(parts, labels, colors):
    y = _TOP + 14.0
    for label, color in zip(labels, colors):
        parts.append(
            f'<line x1="{_num(_RIGHT - 150)}" y1="{_num(y - 4)}" x2="{_num(_RIGHT - 120)}" '
            f'y2="{_num(y - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_num(_RIGHT - 114)}" y="{_num(y)}">{label}</text>')
        y += 16.0


def line_chart(xs, series, labels, colors, title) -> str:
    """Polyline chart of one or more y-series over a shared x in [0, 1]; a
    padded y range that is not positive and finite raises ValueError."""
    ys = np.asarray(series, dtype=float)
    lo, hi = float(ys.min()), float(ys.max())
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    # a constant beyond about 2**53 stays 0 wide; a range beyond the float maximum is inf
    if not 0.0 < hi - lo < np.inf:
        raise ValueError(f"cannot scale the y range [{float(ys.min())!r}, {float(ys.max())!r}]")

    def fy(y):
        # the same IEEE operations, in the same order, for a float or an array
        return _BOTTOM - (y - lo) / (hi - lo) * (_BOTTOM - _TOP)

    parts = [_HEADER]
    _frame(parts, title)
    parts.append(f'<text x="4" y="{_num(_TOP + 10)}">{hi:.3g}</text>')
    parts.append(f'<text x="4" y="{_num(_BOTTOM)}">{lo:.3g}</text>')
    if lo < 0.0 < hi:
        py = fy(0.0)
        parts.append(
            f'<line x1="{_num(_LEFT)}" y1="{_num(py)}" x2="{_num(_RIGHT)}" y2="{_num(py)}" '
            f'stroke="#ccc" stroke-width="1"/>'
        )
    px = _fx(np.asarray(xs, dtype=float)).tolist()
    points = ("%.2f,%%.2f " * len(px) % tuple(px))[:-1]
    for py, color in zip(fy(ys).tolist(), colors):
        parts.append(
            f'<polyline points="{points % tuple(py)}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    _legend(parts, labels, colors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def node_chart(families, labels, colors, title, guide_x=None) -> str:
    """Marker rows, one per node family, positions in [0, 1]; optional guide line."""
    parts = [_HEADER]
    _frame(parts, title)
    if guide_x is not None:
        px = _fx(guide_x)
        parts.append(
            f'<line x1="{_num(px)}" y1="{_num(_TOP)}" x2="{_num(px)}" y2="{_num(_BOTTOM)}" '
            f'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        parts.append(f'<text x="{_num(px + 4)}" y="{_num(_TOP + 12)}">m={guide_x:g}</text>')
    n_fam = len(families)
    for i, (nodes, color) in enumerate(zip(families, colors)):
        frac = (i + 1) / (n_fam + 1)
        py = _BOTTOM - frac * (_BOTTOM - _TOP)
        parts.append(
            f'<line x1="{_num(_LEFT)}" y1="{_num(py)}" x2="{_num(_RIGHT)}" y2="{_num(py)}" '
            f'stroke="#eee" stroke-width="1"/>'
        )
        circle = f'<circle cx="%.2f" cy="{_num(py)}" r="3" fill="{color}" fill-opacity="0.7"/>'
        parts += map(circle.__mod__, _fx(np.asarray(nodes, dtype=float)).tolist())
    _legend(parts, labels, colors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
