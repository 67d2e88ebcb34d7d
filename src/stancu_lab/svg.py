"""Tiny self-contained SVG 1.1 writer for the figure command.

No plotting dependency: curves become polylines, node families become
marker rows. Fixed 960x360 viewBox, wide aspect. All coordinates are
formatted with two decimals so identical inputs give identical bytes.
The chart arithmetic runs on arrays, with the same IEEE operations in the
same order as on one float. The frame (box, ticks, tick labels) is one
constant; only its title varies.

Every polyline point and marker ``cx`` goes through one formatter,
``_coords``, which gives the bytes of ``'%.2f'`` for a whole array at
once. ``'%.2f'`` rounds the exact binary value v to hundredths, half to
even. ``_coords`` takes t = fl(100 v) and k = rint(t). In its domain
[0, 9999.995), t < 2**20, so |t - 100 v| <= 2**-33, and t - k is exact
(Sterbenz). Where |t - k| < 1/2 - 2**-20, t is more than 2**-20 from every
half-integer, 100 v is on the same side of each, and k is the correctly
rounded hundredths. The few entries inside that band, such as exact ties
like 56.125, are decided by ``'%.2f'`` of the entry itself. The digits
then come from two tables of little-endian uint32 words, built at first
use: the integer parts 0..9999, right-aligned after zero pad bytes, and
``.00``..``.99`` with a free fourth byte for the separator. One buffer
of two words per value, with its zero bytes dropped, decodes to the text.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 960
HEIGHT = 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 56.0, 930.0, 42.0, 318.0
# fl(100 v) lies within 2**-33 of 100 v; the band is far wider, and still rarely hit
_TIE_BAND = 2.0**-20


def _fx(x: float) -> float:
    return _LEFT + x * (_RIGHT - _LEFT)


def _num(v: float) -> str:
    return f"{v:.2f}"


# the title goes in at its %s; nothing else in the frame holds a %
_FRAME = "\n".join([
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">',
    "<style>text{font-family:sans-serif;font-size:12px;}"
    ".t{font-size:13px;font-weight:bold;}</style>",
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    f'<rect x="{_num(_LEFT)}" y="{_num(_TOP)}" width="{_num(_RIGHT - _LEFT)}" '
    f'height="{_num(_BOTTOM - _TOP)}" fill="none" stroke="#888" stroke-width="1"/>',
    f'<text class="t" x="{_num(_LEFT)}" y="20">%s</text>',
    *(
        f'<line x1="{_num(_fx(xv))}" y1="{_num(_BOTTOM)}" x2="{_num(_fx(xv))}" '
        f'y2="{_num(_BOTTOM + 4)}" stroke="#888" stroke-width="1"/>\n'
        f'<text x="{_num(_fx(xv) - 8)}" y="{_num(_BOTTOM + 16)}">{xv:g}</text>'
        for xv in (0.0, 0.25, 0.5, 0.75, 1.0)
    ),
])


@functools.cache
def _digits() -> tuple[np.ndarray, np.ndarray]:
    """Read-only little-endian uint32 words of ASCII digits: 0..9999,
    right-aligned after zero pad bytes, and '.00'..'.99' with a zero fourth byte."""
    i = np.arange(10_000)
    ints = np.zeros((10_000, 4), np.uint8)
    for col, p in enumerate((1000, 100, 10)):
        ints[:, col] = np.where(i >= p, 48 + i // p % 10, 0)
    ints[:, 3] = 48 + i % 10
    fracs = b"".join(b".%02d\0" % j for j in range(100))
    return np.frombuffer(ints.tobytes(), "<u4"), np.frombuffer(fracs, "<u4")


def _coords(v: np.ndarray, seps: str) -> str:
    """``'%.2f'`` of every value of the float array ``v``, in C order, each
    followed by its own character of ``seps`` (one per value), as one str
    without the last separator.

    A value outside [0, 9999.995), NaN and -0.0 (``'-0.00'``) included,
    raises ValueError.
    """
    v = v.ravel()
    if np.signbit(v).any() or not (v < 9999.995).all():
        raise ValueError("SVG coordinates must lie in [0, 9999.995) and not be -0.0")
    t = v * 100.0
    k = np.rint(t)
    # within the band of a half-hundredth, '%.2f' of the value itself decides
    for i in np.flatnonzero(np.abs(t - k) >= 0.5 - _TIE_BAND).tolist():
        k[i] = int(("%.2f" % v[i]).replace(".", ""))
    k = k.astype(np.int32)
    whole = k // 100
    ints, fracs = _digits()
    words = np.empty((v.size, 2), "<u4")
    words[:, 0] = ints[whole]
    sep_words = np.frombuffer(seps.encode(), np.uint8).astype("<u4") << 24
    words[:, 1] = fracs[k - 100 * whole] | sep_words
    return words.tobytes().translate(None, b"\0").decode()[:-1]


def _positions(xs) -> np.ndarray:
    """``xs`` as a float array; a position outside [0, 1], NaN included, raises ValueError."""
    xs = np.asarray(xs, dtype=float)
    if not ((xs >= 0.0) & (xs <= 1.0)).all():
        raise ValueError("chart positions must lie in [0, 1]")
    return xs


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
    """Polyline chart of one or more y-series over a shared x in [0, 1]; an x
    outside [0, 1] or a padded y range that is not positive and finite raises
    ValueError."""
    px = _fx(_positions(xs))
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

    parts = [_FRAME % title]
    parts.append(f'<text x="4" y="{_num(_TOP + 10)}">{hi:.3g}</text>')
    parts.append(f'<text x="4" y="{_num(_BOTTOM)}">{lo:.3g}</text>')
    if lo < 0.0 < hi:
        py = fy(0.0)
        parts.append(
            f'<line x1="{_num(_LEFT)}" y1="{_num(py)}" x2="{_num(_RIGHT)}" y2="{_num(py)}" '
            f'stroke="#ccc" stroke-width="1"/>'
        )
    # (series, point, x|y); a polyline ends in a newline, so one call writes them all
    pts = np.empty(ys.shape + (2,))
    pts[..., 0] = px
    pts[..., 1] = fy(ys)
    polylines = _coords(pts, (", " * (px.size - 1) + ",\n") * len(ys)).split("\n")
    for points, color in zip(polylines, colors):
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    _legend(parts, labels, colors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def node_chart(families, labels, colors, title, guide_x=None) -> str:
    """Marker rows, one per node family, positions in [0, 1]; optional guide
    line. A position outside [0, 1] raises ValueError."""
    families = [_positions(nodes) for nodes in families]
    # one formatter call for every marker: a newline ends a marker, a tab a family
    seps = "".join("\n" * (nodes.size - 1) + "\t" for nodes in families if nodes.size)
    rows = iter(_coords(_fx(np.concatenate([[], *families])), seps).split("\t"))
    parts = [_FRAME % title]
    if guide_x is not None:
        px = _fx(float(_positions(guide_x)))
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
        if nodes.size:
            tail = f'" cy="{_num(py)}" r="3" fill="{color}" fill-opacity="0.7"/>'
            parts.append('<circle cx="' + next(rows).replace("\n", tail + '\n<circle cx="') + tail)
    _legend(parts, labels, colors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
