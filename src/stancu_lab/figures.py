"""Figure presets f1..f10 and their CSV/SVG reproduction.

Two figure kinds exist. Curve figures sample f, the plain operator and one
or more shifted operators over a uniform grid (CSV columns
``x,f,bernstein,stancu[,stancu2,stancu3]``). Node figures list the node
families and their distances to m = alpha/beta; single-pair node figures
use the ``nodes`` subcommand schema, the multi-pair figure f9 prefixes it
with the pair columns (``alpha,beta,k,...``), one row block per pair.

The SVG and the CSV of a figure both read the same float arrays, built once,
never a second computation. Each CSV cell equals the ``repr`` of its float
(``csv_rows``): the shortest decimal that reads back to it, so the CSV and
the SVG cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import orjson

from . import svg
from .nodes import NODE_HEADER, node_table
from .operators import FunctionSpec, StancuParams, evaluate, uniform_grid

__all__ = ["FIGURES", "FigureJob", "build_figure"]


@dataclass(frozen=True)
class FigureJob:
    figure_id: str
    kind: str  # "curve" | "nodes"
    n: int
    pairs: tuple[tuple[float, float], ...]
    grid_size: int = 1001


_FUNCTION = "sin15"  # the function every curve figure samples
_FIG9_PAIRS = ((4.7, 10.0), (47.0, 100.0), (470.0, 1000.0))

FIGURES: dict[str, FigureJob] = {
    "f1": FigureJob("f1", "curve", 50, ((20.0, 30.0),)),
    "f2": FigureJob("f2", "curve", 250, ((20.0, 30.0),)),
    # f3-f5 default to the captioned degree 25; pass --n 100 for the
    # in-text variant of the same three figures.
    "f3": FigureJob("f3", "nodes", 25, ((17.0, 100.0),)),
    "f4": FigureJob("f4", "nodes", 25, ((47.0, 100.0),)),
    "f5": FigureJob("f5", "nodes", 25, ((77.0, 100.0),)),
    "f6": FigureJob("f6", "curve", 100, ((17.0, 100.0),)),
    "f7": FigureJob("f7", "curve", 100, ((47.0, 100.0),)),
    "f8": FigureJob("f8", "curve", 100, ((77.0, 100.0),)),
    "f9": FigureJob("f9", "nodes", 100, _FIG9_PAIRS),
    "f10": FigureJob("f10", "curve", 100, _FIG9_PAIRS),
}

_CURVE_COLORS = ["red", "blue", "magenta", "black", "green"]
_NODE_COLORS = ["blue", "red", "magenta", "black"]


def csv_rows(cols) -> str:
    """CSV text of equal-length float columns, led by at most one int column
    (``k``, ``n``, ``level``: ``str(int)``), one line per row. One ``orjson.dumps``
    writes the float64 table in Ryu's shortest round-trip digits, laid out like
    ``repr`` where ``v == 0`` or ``1e-4 <= |v| < 1e16``; rows holding other values
    (``1e-7``, ``0.00001``, ``1e16``; NaN, +-inf as ``null``) are written by ``repr``."""
    if not cols or not len(cols[0]):
        return ""
    lead, k = int(not isinstance(cols[0][0], float)), len(cols)
    table = np.zeros((len(cols[0]), k))  # an int column keeps 0.0 as a placeholder
    for j in range(lead, k):
        table[:, j] = cols[j]
    buf = bytearray(orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    buf[0], buf[-1] = ord(","), ord("\n")  # "[" now leads row 0 as a comma leads each later row
    b = np.frombuffer(buf, np.uint8)
    starts = (b == ord(",")).nonzero()[0][::k]
    if lead:  # each placeholder "0.0" becomes "%.d", which bytes % fills with str(int)
        b[starts + 1], b[starts + 3] = ord("%"), ord("d")
    b[starts] = ord("\n")
    a = np.abs(table)
    odd = (((a < 1e-4) != (a < 1e16)) == (a == 0.0)).nonzero()[0]  # neither 0 nor in range
    text = buf[1:]
    if len(odd):
        lines = text.split(b"\n")
        for i in set(odd.tolist()):
            lines[i] = ("%.d," * lead + ",".join(map(repr, table[i, lead:].tolist()))).encode()
        text = b"\n".join(lines)
    return (text % tuple(cols[0]) if lead else text).decode()


def with_overrides(job: FigureJob, n=None, grid_size=None, alpha=None, beta=None) -> FigureJob:
    if n is not None:
        job = replace(job, n=int(n))
    if grid_size is not None:
        if job.kind == "nodes":
            raise ValueError(f"{job.figure_id} is a node figure; --grid does not apply")
        job = replace(job, grid_size=int(grid_size))
    if alpha is not None or beta is not None:
        if len(job.pairs) != 1:
            raise ValueError(f"{job.figure_id} has fixed parameter pairs; only --n/--grid apply")
        a, b = job.pairs[0]
        a = a if alpha is None else float(alpha)
        b = b if beta is None else float(beta)
        job = replace(job, pairs=((a, b),))
    return job


def curve_table(f: FunctionSpec, ps, xs: np.ndarray) -> list[np.ndarray]:
    """Columns x, f(x) and one per operator in ``ps``, as float arrays."""
    return [xs, np.asarray(f(xs), dtype=float), *evaluate(f, ps, xs).T]


def _node_csv_rows(table: tuple) -> str:
    rows = csv_rows([range(len(table[0])), *table])
    # beta = 0: the ratio alpha/beta is undefined, the distance cells stay empty
    return rows if len(table) > 3 else rows.replace("\n", ",,\n")


def node_rows(p: StancuParams) -> str:
    """CSV rows of the nodes schema: k,bernstein_node,stancu_node,gap,dists to m."""
    return _node_csv_rows(node_table(p))


def _nodes_csv(job: FigureJob, blocks: list) -> str:
    if len(job.pairs) == 1:
        return f"{NODE_HEADER}\n{_node_csv_rows(blocks[0])}"
    text = f"alpha,beta,{NODE_HEADER}\n"
    for (a, b), table in zip(job.pairs, blocks):
        prefix = f"{float(a)!r},{float(b)!r},"
        text += prefix + _node_csv_rows(table)[:-1].replace("\n", "\n" + prefix) + "\n"
    return text


def _curve_csv(job: FigureJob, cols: list[np.ndarray]) -> str:
    more = "".join(f",stancu{i}" for i in range(2, len(job.pairs) + 1))
    return f"x,f,bernstein,stancu{more}\n{csv_rows(cols)}"


def _curve_svg(job: FigureJob, cols: list[np.ndarray]) -> str:
    labels = ["f", "bernstein"] + [f"stancu a={a:g} b={b:g}" for a, b in job.pairs]
    series = cols[1:]
    title = f"{job.figure_id}: {_FUNCTION}, n={job.n}"
    return svg.line_chart(cols[0], series, labels, _CURVE_COLORS[: len(series)], title)


def _nodes_svg(job: FigureJob, blocks: list) -> str:
    # the plain family is the same in every block; it is drawn once
    families = [blocks[0][0]] + [table[1] for table in blocks]
    labels = ["bernstein"] + [f"stancu a={a:g} b={b:g}" for a, b in job.pairs]
    title = f"{job.figure_id}: nodes, n={job.n}"
    # every pair of a multi-pair figure shares the ratio m = a/b
    a, b = job.pairs[0]
    guide = a / b if b > 0.0 else None
    return svg.node_chart(families, labels, _NODE_COLORS[: len(families)], title, guide_x=guide)


def build_figure(job: FigureJob) -> tuple[str, str]:
    """Return (csv_text, svg_text) for a figure job."""
    if job.kind == "curve":
        ps = (StancuParams(job.n),) + tuple(StancuParams(job.n, a, b) for a, b in job.pairs)
        cols = curve_table(FunctionSpec.builtin(_FUNCTION), ps, uniform_grid(job.grid_size))
        return _curve_csv(job, cols), _curve_svg(job, cols)
    blocks = [node_table(StancuParams(job.n, a, b)) for a, b in job.pairs]
    return _nodes_csv(job, blocks), _nodes_svg(job, blocks)
