"""Figure presets f1..f10 and their CSV/SVG reproduction.

Two figure kinds exist. Curve figures sample f, the plain operator and one
or more shifted operators over a uniform grid (CSV columns
``x,f,bernstein,stancu[,stancu2,stancu3]``). Node figures list the node
families and their distances to m = alpha/beta; single-pair node figures
use the ``nodes`` subcommand schema, the multi-pair figure f9 prefixes it
with the pair columns (``alpha,beta,k,...``), one row block per pair.

The SVG for a figure is drawn from the same float values the CSV holds,
never from a second computation. Columns are built once as Python floats
and each CSV cell is their ``repr``, the shortest decimal that reads back
to the same float, so the CSV and the SVG cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import svg
from .operators import FunctionSpec, StancuParams, evaluate, uniform_grid

__all__ = ["FIGURES", "FigureJob", "build_figure"]


@dataclass(frozen=True)
class FigureJob:
    figure_id: str
    kind: str  # "curve" | "nodes"
    function: str
    n: int
    pairs: tuple[tuple[float, float], ...]
    grid_size: int = 1001


_FIG9_PAIRS = ((4.7, 10.0), (47.0, 100.0), (470.0, 1000.0))

FIGURES: dict[str, FigureJob] = {
    "f1": FigureJob("f1", "curve", "sin15", 50, ((20.0, 30.0),)),
    "f2": FigureJob("f2", "curve", "sin15", 250, ((20.0, 30.0),)),
    # f3-f5 default to the captioned degree 25; pass --n 100 for the
    # in-text variant of the same three figures.
    "f3": FigureJob("f3", "nodes", "sin15", 25, ((17.0, 100.0),)),
    "f4": FigureJob("f4", "nodes", "sin15", 25, ((47.0, 100.0),)),
    "f5": FigureJob("f5", "nodes", "sin15", 25, ((77.0, 100.0),)),
    "f6": FigureJob("f6", "curve", "sin15", 100, ((17.0, 100.0),)),
    "f7": FigureJob("f7", "curve", "sin15", 100, ((47.0, 100.0),)),
    "f8": FigureJob("f8", "curve", "sin15", 100, ((77.0, 100.0),)),
    "f9": FigureJob("f9", "nodes", "sin15", 100, _FIG9_PAIRS),
    "f10": FigureJob("f10", "curve", "sin15", 100, _FIG9_PAIRS),
}

_CURVE_COLORS = ["red", "blue", "magenta", "black", "green"]
_NODE_COLORS = ["blue", "red", "magenta", "black"]


def fmt(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def csv_rows(cols) -> list[str]:
    """CSV rows of equal-length columns of Python floats (or ints).

    Each cell is ``repr`` of its value, which is what ``fmt`` gives for a
    float; build the columns with ``ndarray.tolist()``.
    """
    return list(map(",".join, zip(*[map(repr, c) for c in cols])))


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


def _curve_columns(job: FigureJob) -> tuple[list[str], list[list[float]]]:
    """Header and columns x, f, bernstein, stancu[, stancu2, stancu3]."""
    f = FunctionSpec.builtin(job.function)
    grid = uniform_grid(job.grid_size)
    header = ["x", "f", "bernstein"]
    header += ["stancu" if i == 0 else f"stancu{i + 1}" for i in range(len(job.pairs))]
    ps = (StancuParams(job.n),) + tuple(StancuParams(job.n, a, b) for a, b in job.pairs)
    cols = [grid, np.asarray(f(grid), dtype=float), *evaluate(f, ps, grid).T]
    return header, [c.tolist() for c in cols]


def _node_columns(p: StancuParams) -> list:
    """Columns k, bernstein_node, stancu_node, gap and, when beta > 0, the
    distances of both families to m = alpha/beta."""
    plain = StancuParams(p.n).node_values()
    shifted = p.node_values()
    cols = [range(p.n + 1), plain.tolist(), shifted.tolist(), (shifted - plain).tolist()]
    if p.beta > 0.0:
        m = p.alpha / p.beta
        cols += [np.abs(plain - m).tolist(), np.abs(shifted - m).tolist()]
    return cols


def _node_csv_rows(cols: list) -> list[str]:
    rows = csv_rows(cols)
    # beta = 0: the ratio alpha/beta is undefined, the distance cells stay empty
    return rows if len(cols) > 4 else [row + ",," for row in rows]


def node_rows(p: StancuParams) -> list[str]:
    """CSV rows of the nodes schema: k,bernstein_node,stancu_node,gap,dists to m."""
    return _node_csv_rows(_node_columns(p))


NODE_HEADER = "k,bernstein_node,stancu_node,gap,dist_bern_to_m,dist_stancu_to_m"


def _nodes_csv(job: FigureJob, blocks: list) -> str:
    if len(job.pairs) == 1:
        lines = [NODE_HEADER] + _node_csv_rows(blocks[0])
    else:
        lines = ["alpha,beta," + NODE_HEADER]
        for (a, b), cols in zip(job.pairs, blocks):
            prefix = f"{fmt(a)},{fmt(b)},"
            lines += [prefix + row for row in _node_csv_rows(cols)]
    return "\n".join(lines) + "\n"


def _curve_svg(job: FigureJob, header: list[str], cols: list[list[float]]) -> str:
    labels = header[1:3] + [f"stancu a={a:g} b={b:g}" for a, b in job.pairs]
    series = cols[1:]
    title = f"{job.figure_id}: {job.function}, n={job.n}"
    return svg.line_chart(cols[0], series, labels, _CURVE_COLORS[: len(series)], title)


def _nodes_svg(job: FigureJob, blocks: list) -> str:
    # the plain family is the same in every block; it is drawn once
    families = [blocks[0][1]] + [cols[2] for cols in blocks]
    labels = ["bernstein"] + [f"stancu a={a:g} b={b:g}" for a, b in job.pairs]
    title = f"{job.figure_id}: nodes, n={job.n}"
    # every pair of a multi-pair figure shares the ratio m = a/b
    a, b = job.pairs[0]
    guide = a / b if b > 0.0 else None
    return svg.node_chart(families, labels, _NODE_COLORS[: len(families)], title, guide_x=guide)


def build_figure(job: FigureJob) -> tuple[str, str]:
    """Return (csv_text, svg_text) for a figure job."""
    if job.kind == "curve":
        header, cols = _curve_columns(job)
        csv_text = "\n".join([",".join(header)] + csv_rows(cols)) + "\n"
        return csv_text, _curve_svg(job, header, cols)
    blocks = [_node_columns(StancuParams(job.n, a, b)) for a, b in job.pairs]
    return _nodes_csv(job, blocks), _nodes_svg(job, blocks)
