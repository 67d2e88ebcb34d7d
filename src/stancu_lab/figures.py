"""Figure presets f1..f10 and their CSV/SVG reproduction.

Two figure kinds exist. Curve figures sample f, the plain operator and one
or more shifted operators over a uniform grid (CSV columns
``x,f,bernstein,stancu[,stancu2,stancu3]``). Node figures list the node
families and their distances to m = alpha/beta; single-pair node figures
use the ``nodes`` subcommand schema, the multi-pair figure f9 prefixes it
with the pair columns (``alpha,beta,k,...``), one row block per pair.

The SVG for a figure is drawn from the same float values the CSV holds,
never from a second computation. Columns are built once as float arrays;
the SVG reads the arrays, and the CSV their ``tolist()`` floats. Each CSV
cell, written by a shortest round-trip float writer (Ryu), equals their
``repr`` byte for byte: the shortest decimal that reads back to the same
float, so the CSV and the SVG cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import orjson

from . import svg
from .nodes import node_table
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


def _repr_cells(row: str) -> str:
    return ",".join(repr(float(c)) if "e" in c or "0.0000" in c else c for c in row.split(","))


def csv_rows(cols) -> list[str]:
    """CSV rows of equal-length columns of Python floats (or ints).

    Each cell equals ``repr`` of its value (``fmt`` for a float); build the
    columns with ``ndarray.tolist()``. One ``orjson.dumps`` writes the table in
    Ryu's shortest round-trip digits; a cell laid out unlike ``repr`` (``1e-7``,
    ``1e16``, ``0.00001``) reads back to its float, so ``repr(float(c))`` is exact.
    """
    rows = list(zip(*cols))
    text = orjson.dumps(rows).decode()
    if "null" in text:  # orjson writes NaN and +-inf as null
        return [",".join(map(repr, row)) for row in rows]
    lines = text[2:-2].split("],[") if rows else []
    return [_repr_cells(r) if "e" in r or "0.0000" in r else r for r in lines]


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


def _node_table(p: StancuParams) -> tuple[np.ndarray, ...]:
    """Columns bernstein_node, stancu_node, gap and, when beta > 0, the
    distances of both families to m = alpha/beta."""
    return node_table(p, p.alpha / p.beta if p.beta > 0.0 else None)


def _node_csv_rows(table: tuple) -> list[str]:
    rows = csv_rows([range(len(table[0])), *(c.tolist() for c in table)])
    # beta = 0: the ratio alpha/beta is undefined, the distance cells stay empty
    return rows if len(table) > 3 else [row + ",," for row in rows]


def node_rows(p: StancuParams) -> list[str]:
    """CSV rows of the nodes schema: k,bernstein_node,stancu_node,gap,dists to m."""
    return _node_csv_rows(_node_table(p))


NODE_HEADER = "k,bernstein_node,stancu_node,gap,dist_bern_to_m,dist_stancu_to_m"


def _nodes_csv(job: FigureJob, blocks: list) -> str:
    if len(job.pairs) == 1:
        lines = [NODE_HEADER] + _node_csv_rows(blocks[0])
    else:
        lines = ["alpha,beta," + NODE_HEADER]
        for (a, b), table in zip(job.pairs, blocks):
            prefix = f"{fmt(a)},{fmt(b)},"
            lines += [prefix + row for row in _node_csv_rows(table)]
    return "\n".join(lines) + "\n"


def _curve_csv(job: FigureJob, cols: list[np.ndarray]) -> str:
    """Header x,f,bernstein,stancu[,stancu2,stancu3] and the rows of ``cols``."""
    more = "".join(f",stancu{i}" for i in range(2, len(job.pairs) + 1))
    rows = csv_rows([c.tolist() for c in cols])
    return "\n".join([f"x,f,bernstein,stancu{more}"] + rows) + "\n"


def _curve_svg(job: FigureJob, cols: list[np.ndarray]) -> str:
    labels = ["f", "bernstein"] + [f"stancu a={a:g} b={b:g}" for a, b in job.pairs]
    series = cols[1:]
    title = f"{job.figure_id}: {job.function}, n={job.n}"
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
        cols = curve_table(FunctionSpec.builtin(job.function), ps, uniform_grid(job.grid_size))
        return _curve_csv(job, cols), _curve_svg(job, cols)
    blocks = [_node_table(StancuParams(job.n, a, b)) for a, b in job.pairs]
    return _nodes_csv(job, blocks), _nodes_svg(job, blocks)
