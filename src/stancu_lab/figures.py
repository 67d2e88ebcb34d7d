"""Figure presets f1..f10 and their CSV/SVG reproduction.

Two figure kinds exist. Curve figures sample f, the plain operator and one
or more shifted operators over a uniform grid (CSV columns
``x,f,bernstein,stancu[,stancu2,stancu3]``). Node figures list the node
families and their distances to m = alpha/beta; single-pair node figures
use the ``nodes`` subcommand schema, the multi-pair figure f9 prefixes it
with the pair columns (``alpha,beta,k,...``), one row block per pair.

The SVG for a figure is rendered from the emitted CSV text, never from a
second computation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import svg
from .operators import FunctionSpec, StancuParams, apply_operator_curve

__all__ = ["FIGURES", "FigureJob", "build_figure"]


@dataclass(frozen=True)
class FigureJob:
    figure_id: str
    kind: str  # "curve" | "nodes"
    function: str
    n: int
    pairs: tuple[tuple[float, float], ...]
    grid_size: int = 1001
    ratio_m: float | None = None


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
    "f9": FigureJob("f9", "nodes", "sin15", 100, _FIG9_PAIRS, ratio_m=0.47),
    "f10": FigureJob("f10", "curve", "sin15", 100, _FIG9_PAIRS, ratio_m=0.47),
}

_CURVE_COLORS = ["red", "blue", "magenta", "black", "green"]
_NODE_COLORS = ["blue", "red", "magenta", "black"]


def fmt(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


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


def _curve_csv(job: FigureJob) -> str:
    f = FunctionSpec.builtin(job.function)
    grid = np.linspace(0.0, 1.0, job.grid_size)
    cols = [np.asarray(f(grid), dtype=float)]
    header = ["x", "f", "bernstein"]
    cols.append(apply_operator_curve(f, StancuParams(job.n, 0.0, 0.0), job.grid_size).values)
    for i, (a, b) in enumerate(job.pairs):
        cols.append(apply_operator_curve(f, StancuParams(job.n, a, b), job.grid_size).values)
        header.append("stancu" if i == 0 else f"stancu{i + 1}")
    lines = [",".join(header)]
    for j, x in enumerate(grid):
        lines.append(",".join([fmt(x)] + [fmt(c[j]) for c in cols]))
    return "\n".join(lines) + "\n"


def node_rows(p: StancuParams) -> list[list[str]]:
    """Rows of the nodes schema: k,bernstein_node,stancu_node,gap,dists to m.

    The distance columns are empty when beta = 0 (the ratio alpha/beta is
    undefined there).
    """
    plain = StancuParams(p.n).node_values()
    shifted = p.node_values()
    gap = shifted - plain
    rows = []
    has_m = p.beta > 0.0
    m = p.alpha / p.beta if has_m else None
    for k in range(p.n + 1):
        row = [str(k), fmt(plain[k]), fmt(shifted[k]), fmt(gap[k])]
        if has_m:
            row += [fmt(abs(plain[k] - m)), fmt(abs(shifted[k] - m))]
        else:
            row += ["", ""]
        rows.append(row)
    return rows


NODE_HEADER = "k,bernstein_node,stancu_node,gap,dist_bern_to_m,dist_stancu_to_m"


def _nodes_csv(job: FigureJob) -> str:
    lines = []
    if len(job.pairs) == 1:
        lines.append(NODE_HEADER)
        a, b = job.pairs[0]
        for row in node_rows(StancuParams(job.n, a, b)):
            lines.append(",".join(row))
    else:
        lines.append("alpha,beta," + NODE_HEADER)
        for a, b in job.pairs:
            for row in node_rows(StancuParams(job.n, a, b)):
                lines.append(",".join([fmt(a), fmt(b)] + row))
    return "\n".join(lines) + "\n"


def _svg_from_curve_csv(job: FigureJob, csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    data = [[float(v) for v in line.split(",")] for line in lines[1:]]
    xs = [row[0] for row in data]
    series = [[row[i] for row in data] for i in range(1, len(header))]
    labels = [header[1], header[2]]
    for i, (a, b) in enumerate(job.pairs):
        labels.append(f"stancu a={a:g} b={b:g}")
    title = f"{job.figure_id}: {job.function}, n={job.n}"
    return svg.line_chart(xs, series, labels, _CURVE_COLORS[: len(series)], title)


def _svg_from_nodes_csv(job: FigureJob, csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    offset = 0 if len(job.pairs) == 1 else 2
    families = []
    labels = []
    rows = [line.split(",") for line in lines[1:]]
    # plain family is identical across blocks; take it from the first
    block = len(rows) // len(job.pairs)
    families.append([float(r[offset + 1]) for r in rows[:block]])
    labels.append("bernstein")
    for i, (a, b) in enumerate(job.pairs):
        chunk = rows[i * block : (i + 1) * block]
        families.append([float(r[offset + 2]) for r in chunk])
        labels.append(f"stancu a={a:g} b={b:g}")
    title = f"{job.figure_id}: nodes, n={job.n}"
    guide = job.ratio_m
    if guide is None and len(job.pairs) == 1 and job.pairs[0][1] > 0.0:
        guide = job.pairs[0][0] / job.pairs[0][1]
    return svg.node_chart(families, labels, _NODE_COLORS[: len(families)], title, guide_x=guide)


def build_figure(job: FigureJob) -> tuple[str, str]:
    """Return (csv_text, svg_text) for a figure job."""
    if job.kind == "curve":
        csv_text = _curve_csv(job)
        return csv_text, _svg_from_curve_csv(job, csv_text)
    csv_text = _nodes_csv(job)
    return csv_text, _svg_from_nodes_csv(job, csv_text)
