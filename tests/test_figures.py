"""Figure and eval output against the per-value scalar formulas.

Every CSV cell must be ``repr(float(v))`` of the recomputed value, and
every SVG point the scalar chart formula applied to the CSV values. The
expectations are recomputed on the machine that runs the test, so no
hash is pinned: ``np.sin`` may differ in the last bit across CPUs, but
the formatting and the chart arithmetic must not.
"""

import re

import numpy as np
import pytest

from stancu_lab import FunctionSpec, StancuParams, apply_operator_curve, evaluate, svg
from stancu_lab.cli import main
from stancu_lab.figures import FIGURES


def run_figure(capsys, tmp_path, fid):
    assert main(["figure", fid, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return (tmp_path / f"{fid}.csv").read_text(), (tmp_path / f"{fid}.svg").read_text()


def data_rows(csv_text):
    return [line.split(",") for line in csv_text.splitlines()[1:]]


def assert_cells(rows, cols):
    assert len(rows) == len(cols[0])
    for j, row in enumerate(rows):
        assert row == [repr(float(c[j])) for c in cols], f"row {j}"


def scalar_polylines(xs, series):
    """``svg.line_chart``'s points, one value at a time."""
    lo = min(min(ys) for ys in series)
    hi = max(max(ys) for ys in series)
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def fy(y):
        return svg._BOTTOM - (y - lo) / (hi - lo) * (svg._BOTTOM - svg._TOP)

    return [
        " ".join(f"{svg._num(svg._fx(x))},{svg._num(fy(y))}" for x, y in zip(xs, ys))
        for ys in series
    ]


@pytest.mark.parametrize("fid", ["f1", "f2", "f6", "f7", "f8", "f10"])
def test_curve_figure_cells_and_points(capsys, tmp_path, fid):
    job = FIGURES[fid]
    csv_text, svg_text = run_figure(capsys, tmp_path, fid)
    f = FunctionSpec.builtin(job.function)
    grid = np.linspace(0.0, 1.0, job.grid_size)
    cols = [grid, f(grid)] + [
        apply_operator_curve(f, StancuParams(job.n, a, b), job.grid_size).values
        for a, b in ((0.0, 0.0),) + job.pairs
    ]
    rows = data_rows(csv_text)
    assert_cells(rows, cols)
    values = [[float(v) for v in col] for col in zip(*rows)]
    points = re.findall(r'<polyline points="([^"]*)"', svg_text)
    assert points == scalar_polylines(values[0], values[1:])


@pytest.mark.parametrize("fid", ["f3", "f9"])
def test_node_figure_cells_and_markers(capsys, tmp_path, fid):
    job = FIGURES[fid]
    csv_text, svg_text = run_figure(capsys, tmp_path, fid)
    plain = StancuParams(job.n).node_values()
    families = [plain] + [StancuParams(job.n, a, b).node_values() for a, b in job.pairs]
    offset = 0 if len(job.pairs) == 1 else 2
    rows = data_rows(csv_text)
    block = job.n + 1
    for i, shifted in enumerate(families[1:]):
        a, b = job.pairs[i]
        m = a / b
        chunk = rows[i * block : (i + 1) * block]
        assert [row[offset] for row in chunk] == [str(k) for k in range(block)]
        assert_cells([row[offset + 1 :] for row in chunk],
                     [plain, shifted, shifted - plain, np.abs(plain - m), np.abs(shifted - m)])
    cx = re.findall(r'<circle cx="([^"]*)"', svg_text)
    assert cx == [svg._num(svg._fx(x)) for fam in families for x in fam.tolist()]


@pytest.mark.parametrize("grid", [11, 4097])  # 4097: eval formats blocks of 4096 points
def test_eval_grid_cells(capsys, grid):
    p = StancuParams(250, 20.0, 30.0)
    assert main(["eval", "--n", "250", "--alpha", "20", "--beta", "30", "--grid", str(grid)]) == 0
    out = capsys.readouterr().out
    f = FunctionSpec.builtin("sin15")
    xs = np.linspace(0.0, 1.0, grid)
    cols = [xs, f(xs), evaluate(f, StancuParams(250), xs), evaluate(f, p, xs)]
    assert_cells(data_rows(out), cols)
